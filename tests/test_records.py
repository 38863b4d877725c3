"""Record semantics of every public result and value class: construction,
defaults, checks, equality within one class, hashing, repr and
immutability, as `dataclass(frozen=True)` defines them."""

import dataclasses
import inspect
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings

import cantorseries
from cantorseries import (
    BlockDescription,
    CertificateCheck,
    CofiniteExpansion,
    Constant,
    DigitWord,
    DomainError,
    DualRepresentationReport,
    Enclosure,
    FixedPointCandidate,
    FixedPointReport,
    ListBacked,
    Periodic,
    RationalityCertificate,
    RegroupBlock,
    Regrouping,
    Rule,
    ShiftConstantReport,
    ShiftState,
    TailMin,
    bases,
    block_description,
    certify_rational,
    cofinite_value,
    convert_dual,
    digit_stream,
    dual_representation,
    enclosure,
    evaluate_finite,
    expand,
    fold_cofinite,
    local_value,
    reconstruct,
    regroup,
    shift_step,
    validate_digits,
)
from helpers import dual_cases, proper_fractions, qseqs

# (class, field names in order, one value per field)
RECORDS = [
    (ListBacked, ("prefix", "period"), ((5,), (2, 3))),
    (Rule, ("rule_id",), ("odd",)),
    (TailMin, ("after", "value", "decidable"), (0, 2, True)),
    (DigitWord, ("digits", "start"), ((1, 0, 2), 3)),
    (ShiftState, ("step", "value"), (2, Fraction(1, 3))),
    (Enclosure, ("low", "high"), (Fraction(1, 3), Fraction(1, 2))),
    (RationalityCertificate, ("n", "m", "sigma_value", "block_product"), (0, 1, Fraction(1, 9), 10)),
    (CertificateCheck, ("ok", "reason", "recurrence_ok", "divisibility_ok"), (False, "sigma_mismatch", True, True)),
    (BlockDescription, ("preperiod", "block"), (DigitWord((1,)), DigitWord((3,), 2))),
    (CofiniteExpansion, ("head",), (DigitWord((4,)),)),
    (
        DualRepresentationReport,
        ("decision", "n0", "bound", "finite_form", "cofinite_form"),
        ("yes", 1, None, DigitWord((5,)), CofiniteExpansion(DigitWord((4,)))),
    ),
    (
        ShiftConstantReport,
        ("holds", "after", "constant", "ratio_witnesses", "conclusive"),
        (True, 0, Fraction(1, 3), ((1, 3, 10),), False),
    ),
    (
        FixedPointCandidate,
        ("eps", "value", "member", "failing_position", "endpoint"),
        (1, Fraction(1, 2), True, None, False),
    ),
    (FixedPointReport, ("q", "candidates"), (3, ())),
    (RegroupBlock, ("lam", "mu"), (3, 5)),
    (
        Regrouping,
        ("breakpoints", "blocks", "mu", "lam", "ratio_constant", "proportional"),
        ((2,), (RegroupBlock(3, 5),), 5, 3, True, True),
    ),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


def test_the_table_covers_every_public_class():
    public = {getattr(cantorseries, name) for name in cantorseries.__all__}
    classes = {
        obj for obj in public
        if isinstance(obj, type) and obj.__module__.startswith("cantorseries.") and not issubclass(obj, BaseException)
    }
    assert {cls for cls, _, _ in RECORDS} == classes


@pytest.mark.parametrize("cls,fields,values", RECORDS, ids=IDS)
def test_construction_by_position_and_keyword(cls, fields, values):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    assert by_position == by_keyword
    assert tuple(getattr(by_position, f) for f in fields) == values
    with pytest.raises(TypeError):
        cls(*values, None)


def test_defaults():
    assert DigitWord((1, 2)).start == 1
    assert DigitWord((1, 2)) == DigitWord((1, 2), 1)
    assert DualRepresentationReport("no") == DualRepresentationReport("no", None, None, None, None)
    assert DualRepresentationReport("undecided", bound=7).bound == 7


@pytest.mark.parametrize(
    "bad",
    [
        lambda: ListBacked((1,), (2,)),
        lambda: Rule("even"),
        lambda: DigitWord((1.0,)),
        lambda: BlockDescription(DigitWord((1,), 2), DigitWord((3,), 2)),
        lambda: CofiniteExpansion(DigitWord(())),
        lambda: ShiftState(1.5, Fraction(1, 2)),
        lambda: ShiftState(True, Fraction(1, 2)),
        lambda: ShiftState(-1, Fraction(1, 2)),
        lambda: ShiftState(0, 1.5),
        lambda: ShiftState(0, True),
        lambda: ShiftState(0, Fraction(3, 2)),
    ],
)
def test_post_init_checks_raise_domain_errors(bad):
    with pytest.raises(DomainError):
        bad()


# Every record parameter that a function or record reads fields from, handed
# what it holds or another record instead: (the record class named, call).
NOT_A_RECORD = {
    "validate_digits": ("DigitWord", lambda: validate_digits((1, 0), Periodic((2, 3)))),
    "local_value": ("DigitWord", lambda: local_value((1, 0), Periodic((2, 3)))),
    "evaluate_finite": ("DigitWord", lambda: evaluate_finite((1, 0), Periodic((2, 3)))),
    "enclosure": ("DigitWord", lambda: enclosure((1, 0), Periodic((2, 3)))),
    "reconstruct": ("BlockDescription", lambda: reconstruct(((), (1,)), Periodic((2, 3)))),
    "cofinite_value": ("CofiniteExpansion", lambda: cofinite_value(DigitWord((1,)), Periodic((2, 3)))),
    "BlockDescription": ("DigitWord", lambda: BlockDescription((), (1,))),
    "BlockDescription-block": ("DigitWord", lambda: BlockDescription(DigitWord(()), (1,))),
    "CofiniteExpansion": ("DigitWord", lambda: CofiniteExpansion((1,))),
    "shift_step": ("ShiftState", lambda: shift_step((0, Fraction(1, 2)), 3)),
    "shift_step-record": ("ShiftState", lambda: shift_step(DigitWord((1,)), 3)),
}


@pytest.mark.parametrize("name,call", NOT_A_RECORD.values(), ids=NOT_A_RECORD)
def test_record_parameters_reject_anything_else_with_a_type_error(name, call):
    with pytest.raises(TypeError, match=f"^not a {name}: "):
        call()


def test_shift_state_step_is_a_position():
    with pytest.raises(DomainError, match=r"^shift step must be an integer >= 0, got 1\.5$"):
        ShiftState(1.5, Fraction(1, 2))
    assert ShiftState(0, Fraction(1, 2)).step == 0


def test_shift_state_value_is_checked_as_shift_step_checks_it():
    with pytest.raises(DomainError, match=r"^shift value must be an int or a Fraction, got 1\.5$"):
        ShiftState(0, 1.5)
    with pytest.raises(DomainError, match=r"^shift value must lie in \[0, 1\), got 3/2$"):
        ShiftState(0, Fraction(3, 2))
    assert ShiftState(0, 0).value == 0


# Valid keyword arguments for every public function, and every record
# class with a check (a __post_init__), that has a parameter of record type
# or of int or Rational type.  The records without a check are results the
# package builds, and verify_certificate reports a certificate of any
# fields as invalid_fields, so their fields are left out.
Q23 = Periodic((2, 3))
VALID_CALLS = {
    "BlockDescription": dict(preperiod=DigitWord(()), block=DigitWord((1,))),
    "CofiniteExpansion": dict(head=DigitWord((1,))),
    "Constant": dict(base=10),
    "DigitWord": dict(digits=(1, 0)),
    "ShiftState": dict(step=0, value=Fraction(1, 2)),
    "base_product": dict(Q=Q23, lo=1, hi=3),
    "bases": dict(Q=Q23, count=3),
    "block_description": dict(x=Fraction(1, 3), Q=Q23),
    "certify_rational": dict(x=Fraction(1, 3), Q=Q23),
    "cofinite_value": dict(cof=CofiniteExpansion(DigitWord((0,))), Q=Q23),
    "convert_dual": dict(form=DigitWord((1, 0)), Q=Q23),
    "digit_stream": dict(x=Fraction(1, 3), Q=Q23),
    "dual_representation": dict(x=Fraction(1, 2), Q=Q23),
    "enclosure": dict(word=DigitWord((1, 0)), Q=Q23),
    "evaluate_finite": dict(word=DigitWord((1, 0)), Q=Q23),
    "expand": dict(x=Fraction(1, 3), Q=Q23, count=3),
    "fixed_point_digits": dict(Q=Q23, eps=0),
    "iter_bases": dict(Q=Q23),
    "local_value": dict(word=DigitWord((1, 0)), Q=Q23),
    "q_at": dict(Q=Q23, k=1),
    "reconstruct": dict(desc=BlockDescription(DigitWord(()), DigitWord((1, 0))), Q=Q23),
    "regroup": dict(x=Fraction(1, 3), Q=Q23, breakpoints=(1, 2)),
    "shift_constant_check": dict(x=Fraction(1, 3), Q=Q23),
    "shift_step": dict(state=ShiftState(0, Fraction(1, 2)), q=3),
    "shift_value": dict(x=Fraction(1, 3), Q=Q23, n=2),
    "tail_min": dict(Q=Q23),
    "validate_digits": dict(word=DigitWord((1, 0)), Q=Q23),
    "verify_certificate": dict(x=Fraction(1, 3), Q=Q23, cert=certify_rational(Fraction(1, 3), Q23)),
}
RECORD_NAMES = {name for name in cantorseries.__all__ if hasattr(getattr(cantorseries, name), "__match_args__")}
WRONG_OBJECTS = (object(), Enclosure(Fraction(0), Fraction(1)))
NOT_INTS = (1.0, True, "1")


def typed_parameters(name):
    """(parameter, records, numeric) for each parameter of the public
    callable `name` whose annotation names a record class (records, in
    order) or int, Rational or Fraction (numeric)."""
    for param in inspect.signature(getattr(cantorseries, name)).parameters.values():
        members = param.annotation.split(" | ")
        records = [m for m in members if m in RECORD_NAMES]
        numeric = not {"int", "Rational", "Fraction"}.isdisjoint(members)
        if records or numeric:
            yield param.name, records, numeric


def checked_callables():
    """The public functions, and record classes with a check, that have a
    record, int or Rational parameter."""
    for name in cantorseries.__all__:
        obj = getattr(cantorseries, name)
        if inspect.isfunction(obj) or isinstance(obj, type) and hasattr(obj, "__post_init__"):
            if any(typed_parameters(name)):
                yield name


def call(name, kwargs):
    """The public callable `name` on kwargs, run up to its first item when it
    is a generator, whose checks run only then."""
    out = getattr(cantorseries, name)(**kwargs)
    return next(out) if inspect.isgenerator(out) else out


# (callable, parameter, bad value, records of the parameter, whether it is numeric)
TYPE_CASES = [
    (name, param, bad, records, numeric)
    for name in VALID_CALLS
    for param, records, numeric in typed_parameters(name)
    for bad in (WRONG_OBJECTS if records else ()) + (NOT_INTS if numeric else ())
]


def test_the_type_table_names_every_record_int_and_rational_parameter():
    found = {(name, param) for name in checked_callables() for param, *_ in typed_parameters(name)}
    assert {(name, param) for name, param, *_ in TYPE_CASES} == found


@pytest.mark.parametrize("name", VALID_CALLS)
def test_the_type_table_calls_are_valid(name):
    call(name, VALID_CALLS[name])


@pytest.mark.parametrize(
    "name,param,bad,records,numeric", TYPE_CASES, ids=[f"{n}-{p}-{b!r}" for n, p, b, *_ in TYPE_CASES]
)
def test_every_typed_parameter_rejects_another_type(name, param, bad, records, numeric):
    # A record-typed parameter raises TypeError("not a R: ..."); one that
    # also takes a value, and every int or Rational parameter, checks its
    # argument as a value (DomainError).  verify_certificate is total and
    # reports the field or value instead.
    kwargs = {**VALID_CALLS[name], param: bad}
    if name == "verify_certificate":
        assert call(name, kwargs).reason == ("value_out_of_range" if param == "x" else "invalid_fields")
    elif numeric:
        with pytest.raises(DomainError):
            call(name, kwargs)
    else:
        expected = f"^not a {records[0]}: " if len(records) == 1 else f"^expected {' or '.join(records)}"
        with pytest.raises(TypeError, match=expected):
            call(name, kwargs)


# Every parameter that takes a sequence of ints (Sequence[int] or
# tuple[int, ...]), with valid keyword arguments.  A non-iterable raises
# Python's own TypeError; a float or bool item is checked as a value
# (DomainError), whichever item it is.
SEQUENCE_CALLS = {
    ("ListBacked", "prefix"): dict(prefix=(5,), period=(2, 3)),
    ("ListBacked", "period"): dict(prefix=(5,), period=(2, 3)),
    ("Periodic", "period"): dict(period=(2, 3)),
    ("PrefixPeriodic", "prefix"): dict(prefix=(5,), period=(2, 3)),
    ("PrefixPeriodic", "period"): dict(prefix=(5,), period=(2, 3)),
    ("DigitWord", "digits"): VALID_CALLS["DigitWord"],
    ("fold_cofinite", "digits"): dict(digits=(1, 0), Q=Q23),
    ("regroup", "breakpoints"): VALID_CALLS["regroup"],
}


def test_the_sequence_table_names_every_int_sequence_parameter():
    found = {
        (name, param.name)
        for name in cantorseries.__all__
        if inspect.isfunction(obj := getattr(cantorseries, name))
        or isinstance(obj, type) and hasattr(obj, "__post_init__")
        for param in inspect.signature(obj).parameters.values()
        if not {"Sequence[int]", "tuple[int, ...]"}.isdisjoint(param.annotation.split(" | "))
    }
    assert set(SEQUENCE_CALLS) == found


@pytest.mark.parametrize("name,param", SEQUENCE_CALLS)
def test_every_int_sequence_parameter_rejects_a_non_iterable(name, param):
    call(name, SEQUENCE_CALLS[name, param])
    with pytest.raises(TypeError):
        call(name, {**SEQUENCE_CALLS[name, param], param: 5})


@pytest.mark.parametrize("name,param", SEQUENCE_CALLS)
@pytest.mark.parametrize("item", [2.0, True])
def test_every_int_sequence_parameter_checks_its_items_as_values(name, param, item):
    kwargs = SEQUENCE_CALLS[name, param]
    for at in range(len(kwargs[param])):
        bad = kwargs[param][:at] + (item,) + kwargs[param][at + 1 :]
        with pytest.raises(DomainError):
            call(name, {**kwargs, param: bad})


def test_post_init_normalises_sequences_to_tuples():
    assert ListBacked([5], [2, 3]) == ListBacked((5,), (2, 3))
    assert DigitWord(iter([1, 2])).digits == (1, 2)


def test_equality_and_hash_follow_every_field():
    assert {Periodic((7,)), Constant(7), ListBacked([], [7])} == {Constant(7)}
    assert DigitWord((1,), 2) != DigitWord((1,), 3)


@pytest.mark.parametrize("cls,fields,values", RECORDS, ids=IDS)
def test_hash_is_the_hash_of_the_field_values(cls, fields, values):
    assert hash(cls(*values)) == hash(values)


@pytest.mark.parametrize("cls,fields,values", RECORDS, ids=IDS)
def test_never_equal_to_another_class_with_the_same_fields(cls, fields, values):
    record = cls(*values)
    twin = dataclasses.make_dataclass(cls.__name__, fields, frozen=True)(*values)
    subclass = type(cls.__name__, (cls,), {})(*values)
    for other in (twin, subclass, values):
        assert record != other and other != record
        assert record.__eq__(other) is NotImplemented
    for other_cls, _, other_values in RECORDS:
        if other_cls is not cls:
            assert record != other_cls(*other_values)


@pytest.mark.parametrize("cls,fields,values", RECORDS, ids=IDS)
def test_repr_is_the_dataclass_repr(cls, fields, values):
    twin = dataclasses.make_dataclass(cls.__name__, fields, frozen=True)(*values)
    assert repr(cls(*values)) == repr(twin)


def test_repr_examples():
    assert repr(DigitWord([1, 2])) == "DigitWord(digits=(1, 2), start=1)"
    assert repr(Constant(10)) == "ListBacked(prefix=(), period=(10,))"
    assert repr(DualRepresentationReport("no")) == (
        "DualRepresentationReport(decision='no', n0=None, bound=None, finite_form=None, cofinite_form=None)"
    )


@pytest.mark.parametrize("cls,fields,values", RECORDS, ids=IDS)
def test_records_are_immutable(cls, fields, values):
    record = cls(*values)
    for name in (*fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, f) for f in fields) == values


def words_made_unchecked(x, Q, dual_case):
    """Every DigitWord the library builds unchecked: from its own divmod
    results, or from digits it validated just before."""
    word = expand(x, Q, 12)[0]
    yield word
    yield fold_cofinite(word.digits + tuple(q - 1 for q in bases(Q, 3, 13)), Q).head
    desc = block_description(x, Q)
    yield desc.preperiod
    yield desc.block
    yield regroup(x, Q, (2, 3, 7))[1]
    report = dual_representation(*dual_case)
    if report.decision == "yes":
        yield report.finite_form
        yield report.cofinite_form.head
        yield convert_dual(report.finite_form, dual_case[1]).head
        yield convert_dual(report.cofinite_form, dual_case[1])


@settings(max_examples=50, deadline=None)
@given(proper_fractions(), qseqs())
def test_states_built_unchecked_equal_checked_states(x, Q):
    # expand (both paths), digit_stream and shift_step build their states
    # without the step check
    states = [expand(x, Q, 12)[1], expand(x, Q, 300)[1], shift_step(ShiftState(4, x), 3)[1]]
    states += [state for _, state in itertools.islice(digit_stream(x, Q), 5)]
    for state in states:
        assert type(state.step) is int and state == ShiftState(state.step, state.value)
        assert repr(state) == repr(ShiftState(state.step, state.value))


@settings(max_examples=150, deadline=None)
@given(proper_fractions(), qseqs(), dual_cases())
def test_words_built_unchecked_equal_checked_words(x, Q, dual_case):
    for word in words_made_unchecked(x, Q, dual_case):
        assert type(word.digits) is tuple
        assert word == DigitWord(word.digits, word.start)
        assert repr(word) == repr(DigitWord(word.digits, word.start))

