"""Record semantics of every public result and value class: construction,
defaults, checks, equality within one class, hashing, repr and
immutability, as `dataclass(frozen=True)` defines them."""

import dataclasses
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
    block_description,
    convert_dual,
    dual_representation,
    expand,
    regroup,
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
    ],
)
def test_post_init_checks_raise_domain_errors(bad):
    with pytest.raises(DomainError):
        bad()


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
    """Every DigitWord the library builds from its own divmod results."""
    yield expand(x, Q, 12)[0]
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


@settings(max_examples=150, deadline=None)
@given(proper_fractions(), qseqs(), dual_cases())
def test_words_built_unchecked_equal_checked_words(x, Q, dual_case):
    for word in words_made_unchecked(x, Q, dual_case):
        assert type(word.digits) is tuple
        assert word == DigitWord(word.digits, word.start)
        assert repr(word) == repr(DigitWord(word.digits, word.start))

