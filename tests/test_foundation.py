import inspect
import math
import tracemalloc
from fractions import Fraction

import pytest

import cantorseries
from cantorseries import (
    BlockDescription,
    CofiniteExpansion,
    Constant,
    DigitWord,
    DomainError,
    ParseError,
    Periodic,
    PrefixPeriodic,
    RationalityCertificate,
    Rule,
    bases,
    base_product,
    block_description,
    certify_rational,
    cofinite_value,
    convert_dual,
    digit_stream,
    dual_representation,
    enclosure,
    evaluate_finite,
    expand,
    fixed_point_digits,
    fixed_points,
    fold_cofinite,
    format_qseq,
    iter_bases,
    local_value,
    parse_qseq,
    q_at,
    reconstruct,
    regroup,
    shift_constant_check,
    shift_value,
    tail_min,
    validate_digits,
    verify_certificate,
)
from cantorseries.foundation import _MAX_PRODUCT_BITS, _base_product_mod


def test_q_at_constant():
    assert q_at(Constant(10), 7) == 10


def test_q_at_rule_odd_gives_odd_numbers():
    Q = Rule("odd")
    assert [q_at(Q, k) for k in range(1, 6)] == [3, 5, 7, 9, 11]
    assert q_at(Q, 3) == 7


def test_q_at_periodic_wraps():
    Q = Periodic((2, 3))
    assert [q_at(Q, k) for k in range(1, 7)] == [2, 3, 2, 3, 2, 3]


def test_q_at_prefix_periodic_lists_prefix_then_cycle():
    Q = PrefixPeriodic((5,), (2, 3))
    assert [q_at(Q, k) for k in range(1, 8)] == [5, 2, 3, 2, 3, 2, 3]


def test_q_at_rejects_nonpositive_position():
    with pytest.raises(DomainError):
        q_at(Constant(2), 0)


def test_bases_and_product_helpers():
    Q = Periodic((2, 3))
    assert bases(Q, 5) == (2, 3, 2, 3, 2)
    assert bases(Q, 3, start=2) == (3, 2, 3)
    assert base_product(Q, 1, 4) == 36
    assert base_product(Q, 5, 4) == 1


@pytest.mark.parametrize(
    "bad",
    [
        lambda: Constant(1),
        lambda: Periodic((1, 3)),
        lambda: Periodic(()),
        lambda: PrefixPeriodic((), (2,)),
        lambda: PrefixPeriodic((2,), ()),
        lambda: PrefixPeriodic((2,), (3, 1)),
        lambda: Rule("squares"),
        lambda: Periodic((2.0, 3)),
        lambda: Constant(True),
        lambda: Rule(["odd"]),
    ],
)
def test_constructors_reject_invalid_sequences(bad):
    with pytest.raises(DomainError):
        bad()


def test_one_entry_period_is_the_constant_sequence():
    assert Periodic((7,)) == Constant(7)
    assert hash(Periodic((7,))) == hash(Constant(7))
    assert format_qseq(Periodic((7,))) == "const:7"


@pytest.mark.parametrize(
    "call",
    [
        lambda: bases(Periodic((2, 3)), 2.0),
        lambda: bases(Periodic((2, 3)), True),
        lambda: base_product(Periodic((2, 3)), 1, 2.0),
        lambda: base_product(Periodic((2, 3)), 1, True),
        lambda: tail_min(Periodic((2, 3)), 1.0),
    ],
)
def test_counts_and_positions_must_be_integers(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize(
    "text,expected",
    [
        ("const:10", Constant(10)),
        ("periodic:2,3", Periodic((2, 3))),
        ("prefix:5;2,3", PrefixPeriodic((5,), (2, 3))),
        ("prefix:5,4;2,3", PrefixPeriodic((5, 4), (2, 3))),
        ("rule:odd", Rule("odd")),
        (" periodic: 2 , 3 ", Periodic((2, 3))),
    ],
)
def test_parse_qseq(text, expected):
    assert parse_qseq(text) == expected


@pytest.mark.parametrize(
    "text",
    [
        "periodic:1,3",
        "rule:squares",
        "const:",
        "const:2,3",
        "periodic:",
        "prefix:5",
        "prefix:;2",
        "nonsense",
        "weird:2",
        "periodic:2,x",
        "const:1_0",
        "const:\u0661\u0660",
    ],
)
def test_parse_qseq_rejects(text):
    with pytest.raises(ParseError):
        parse_qseq(text)


@pytest.mark.parametrize(
    "Q",
    [Constant(10), Periodic((2, 3)), PrefixPeriodic((5,), (2, 3)), Rule("odd")],
)
def test_format_parse_round_trip(Q):
    assert parse_qseq(format_qseq(Q)) == Q


def test_tail_min_periodic():
    tm = tail_min(Periodic((3, 5)), 0)
    assert (tm.value, tm.decidable, tm.after) == (3, True, 0)


def test_tail_min_rule_odd_is_next_entry():
    assert tail_min(Rule("odd"), 0).value == 3
    assert tail_min(Rule("odd"), 4).value == 11


def test_tail_min_prefix_periodic_skips_consumed_prefix():
    tm = tail_min(PrefixPeriodic((2,), (7, 9)), 1)
    assert (tm.value, tm.decidable) == (7, True)


def test_tail_min_matches_enumeration():
    # Direct enumeration over one period length beyond the probe point.
    for Q in [Periodic((6, 2, 9)), PrefixPeriodic((4, 11), (5, 3)), Constant(7)]:
        for n0 in range(6):
            got = tail_min(Q, n0).value
            want = min(q_at(Q, k) for k in range(n0 + 1, n0 + 40))
            assert got == want


X, WORD = Fraction(1, 3), DigitWord((1,))
CERT = RationalityCertificate(0, 1, Fraction(1, 3), 10)

# Every public function that takes a base sequence Q, called with the text
# of one in its place and valid other arguments.  Ranges are non-empty, so
# each call would need a base of Q.
NOT_A_SEQUENCE = {
    "base_product": lambda Q: base_product(Q, 1, 3),
    "bases": lambda Q: bases(Q, 3),
    "format_qseq": format_qseq,
    "iter_bases": iter_bases,
    "q_at": lambda Q: q_at(Q, 1),
    "tail_min": tail_min,
    "digit_stream": lambda Q: next(digit_stream(X, Q)),
    "enclosure": lambda Q: enclosure(WORD, Q),
    "evaluate_finite": lambda Q: evaluate_finite(WORD, Q),
    "expand": lambda Q: expand(X, Q, 2),
    "local_value": lambda Q: local_value(WORD, Q),
    "shift_value": lambda Q: shift_value(X, Q, 2),
    "validate_digits": lambda Q: validate_digits(WORD, Q),
    "block_description": lambda Q: block_description(X, Q),
    "certify_rational": lambda Q: certify_rational(X, Q),
    "reconstruct": lambda Q: reconstruct(BlockDescription(DigitWord(()), DigitWord((3,))), Q),
    "verify_certificate-cert": lambda Q: verify_certificate(X, Q, CERT),
    "verify_certificate-None": lambda Q: verify_certificate(X, Q, None),
    "cofinite_value": lambda Q: cofinite_value(CofiniteExpansion(DigitWord((0,))), Q),
    "convert_dual": lambda Q: convert_dual(WORD, Q),
    "dual_representation": lambda Q: dual_representation(Fraction(1, 2), Q),
    "fixed_point_digits": lambda Q: fixed_point_digits(Q, 0),
    "fixed_points": fixed_points,
    "fold_cofinite": lambda Q: fold_cofinite((1,), Q),
    "regroup": lambda Q: regroup(X, Q, (1, 2)),
    "shift_constant_check": lambda Q: shift_constant_check(X, Q, 0, 3),
}


def test_the_table_covers_every_public_function_that_takes_a_sequence():
    takes_q = {
        name for name in cantorseries.__all__
        if inspect.isfunction(f := getattr(cantorseries, name)) and "Q" in inspect.signature(f).parameters
    }
    assert {row.partition("-")[0] for row in NOT_A_SEQUENCE} == takes_q


@pytest.mark.parametrize("call", NOT_A_SEQUENCE.values(), ids=NOT_A_SEQUENCE)
def test_every_entry_point_rejects_what_is_not_a_sequence(call):
    with pytest.raises(TypeError, match="not a QSequence"):
        call("const:10")


def test_tail_min_rejects_negative_start():
    with pytest.raises(DomainError):
        tail_min(Constant(2), -1)


def test_rational_values_reduce_on_construction():
    assert Fraction(10, 20) == Fraction(1, 2)
    assert Fraction(10, 20).denominator == 2


@pytest.mark.parametrize("Q", [Constant(10), Periodic((2, 3)), PrefixPeriodic((5,), (2, 3)), Rule("odd")])
def test_counts_too_large_to_materialise_are_domain_errors(Q):
    # Past sys.maxsize a count cannot be sliced; it must not leak ValueError.
    with pytest.raises(DomainError, match="too large"):
        bases(Q, 10**20)


def test_rule_products_too_long_to_take_are_domain_errors():
    with pytest.raises(DomainError, match="too large"):
        base_product(Rule("odd"), 1, 10**20)
    assert base_product(Constant(10), 10**20, 10**20 + 1) == 100  # closed form, nothing taken


@pytest.mark.parametrize(
    "count",
    [0, 1, 63, 64, 65, 127, 128, 129, 191, 192, 3 * 64 + 1, 5 * 64, 7 * 64 - 1, 10 * 64 + 5, 11 * 64 + 5, 1000, 1031],
)
def test_rule_products_match_one_multiply_per_base(count):
    # both sides of the runs of 64 bases, and run counts (3, 5, 7, 11, 12,
    # 17) that leave an odd first block at one or more levels of the merge
    for start in (1, 7):
        want = math.prod(2 * k + 1 for k in range(start, start + count))
        assert base_product(Rule("odd"), start, start + count - 1) == want


@pytest.mark.parametrize("v", [1, 2, 3, 7, 9, 15, 64, 1000])
def test_rule_products_mod_v_match_the_full_product(v):
    # ranges shorter than v, of exactly v bases, and crossing one or more
    # multiples of v, from starts on both sides of one
    for lo in (1, 2, v, v + 1, 3 * v - 1):
        for count in (0, 1, v - 1, v, v + 1, 2 * v + 3, 5 * v):
            hi = lo + count - 1
            want = math.prod(2 * k + 1 for k in range(lo, hi + 1)) % v
            assert _base_product_mod(Rule("odd"), lo, hi, v) == base_product(Rule("odd"), lo, hi) % v == want


@pytest.mark.parametrize("Q", [Constant(10), Periodic((2, 3)), PrefixPeriodic((5,), (2, 3))])
def test_list_backed_products_too_long_to_build_are_domain_errors(Q):
    # whole ** cycles over 10**20 bases would exhaust memory, not fail fast
    with pytest.raises(DomainError, match="too large"):
        base_product(Q, 1, 10**20)


def test_short_ranges_keep_the_size_bound():
    # three bases of 2**21 + 1 bits: 3 * (2**21 + 1) bits pass the bound
    # before any multiply, and verify_certificate reports the field
    Q = Constant(2**2**21)
    with pytest.raises(DomainError, match=f"exceed {_MAX_PRODUCT_BITS} bits"):
        base_product(Q, 1, 3)
    cert = RationalityCertificate(0, 3, Fraction(1, 3), 1)
    assert verify_certificate(Fraction(1, 3), Q, cert).reason == "invalid_fields"


def test_short_products_mod_v_hold_no_big_product():
    # 32 bases of 2**20 + 1 bits: their product would take 4 MiB
    Q = Constant(2**2**20)
    tracemalloc.start()
    try:
        got = _base_product_mod(Q, 1, 32, 3 << 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == pow(2, 32 << 20, 3 << 10)
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "call",
    [
        lambda Q: bases(Q, -1),
        lambda Q: bases(Q, 1.5),
        lambda Q: bases(Q, 10**20),
        lambda Q: expand(Fraction(1, 3), Q, 0),
        lambda Q: expand(Fraction(1, 3), Q, True),
        # an empty range: no base is needed, but Q is still checked
        lambda Q: base_product(Q, 5, 1),
        lambda Q: shift_value(Fraction(1, 3), Q, 0),
    ],
)
def test_a_non_sequence_is_named_before_a_bad_count(call):
    with pytest.raises(TypeError, match="not a QSequence"):
        call("const:10")


def test_reconstruct_checks_the_preperiod_before_the_block():
    desc = BlockDescription(DigitWord((0, 5)), DigitWord((9, 1), 3))
    with pytest.raises(DomainError) as got:
        reconstruct(desc, Periodic((2, 3)))
    assert str(got.value) == "digit 5 at position 2 out of range for base 3"


def test_products_past_the_size_bound_are_domain_errors():
    # whole periods: cycles * bits(period product); a rule range: count * bits(q_hi)
    cycles = _MAX_PRODUCT_BITS // 2  # bits(2) = 2
    assert base_product(Constant(2), 1, cycles) == 1 << cycles
    for Q, hi in [
        (Constant(2), cycles + 1),
        (Periodic((2, 3)), _MAX_PRODUCT_BITS),
        (PrefixPeriodic((5,), (10,)), 10**10),
        (Rule("odd"), _MAX_PRODUCT_BITS // 16),
    ]:
        with pytest.raises(DomainError, match=f"exceed {_MAX_PRODUCT_BITS} bits"):
            base_product(Q, 1, hi)
    assert base_product(Constant(10), 1, 50001) == 10**50001  # the largest product the CLI tests print
