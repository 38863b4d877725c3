import math
from fractions import Fraction

import pytest

from cantorseries import (
    Constant,
    DomainError,
    ParseError,
    Periodic,
    PrefixPeriodic,
    Rule,
    bases,
    base_product,
    format_qseq,
    parse_qseq,
    q_at,
    tail_min,
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


def test_tail_min_rejects_what_is_not_a_sequence():
    with pytest.raises(TypeError, match="not a QSequence"):
        tail_min("const:10")


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


@pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 127, 128, 129, 191, 192, 1000, 1031])
def test_rule_products_match_one_multiply_per_base(count):
    # both sides of every run and merge boundary of the balanced product
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
