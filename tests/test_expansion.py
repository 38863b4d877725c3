from decimal import Decimal
from fractions import Fraction

import pytest

from cantorseries import (
    Constant,
    DigitWord,
    DomainError,
    Periodic,
    Rule,
    ShiftState,
    digit_stream,
    enclosure,
    evaluate_finite,
    expand,
    local_value,
    parse_qseq,
    shift_step,
    shift_value,
    validate_digits,
)
from helpers import oracle_digits, oracle_value

ODD = Rule("odd")
P23 = Periodic((2, 3))


def test_shift_step_half_under_base_three_is_a_fixed_point():
    digit, nxt = shift_step(ShiftState(0, Fraction(1, 2)), 3)
    assert digit == 1
    assert nxt == ShiftState(1, Fraction(1, 2))


def test_shift_step_zero_is_a_fixed_point():
    digit, nxt = shift_step(ShiftState(0, Fraction(0)), 7)
    assert (digit, nxt.value) == (0, 0)


def test_shift_step_exact_hand_computation():
    # 2 * 5/6 = 5/3 = 1 + 2/3
    digit, nxt = shift_step(ShiftState(3, Fraction(5, 6)), 2)
    assert (digit, nxt.step, nxt.value) == (1, 4, Fraction(2, 3))


@pytest.mark.parametrize("value", [Fraction(1), Fraction(3, 2), Fraction(-1, 2)])
def test_shift_step_rejects_values_outside_unit_interval(value):
    with pytest.raises(DomainError):
        shift_step(ShiftState(0, value), 2)


def test_expand_half_over_odd_bases_counts_up():
    word, state = expand(Fraction(1, 2), ODD, 4)
    assert word.digits == (1, 2, 3, 4)
    assert state == ShiftState(4, Fraction(1, 2))


def test_expand_zero_is_all_zeros():
    word, state = expand(Fraction(0), P23, 5)
    assert word.digits == (0, 0, 0, 0, 0)
    assert state.value == 0


def test_expand_terminating_value():
    word, state = expand(Fraction(5, 6), P23, 4)
    assert word.digits == (1, 2, 0, 0)
    assert state.value == 0


def test_expand_matches_plain_fraction_oracle():
    for x in [Fraction(3, 7), Fraction(12, 13), Fraction(1, 97)]:
        for Q in [P23, ODD, Constant(10)]:
            want_digits, want_state = oracle_digits(x, Q, 12)
            word, state = expand(x, Q, 12)
            assert list(word.digits) == want_digits
            assert state.value == want_state


def test_expand_rejects_out_of_domain():
    with pytest.raises(DomainError):
        expand(Fraction(1), P23, 3)
    with pytest.raises(DomainError):
        expand(Fraction(1, 2), P23, 0)


def test_shift_value_matches_expansion_state():
    x = Fraction(17, 23)
    for n in range(10):
        assert shift_value(x, ODD, n) == (expand(x, ODD, n)[1].value if n else x)


def test_digit_stream_matches_expand():
    stream = digit_stream(Fraction(5, 11), P23)
    first = [next(stream) for _ in range(8)]
    word, state = expand(Fraction(5, 11), P23, 8)
    assert tuple(d for d, _ in first) == word.digits
    assert first[-1][1].value == state.value


def test_evaluate_finite_hand_sum():
    assert evaluate_finite(DigitWord((1, 2)), P23) == Fraction(5, 6)


def test_evaluate_finite_empty_word_is_zero():
    assert evaluate_finite(DigitWord(()), P23) == 0


def test_evaluate_finite_odd_bases_against_term_sum():
    word = DigitWord((1, 2, 3))
    assert evaluate_finite(word, ODD) == oracle_value(word.digits, ODD) == Fraction(52, 105)


def test_evaluate_finite_rejects_digit_out_of_alphabet():
    with pytest.raises(DomainError):
        evaluate_finite(DigitWord((2,)), P23)
    with pytest.raises(DomainError):
        evaluate_finite(DigitWord((0, 3)), P23)


def test_evaluate_finite_requires_position_one():
    with pytest.raises(DomainError):
        evaluate_finite(DigitWord((1,), start=2), P23)


def test_local_value_of_inner_word():
    # Word at positions 3,4 over periodic 2,3: value e3/q3 + e4/(q3*q4).
    word = DigitWord((1, 2), start=3)
    assert local_value(word, P23) == Fraction(1, 2) + Fraction(2, 6)


def test_enclosure_first_decimal_digit():
    box = enclosure(DigitWord((1,)), Constant(10))
    assert (box.low, box.high) == (Fraction(1, 10), Fraction(2, 10))


def test_enclosure_width_is_prefix_weight():
    box = enclosure(DigitWord((1, 2)), P23)
    assert (box.low, box.high) == (Fraction(5, 6), Fraction(1))


def test_enclosures_of_half_nest_and_contain_it():
    x = Fraction(1, 2)
    prev = None
    for n in range(1, 8):
        word, _ = expand(x, ODD, n)
        box = enclosure(word, ODD)
        assert box.low <= x <= box.high
        if n == 3:
            assert (box.low, box.high) == (Fraction(52, 105), Fraction(53, 105))
        if prev is not None:
            assert prev.low <= box.low and box.high <= prev.high
        prev = box


def test_digit_word_validation():
    with pytest.raises(DomainError):
        DigitWord((1,), start=0)
    with pytest.raises(DomainError):
        DigitWord((-1,))
    validate_digits(DigitWord((4,), start=2), parse_qseq("periodic:2,5"))
    with pytest.raises(DomainError):
        validate_digits(DigitWord((4,), start=1), parse_qseq("periodic:2,5"))


@pytest.mark.parametrize("x", [0.1, 0.5, Decimal("0.5"), "1/3", False])
def test_values_must_be_int_or_fraction(x):
    with pytest.raises(DomainError):
        expand(x, P23, 3)


@pytest.mark.parametrize(
    "call",
    [
        lambda: expand(Fraction(1, 3), P23, True),
        lambda: expand(Fraction(1, 3), P23, 2.0),
        lambda: shift_value(Fraction(1, 3), P23, True),
        lambda: shift_value(Fraction(1, 3), P23, 1.0),
        lambda: DigitWord((1,), start=1.0),
        lambda: DigitWord((1,), start=True),
    ],
)
def test_counts_and_positions_must_be_integers(call):
    with pytest.raises(DomainError):
        call()


def test_digit_counts_too_large_to_materialise_are_domain_errors():
    with pytest.raises(DomainError, match="too large"):
        expand(Fraction(1, 3), Constant(10), 10**20)
    assert shift_value(Fraction(1, 3), Constant(10), 10**20) == Fraction(1, 3)  # closed form
