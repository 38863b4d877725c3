from decimal import Decimal
from fractions import Fraction
from unittest import mock

import pytest

from cantorseries import (
    CofiniteExpansion,
    Constant,
    DigitWord,
    DomainError,
    Periodic,
    PrefixPeriodic,
    Rule,
    ShiftState,
    cofinite_value,
    digit_stream,
    dual_representation,
    enclosure,
    evaluate_finite,
    expand,
    local_value,
    parse_qseq,
    shift_step,
    shift_value,
    validate_digits,
)
from cantorseries import _packing, expansion
from cantorseries.expansion import _packed, _word_positional
from helpers import oracle_digits, oracle_positional, oracle_shift_states, oracle_value, wide_lane_periods

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


@pytest.mark.parametrize(
    "x,Q,count",
    [
        # the stream and, below 256 digits and on rule:odd, expand take
        # one base at a time, one division of a number wider than 64 bits
        # each; from 256 digits on a period product of at most 64 bits,
        # expand takes the whole periods from the wide lanes, one division
        # of v per chunk, and steps the prefix part and the last partial
        # period
        (Fraction(2**70 // 3, 2**70 + 1), P23, 200),
        (Fraction(7**160, 3**300 - 2), Constant(10), 129),
        (Fraction(10**250 // 7, 10**250 + 151), ODD, 130),
        (Fraction(10**900 // 7, 10**903 + 33), Constant(10), 1000),
        (Fraction(5**200, 7**150 * 11**50 + 2), PrefixPeriodic((7, 3, 250), (2, 3, 5)), 3 + 3 * 200 + 2),
    ],
)
def test_digit_stream_matches_expand_over_denominators_wider_than_64_bits(x, Q, count):
    stream = digit_stream(x, Q)
    first = [next(stream) for _ in range(count)]
    word, state = expand(x, Q, count)
    assert tuple(d for d, _ in first) == word.digits
    assert first[-1][1] == state
    states = oracle_shift_states(x, Q, count)[1:]
    assert [s for _, s in first] == [ShiftState(k, value) for k, value in enumerate(states, 1)]


def test_digit_word_end_is_its_last_position():
    assert DigitWord((1, 2, 3), start=4).end == 6
    assert DigitWord((), start=4).end == 3


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


def test_validate_digits_names_the_first_bad_position_and_its_base():
    Q = parse_qseq("prefix:3,4;5,6")
    with pytest.raises(DomainError) as bad:
        validate_digits(DigitWord((3, 5, 0, 6, 9), start=2), Q)
    assert str(bad.value) == "digit 5 at position 3 out of range for base 5"
    with pytest.raises(DomainError) as bad:
        validate_digits(DigitWord((0,) * 40 + (83, 99), start=1), ODD)
    assert str(bad.value) == "digit 83 at position 41 out of range for base 83"
    # a long word of digits past one byte, one equal to its base
    with pytest.raises(DomainError) as bad:
        validate_digits(DigitWord((299, 1) * 40 + (300, 1) + (0, 1) * 10), parse_qseq("periodic:300,2"))
    assert str(bad.value) == "digit 300 at position 81 out of range for base 300"
    validate_digits(DigitWord((2, 3, 4, 5), start=1), Q)


def test_a_long_word_of_digits_past_two_bytes_folds_one_multiply_per_digit():
    # 65536 fits no byte, so the word is not packed: it is checked and
    # folded one step per digit, and a bad digit is named as before
    Q = Periodic((65537, 3))
    digits = (65536, 2) * 40
    assert _packed(DigitWord(digits), Q) is None
    assert _word_positional(DigitWord(digits), Q) == oracle_positional(digits, (65537, 3) * 40)
    with pytest.raises(DomainError) as bad:
        evaluate_finite(DigitWord(digits[:40] + (65537,) + digits[41:]), Q)
    assert str(bad.value) == "digit 65537 at position 41 out of range for base 65537"
    # a digit past one byte in the last partial period, after a prefix and
    # no whole period, or after 33 whole periods, leaves the word unpacked
    rows = [(PrefixPeriodic((3,) * 65, (300, 2)), (1,) * 65 + (266,)), (Periodic((300, 2)), (255, 1) * 33 + (266,))]
    for Q, digits in rows:
        word, qs = DigitWord(digits), Q.prefix + Q.period * 34
        assert _packed(word, Q) is None
        assert _word_positional(word, Q) == oracle_positional(digits, qs[: len(digits)])



def test_a_small_denominator_builds_no_product_tree_and_a_packed_word_never_walks():
    # The 10,005-digit dual forms of u/20011 on rule:odd are worth fractions
    # of denominator 20011 from every digit on, so they are walked whole:
    # no _positional fold and no merge.  A 30,010-digit const:10 word
    # folds from its packed periods and is never walked.
    calls = []

    def counting(name):
        real = getattr(expansion, name)
        return mock.patch.object(expansion, name, lambda *args: calls.append(name) or real(*args))

    x = Fraction(12345, 20011)
    report = dual_representation(x, ODD, 10005)
    assert len(report.finite_form) == 10005
    with counting("_positional"), counting("_merge_runs"), counting("_walk"):
        assert evaluate_finite(report.finite_form, ODD) == x
        assert cofinite_value(report.cofinite_form, ODD) == x
    assert calls == ["_walk", "_walk"]
    C10 = Constant(10)
    word, _ = expand(Fraction(12345, 30011), C10, 30010)
    num, prod = oracle_positional(word.digits, [10] * 30010)
    calls.clear()
    real = _packing.fold
    with counting("_walk"), mock.patch.object(_packing, "fold", lambda *args: calls.append("fold") or real(*args)), \
            mock.patch.object(expansion, "_pack", None), mock.patch.object(expansion, "_fold_packed", None):
        assert evaluate_finite(word, C10) == local_value(word, C10) == Fraction(num, prod)
        assert cofinite_value(CofiniteExpansion(word), C10) == Fraction(num + 1, prod)
    assert calls == ["fold", "fold", "fold"]


def test_wide_lanes_hand_the_digit_loop_only_the_prefix_part_and_a_partial_period():
    # The 8,000-digit const:2 and 4,499-digit periodic:5,2,7 dual forms, at
    # denominators of 8,001 and 6,068 bits, take their whole periods from
    # the wide lanes: _digits gets at most len(prefix) + L bases a call, and
    # the lanes every whole period.  A 64-base period of bases 193-256,
    # whose product is near 2**500, stays off the lanes: one _digits call
    # over every base.
    sizes, lanes = [], []
    real_digits, real_lanes = expansion._digits, _packing.expand_lanes

    def digits(u, v, bases):
        sizes.append(len(bases := tuple(bases)))
        return real_digits(u, v, bases)

    def wide(u, v, run, K):
        lanes.append(K * len(run))
        return real_lanes(u, v, run, K)

    forms = [(Constant(2), 2**8000, 8000), (Periodic((5, 2, 7)), 5**1000 * 2**1500 * 7**800, 4499)]
    with mock.patch.object(expansion, "_digits", digits), mock.patch.object(_packing, "expand_lanes", wide), \
            mock.patch.object(expansion, "_expand_lanes", None):
        for Q, r, n0 in forms:
            sizes.clear()
            lanes.clear()
            x = Fraction(3**3000, r)
            report = dual_representation(x, Q)
            assert report.n0 == n0 and evaluate_finite(report.finite_form, Q) == x
            assert max(sizes) <= len(Q.prefix) + len(Q.period) and sum(sizes) == n0 % len(Q.period)
            assert lanes == [n0 - n0 % len(Q.period)]
        sizes.clear()
        lanes.clear()
        Q = Periodic(tuple(range(193, 257)))
        word, state = expand(Fraction(1, 3**2000), Q, 1000)
        assert (sizes, lanes) == ([1000], [])
    assert (list(word.digits), state.value) == oracle_digits(Fraction(1, 3**2000), Q, 1000)


@pytest.mark.parametrize("period", [(256, 255, 2), (256,)], ids=lambda p: ",".join(map(str, p)))
def test_wide_lanes_start_each_pass_from_the_last_chunk(period):
    # Past one pass of at most 1024 lanes, the next pass starts from the
    # state after the last chunk: two whole passes and one more period,
    # between a 2-base prefix and a partial last period, against plain
    # Fraction steps.
    _, P = wide_lane_periods(period)
    Q = PrefixPeriodic((7, 3), period)
    count = 2 + (2 * P + 1) * len(period) + len(period) - 1
    x = Fraction(10**300 // 7, 10**300 + 3)
    real, passes = _packing._step_lanes, []
    with mock.patch.object(_packing, "_step_lanes", lambda *args: passes.append(args[1]) or real(*args)):
        word, state = expand(x, Q, count)
    assert (list(word.digits), state.value) == oracle_digits(x, Q, count)
    assert len(passes) == 3 and passes[-1] == 1


class Int(int):
    pass


class Ratio(Fraction):
    pass


@pytest.mark.parametrize("x", [0.1, 0.5, Decimal("0.5"), "1/3", False, True])
def test_values_must_be_int_or_fraction(x):
    with pytest.raises(DomainError) as bad:
        expand(x, P23, 3)
    assert str(bad.value) == f"value must be an int or a Fraction, got {x!r}"


@pytest.mark.parametrize("x", [0, Int(0), Fraction(0), Fraction(6, 7), Ratio(6, 7), Fraction(76, 77)])
def test_values_from_zero_to_just_below_one_pass(x):
    assert expand(x, P23, 2)[1].value == shift_value(x, P23, 2)


@pytest.mark.parametrize(
    "x,text", [(1, "1"), (Int(1), "1"), (Fraction(1), "1"), (Fraction(-1, 7), "-1/7"), (Ratio(8, 7), "8/7")]
)
def test_values_outside_the_unit_interval_raise_one_message(x, text):
    with pytest.raises(DomainError) as bad:
        expand(x, P23, 2)
    assert str(bad.value) == f"value must lie in [0, 1), got {text}"


@pytest.mark.parametrize(
    "call",
    [
        lambda: expand(Fraction(1, 3), P23, True),
        lambda: expand(Fraction(1, 3), P23, 2.0),
        lambda: shift_value(Fraction(1, 3), P23, True),
        lambda: shift_value(Fraction(1, 3), P23, 1.0),
        lambda: DigitWord((1,), start=1.0),
        lambda: DigitWord((1,), start=True),
        lambda: shift_step(ShiftState(0, Fraction(1, 2)), 2.5),
        lambda: shift_step(ShiftState(0, Fraction(1, 2)), "3"),
    ],
)
def test_counts_and_positions_must_be_integers(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("count", [True, 2.0, "2"])
def test_counts_name_the_rejected_value(count):
    with pytest.raises(DomainError) as bad:
        expand(Fraction(1, 3), P23, count)
    assert str(bad.value) == f"digit count must be an integer >= 1, got {count!r}"


def test_counts_may_be_int_subclasses():
    assert expand(Fraction(1, 3), P23, Int(2)) == expand(Fraction(1, 3), P23, 2)


def test_digit_counts_too_large_to_materialise_are_domain_errors():
    with pytest.raises(DomainError, match="too large"):
        expand(Fraction(1, 3), Constant(10), 10**20)
    assert shift_value(Fraction(1, 3), Constant(10), 10**20) == Fraction(1, 3)  # closed form
