import itertools
import time
from fractions import Fraction

import pytest

from cantorseries import (
    BlockDescription,
    CofiniteExpansion,
    Constant,
    DigitWord,
    DomainError,
    DualRepresentationReport,
    Periodic,
    PrefixPeriodic,
    Rule,
    TailMin,
    bases,
    cofinite_value,
    convert_dual,
    dual_representation,
    evaluate_finite,
    expand,
    fixed_point_digits,
    fixed_points,
    fold_cofinite,
    regroup,
    shift_constant_check,
    shift_value,
    tail_min,
)
from helpers import oracle_dual_chain

ODD = Rule("odd")
P23 = Periodic((2, 3))
D10 = Constant(10)


# --- dual representations ----------------------------------------------------


def test_dual_yes_materialises_both_forms():
    report = dual_representation(Fraction(1, 2), P23)
    assert report.decision == "yes"
    assert report.n0 == 1
    assert report.finite_form.digits == (1,)
    assert report.cofinite_form.head.digits == (0,)
    assert report.cofinite_form.tail_start == 2
    assert evaluate_finite(report.finite_form, P23) == Fraction(1, 2)
    assert cofinite_value(report.cofinite_form, P23) == Fraction(1, 2)


def test_dual_no_under_all_odd_bases():
    assert dual_representation(Fraction(1, 2), ODD).decision == "no"


def test_dual_no_when_residual_coprime_to_period():
    assert dual_representation(Fraction(1, 3), D10).decision == "no"


def test_dual_search_builds_no_product():
    # the search tests k = 1, 2, 4, 8, 12 mod r; q1...q4 alone would have
    # 4 * (2**20 + 1) bits, past base_product's size bound
    assert dual_representation(Fraction(1, 3 << 10), Constant(2**2**20)).decision == "no"


def test_dual_minimal_n0():
    # 1/8 over base 10 needs 10*10*10 before 8 divides the prefix product... not:
    # 8 | 10^3 = 1000, and 8 does not divide 10 or 100, so n0 = 3.
    report = dual_representation(Fraction(1, 8), D10)
    assert (report.decision, report.n0) == ("yes", 3)
    assert report.finite_form.digits == (1, 2, 5)


def test_dual_gradual_reduction_across_periods():
    # Residual 9 loses one factor 3 per period of (3, 10).
    report = dual_representation(Fraction(1, 9), Periodic((3, 10)))
    assert (report.decision, report.n0) == ("yes", 3)


def test_dual_prime_met_only_deep_in_the_prefix():
    # 3 divides only q_10, past len(period) * bits(3) = 2 positions of period
    report = dual_representation(Fraction(1, 3), PrefixPeriodic((2,) * 9 + (3,), (2,)))
    assert (report.decision, report.n0) == ("yes", 10)


def test_dual_rule_odd_decides_odd_denominators():
    report = dual_representation(Fraction(1, 9), ODD)
    assert (report.decision, report.n0) == ("yes", 4)  # 3*5*7*9 = 945 = 9 * 105


def test_dual_undecided_when_bound_too_small():
    report = dual_representation(Fraction(1, 9), ODD, bound=1)
    assert (report.decision, report.bound) == ("undecided", 1)


@pytest.mark.parametrize("r,n0", [(4001, 2000), (3**40, 79)])
def test_dual_rule_odd_search_stops_at_the_bound(r, n0):
    # 4001 first divides q_2000 = 4001; 3^40 collects its threes over many bases
    x = Fraction(1, r)
    for bound in (n0 - 1, n0, n0 + 1):
        report = dual_representation(x, ODD, bound)
        decision, want_n0 = oracle_dual_chain(x, ODD, bound)
        assert (report.decision, report.n0) == (decision, want_n0)
        assert report.bound == (bound if decision == "undecided" else None)
    assert dual_representation(x, ODD, n0 - 1).decision == "undecided"
    assert dual_representation(x, ODD, n0).n0 == n0


def test_dual_rule_odd_even_twin_is_no():
    x = Fraction(1, 2 * 4001)
    assert oracle_dual_chain(x, ODD, 10000) == ("no", None)
    assert dual_representation(x, ODD) == dual_representation(x, ODD, 1) == DualRepresentationReport("no")


def test_dual_domain_checks():
    with pytest.raises(DomainError):
        dual_representation(Fraction(0), P23)
    with pytest.raises(DomainError):
        dual_representation(Fraction(1, 2), P23, bound=0)


def test_dual_matches_termination_oracle_small_sweep():
    # A reduced p/r has the twin form exactly when greedy expansion hits 0.
    for r in range(2, 40):
        for p in range(1, r):
            x = Fraction(p, r)
            if x.denominator != r:
                continue
            report = dual_representation(x, P23)
            _, state = expand(x, P23, 30)
            assert (report.decision == "yes") == (state.value == 0)


# --- finite <-> cofinite conversion ------------------------------------------


def test_convert_single_digit():
    cof = convert_dual(DigitWord((1,)), P23)
    assert isinstance(cof, CofiniteExpansion)
    assert cof.head.digits == (0,)
    assert cofinite_value(cof, P23) == Fraction(1, 2)
    # implied tail digits are q_k - 1 = 2, 1, 2, 1, ... from position 2


def test_convert_two_digits_and_back():
    word = DigitWord((1, 2))
    cof = convert_dual(word, P23)
    assert cof.head.digits == (1, 1)
    assert cofinite_value(cof, P23) == Fraction(5, 6)
    back = convert_dual(cof, P23)
    assert back.digits == (1, 2)


def test_convert_trims_trailing_zeros_first():
    cof = convert_dual(DigitWord((1, 2, 0, 0)), P23)
    assert cof.head.digits == (1, 1)
    # past 64 digits, on rule:odd: 70 digits k < 2k + 1, then 10 zeros
    word = DigitWord(tuple(range(1, 71)) + (0,) * 10)
    cof = convert_dual(word, ODD)
    assert cof.head.digits == tuple(range(1, 70)) + (69,)
    assert convert_dual(cof, ODD).digits == tuple(range(1, 71))
    assert cofinite_value(cof, ODD) == evaluate_finite(word, ODD)


def test_convert_rejects_zero_word():
    with pytest.raises(DomainError):
        convert_dual(DigitWord(()), P23)
    with pytest.raises(DomainError):
        convert_dual(DigitWord((0, 0)), P23)
    with pytest.raises(DomainError, match="^the zero value has no trailing-maximum twin$"):
        convert_dual(DigitWord((0,) * 70), ODD)


def test_convert_rejects_a_word_past_position_one_and_any_other_value():
    with pytest.raises(DomainError, match="finite form must start at position 1, got 2"):
        convert_dual(DigitWord((1,), start=2), P23)
    with pytest.raises(TypeError, match="expected DigitWord or CofiniteExpansion"):
        convert_dual(Fraction(1, 2), P23)
    # a 70-digit finite form with a digit past its base, as validate_digits names it
    with pytest.raises(DomainError, match="^digit 81 at position 40 out of range for base 81$"):
        convert_dual(DigitWord((1,) * 39 + (81,) + (1,) * 30), ODD)


def test_cofinite_head_must_start_at_position_one():
    with pytest.raises(DomainError, match="cofinite head must start at position 1, got 3"):
        CofiniteExpansion(DigitWord((1,), start=3))


def test_convert_rejects_non_canonical_cofinite():
    with pytest.raises(DomainError):
        convert_dual(CofiniteExpansion(DigitWord((1, 2))), P23)
    # a 70-digit head with a digit past its base, and a maximal last
    # digit: the digits are checked first, as validate_digits names them
    with pytest.raises(DomainError, match="^digit 81 at position 40 out of range for base 81$"):
        convert_dual(CofiniteExpansion(DigitWord((1,) * 39 + (81,) + (1,) * 29 + (140,))), ODD)


def test_fold_cofinite_folds_maximal_tail_left():
    cof = fold_cofinite((0, 2), P23)
    assert cof.head.digits == (0,)
    assert cofinite_value(cof, P23) == Fraction(1, 2)
    # past 64 digits, on rule:odd: 70 digits k, then q_k - 1 = 2k at 71..90
    cof = fold_cofinite(tuple(range(1, 71)) + tuple(range(142, 181, 2)), ODD)
    assert cof.head.digits == tuple(range(1, 71))
    assert fold_cofinite(cof.head.digits, ODD) == cof


def test_fold_cofinite_rejects_all_maximal():
    with pytest.raises(DomainError):
        fold_cofinite((1, 2), P23)  # folds to the empty head, value 1
    with pytest.raises(DomainError, match="^head folds away entirely"):
        fold_cofinite(tuple(range(2, 161, 2)), ODD)  # 80 maximal digits 2k


@pytest.mark.parametrize("head, Q", [
    ((1,), P23),
    ((1, 2), P23),
    # past 64 digits on rule:odd the head is walked from the right
    (tuple(2 * k for k in range(1, 71)), Rule("odd")),
], ids=["1 on 2,3", "1,2 on 2,3", "70 digits on odd"])
def test_cofinite_value_rejects_an_all_maximal_head(head, Q):
    # worth the excluded endpoint 1, as fold_cofinite and reconstruct say
    with pytest.raises(DomainError, match="^all-maximal head describes the excluded endpoint value 1$"):
        cofinite_value(CofiniteExpansion(DigitWord(head)), Q)


def test_convert_involution_on_dual_values():
    for r in range(2, 25):
        for p in range(1, r):
            x = Fraction(p, r)
            report = dual_representation(x, P23)
            if report.decision != "yes":
                continue
            word, cof = report.finite_form, report.cofinite_form
            assert convert_dual(word, P23) == cof
            assert convert_dual(cof, P23) == word


# --- shift-value constancy ----------------------------------------------------


def test_shift_constant_for_half_over_odd_bases():
    report = shift_constant_check(Fraction(1, 2), ODD, 0, 20)
    assert report.holds
    assert report.constant == Fraction(1, 2)
    assert report.after == 0
    # ratios are n/(2n) at every checked position
    assert all(Fraction(e, q - 1) == Fraction(1, 2) for _, e, q in report.ratio_witnesses)
    assert not report.conclusive  # rule sequences have no recurrence bound


def test_shift_constant_for_zero():
    report = shift_constant_check(Fraction(0), P23, 0, 10)
    assert report.holds and report.constant == 0 and report.conclusive


def test_shift_constant_after_termination():
    report = shift_constant_check(Fraction(5, 6), P23, 2, 12)
    assert report.holds and report.constant == 0
    assert report.conclusive  # horizon 12 covers denominator 6 * period 2 states


def test_shift_constant_fails_with_witnesses():
    report = shift_constant_check(Fraction(5, 6), P23, 0, 6)
    assert not report.holds
    assert report.constant is None
    assert report.conclusive  # a failing window settles the claim
    assert report.ratio_witnesses[0] == (1, 1, 2)


def test_shift_constant_requires_ratio_to_match_initial_state():
    # Digits 1,1,1,2 over base 10: the first three ratios agree (1/9 each)
    # but sigma^0 = 139/1250 is not 1/9, so the window must not pass.
    x = Fraction(1112, 10000)
    report = shift_constant_check(x, D10, 0, 3)
    assert not report.holds


def test_shift_constant_accepts_block_description():
    desc = BlockDescription(DigitWord(()), DigitWord((1,)))
    report = shift_constant_check(desc, ODD, 0, 10)
    assert report.holds and report.constant == Fraction(1, 2)


def test_shift_constant_conclusive_window_for_list_kinds():
    # Holding windows decide the unbounded claim once they cover
    # denominator * period length shift states beyond n0.
    x = Fraction(5, 6)
    needed = 6 * 2
    short = shift_constant_check(x, P23, 2, needed - 1)
    assert short.holds and not short.conclusive
    full = shift_constant_check(x, P23, 2, needed)
    assert full.holds and full.conclusive


def test_shift_constant_far_window_steps_only_its_horizon():
    # 10 has order 6 mod 7 and 10^12 = 4 (mod 6): the window after 10^12
    # steps carries the digits and bases of the window after 4
    began = time.perf_counter()
    far = shift_constant_check(Fraction(1, 7), D10, 10**12, 6)
    assert time.perf_counter() - began < 1.0
    near = shift_constant_check(Fraction(1, 7), D10, 4, 6)
    assert [w[1] for w in near.ratio_witnesses] == list(expand(Fraction(1, 7), D10, 10)[0].digits[4:])
    assert [w[1:] for w in far.ratio_witnesses] == [w[1:] for w in near.ratio_witnesses]
    assert [w[0] for w in far.ratio_witnesses] == list(range(10**12 + 1, 10**12 + 7))
    assert (far.holds, far.constant, far.conclusive) == (near.holds, near.constant, near.conclusive)


def test_shift_constant_argument_checks():
    with pytest.raises(DomainError):
        shift_constant_check(Fraction(1, 2), P23, -1, 5)
    with pytest.raises(DomainError):
        shift_constant_check(Fraction(1, 2), P23, 0, 0)


# --- fixed points ---------------------------------------------------------------


def test_fixed_points_periodic_3_5():
    report = fixed_points(Periodic((3, 5)))
    assert report.q == 3
    assert [c.value for c in report.candidates] == [Fraction(0), Fraction(1, 2), Fraction(1)]
    assert all(c.member for c in report.candidates)


def test_fixed_points_binary():
    report = fixed_points(Constant(2))
    assert report.q == 2
    assert [c.value for c in report.candidates] == [Fraction(0), Fraction(1)]
    assert all(c.member for c in report.candidates)
    assert report.candidates[1].endpoint


def test_fixed_points_integrality_excludes_candidate():
    report = fixed_points(Periodic((3, 4)))
    assert report.q == 3
    middle = report.candidates[1]
    assert not middle.member
    assert middle.failing_position == 2  # 2 does not divide 1 * (4 - 1)
    assert [c.value for c in report.candidates if c.member] == [Fraction(0), Fraction(1)]


def test_fixed_points_rule_odd_all_members():
    report = fixed_points(ODD)
    assert report.q == 3
    assert all(c.member for c in report.candidates)


def test_fixed_points_endpoint_flag_only_on_last():
    report = fixed_points(PrefixPeriodic((9,), (3, 6)))
    assert [c.endpoint for c in report.candidates] == [False, False, True]


def test_fixed_point_digit_rule_generates_constant_shift_values():
    Q = Periodic((3, 5))
    gen = fixed_point_digits(Q, 1, q=3)
    word = DigitWord(tuple(next(gen) for _ in range(12)))
    assert word.digits[:4] == (1, 2, 1, 2)
    value = Fraction(1, 2)
    for n in range(12):
        assert shift_value(value, Q, n) == value


def test_fixed_point_digits_raise_for_non_member():
    gen = fixed_point_digits(Periodic((3, 4)), 1, q=3)
    next(gen)
    with pytest.raises(DomainError):
        next(gen)


def test_fixed_point_digits_range_check():
    with pytest.raises(DomainError):
        next(fixed_point_digits(Periodic((3, 5)), 7, q=3))


@pytest.mark.parametrize("Q,eps", [(P23, 1.0), (P23, 2), (ODD, -1), ("const:10", 0)])
def test_fixed_point_digits_check_their_arguments_at_the_call(Q, eps):
    # q defaults to the minimum base: 2 on P23, so eps = 2 is out of range
    with pytest.raises((DomainError, TypeError)):
        fixed_point_digits(Q, eps)


@pytest.mark.parametrize("eps,q", [(1.0, 3), (True, 3), (1, 3.0), (1, True), (0, 1)])
def test_fixed_point_digits_need_integer_candidate_and_base(eps, q):
    with pytest.raises(DomainError):
        next(fixed_point_digits(Periodic((3, 5)), eps, q=q))


# --- regrouping -----------------------------------------------------------------


def test_regroup_pairs_of_positions_into_base_six():
    new_bases, word, report = regroup(Fraction(3, 5), P23, (2, 4, 6))
    assert new_bases == (6, 6, 6)
    assert word.digits == (3, 3, 3)
    assert report.blocks == tuple(report.blocks)
    assert all((b.lam, b.mu) == (3, 5) for b in report.blocks)
    assert (report.mu, report.lam) == (5, 3)
    assert report.ratio_constant and report.proportional
    # regrouped digits resum to the original value
    assert sum(Fraction(3, 6 ** k) for k in range(1, 4)) + Fraction(3, 5) / 6 ** 3 == Fraction(3, 5)


def test_regroup_identity_breakpoints_are_a_no_op():
    x = Fraction(5, 6)
    new_bases, word, report = regroup(x, P23, (1, 2, 3, 4))
    assert new_bases == bases(P23, 4)
    assert word.digits == expand(x, P23, 4)[0].digits
    assert report.breakpoints == (1, 2, 3, 4)


def test_regroup_non_constant_blocks_fail_both_conditions():
    new_bases, word, report = regroup(Fraction(5, 6), P23, (2, 4))
    assert new_bases == (6, 6)
    assert word.digits == (5, 0)
    assert [(b.lam, b.mu) for b in report.blocks] == [(5, 5), (0, 5)]
    assert not report.ratio_constant
    assert not report.proportional


def test_regroup_accepts_digit_word_input():
    word_in = DigitWord((1, 0, 1, 0))
    new_bases, word, _ = regroup(word_in, P23, (2, 4))
    assert new_bases == (6, 6)
    assert word.digits == (3, 3)


def test_regroup_callable_breakpoints():
    new_bases, word, _ = regroup(Fraction(3, 5), P23, lambda k: 2 * k, count=3)
    assert new_bases == (6, 6, 6)
    assert word.digits == (3, 3, 3)


def test_regroup_value_preservation_exact():
    for x, Q, bps in [
        (Fraction(22, 45), ODD, (1, 3, 4, 7)),
        (Fraction(3, 7), Periodic((5, 2, 7)), (2, 3, 6)),
        (Fraction(1, 97), D10, (4, 5, 9)),
    ]:
        new_bases, word, _ = regroup(x, Q, bps)
        partial = Fraction(0)
        prod = 1
        for lam, base in zip(word.digits, new_bases):
            prod *= base
            partial += Fraction(lam, prod)
        sigma = shift_value(x, Q, bps[-1])
        assert partial + sigma / prod == x
        assert all(0 <= lam < base for lam, base in zip(word.digits, new_bases))


def test_regroup_rejects_bad_breakpoints():
    with pytest.raises(DomainError):
        regroup(Fraction(1, 2), P23, (0, 2))
    with pytest.raises(DomainError):
        regroup(Fraction(1, 2), P23, (2, 2))
    with pytest.raises(DomainError):
        regroup(Fraction(1, 2), P23, (3, 2))
    with pytest.raises(DomainError):
        regroup(Fraction(1, 2), P23, (), count=1)
    with pytest.raises(DomainError):
        regroup(Fraction(1, 2), P23, lambda k: k)


def test_regroup_constant_shift_at_breakpoints_gives_constant_ratios():
    # 1/2 has constant shift value under odd bases, so any breakpoints give
    # blocks with one common ratio lam_k/mu_k = 1/2.
    for bps in [(1, 2, 3, 4), (2, 4, 6), (1, 3, 6)]:
        _, _, report = regroup(Fraction(1, 2), ODD, bps)
        assert report.ratio_constant and report.proportional
        assert all(Fraction(b.lam, b.mu) == Fraction(1, 2) for b in report.blocks)


@pytest.mark.parametrize("count", [2.0, 10**20])
def test_regroup_checks_the_count_before_calling_a_breakpoint_rule(count):
    # a float count would reach range() as a TypeError; 10**20 breakpoints would fill memory
    def rule(k):
        raise AssertionError("the breakpoint rule ran before the count was checked")

    with pytest.raises(DomainError):
        regroup(Fraction(1, 3), D10, rule, count=count)


def test_regroup_reads_no_more_breakpoints_than_the_count():
    # a long iterable is never held whole, and a bad count reads none of it
    pulled = []

    def breakpoints():
        for k in range(1, 10**6 + 1):
            pulled.append(k)
            yield k

    _, word, report = regroup(Fraction(1, 3), P23, breakpoints(), count=3)
    assert report.breakpoints == (1, 2, 3) and word.digits == (0, 2, 0)
    assert len(pulled) <= 3
    pulled.clear()
    with pytest.raises(DomainError, match=r"^block count must be an integer >= 1, got 2\.0$"):
        regroup(Fraction(1, 3), P23, breakpoints(), count=2.0)
    assert pulled == []


def test_regroup_mu_lambda_taken_at_first_minimal_block():
    # Blocks of different sizes: mu differs, lambda follows the first minimum.
    _, _, report = regroup(Fraction(3, 5), P23, (1, 3, 4))
    mus = [b.mu for b in report.blocks]
    assert report.mu == min(mus)
    first = mus.index(report.mu)
    assert report.lam == report.blocks[first].lam


def test_rule_odd_facts_settle_tail_min_and_fixed_points():
    # q_k = 2k + 1 increases, so the tail minimum is the next base
    for n0 in (0, 1, 5, 100):
        assert tail_min(ODD, n0) == TailMin(n0, 2 * n0 + 3, True)
    # q - 1 = 2 divides every q_k - 1 = 2k, so every candidate is a member
    report = fixed_points(ODD)
    assert report.q == 3
    assert [(c.eps, c.member, c.failing_position) for c in report.candidates] == [
        (0, True, None), (1, True, None), (2, True, None)
    ]
    for eps in (0, 1):
        word, _ = expand(Fraction(eps, 2), ODD, 50)
        assert tuple(itertools.islice(fixed_point_digits(ODD, eps), 50)) == word.digits


def test_windows_and_breakpoints_too_large_to_materialise_are_domain_errors():
    with pytest.raises(DomainError, match="too large"):
        shift_constant_check(Fraction(1, 3), D10, 10**20, 1)
    with pytest.raises(DomainError, match="too large"):
        shift_constant_check(Fraction(1, 3), ODD, 1, 10**20)
    with pytest.raises(DomainError, match="too large"):
        regroup(Fraction(1, 3), D10, (10**20,))
