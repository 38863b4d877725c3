"""Acceptance suite: one test per criterion, all at zero tolerance.

Each test prints a single PASS line (visible with -s) naming the criterion;
pytest -v shows the same outcome per test.  Every expected value is exact:
no floats, no tolerances.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from cantorseries import (
    BlockDescription,
    DigitWord,
    Periodic,
    PrefixPeriodic,
    Rule,
    ShiftState,
    base_product,
    bases,
    certify_rational,
    cofinite_value,
    dual_representation,
    evaluate_finite,
    expand,
    fixed_point_digits,
    fixed_points,
    parse_qseq,
    q_at,
    reconstruct,
    regroup,
    shift_constant_check,
    shift_step,
    shift_value,
)

ROUND_TRIP_QS = ["const:2", "const:10", "periodic:2,3", "periodic:5,2,7", "rule:odd"]
LIST_KIND_QS = ["const:2", "const:10", "periodic:2,3", "periodic:5,2,7"]


def _reduced_fractions(max_denominator):
    for v in range(2, max_denominator + 1):
        for u in range(1, v):
            if math.gcd(u, v) == 1:
                yield Fraction(u, v)


@pytest.fixture(scope="module")
def round_trip_suite():
    """Certify + expand + reconstruct every reduced u/v with v <= 200."""
    results = []
    t0 = time.perf_counter()
    for qspec in ROUND_TRIP_QS:
        Q = parse_qseq(qspec)
        for x in _reduced_fractions(200):
            cert = certify_rational(x, Q)
            word, _ = expand(x, Q, cert.n + cert.m)
            desc = BlockDescription(
                DigitWord(word.digits[: cert.n]),
                DigitWord(word.digits[cert.n :], start=cert.n + 1),
            )
            rebuilt = reconstruct(desc, Q)
            witness = base_product(Q, 1, cert.n) * (cert.block_product - 1)
            results.append((qspec, x, cert, rebuilt, witness))
    elapsed = time.perf_counter() - t0
    return results, elapsed


def test_criterion_1_odd_base_expansion_of_one_half():
    t0 = time.perf_counter()
    Q = Rule("odd")
    x = Fraction(1, 2)
    state = ShiftState(0, x)
    for n in range(1, 51):
        digit, state = shift_step(state, q_at(Q, n))
        assert digit == n
        assert state.value == Fraction(1, 2)
    word, final = expand(x, Q, 50)
    assert word.digits == tuple(range(1, 51))
    assert final.value == Fraction(1, 2)
    cert = certify_rational(x, Q)
    assert (cert.n, cert.m, cert.sigma_value) == (0, 1, Fraction(1, 2))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: odd-base expansion of 1/2 has digit n and shift value 1/2 at "
          f"every step, certificate (0, 1, 1/2) [{elapsed:.3f}s]")


def test_criterion_2_round_trip_reconstruction(round_trip_suite):
    results, elapsed = round_trip_suite
    failures = [(q, x) for q, x, _, rebuilt, _ in results if rebuilt != x]
    assert failures == []
    assert elapsed < 60.0
    print(f"\nPASS criterion 2: reconstruct inverts certify+expand on {len(results)} cases "
          f"(denominators to 200, 5 base sequences) [{elapsed:.1f}s]")


def test_criterion_3_pigeonhole_bound(round_trip_suite):
    results, _ = round_trip_suite
    violations = [(q, x) for q, x, cert, _, _ in results if cert.n + cert.m > x.denominator]
    assert violations == []
    print(f"\nPASS criterion 3: n + m <= denominator on all {len(results)} certificates")


def test_criterion_4_divisibility_witness(round_trip_suite):
    results, _ = round_trip_suite
    violations = [(q, x) for q, x, _, _, witness in results if witness % x.denominator != 0]
    assert violations == []
    print(f"\nPASS criterion 4: denominator divides q1..qn*(P-1) on all {len(results)} certificates")


def _first_zero_state(x, Q, pre_len, period_len):
    """Step at which greedy expansion terminates, or None if it never does.

    Independent oracle: iterate the integer shift states directly and detect
    a repeated (state, period position) pair, which proves non-termination.
    """
    u, v = x.numerator, x.denominator
    k = 0
    seen = set()
    while u != 0:
        if k >= pre_len:
            pair = (u, (k - pre_len) % period_len)
            if pair in seen:
                return None
            seen.add(pair)
        k += 1
        u = q_at(Q, k) * u % v
    return k


def test_criterion_5_dual_representation_equivalence():
    checked = 0
    for qspec in LIST_KIND_QS:
        Q = parse_qseq(qspec)
        pre, per = Q.prefix, Q.period
        for x in _reduced_fractions(100):
            report = dual_representation(x, Q)
            stops = _first_zero_state(x, Q, len(pre), len(per))
            assert (report.decision == "yes") == (stops is not None), (qspec, x)
            if report.decision == "yes":
                assert report.n0 == stops
                assert evaluate_finite(report.finite_form, Q) == x
                assert cofinite_value(report.cofinite_form, Q) == x
            checked += 1
    print(f"\nPASS criterion 5: twin-representation decision matches the greedy-termination "
          f"oracle on {checked} cases, with both forms evaluating equal when present")


def test_criterion_6_fixed_point_enumeration():
    for qspec in ["const:2", "periodic:3,5", "periodic:3,4", "rule:odd"]:
        Q = parse_qseq(qspec)
        report = fixed_points(Q)
        assert len(report.candidates) == report.q, qspec
        for cand in report.candidates:
            if not cand.member:
                continue
            gen = fixed_point_digits(Q, cand.eps, q=report.q)
            digits = [next(gen) for _ in range(100)]
            # algebraic shift recurrence, valid for the endpoint value 1 too
            sigma = cand.value
            for n in range(1, 101):
                sigma = q_at(Q, n) * sigma - digits[n - 1]
                assert sigma == cand.value, (qspec, cand.eps, n)
            if not cand.endpoint:
                word, state = expand(cand.value, Q, 100)
                assert list(word.digits) == digits
                assert state.value == cand.value
    report = fixed_points(parse_qseq("periodic:3,4"))
    assert [c.eps for c in report.candidates if not c.member] == [1]
    print("\nPASS criterion 6: q candidates enumerated per sequence; member digit words keep "
          "shift value eps/(q-1) through step 100; periodic:3,4 excludes eps=1")


def test_criterion_7_shift_constant_biconditional():
    rng = random.Random(20260808)
    for trial in range(50):
        q = rng.randint(2, 6)
        length = rng.randint(1, 4)
        factors = [rng.randint(1, 4) for _ in range(length)]
        factors[rng.randrange(length)] = 1  # pin the minimum base to q
        Q = Periodic(tuple((q - 1) * t + 1 for t in factors))
        eps = rng.randint(0, q - 2) if q > 2 else 0
        x = Fraction(eps, q - 1)

        horizon = (q - 1) * length
        report = shift_constant_check(x, Q, 0, horizon)
        assert report.holds and report.constant == x and report.conclusive, (trial, Q, eps)

        # perturb one digit of the stream; constancy must break
        window = rng.randint(1, 2 * length + 2)
        gen = fixed_point_digits(Q, eps, q=q)
        digits = [next(gen) for _ in range(window + length)]
        j = rng.randint(1, window)
        choices = [d for d in range(q_at(Q, j)) if d != digits[j - 1]]
        digits[j - 1] = rng.choice(choices)
        desc = BlockDescription(
            DigitWord(tuple(digits[:j])),
            DigitWord(tuple(digits[j : j + length]), start=j + 1),
        )
        perturbed = reconstruct(desc, Q)
        broken = shift_constant_check(perturbed, Q, 0, j + length)
        assert not broken.holds, (trial, Q, eps, j)
    print("\nPASS criterion 7: rule-generated digits pass the constancy check and every "
          "single-digit perturbation fails it (50 randomized instances)")


def test_criterion_8_regrouping():
    rng = random.Random(8088)
    pool = [parse_qseq(s) for s in ROUND_TRIP_QS] + [PrefixPeriodic((4,), (3, 2))]
    for trial in range(100):
        v = rng.randint(2, 60)
        u = rng.randrange(v)
        x = Fraction(u, v)
        Q = rng.choice(pool)
        bps = []
        total = 0
        for _ in range(rng.randint(1, 5)):
            total += rng.randint(1, 3)
            bps.append(total)
        new_bases, word, _ = regroup(x, Q, tuple(bps))
        partial = Fraction(0)
        prod = 1
        for lam, base in zip(word.digits, new_bases):
            assert 0 <= lam < base
            prod *= base
            partial += Fraction(lam, prod)
        assert partial + shift_value(x, Q, bps[-1]) / prod == x, (trial, x, Q, bps)

    Q = Periodic((2, 3))
    new_bases, word, report = regroup(Fraction(3, 5), Q, (2, 4, 6))
    assert new_bases == (6, 6, 6)
    assert word.digits == (3, 3, 3)
    assert report.ratio_constant and report.proportional

    x = Fraction(7, 12)
    idem_bases, idem_word, _ = regroup(x, Q, (1, 2, 3, 4, 5))
    assert idem_bases == bases(Q, 5)
    assert idem_word.digits == expand(x, Q, 5)[0].digits
    print("\nPASS criterion 8: regrouping preserves values exactly on 100 randomized instances; "
          "3/5 over periodic:2,3 regroups to base 6 with digit 3; identity breakpoints are a no-op")


def test_criterion_9_partial_sum_identity():
    rng = random.Random(424242)
    pool = [parse_qseq(s) for s in ROUND_TRIP_QS] + [PrefixPeriodic((7, 2), (11, 3)), Periodic((2, 2, 5))]
    for trial in range(1000):
        v = rng.randint(2, 500)
        u = rng.randrange(v)
        x = Fraction(u, v)
        Q = rng.choice(pool)
        word, _ = expand(x, Q, 50)
        partial = Fraction(0)
        prod = 1
        u_n, v_n = x.numerator, x.denominator
        for n in range(1, 51):
            q = q_at(Q, n)
            prod *= q
            partial += Fraction(word.digits[n - 1], prod)
            u_n = q * u_n % v_n
            assert partial + Fraction(u_n, v_n) / prod == x, (trial, x, n)
    print("\nPASS criterion 9: exact partial-sum identity at every prefix length through 50 "
          "on 1000 randomized (x, Q) pairs")
