import itertools
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cantorseries import (
    BlockDescription,
    CertificateCheck,
    Constant,
    DigitWord,
    DomainError,
    Periodic,
    PrefixPeriodic,
    RationalityCertificate,
    Rule,
    block_description,
    certify_rational,
    expand,
    reconstruct,
    shift_value,
    verify_certificate,
)
from cantorseries._phases import phase_search
from helpers import oracle_first_repeat, oracle_shift_states, recurrence_cases

ODD = Rule("odd")
P23 = Periodic((2, 3))
D10 = Constant(10)


def test_certify_half_over_odd_bases():
    cert = certify_rational(Fraction(1, 2), ODD)
    assert (cert.n, cert.m, cert.sigma_value, cert.block_product) == (0, 1, Fraction(1, 2), 3)


def test_certify_terminating_expansion():
    cert = certify_rational(Fraction(5, 6), P23)
    assert (cert.n, cert.m, cert.sigma_value, cert.block_product) == (2, 1, Fraction(0), 2)


def test_certify_repeating_decimal():
    cert = certify_rational(Fraction(1, 3), D10)
    assert (cert.n, cert.m, cert.sigma_value, cert.block_product) == (0, 1, Fraction(1, 3), 10)


def test_certify_rejects_out_of_domain():
    with pytest.raises(DomainError):
        certify_rational(Fraction(7, 5), P23)


def test_certificate_is_earliest_recurrence():
    # Brute force over all smaller (n, m) pairs via plain Fraction states.
    for x in [Fraction(3, 7), Fraction(5, 12), Fraction(9, 11), Fraction(13, 40)]:
        for Q in [P23, ODD, D10]:
            cert = certify_rational(x, Q)
            states = oracle_shift_states(x, Q, cert.n + cert.m)
            assert states[cert.n] == states[cert.n + cert.m]
            for n in range(cert.n + cert.m):
                for m in range(1, cert.n + cert.m - n):
                    assert states[n] != states[n + m], (x, Q, n, m)


def test_verify_accepts_derived_certificates():
    for x, Q in [(Fraction(1, 3), D10), (Fraction(1, 2), ODD), (Fraction(5, 6), P23)]:
        cert = certify_rational(x, Q)
        check = verify_certificate(x, Q, cert)
        assert check.ok and check.recurrence_ok and check.divisibility_ok
        assert check.reason is None
        assert bool(check)


def test_verify_accepts_non_minimal_recurrence():
    # Multiples of a valid gap recur as well: sigma^0 = sigma^2 for 1/3.
    cert = RationalityCertificate(0, 2, Fraction(1, 3), 100)
    check = verify_certificate(Fraction(1, 3), D10, cert)
    assert check.ok
    assert 100 - 1 == 99 and 99 % 3 == 0


def test_verify_divisibility_witness_values():
    cert = certify_rational(Fraction(1, 3), D10)
    assert (cert.block_product - 1) % 3 == 0  # 9 = 0 mod 3
    cert = certify_rational(Fraction(1, 2), ODD)
    assert (cert.block_product - 1) % 2 == 0  # 3 - 1 = 2 = 0 mod 2


def test_verify_rejects_false_recurrence():
    cert = RationalityCertificate(0, 2, Fraction(5, 6), 6)
    check = verify_certificate(Fraction(5, 6), P23, cert)
    assert not check.ok
    assert check.reason == "recurrence_mismatch"


def test_verify_rejects_wrong_fields_without_raising():
    ok_pair = certify_rational(Fraction(1, 3), D10)
    assert verify_certificate(Fraction(1, 3), D10, RationalityCertificate(-1, 1, Fraction(0), 1)).reason == "invalid_fields"
    assert verify_certificate(Fraction(3, 2), D10, ok_pair).reason == "value_out_of_range"
    wrong_sigma = RationalityCertificate(0, 1, Fraction(2, 3), 10)
    assert verify_certificate(Fraction(1, 3), D10, wrong_sigma).reason == "sigma_mismatch"
    wrong_product = RationalityCertificate(0, 1, Fraction(1, 3), 11)
    assert verify_certificate(Fraction(1, 3), D10, wrong_product).reason == "block_product_mismatch"


@pytest.mark.parametrize("n,m", [(1.5, 1), (0, 1.0), ("0", 1), (True, 1), (0, True)])
def test_verify_rejects_non_integer_fields_without_raising(n, m):
    cert = RationalityCertificate(n, m, Fraction(1, 3), 10)
    assert verify_certificate(Fraction(1, 3), D10, cert).reason == "invalid_fields"


@pytest.mark.parametrize("Q,m", [(D10, 30010), (ODD, 184)])
def test_reconstruct_long_block(Q, m):
    # Blocks many runs of 64 digits long, so the positional numerator is
    # built by merging runs.
    x = Fraction(12345, 30011)
    desc = block_description(x, Q)
    assert len(desc.block) == m
    assert reconstruct(desc, Q) == x


def test_reconstruct_single_block_digit():
    desc = BlockDescription(DigitWord(()), DigitWord((1,)))
    assert reconstruct(desc, ODD) == Fraction(1, 2)


def test_reconstruct_zero_block():
    desc = BlockDescription(DigitWord(()), DigitWord((0,)))
    assert reconstruct(desc, P23) == 0
    assert reconstruct(desc, D10) == 0


def test_reconstruct_with_preperiod():
    desc = BlockDescription(DigitWord((1, 2)), DigitWord((0,), start=3))
    assert reconstruct(desc, P23) == Fraction(5, 6)


def test_reconstruct_rejects_all_maximal_block():
    desc = BlockDescription(DigitWord(()), DigitWord((1, 2), start=1))
    with pytest.raises(DomainError):
        reconstruct(desc, P23)


def test_reconstruct_rejects_digit_out_of_range():
    desc = BlockDescription(DigitWord(()), DigitWord((5,)))
    with pytest.raises(DomainError):
        reconstruct(desc, P23)


def test_block_description_positions_are_checked():
    with pytest.raises(DomainError):
        BlockDescription(DigitWord((1,)), DigitWord((1,), start=3))
    with pytest.raises(DomainError):
        BlockDescription(DigitWord((1,)), DigitWord((), start=2))
    with pytest.raises(DomainError):
        BlockDescription(DigitWord((1,), start=2), DigitWord((1,), start=3))


def test_round_trip_certify_expand_reconstruct():
    for x in [Fraction(1, 2), Fraction(5, 6), Fraction(3, 7), Fraction(22, 45)]:
        for Q in [P23, ODD, D10, Periodic((5, 2, 7))]:
            assert reconstruct(block_description(x, Q), Q) == x


def test_pigeonhole_bound_small_sweep():
    for v in range(2, 30):
        for u in range(1, v):
            if math.gcd(u, v) != 1:
                continue
            cert = certify_rational(Fraction(u, v), P23)
            assert cert.n + cert.m <= v


def test_tails_equal_constant_shift_value():
    assert shift_value(Fraction(1, 2), ODD, 2) == shift_value(Fraction(1, 2), ODD, 2 + 5)


def test_tails_equal_detects_difference():
    assert shift_value(Fraction(5, 6), P23, 0) != shift_value(Fraction(5, 6), P23, 0 + 2)


def test_tails_equal_zero():
    assert shift_value(Fraction(0), Constant(2), 0) == shift_value(Fraction(0), Constant(2), 0 + 1)


def test_tails_equal_matches_certificate():
    for x in [Fraction(3, 11), Fraction(7, 9)]:
        for Q in [P23, D10]:
            cert = certify_rational(x, Q)
            assert shift_value(x, Q, cert.n) == shift_value(x, Q, cert.n + cert.m)


def test_tails_equal_argument_checks():
    with pytest.raises(DomainError):
        shift_value(Fraction(1, 2), P23, -1)
    gapless = RationalityCertificate(0, 0, Fraction(1, 2), 1)
    assert verify_certificate(Fraction(1, 2), P23, gapless).reason == "invalid_fields"


@pytest.mark.parametrize("n,m", [(10**20, 1), (0, 10**20)])
def test_verify_rejects_rule_ranges_too_long_to_take_without_raising(n, m):
    cert = RationalityCertificate(n, m, Fraction(1, 3), 5)
    assert verify_certificate(Fraction(1, 3), ODD, cert) == CertificateCheck(False, "invalid_fields", False, False)


def test_verify_rejects_list_backed_blocks_too_long_to_build_without_raising():
    # past sys.maxsize bases, and below it but past base_product's size bound
    for m in (10**20, 10**10):
        cert = RationalityCertificate(0, m, Fraction(1, 3), 10)
        assert verify_certificate(Fraction(1, 3), D10, cert) == CertificateCheck(False, "invalid_fields", False, False)


def test_block_description_refuses_what_certify_refuses_at_once():
    # (n, m) = (0, 10^9 + 6) is found in milliseconds; its digits would fill gigabytes
    x = Fraction(1, 10**9 + 7)
    with pytest.raises(DomainError, match="bits") as refused:
        certify_rational(x, D10)
    began = time.perf_counter()
    with pytest.raises(DomainError) as described:
        block_description(x, D10)
    assert time.perf_counter() - began < 2.0
    assert str(described.value) == str(refused.value)


def test_verify_far_certificate_on_list_backed_sequence_still_checks():
    cert = RationalityCertificate(10**20, 1, Fraction(1, 3), 10)
    assert verify_certificate(Fraction(1, 3), D10, cert).ok


def _list_backed(prefix, period):
    return PrefixPeriodic(prefix, period) if prefix else Periodic(period)


@given(recurrence_cases(), st.data())
def test_closed_form_recurrence_matches_a_plain_walk(case, data):
    # phase_search at every v, below the scan's crossover too; then
    # certify_rational on some u/v, u = 0 among them, whichever path it takes.
    prefix, period, v = case
    Q = _list_backed(prefix, period)
    assert phase_search(Q, v) == oracle_first_repeat(Fraction(1 % v, v), prefix, period)[:2]
    x = Fraction(data.draw(st.one_of(st.just(0), st.integers(min_value=1, max_value=max(1, v - 1)))), v) % 1
    cert = certify_rational(x, Q)
    assert (cert.n, cert.m, cert.sigma_value) == oracle_first_repeat(x, prefix, period)


def test_closed_form_recurrence_on_every_small_case():
    # every prefix of up to two bases and period of one or two from
    # {2, 3, 4, 6}, at every v below 60: among them, prefix states whose gcd
    # with v2 differs from that of the walk's last state
    words = [()] + [w for k in (1, 2) for w in itertools.product((2, 3, 4, 6), repeat=k)]
    for prefix in words:
        for period in words[1:]:
            Q = _list_backed(prefix, period)
            for v in range(1, 60):
                assert phase_search(Q, v) == oracle_first_repeat(Fraction(1 % v, v), prefix, period)[:2], (Q, v)


PRIMES = (1009, 10007, 100003, 1000003, 10000019, 100000007, 1000000007)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("q", [2, 3, 10, 12])
def test_constant_sequence_recurs_at_the_multiplicative_order(p, q):
    # m = ord_p(q), and a factor 2**e of v (a prime of 2, 10 and 12) adds
    # the n = ceil(e / (exponent of 2 in q)) steps that clear it
    n_order = pytest.importorskip("sympy").n_order
    assert phase_search(Constant(q), p) == (0, n_order(q, p))
    if q % 2 == 0:
        twos = (q & -q).bit_length() - 1
        assert phase_search(Constant(q), p << 7) == (-(-7 // twos), n_order(q, p))


def test_recurrence_of_a_ten_digit_prime_is_fast():
    began = time.perf_counter()
    assert phase_search(D10, 10**9 + 7) == (0, 10**9 + 6)
    assert time.perf_counter() - began < 2.0


@pytest.mark.parametrize(
    "prefix,period,v",
    [((), (2, 3), 2 * 6**40 - 1), ((3,), (10,), 3 * 10**30 - 1)],
)
def test_short_recurrence_at_a_large_denominator_is_fast(prefix, period, v):
    # pi_81 = 2 * 6**40 = 1 and pi_31 = 3 * 10**30 = 1 (mod v): the scan
    # meets them long before its sqrt(v) budget, where phase_search's table
    # would grow toward sqrt(v) entries unless the period product has a
    # small order mod v
    Q, x = _list_backed(prefix, period), Fraction(1, v)
    began = time.perf_counter()
    cert, desc = certify_rational(x, Q), block_description(x, Q)
    assert time.perf_counter() - began < 2.0
    assert (cert.n, cert.m, cert.sigma_value) == oracle_first_repeat(x, prefix, period)
    assert (len(desc.preperiod), len(desc.block)) == (cert.n, cert.m)


def test_certificates_whose_block_product_passes_the_size_bound_are_domain_errors():
    # (n, m) = (0, 10**9 + 6) takes milliseconds; 10**m would take hours
    began = time.perf_counter()
    with pytest.raises(DomainError, match="bits"):
        certify_rational(Fraction(1, 10**9 + 7), D10)
    assert time.perf_counter() - began < 2.0
