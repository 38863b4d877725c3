"""Invariant checks driven by hypothesis over random values and sequences."""

import itertools
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cantorseries import (
    DigitWord,
    RationalityCertificate,
    ShiftState,
    base_product,
    bases,
    block_description,
    certify_rational,
    cofinite_value,
    convert_dual,
    dual_representation,
    enclosure,
    evaluate_finite,
    expand,
    format_qseq,
    parse_qseq,
    q_at,
    reconstruct,
    regroup,
    shift_step,
    shift_value,
    verify_certificate,
)
from cantorseries.expansion import _positional
from helpers import (
    dual_cases,
    oracle_certificate_check,
    oracle_digits,
    oracle_dual_chain,
    oracle_regroup,
    oracle_positional,
    oracle_shift_states,
    proper_fractions,
    qseqs,
    sequences_with_literal_bases,
    wide_fractions,
)


@given(sequences_with_literal_bases(), st.integers(min_value=1, max_value=20), st.integers(min_value=0, max_value=60))
def test_base_layer_matches_literal_list(spec, start, count):
    # start runs through the prefix, across its end and into mid-period;
    # count 0 is the empty range.
    Q, literal = spec
    window = literal[start - 1 : start - 1 + count]
    assert q_at(Q, start) == literal[start - 1]
    assert bases(Q, count, start) == tuple(window)
    assert base_product(Q, start, start + count - 1) == math.prod(window)


# Lengths on both sides of every run and merge boundary of _positional
# (runs of 64 digits, merged in balanced pairs), plus one long stack.
MERGE_LENGTHS = [0, 1, 63, 64, 65, 128, 129, 191, 192, 1000, 1031]


@given(
    sequences_with_literal_bases(reach=1100),
    st.integers(min_value=1, max_value=20),
    st.sampled_from(MERGE_LENGTHS),
    st.randoms(use_true_random=False),
)
def test_positional_matches_one_multiply_per_digit(spec, start, length, rng):
    Q, literal = spec
    qs = literal[start - 1 : start - 1 + length]
    digits = tuple(rng.randrange(q) for q in qs)
    assert _positional(digits, Q, start) == oracle_positional(digits, qs)


@given(qseqs())
def test_format_parse_round_trip(Q):
    assert parse_qseq(format_qseq(Q)) == Q


@given(qseqs(), st.integers(min_value=1, max_value=200))
def test_every_base_at_least_two(Q, k):
    assert q_at(Q, k) >= 2


# Counts on both sides of expand's runs of 64 bases.
RUN_COUNTS = st.sampled_from([1, 63, 64, 65, 128, 129])


@given(
    st.one_of(proper_fractions(), wide_fractions()),
    qseqs(),
    st.one_of(st.integers(min_value=1, max_value=30), RUN_COUNTS),
)
def test_expand_agrees_with_repeated_shift_step(x, Q, count):
    word, final = expand(x, Q, count)
    state = ShiftState(0, x)
    digits = []
    for k in range(1, count + 1):
        d, state = shift_step(state, q_at(Q, k))
        digits.append(d)
    assert tuple(digits) == word.digits
    assert state == final


@given(proper_fractions(), qseqs(), st.integers(min_value=1, max_value=30))
def test_partial_sum_identity_at_every_prefix(x, Q, count):
    word, _ = expand(x, Q, count)
    partial = Fraction(0)
    prod = 1
    for i, d in enumerate(word.digits, 1):
        prod *= q_at(Q, i)
        partial += Fraction(d, prod)
        assert x == partial + shift_value(x, Q, i) / prod


@given(proper_fractions(), qseqs(), st.integers(min_value=1, max_value=40))
def test_digits_in_alphabet_and_states_in_unit_interval(x, Q, count):
    word, state = expand(x, Q, count)
    for i, d in enumerate(word.digits, 1):
        assert 0 <= d <= q_at(Q, i) - 1
    assert 0 <= state.value < 1


@given(proper_fractions(), qseqs(), st.integers(min_value=0, max_value=40))
def test_shift_state_denominator_divides_original(x, Q, n):
    sigma = shift_value(x, Q, n)
    assert x.denominator % sigma.denominator == 0
    u_n = sigma.numerator * (x.denominator // sigma.denominator)
    assert 0 <= u_n < x.denominator


@given(proper_fractions(), qseqs(), st.integers(min_value=1, max_value=20))
def test_enclosures_nest_and_contain_the_value(x, Q, count):
    prev = None
    for n in range(1, count + 1):
        word, _ = expand(x, Q, n)
        box = enclosure(word, Q)
        assert box.low <= x <= box.high
        if prev is not None:
            assert prev.low <= box.low and box.high <= prev.high
        prev = box


@given(proper_fractions(max_denominator=80), qseqs())
def test_certificates_respect_pigeonhole_and_verify(x, Q):
    cert = certify_rational(x, Q)
    assert cert.n >= 0 and cert.m >= 1
    assert cert.n + cert.m <= x.denominator
    assert verify_certificate(x, Q, cert).ok
    assert shift_value(x, Q, cert.n) == shift_value(x, Q, cert.n + cert.m)


@given(
    proper_fractions(max_denominator=80),
    qseqs(),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=-1, max_value=1),
    st.sampled_from(["walk", "certified", "off"]),
    st.integers(min_value=0, max_value=1),
)
def test_verify_certificate_matches_walk(x, Q, dn, k, dm, sigma_kind, product_off):
    # Minimal certificates, later and longer valid ones (n + dn, k * m), and
    # invalid ones: a gap off by one, a wrong shift value, a wrong product.
    cert = certify_rational(x, Q)
    n, m = cert.n + dn, max(1, k * cert.m + dm)
    walked = oracle_shift_states(x, Q, n)[n]
    sigma = {"walk": walked, "certified": cert.sigma_value, "off": walked + Fraction(1, 7)}[sigma_kind]
    product = math.prod(q_at(Q, i) for i in range(n + 1, n + m + 1)) + product_off
    claim = RationalityCertificate(n, m, sigma, product)
    assert verify_certificate(x, Q, claim) == oracle_certificate_check(x, Q, claim)


@given(proper_fractions(max_denominator=80), qseqs())
def test_block_description_round_trip(x, Q):
    assert reconstruct(block_description(x, Q), Q) == x


@given(proper_fractions(max_denominator=80), qseqs())
def test_block_description_is_certify_then_expand(x, Q):
    cert = certify_rational(x, Q)
    word, _ = expand(x, Q, cert.n + cert.m)
    desc = block_description(x, Q)
    assert desc.preperiod == DigitWord(word.digits[: cert.n])
    assert desc.block == DigitWord(word.digits[cert.n :], start=cert.n + 1)


@given(proper_fractions(max_denominator=50), qseqs())
def test_terminating_expansions_evaluate_back(x, Q):
    word, state = expand(x, Q, x.denominator + 1)
    if state.value == 0:
        assert evaluate_finite(word, Q) == x


@given(proper_fractions(max_denominator=50).filter(lambda f: f > 0), qseqs())
def test_convert_dual_preserves_value_and_inverts(x, Q):
    word, state = expand(x, Q, x.denominator + 1)
    if state.value != 0:
        return  # no terminating form, nothing to convert
    cof = convert_dual(word, Q)
    assert cofinite_value(cof, Q) == x
    assert evaluate_finite(convert_dual(cof, Q), Q) == x


@settings(max_examples=50)
@given(
    proper_fractions(max_denominator=40),
    qseqs(),
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=5),
)
def test_regroup_preserves_value(x, Q, gaps):
    bps = []
    total = 0
    for g in gaps:
        total += g
        bps.append(total)
    new_bases, word, report = regroup(x, Q, tuple(bps))
    partial = Fraction(0)
    prod = 1
    for lam, base in zip(word.digits, new_bases):
        assert 0 <= lam < base
        prod *= base
        partial += Fraction(lam, prod)
    assert x == partial + shift_value(x, Q, bps[-1]) / prod
    assert report.mu == min(b.mu for b in report.blocks)


@settings(max_examples=150)
@given(dual_cases())
def test_dual_representation_matches_the_residual_chain(case):
    x, Q, bound = case
    decision, n0 = oracle_dual_chain(x, Q, bound)
    report = dual_representation(x, Q, bound)
    assert (report.decision, report.n0) == (decision, n0)
    if decision == "yes":
        digits, tail = oracle_digits(x, Q, n0)
        assert tail == 0
        assert report.finite_form.digits == tuple(digits)
        assert report.cofinite_form.head.digits == tuple(digits[:-1]) + (digits[-1] - 1,)


@settings(max_examples=75)
@given(
    st.one_of(proper_fractions(), wide_fractions()),
    qseqs(),
    st.lists(st.integers(min_value=1, max_value=150), min_size=1, max_size=5),
)
def test_regroup_matches_partial_sums(x, Q, gaps):
    bps = tuple(itertools.accumulate(gaps))
    new_bases, word, report = regroup(x, Q, bps)
    want_bases, want_digits = oracle_regroup(x, Q, bps)
    assert list(new_bases) == want_bases and list(word.digits) == want_digits
    assert [(b.lam, b.mu + 1) for b in report.blocks] == list(zip(want_digits, want_bases))
