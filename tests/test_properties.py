"""Invariant checks driven by hypothesis over random values and sequences."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cantorseries import (
    Constant,
    DigitWord,
    Periodic,
    PrefixPeriodic,
    Rule,
    ShiftState,
    base_product,
    bases,
    block_description,
    certify_rational,
    cofinite_value,
    convert_dual,
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
from helpers import proper_fractions, qseqs

REACH = 200  # positions the literal lists below cover


@st.composite
def sequences_with_literal_bases(draw):
    """A QSequence plus its first REACH bases written out from the constructor
    arguments (or the rule's formula) alone."""
    entry = st.integers(min_value=2, max_value=12)
    short = st.lists(entry, min_size=1, max_size=4).map(tuple)
    kind = draw(st.sampled_from(["const", "periodic", "prefix", "rule"]))
    if kind == "rule":
        return Rule("odd"), [2 * k + 1 for k in range(1, REACH + 1)]
    if kind == "const":
        b = draw(entry)
        return Constant(b), [b] * REACH
    period = draw(short)
    if kind == "periodic":
        return Periodic(period), (list(period) * REACH)[:REACH]
    prefix = draw(short)
    return PrefixPeriodic(prefix, period), (list(prefix) + list(period) * REACH)[:REACH]


@given(sequences_with_literal_bases(), st.integers(min_value=1, max_value=20), st.integers(min_value=0, max_value=60))
def test_base_layer_matches_literal_list(spec, start, count):
    # start runs through the prefix, across its end and into mid-period;
    # count 0 is the empty range.
    Q, literal = spec
    window = literal[start - 1 : start - 1 + count]
    assert q_at(Q, start) == literal[start - 1]
    assert bases(Q, count, start) == tuple(window)
    assert base_product(Q, start, start + count - 1) == math.prod(window)


@given(qseqs())
def test_format_parse_round_trip(Q):
    assert parse_qseq(format_qseq(Q)) == Q


@given(qseqs(), st.integers(min_value=1, max_value=200))
def test_every_base_at_least_two(Q, k):
    assert q_at(Q, k) >= 2


@given(proper_fractions(), qseqs(), st.integers(min_value=1, max_value=30))
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
