"""Invariant checks driven by hypothesis over random values and sequences."""

import itertools
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorseries import (
    BlockDescription,
    CofiniteExpansion,
    DigitWord,
    Periodic,
    PrefixPeriodic,
    RationalityCertificate,
    Rule,
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
    local_value,
    parse_qseq,
    q_at,
    reconstruct,
    regroup,
    shift_constant_check,
    shift_step,
    shift_value,
    validate_digits,
    verify_certificate,
)
from cantorseries import _packing, expansion
from cantorseries.expansion import _packed, _positional, _word_positional
from cantorseries.foundation import DomainError, _base_product_mod, _merge_runs, _span
from helpers import (
    LANE_PERIODS,
    PACKED_PERIODS,
    bad_short_words,
    base_entries,
    dual_cases,
    lane_cases,
    oracle_certificate_check,
    oracle_digit_error,
    oracle_digits,
    oracle_dual_chain,
    oracle_regroup,
    oracle_positional,
    oracle_shift_states,
    oracle_walked,
    packed_cases,
    positional_cases,
    proper_fractions,
    qseqs,
    sequences_with_literal_bases,
    span_cases,
    takes_lanes,
    walk_cases,
    wide_fractions,
    window_cases,
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


@given(
    st.lists(base_entries(), max_size=4).map(tuple),
    st.lists(base_entries(), min_size=1, max_size=4).map(tuple),
    st.booleans(),
    st.integers(min_value=1, max_value=20),
    st.one_of(st.integers(min_value=0, max_value=40), st.integers(min_value=200, max_value=1500)),
    st.integers(min_value=1, max_value=200),
)
def test_sliced_products_match_the_listed_bases(prefix, period, odd, lo, count, v):
    # lo falls inside the prefix, on its last base, or past it, at every
    # period phase; up to hundreds of whole periods, of an odd period
    # product or an even one, whose power is an odd power and a shift
    if odd:
        period = tuple(q | 1 for q in period)
    Q = PrefixPeriodic(prefix, period) if prefix else Periodic(period)
    want = math.prod(bases(Q, count, lo))
    assert base_product(Q, lo, lo + count - 1) == want
    assert _base_product_mod(Q, lo, lo + count - 1, v) == want % v


@settings(max_examples=300)
@given(span_cases())
def test_short_runs_match_one_base_at_a_time(case):
    # _span and the base layer on runs of up to 130 bases, across the
    # prefix edge, at every period phase and far out, against the bases
    # written out one at a time and one multiply per base
    Q, base, lo, count = case
    want = tuple(base(k) for k in range(lo, lo + count))
    assert tuple(_span(Q, lo, count)) == want
    assert bases(Q, count, lo) == want
    assert q_at(Q, lo) == base(lo)
    product = 1
    for q in want:
        product *= q
    assert base_product(Q, lo, lo + count - 1) == product
    for v in (1, 2, 30, 1001, 2**70 + 1):
        assert _base_product_mod(Q, lo, lo + count - 1, v) == product % v


def _raises_exactly(message, call, *args):
    with pytest.raises(DomainError) as got:
        call(*args)
    assert str(got.value) == message


@settings(max_examples=200)
@given(bad_short_words(), st.data())
def test_short_words_name_the_first_bad_digit(case, data):
    # Words of at most 64 digits are checked and folded in one loop; a bad
    # digit must still give the message of one step per digit, from every
    # entry point that folds a word.  From position 1 the digits meet other
    # bases, so the first bad one may come earlier, or none be bad.
    Q, literal, start, digits = case
    bad = oracle_digit_error(digits, literal[start - 1 :], start)
    for call in (validate_digits, local_value):
        _raises_exactly(bad, call, DigitWord(digits, start), Q)
    bad = oracle_digit_error(digits, literal, 1)
    n = data.draw(st.integers(min_value=0, max_value=len(digits) - 1))
    calls = [
        (evaluate_finite, DigitWord(digits)),
        (enclosure, DigitWord(digits)),
        (cofinite_value, CofiniteExpansion(DigitWord(digits))),
        # the preperiod is checked before the block
        (reconstruct, BlockDescription(DigitWord(digits[:n]), DigitWord(digits[n:], n + 1))),
    ]
    if bad is None:
        assert evaluate_finite(DigitWord(digits), Q) == Fraction(*oracle_positional(digits, literal))
        return
    for call, arg in calls:
        _raises_exactly(bad, call, arg, Q)


@settings(max_examples=300)
@given(positional_cases(), st.randoms(use_true_random=False))
def test_positional_matches_one_multiply_per_digit(case, rng):
    Q, literal, start, length = case
    qs = literal[start - 1 : start - 1 + length]
    digits = tuple(rng.randrange(q) for q in qs)
    assert _positional(digits, Q, start) == oracle_positional(digits, qs)


@settings(max_examples=200, deadline=None)
@given(walk_cases())
def test_evaluation_from_the_right_matches_one_multiply_per_digit(case):
    # local_value, evaluate_finite and cofinite_value (worth one more unit
    # of the last weight) equal the one-multiply-per-digit fold, and name
    # the first bad digit; past 64 digits the digits worth a fraction of
    # denominator at most 2**64 are walked from the right, and _positional
    # folds the rest, once.
    Q, literal, start, digits = case
    folded = []
    real = expansion._positional

    def positional(part, *args):
        folded.append(len(part))
        return real(part, *args)

    words = [(local_value, DigitWord(digits, start), literal[start - 1 :], 0)]
    if start == 1:
        last = max((i for i, d in enumerate(digits) if d), default=None)
        twin = () if last is None else digits[:last] + (digits[last] - 1,)
        words += [(evaluate_finite, DigitWord(digits), literal, 0), (cofinite_value, DigitWord(digits), literal, 1)]
        # the cofinite twin of a finite form, worth the same
        words += [(cofinite_value, DigitWord(twin), literal, 1)] if twin else []
    for call, word, qs, tail in words:
        arg = CofiniteExpansion(word) if call is cofinite_value else word
        bad = oracle_digit_error(word.digits, qs, word.start)
        num, prod = oracle_positional(word.digits, qs)
        folded.clear()
        with mock.patch.object(expansion, "_positional", positional):
            if bad is not None:
                _raises_exactly(bad, call, arg, Q)
                continue
            if num + tail == prod:
                _raises_exactly("all-maximal head describes the excluded endpoint value 1", call, arg, Q)
                continue
            assert call(arg, Q) == Fraction(num + tail, prod)
        stop = len(word) - oracle_walked(word.digits, qs, tail)
        assert folded == ([stop] if stop and len(word) > 64 else [])


@pytest.mark.parametrize("period", PACKED_PERIODS, ids=lambda p: ",".join(map(str, p)) if len(p) < 8 else f"{len(p)} bases")
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_packed_check_and_fold_match_one_step_per_digit(period, data):
    # The packed path names the first bad digit, in the message that one
    # step per digit gives, and folds what passes to the same (N, P) as one
    # multiply per digit.  It is taken exactly for a word longer than 64
    # digits on a period of at most 64 bases whose digits past the prefix
    # are all below 256.
    Q, literal, start, digits = data.draw(packed_cases(period))
    qs = literal[start - 1 :]
    word = DigitWord(digits, start)
    bad = oracle_digit_error(digits, qs, start)
    if bad is not None:
        for call in (_word_positional, _packed, validate_digits):
            with pytest.raises(DomainError) as got:
                call(word, Q)
            assert str(got.value) == bad
        return
    assert _word_positional(word, Q) == oracle_positional(digits, qs)
    head = max(0, len(Q.prefix) - start + 1)
    packs = len(Q.period) <= 64 and len(digits) > 64 and max(digits[head:], default=0) < 256
    assert (_packed(word, Q) is not None) == packs


@pytest.mark.parametrize("period", LANE_PERIODS, ids=lambda p: ",".join(map(str, p)) if len(p) <= 8 else f"{len(p)} bases")
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_lane_expansion_matches_the_greedy_digits(period, data):
    # The digits and the final state are those of plain Fraction steps, on
    # the lanes and off them, for v up to 4,096 bits.  The lanes are taken
    # exactly when takes_lanes says: a count of at least LANES_FROM, a
    # period of at most 64 bases, all at most 256, and past LANE_BITS bits
    # of v, where they start from one division of v a chunk, a period
    # product of at most LANE_BITS bits.
    x, Q, count = data.draw(lane_cases(period))
    real = _packing.expand_lanes
    calls = []
    with mock.patch.object(_packing, "expand_lanes", lambda *args: calls.append(args) or real(*args)), \
            mock.patch.object(expansion, "_expand_lanes", None):
        word, state = expand(x, Q, count)
    digits, value = oracle_digits(x, Q, count)
    assert word == DigitWord(digits) and state == ShiftState(count, value)
    assert bool(calls) == takes_lanes(x.denominator, period, count)


@pytest.mark.parametrize("period", LANE_PERIODS, ids=lambda p: ",".join(map(str, p)) if len(p) <= 8 else f"{len(p)} bases")
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_shift_constant_window_takes_the_lanes_from_any_start(period, data):
    # The window's witnesses and verdict are those of plain Fraction steps
    # from position 1, from any n0.  Its digits come off the lanes exactly
    # when expand's would for `horizon` digits of sigma^n0(x) = a/b, as
    # takes_lanes says, also for a b of up to 4,096 bits from n0 > 0.
    x, Q, n0, horizon = data.draw(window_cases(period))
    real = _packing.expand_lanes
    calls = []
    with mock.patch.object(_packing, "expand_lanes", lambda *args: calls.append(args) or real(*args)), \
            mock.patch.object(expansion, "_expand_lanes", None):
        report = shift_constant_check(x, Q, n0, horizon)
    digits, _ = oracle_digits(x, Q, n0 + horizon)
    target = oracle_digits(x, Q, n0)[1]
    positions = range(n0 + 1, n0 + horizon + 1)
    qs = [q_at(Q, k) for k in positions]
    holds = all(Fraction(e, q - 1) == target for e, q in zip(digits[n0:], qs))
    assert report.ratio_witnesses == tuple(zip(positions, digits[n0:], qs))
    assert (report.holds, report.after, report.constant) == (holds, n0, target if holds else None)
    assert bool(calls) == takes_lanes(target.denominator, period, horizon)


@given(
    st.lists(st.tuples(st.integers(min_value=0, max_value=2**130), st.integers(min_value=2, max_value=2**130)),
             min_size=1, max_size=70),
    st.one_of(
        st.none(),
        st.tuples(
            st.one_of(st.just(0), st.integers(min_value=0, max_value=300)),
            st.one_of(st.just(1), st.integers(min_value=0, max_value=2**130).map(lambda k: 2 * k + 1)),
        ).filter(lambda split: split != (0, 1)),
    ),
    st.booleans(),
)
def test_merge_runs_matches_a_left_fold(runs, shared, zeros):
    # both modes: one product per run, or one shared by all, W = 2**a * r
    # with r odd, a power of two (r = 1) and an odd W (a = 0) among them;
    # zero numerators are how base_product uses it
    nums = [0 if zeros else num for num, _ in runs]
    prods = [prod for _, prod in runs] if shared is None else [shared[1] << shared[0]] * len(runs)
    want = oracle_positional(nums, prods)
    assert _merge_runs(nums, prods if shared is None else prods[0]) == want


@given(qseqs())
def test_format_parse_round_trip(Q):
    assert parse_qseq(format_qseq(Q)) == Q


@given(qseqs(), st.integers(min_value=1, max_value=200))
def test_every_base_at_least_two(Q, k):
    assert q_at(Q, k) >= 2


# Counts on both sides of 64: the longest word folded in one loop, and the
# longest period expand_lanes takes.
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


@st.composite
def values_and_sequences(draw):
    """(x, Q): x a small or wide fraction, or a fixed-point candidate
    eps/(q - 1) of Q, q its least base read from the constructor arguments
    (3 on rule:odd), so that windows that hold and blocks of one ratio come
    up too."""
    Q = draw(qseqs())
    if draw(st.booleans()):
        return draw(st.one_of(proper_fractions(), wide_fractions())), Q
    q = 3 if isinstance(Q, Rule) else min(Q.prefix + Q.period)
    return Fraction(draw(st.integers(min_value=0, max_value=q - 2)), q - 1), Q


@settings(max_examples=75)
@given(
    values_and_sequences(),
    st.one_of(
        st.lists(st.integers(min_value=1, max_value=150), min_size=1, max_size=5),
        # blocks of 1-7 bases: many blocks, each one step over a wide denominator
        st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=150),
    ),
)
def test_regroup_matches_partial_sums(case, gaps):
    x, Q = case
    bps = tuple(itertools.accumulate(gaps))
    new_bases, word, report = regroup(x, Q, bps)
    want_bases, want_digits = oracle_regroup(x, Q, bps)
    assert list(new_bases) == want_bases and list(word.digits) == want_digits
    assert [(b.lam, b.mu + 1) for b in report.blocks] == list(zip(want_digits, want_bases))
    one_ratio = len({Fraction(lam, base - 1) for lam, base in zip(want_digits, want_bases)}) == 1
    assert report.ratio_constant is one_ratio and report.proportional is one_ratio


@given(
    values_and_sequences(),
    st.integers(min_value=0, max_value=40),
    st.one_of(st.integers(min_value=1, max_value=30), RUN_COUNTS),
)
def test_shift_constant_window_carries_the_digits_of_x(case, n0, horizon):
    x, Q = case
    report = shift_constant_check(x, Q, n0, horizon)
    digits, _ = oracle_digits(x, Q, n0 + horizon)
    want = [(k, digits[k - 1], q_at(Q, k)) for k in range(n0 + 1, n0 + horizon + 1)]
    assert list(report.ratio_witnesses) == want
    _, target = oracle_digits(x, Q, n0)
    holds = all(Fraction(e, q - 1) == target for _, e, q in want)
    assert report.holds is holds and report.constant == (target if holds else None)
