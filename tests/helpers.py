"""Shared oracles and hypothesis strategies.

The oracles recompute expected values by the most literal route available
(plain Fraction arithmetic, direct summation, exhaustive enumeration) so
the tests never trust the code path they are checking.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from cantorseries import CertificateCheck, Constant, Periodic, PrefixPeriodic, QSequence, Rule, q_at


def oracle_digits(x: Fraction, Q: QSequence, count: int) -> tuple[list[int], Fraction]:
    """Greedy digits by plain Fraction arithmetic: scale, floor, subtract."""
    value = Fraction(x)
    digits = []
    for k in range(1, count + 1):
        scaled = value * q_at(Q, k)
        d = math.floor(scaled)
        digits.append(d)
        value = scaled - d
    return digits, value


def oracle_value(digits, Q: QSequence) -> Fraction:
    """Direct summation of e_i / (q1 ... q_i), one term at a time."""
    total = Fraction(0)
    prod = 1
    for i, d in enumerate(digits, 1):
        prod *= q_at(Q, i)
        total += Fraction(d, prod)
    return total


def oracle_shift_states(x: Fraction, Q: QSequence, upto: int) -> list[Fraction]:
    """sigma^0(x) .. sigma^upto(x) by plain Fraction arithmetic."""
    states = [Fraction(x)]
    for k in range(1, upto + 1):
        scaled = states[-1] * q_at(Q, k)
        states.append(scaled - math.floor(scaled))
    return states


def oracle_positional(digits, qs) -> tuple[int, int]:
    """(N, P) of digits over the literal bases qs, one multiply per digit:
    P = q_1...q_m and N = sum e_i * q_{i+1}...q_m."""
    num, prod = 0, 1
    for q, d in zip(qs, digits):
        num = num * q + d
        prod *= q
    return num, prod


def oracle_digit_error(digits, qs, start: int) -> str | None:
    """validate_digits' message for the first digit at or above its base
    among the literal bases qs, the first at position start; None when
    every digit is in range."""
    for k, (d, q) in enumerate(zip(digits, qs), start):
        if d >= q:
            return f"digit {d} at position {k} out of range for base {q}"
    return None


def oracle_certificate_check(x: Fraction, Q: QSequence, cert) -> CertificateCheck:
    """verify_certificate's verdict on a certificate with in-range fields,
    from sigma^0 .. sigma^(n+m) walked in plain Fraction arithmetic and the
    products of the bases multiplied out one at a time."""
    n, m = cert.n, cert.m
    states = oracle_shift_states(x, Q, n + m)
    head = math.prod(q_at(Q, k) for k in range(1, n + 1))
    product = math.prod(q_at(Q, k) for k in range(n + 1, n + m + 1))
    recurrence = states[n] == states[n + m]
    divisible = head * (product - 1) % x.denominator == 0
    if not recurrence:
        reason = "recurrence_mismatch"
    elif cert.sigma_value != states[n]:
        reason = "sigma_mismatch"
    elif cert.block_product != product:
        reason = "block_product_mismatch"
    elif not divisible:
        reason = "divisibility_failed"
    else:
        reason = None
    return CertificateCheck(reason is None, reason, recurrence, divisible)


def oracle_first_repeat(x: Fraction, prefix: tuple[int, ...], period: tuple[int, ...]) -> tuple[int, int, Fraction]:
    """(n, m, sigma^n(x)) of the first repeated shift state of reduced
    x = u/v over the literal bases prefix + period, period, ...: the
    integer states u_k = q_k * u_{k-1} mod v are walked one base at a time
    until one comes back, each kept with the step it first appeared at."""
    u, v = x.numerator, x.denominator
    qs = itertools.chain(prefix, itertools.cycle(period))
    first = {}
    for k in itertools.count():
        if u in first:
            return first[u], k - first[u], Fraction(u, v)
        first[u] = k
        u = next(qs) * u % v


def oracle_dual_chain(x: Fraction, Q: QSequence, bound: int) -> tuple[str, int | None]:
    """(decision, n0) of the dual-representation question by the per-position
    residual chain r_k = r_{k-1} / gcd(r_{k-1}, q_k): "yes" at the first k
    with r_k = 1.  A list-backed Q answers "no" once a full period past the
    prefix and the last reduction leaves r unchanged; rule:odd answers "no"
    for an even r and "undecided" at `bound`."""
    residual = x.denominator
    if isinstance(Q, Rule) and residual % 2 == 0:
        return "no", None
    last_drop = 0
    for k in itertools.count(1):
        g = math.gcd(residual, q_at(Q, k))
        if g > 1:
            residual //= g
            last_drop = k
            if residual == 1:
                return "yes", k
        elif not isinstance(Q, Rule) and k - max(last_drop, len(Q.prefix)) >= len(Q.period):
            return "no", None
        if isinstance(Q, Rule) and k >= bound:
            return "undecided", None


def oracle_regroup(x: Fraction, Q: QSequence, breakpoints) -> tuple[list[int], list[int]]:
    """(new bases, new digits) of x regrouped at the breakpoints, from partial
    sums: block k has base B_k = q_{n_{k-1}+1} * ... * q_{n_k}, multiplied
    out one base at a time, and digit lam_k = floor((x - S_{k-1}) * B_1...B_k),
    where S_{k-1} is the sum of the earlier lam_j / (B_1...B_j)."""
    new_bases, digits = [], []
    partial, weight, lo = Fraction(0), 1, 0
    for nk in breakpoints:
        base = math.prod(q_at(Q, k) for k in range(lo + 1, nk + 1))
        weight *= base
        lam = math.floor((x - partial) * weight)
        partial += Fraction(lam, weight)
        new_bases.append(base)
        digits.append(lam)
        lo = nk
    return new_bases, digits


def base_entries():
    return st.integers(min_value=2, max_value=12)


def qseqs():
    """All four base-sequence kinds with small entries."""
    entry = base_entries()
    short = st.lists(entry, min_size=1, max_size=4).map(tuple)
    return st.one_of(
        st.builds(Constant, entry),
        st.builds(Periodic, short),
        st.builds(PrefixPeriodic, short, short),
        st.just(Rule("odd")),
    )


def proper_fractions(max_denominator: int = 60):
    """Reduced fractions in [0, 1)."""
    return st.integers(min_value=2, max_value=max_denominator).flatmap(
        lambda v: st.integers(min_value=0, max_value=v - 1).map(lambda u: Fraction(u, v))
    )


def wide_fractions():
    """Fractions in [0, 1) over denominators of 600 to 1000 bits: wider than
    the product of 64 bases below 512, and far wider than a few hundred
    digits need.  The numerator is uniform in [0, v), from a seeded
    random.Random: hypothesis's own draws favour small numerators, which
    leave the first hundreds of digits all 0."""
    return st.builds(
        lambda v, rng: Fraction(rng.randrange(v), v),
        st.integers(min_value=2**600, max_value=2**1000),
        st.randoms(use_true_random=True),
    )


@st.composite
def recurrence_cases(draw):
    """(prefix, period, v): a period of 1 to 4 bases 2..12, an empty or
    1-to-4-base prefix, and v <= 10**4, either any or a multiple of a power
    of a prime of the bases (up to p**13 for p = 2)."""
    short = st.lists(base_entries(), min_size=1, max_size=4).map(tuple)
    prefix = draw(st.one_of(st.just(()), short))
    period = draw(short)
    primes = sorted({p for q in prefix + period for p in (2, 3, 5, 7, 11) if q % p == 0})
    shared = st.sampled_from(primes).flatmap(
        lambda p: st.integers(min_value=1, max_value=int(math.log(10**4, p))).map(lambda e: p**e)
    )
    v = draw(st.one_of(
        st.integers(min_value=1, max_value=10**4),
        shared.flatmap(lambda pe: st.integers(min_value=1, max_value=10**4 // pe).map(lambda k: k * pe)),
    ))
    return prefix, period, v


# Primes of no base in qseqs() (entries 2..12), though rule:odd reaches each;
# for rule:odd, 2 is the foreign prime.
FOREIGN_PRIMES = (2, 13, 17, 19, 23)


@st.composite
def dual_cases(draw):
    """(x, Q, bound) for the dual-representation question: a denominator
    built from primes of Q's early bases, each to a power up to 1, 3 or 30,
    sometimes times a foreign prime, so that "yes" comes with n0 in the tens
    or hundreds and "no" (and, for rule:odd, "undecided") comes up too.
    Some prefixes are long over a period of powers of 2, so that an odd
    prime may first appear deep in the prefix and nowhere after it."""
    long_prefix = st.builds(
        PrefixPeriodic,
        st.lists(base_entries(), min_size=5, max_size=24).map(tuple),
        st.lists(st.sampled_from([2, 4, 8]), min_size=1, max_size=2).map(tuple),
    )
    Q = draw(st.one_of(qseqs(), long_prefix))
    early = Q.prefix + Q.period if not isinstance(Q, Rule) else tuple(q_at(Q, k) for k in range(1, 13))
    primes = sorted({p for q in early for p in (2, 3, 5, 7, 11, 13, 17, 19, 23) if q % p == 0})
    chosen = draw(st.lists(st.sampled_from(primes), min_size=1, max_size=3, unique=True))
    top = draw(st.sampled_from([1, 3, 30]))
    r = math.prod(p ** draw(st.integers(min_value=1, max_value=top)) for p in chosen)
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        r *= draw(st.sampled_from(FOREIGN_PRIMES))
    u = draw(st.integers(min_value=1, max_value=r - 1).filter(lambda u: math.gcd(u, r) == 1))
    return Fraction(u, r), Q, draw(st.sampled_from([5, 60, 10000]))


@st.composite
def sequences_with_literal_bases(draw, reach: int = 200):
    """A QSequence plus its first `reach` bases written out from the
    constructor arguments (or the rule's formula) alone."""
    entry = base_entries()
    short = st.lists(entry, min_size=1, max_size=4).map(tuple)
    kind = draw(st.sampled_from(["const", "periodic", "prefix", "rule"]))
    if kind == "rule":
        return Rule("odd"), [2 * k + 1 for k in range(1, reach + 1)]
    if kind == "const":
        b = draw(entry)
        return Constant(b), [b] * reach
    period = draw(short)
    if kind == "periodic":
        return Periodic(period), (list(period) * reach)[:reach]
    prefix = draw(short)
    return PrefixPeriodic(prefix, period), (list(prefix) + list(period) * reach)[:reach]


# Lengths on both sides of the 64-digit run boundaries of _positional's
# (N, P) path, from 1 to 17 runs.  Odd run counts (3, 5, 7, 11, 17) and 12
# (whose 6 blocks become 3) leave an odd first block, which goes up a level
# alone, at one or more levels of the merge.
MERGE_LENGTHS = [
    0, 1, 63, 64, 65, 128, 129, 191, 192, 3 * 64 + 1, 5 * 64, 7 * 64 - 1, 10 * 64 + 5, 11 * 64 + 5, 1000, 1031
]


@st.composite
def positional_cases(draw):
    """(Q, literal bases from position 1, start, length) for _positional.

    Either a sequences_with_literal_bases word at start 1-20 with one of
    MERGE_LENGTHS, or a list-backed sequence with a period of L = 1-70
    bases, whose lengths lie around R, 2R and 2^k R for
    R = L * ceil(64 / L), the whole periods nearest above 64 digits.
    Starts fall inside the prefix (up to 150 bases, so that the prefix part
    alone may pass 64 digits), on its last base, and past it at any period
    phase.
    """
    if draw(st.booleans()):
        Q, literal = draw(sequences_with_literal_bases(reach=1100))
        return Q, literal, draw(st.integers(min_value=1, max_value=20)), draw(st.sampled_from(MERGE_LENGTHS))
    entry = base_entries()
    prefix = draw(st.one_of(st.lists(entry, max_size=4), st.lists(entry, min_size=60, max_size=150)))
    period = draw(st.lists(entry, min_size=1, max_size=70))
    Q = PrefixPeriodic(prefix, period) if prefix else Periodic(period)
    L = len(period)
    R = L * -(-64 // L)
    length = draw(st.sampled_from([R - 1, R, R + 1, 2 * R, 2 * R + 1, 4 * R + 1, 8 * R + 1, *MERGE_LENGTHS]))
    edge = len(prefix)
    start = draw(st.one_of(st.sampled_from([max(edge, 1), edge + 1]), st.integers(min_value=1, max_value=edge + 2 * L)))
    reach = start + length
    return Q, (prefix + period * -(-reach // L))[:reach], start, length


def oracle_walked(digits, qs, tail: int = 0) -> int:
    """How many digits, counted from the right, are worth a fraction of
    denominator at most 2**64 with the tail after them, by plain Fraction
    arithmetic: the digits that evaluation walks before it folds the rest."""
    value = Fraction(tail)
    for walked, (d, q) in enumerate(zip(reversed(digits), reversed(qs[: len(digits)]))):
        if value.denominator > 2**64:
            return walked
        value = (d + value) / q
    return len(digits)


@st.composite
def walk_cases(draw):
    """(Q, literal bases from position 1, start, digits) for evaluation
    from the right, on rule:odd or on a period of 65 to 80 bases, so never
    packed.

    The word has 64, 65 or 129 digits, or 65 to 300, at a start of 1 to
    20.  Right of a left part of random digits (none, some, or the whole
    word) it holds the expansion of c/q_k from its own first position, q_k
    the base at a drawn position k: every tail of it is worth a fraction
    whose denominator divides q_k, and it is 0 from position k on, so the
    word may end in zeros.  Past the left part's first few digits the
    value's denominator passes 2**64.  Half the time one digit is out of
    range, on either side of the point where the walk stops.
    """
    if draw(st.booleans()):
        Q, period, prefix = Rule("odd"), None, []
    else:
        prefix = draw(st.lists(base_entries(), max_size=3))
        period = draw(st.lists(base_entries(), min_size=65, max_size=80))
        Q = PrefixPeriodic(prefix, period) if prefix else Periodic(period)
    start = draw(st.one_of(st.just(1), st.integers(min_value=1, max_value=20)))
    length = draw(st.one_of(st.sampled_from([64, 65, 129]), st.integers(min_value=65, max_value=300)))
    reach = start + length
    literal = [2 * k + 1 for k in range(1, reach)] if period is None else (prefix + period * reach)[: reach - 1]
    qs = literal[start - 1 :]
    left = draw(st.one_of(st.just(0), st.integers(min_value=0, max_value=length)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    digits = [rng.randrange(q) for q in qs[:left]]
    if left < length:
        q_k = qs[draw(st.one_of(st.just(length - 1), st.integers(min_value=left, max_value=length - 1)))]
        value = Fraction(draw(st.integers(min_value=0, max_value=q_k - 1)), q_k)
        for q in qs[left:]:
            digits.append(math.floor(value * q))
            value = value * q - digits[-1]
    if draw(st.booleans()):
        stop = length - oracle_walked(digits, qs)
        at = draw(st.integers(min_value=0, max_value=stop - 1) if stop and draw(st.booleans())
                  else st.integers(min_value=stop, max_value=length - 1))
        digits[at] = draw(st.sampled_from(BAD_DIGITS))(qs[at])
    return Q, literal, start, tuple(digits)


# Periods for the packed check and fold: products W from 2 to 36, the last
# that int(text, W) reads (36 as periodic:6,6 and as const:36), powers of
# two (read in one piece), and past it the lane-pair merge from lanes of the
# fewest bytes that hold W - 1.  One byte: W = 37, 64, 70, 255 and 256 (as
# periodic:16,16 and const:256).  Two: 257, 510, 600 and 2**16 (as
# periodic:256,256 and const:65536).  Three: 65537 and 256 * 257.  Four:
# 300 * 301 * 302, 255**4 and 2**32.  Five: 2**33.  Eight: 2**64 (a 64-base
# period, the longest that is packed).  Nine: 3 * 2**63.  126: 63 bases up
# to 65536.  A 65-base period is not packed.  Digits of 256 and more, on
# bases past 256, are packed two bytes a digit; a digit of 65536, on
# const:65537, does not fit two bytes either.
PACKED_PERIODS = [
    (2,), (3,), (10,), (36,), (6, 6), (2, 3), (3, 2), (2, 2, 3, 3), (2, 2, 2, 2, 2), (4, 8), (35,),
    (37,), (64,), (2, 4, 8), (5, 2, 7), (255,), (3, 5, 17), (16, 16), (256,), (2,) * 63 + (3,), (2,) * 65,
    (257,), (300, 2), (2, 255), (256, 256), (256, 257), (255,) * 4, (256,) * 4, (2,) * 33,
    pytest.param((2,) * 64, id="64 twos"),  # not "64 bases", the id of the 64-base period above
    (65536,), (65537,), (300, 301, 302), tuple(range(65474, 65537)),
]
# Whole periods past the prefix: 0, 1, 2, and 2**k - 1 and 2**k + 1 around
# each level of the lane-pair merge (lanes of 2**k digits, up to 64) and of
# the merge of its 64-digit chunks; 255 to 257 and 511 to 513 around one and
# two chunks of 256 base-W digits of int(text, W).
PACKED_COUNTS = [0, 1, 2, 3, 5, 7, 9, 15, 17, 31, 33, 63, 64, 65, 127, 129, 255, 256, 257, 511, 512, 513]


@st.composite
def packed_cases(draw, period):
    """(Q, literal bases from position 1, start, digits) over the given
    period for the packed check and fold, whose digits may hold one bad
    digit.

    The prefix is empty, short, or longer than 64 bases.  Starts fall on
    and off every period phase, inside the prefix, on its last base and
    past it.  The whole periods past the prefix number one of
    PACKED_COUNTS, and a partial last period of any length follows.  The bad digit sits
    at any position, so at any period phase, or on an edge: the first or
    last digit, or either side of the prefix's end.  It is the base itself,
    the base plus one, 255, 256, 1000, 65535 or 65536.
    """
    prefix = draw(st.one_of(st.just(()), st.lists(base_entries(), min_size=1, max_size=3).map(tuple),
                            st.lists(base_entries(), min_size=65, max_size=80).map(tuple)))
    Q = PrefixPeriodic(prefix, period) if prefix else Periodic(period)
    L = len(period)
    start = draw(st.integers(min_value=1, max_value=len(prefix) + 2 * L + 1))
    over_prefix = max(0, len(prefix) - start + 1)
    periods = draw(st.sampled_from(PACKED_COUNTS))
    length = over_prefix + periods * L + draw(st.integers(min_value=0, max_value=L - 1))
    literal = (list(prefix) + list(period) * -(-(start + length) // L))[: start - 1 + length]
    qs = literal[start - 1 :]
    # up to 33,000 digits: from a drawn seed, as hypothesis would refuse to draw each one
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    digits = [rng.randrange(q) for q in qs]
    if digits and draw(st.booleans()):
        edges = {0, max(0, over_prefix - 1), min(over_prefix, len(digits) - 1), len(digits) - 1}
        at = draw(st.one_of(st.sampled_from(sorted(edges)), st.integers(min_value=0, max_value=len(digits) - 1)))
        digits[at] = draw(st.sampled_from([qs[at], qs[at] + 1, 255, 256, 1000, 65535, 65536]))
    return Q, literal, start, tuple(digits)


# Periods for expand's lane path: bases up to 256 (a digit is a byte) and
# periods up to 64 bases take it; 257 and a 65-base period fall back, and
# past 64 bits of v so do period products past 2**64: eight 256s (2**64)
# and bases 193-256, against eight 255s, just inside.  Runs of bases whose
# product is at most 256 step together: several periods a run (const:2,
# 2,3), runs that reach 256 exactly (256; 2,128), runs that pass it at the
# next base (16,17; six 3s, a run of five and one of one, so a span is not
# a whole number of runs), and runs of one base.
LANE_PERIODS = [
    (2,), (10,), (255,), (256,), (2, 3), (5, 2, 7), (256, 255, 2), (3, 2, 2), tuple(range(193, 257)),
    (2, 128), (16, 17), (3,) * 6, (257,), (2, 257), tuple(range(2, 67)), (255,) * 8, (256,) * 8,
]
# The least count that takes the lanes for any v, the most lanes, and the
# widest v started at its residues (and the widest period product past it).
LANES_FROM, LANES, LANE_BITS = 256, 1024, 64
# Past LANE_BITS bits of v, the lanes start at leaves below 2**LEAF_BITS, cut
# from chunks of about CHUNK_BITS bits.
LEAF_BITS, CHUNK_BITS = 24, 1024


def lanes_from(v):
    """The least count that takes the lanes for v: LANES_FROM up to 47
    bits, doubled at 48, 56 and 64 bits, and LANES_FROM past LANE_BITS."""
    if v.bit_length() > LANE_BITS:
        return LANES_FROM
    return LANES_FROM * 2 ** max(0, (v.bit_length() - 40) // 8)


def takes_lanes(v, period, count):
    """Whether `count` digits of u/v on a list-backed Q with this period
    come off the lanes: a period of at most 64 bases, all at most 256, a
    count of at least lanes_from(v), and past LANE_BITS bits of v a period
    product of at most LANE_BITS bits."""
    wide = v.bit_length() > LANE_BITS and math.prod(period).bit_length() > LANE_BITS
    return len(period) <= 64 and max(period) <= 256 and count >= lanes_from(v) and not wide


def wide_lane_periods(period):
    """(C, P): the periods of one chunk and of one pass of the wide lanes,
    whose leaves hold S periods each, S the most with W**S below
    2**LEAF_BITS for the period product W."""
    W = math.prod(period)
    S = max(k for k in range(1, LEAF_BITS + 1) if W**k < 2**LEAF_BITS or k == 1)
    n = max(1, CHUNK_BITS // (W**S).bit_length())
    return n * S, LANES // n * n * S


def lane_denominators(period):
    """Denominators for the lane cases: v = 1 (x = 0); any v up to
    LANE_BITS bits; either side of a width where the lane threshold
    doubles (47/48, 55/56, 63/64 bits) or the start changes (64/65 bits);
    any v of 65 to 4,096 bits; or a product of 1 to 600 period bases,
    whose expansion ends in zeros from some digit on, as a dual form's
    does, at any point of a chunk."""
    return st.one_of(
        st.sampled_from([1, 2**47 - 115, 2**47 + 5, 2**55 - 55, 2**55 + 81,
                         2**63 - 25, 2**63 + 29, 2**LANE_BITS - 59, 2**LANE_BITS + 13]),
        st.integers(min_value=2, max_value=2**LANE_BITS),
        st.integers(min_value=LANE_BITS + 1, max_value=4096).flatmap(
            lambda bits: st.integers(min_value=2 ** (bits - 1), max_value=2**bits - 1)),
        st.lists(st.sampled_from(period), min_size=1, max_size=600).map(math.prod),
    )


@st.composite
def lane_cases(draw, period):
    """(x, Q, count) for expand over the given period.

    The prefix is empty, 1 to 3 bases (mostly not a whole number of
    periods, so a phase counted from position 1 would be wrong) or 65 to
    80.  x = u/v with v from lane_denominators, up to 4,096 bits.  The
    count is the lane threshold for any v or for this v, one less or one
    more; or it leaves K whole periods past the prefix, plus a partial
    last period, with K around one period a lane (LANES), two, or g and
    g + 1 for the g periods one run can hold, or around one chunk or one
    pass of the wide lanes, or up to 3,000.
    """
    prefix = draw(st.one_of(st.just(()), st.lists(base_entries(), min_size=1, max_size=3).map(tuple),
                            st.lists(base_entries(), min_size=65, max_size=80).map(tuple)))
    Q = PrefixPeriodic(prefix, period) if prefix else Periodic(period)
    v = draw(lane_denominators(period))
    x = Fraction(draw(st.integers(min_value=0, max_value=v - 1)), v)
    L = len(period)
    g = max(k for k in range(1, 9) if math.prod(period) ** k <= 256 or k == 1)
    C, P = wide_lane_periods(period)
    K = draw(st.one_of(
        st.sampled_from([0, 1, 2, 3, LANES - 1, LANES, LANES + 1, 2 * LANES - 1, 2 * LANES + 1,
                         g * LANES, g * LANES + 1, (g + 1) * LANES + 1, C - 1, C, C + 1, P - 1, P, P + 1]),
        st.integers(min_value=0, max_value=3000),
    ))
    past = K * L + draw(st.integers(min_value=0, max_value=L - 1))
    least = lanes_from(v)
    count = draw(st.sampled_from([LANES_FROM - 1, LANES_FROM, LANES_FROM + 1, least - 1, least, least + 1,
                                  len(prefix) + past]))
    return x, Q, max(count, 1)


@st.composite
def window_cases(draw, period):
    """(x, Q, n0, horizon) for shift_constant_check over the given period.

    The prefix is as in lane_cases.  n0 falls before, on or after the
    prefix's end, or anywhere up to two periods past it, so at any period
    phase.  Half the time x has random digits up to n0 and then
    sigma^n0(x) = k/g, g the gcd of q - 1 over every base past n0, so the
    window holds; else x = u/v with v from lane_denominators, so that
    sigma^n0(x) keeps a wide denominator from n0 > 0 on.  The horizon is the
    lane threshold for any v or for sigma^n0(x)'s denominator b, one less
    or one more; or it leaves K whole periods past the prefix, K up to one
    past LANES, plus a partial last period.
    """
    prefix = draw(st.one_of(st.just(()), st.lists(base_entries(), min_size=1, max_size=3).map(tuple),
                            st.lists(base_entries(), min_size=65, max_size=80).map(tuple)))
    Q = PrefixPeriodic(prefix, period) if prefix else Periodic(period)
    edge, L = len(prefix), len(period)
    n0 = draw(st.one_of(st.sampled_from(sorted({max(edge - 1, 0), edge, edge + 1})),
                        st.integers(min_value=0, max_value=edge + 2 * L)))
    before = (prefix + period * -(-n0 // L))[:n0]  # q_1 .. q_n0
    if draw(st.booleans()):
        g = math.gcd(*(q - 1 for q in prefix[n0:] + period))
        target = Fraction(draw(st.integers(min_value=0, max_value=g - 1)), g)
        rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
        x, weight = Fraction(0), Fraction(1)
        for q in before:
            weight /= q
            x += rng.randrange(q) * weight
        x += target * weight
    else:
        v = draw(lane_denominators(period))
        x = Fraction(draw(st.integers(min_value=0, max_value=v - 1)), v)
    b = x.denominator // math.gcd(x.denominator, math.prod(before))
    K = draw(st.sampled_from([0, 1, 2, 3, LANES - 1, LANES + 1]))
    past = max(0, edge - n0) + K * L + draw(st.integers(min_value=0, max_value=L - 1))
    least = lanes_from(b)
    horizon = draw(st.sampled_from([LANES_FROM - 1, LANES_FROM, LANES_FROM + 1, least - 1, least, least + 1, past]))
    return x, Q, n0, max(horizon, 1)


@st.composite
def span_cases(draw):
    """(Q, base, lo, count) for runs of up to 130 bases: base(k) is q_k,
    read from the constructor arguments alone (or the rule's formula).

    Q has a prefix of 0-5 bases and a period of 1-70, or is rule:odd.  lo
    falls inside the prefix, on its last base or the first after it, or
    past it at any period phase, up to a million periods on.
    """
    count = draw(st.integers(min_value=0, max_value=130))
    if draw(st.integers(min_value=0, max_value=5)) == 0:
        return Rule("odd"), lambda k: 2 * k + 1, draw(st.one_of(st.integers(1, 200), st.integers(10**6, 10**6 + 200))), count
    prefix = tuple(draw(st.lists(base_entries(), max_size=5)))
    period = tuple(draw(st.lists(base_entries(), min_size=1, max_size=70)))
    Q = PrefixPeriodic(prefix, period) if prefix else Periodic(period)
    edge, L = len(prefix), len(period)
    lo = draw(st.one_of(
        st.integers(min_value=1, max_value=max(edge, 1)),
        st.sampled_from([max(edge, 1), edge + 1]),
        st.builds(lambda phase, whole: edge + 1 + phase + L * whole,
                  st.integers(min_value=0, max_value=L - 1), st.sampled_from([0, 1, 3, 10**6])),
    ))

    def base(k):
        return prefix[k - 1] if k <= edge else period[(k - edge - 1) % L]

    return Q, base, lo, count


# Digits out of range for a base q below 255, as functions of q: the base
# itself, one past it, the largest byte, the least value past a byte, and
# one far past every base the tests use.
BAD_DIGITS = [lambda q: q, lambda q: q + 1, lambda q: 255, lambda q: 256, lambda q: 10**6]


@st.composite
def bad_short_words(draw):
    """(Q, literal bases from position 1, start, digits) for a word of 1-64
    digits at a start on a prefix of 1-4 bases or past it, in range but
    for one digit, at any position, drawn from BAD_DIGITS (every base up
    to position 72 is below 255)."""
    Q, literal = draw(sequences_with_literal_bases(reach=80))
    start = draw(st.integers(min_value=1, max_value=8))
    qs = literal[start - 1 : start - 1 + draw(st.integers(min_value=1, max_value=64))]
    digits = [draw(st.integers(min_value=0, max_value=q - 1)) for q in qs]
    at = draw(st.integers(min_value=0, max_value=len(qs) - 1))
    digits[at] = draw(st.sampled_from(BAD_DIGITS))(qs[at])
    return Q, literal, start, tuple(digits)
