"""Shared oracles and hypothesis strategies.

The oracles recompute expected values by the most literal route available
(plain Fraction arithmetic, direct summation, exhaustive enumeration) so
the tests never trust the code path they are checking.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

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
