"""Shared oracles and hypothesis strategies.

The oracles recompute expected values by the most literal route available
(plain Fraction arithmetic, direct summation, exhaustive enumeration) so
the tests never trust the code path they are checking.
"""

from __future__ import annotations

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
