"""Yardsticks: benchmark code, timed between cases, that runs none of the package.

A shared VM has slow spells lasting seconds to minutes in which CPU time
itself grows (up to 2x on the one in README.md).  Each timed span is scaled
by the yardstick times taken just before and just after it, so the span and
its yardstick see the same state of the machine.  Slow spells do not slow
every kind of work alike, so each workload's yardstick mixes, in shares of
similar size, the kinds of work that workload does.

A yardstick's nominal time is roughly its time on the machine in README.md
when not slowed, so scaled times read close to seconds on that machine.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import oracles

IN_PROCESS_NOMINAL_S = 2.5e-3
RESIDUAL_CHAIN_NOMINAL_S = 3.6e-3

_BIG = (3**20000, 7**20000)
_CHAIN = 2**3000 * 3**3000 * 5 + 1
_DENOMINATOR = 2**1000 * 5**1000


def in_process_s() -> float:
    """The oracle's residue scan, Fraction arithmetic, a residue scan into a
    dict that grows a positional numerator and a product one factor at a
    time, small modular steps, and one 32-kbit x 55-kbit product."""
    t0 = time.perf_counter()
    oracles.scan(Fraction(1, 383), "const:10")
    sum(Fraction(k, k + 1) for k in range(300))
    u, seen, num, prod = 1, {}, 0, 1
    for k in range(1018):
        d, u = divmod(10 * u, 1019)
        seen[u] = k
        num, prod = 10 * num + d, 10 * prod
    for k in range(2000):
        u = (2 + k % 5) * u % 100019
    _BIG[0] * _BIG[1]
    return time.perf_counter() - t0


def residual_chain_s() -> float:
    """in_process_s() plus a gcd chain that divides small bases out of a
    9-kbit integer, and digits of a 3-kbit denominator by bignum divmod."""
    t0 = time.perf_counter()
    r = _CHAIN
    for k in range(200):
        r //= math.gcd(r, 2 + k % 3)
    u = _DENOMINATOR // 3
    for _ in range(300):
        _, u = divmod(10 * u, _DENOMINATOR)
    return time.perf_counter() - t0 + in_process_s()
