"""First repeat of the base products of a list-backed sequence mod v.

rationality takes the canonical recurrence (n, m) of u/v from here.  The
module is imported on first use, not with the package, so a cold call
that never needs it does not compile it.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable

from .foundation import ListBacked, iter_bases


def phase_logs(W: int, w: int) -> tuple[int, Callable[[int], int | None]]:
    """(t, log) for a unit W mod w: t is the order of W, and log(y) the
    least d >= 0 with W**d = y mod w, or None when y is no power of W.

    Baby-step giant-step (Shanks 1971): one table of W**i for
    i < ceil(sqrt(w)), shared by every log; a log then takes at most
    t / ceil(sqrt(w)) + 1 giant steps of W**-ceil(sqrt(w)).
    """
    size = math.isqrt(w - 1) + 1
    baby: dict[int, int] = {}
    power = 1 % w
    while power not in baby and len(baby) < size:  # a repeat can only be W**t = 1
        baby[power] = len(baby)
        power = power * W % w
    stride = len(baby)
    giant = pow(W, -stride, w)
    if power in baby:
        order = stride
    else:  # t < w <= size**2, so fewer than size giant steps reach W**-t = 1
        g, y = 1, giant
        while y not in baby:
            g, y = g + 1, y * giant % w
        order = g * stride + baby[y]
    giants = (order - 1) // stride + 1

    def log(y: int) -> int | None:
        for g in range(giants):
            if y in baby:
                return g * stride + baby[y]
            y = y * giant % w
        return None

    return order, log


def phase_search(Q: ListBacked, v: int) -> tuple[int, int]:
    """(n, m) of the first repeat among pi_k = q1...q_k mod v, k = 0, 1, ...:
    the least n + m with pi_n = pi_{n+m}.

    Split v = v1 * v2 with v2 coprime to the period product.  A walk with
    a dict runs up to the first K >= len(prefix) with v1 | pi_K, at most
    len(prefix) + L * bits(v) steps (L the period length), and returns any
    repeat it meets.  Past K every pi_b is 0 mod v1, and
    pi_b = pi_K * R_{b-K} with R_j the product of the j bases after K, a
    unit mod v2.  With g = gcd(pi_K, v2) and w = v2 / g, a state a meets
    a later b = K + d*L + r' (r' < L) exactly when
    W**d * c_r' = T_a mod w, where c_r' is the product of the first r'
    bases after K, W = c_L and T_a = (pi_a / g) / (pi_K / g).  Only two
    kinds of a can meet a later b: a = K + r with r < L (T_a = c_r; a
    repeat with a >= K + L follows one L bases earlier), and prefix states
    with v1 | pi_a and gcd(pi_a, v2) = g.  Each of those at most
    (len(prefix) + L) * L pairs (a, r') is one discrete log of T_a / c_r'
    to the base W; the least d with b > a gives its b, and the least b
    over all pairs is the answer.
    """
    period = Q.period
    whole, L = math.prod(period), len(period)
    v2 = v
    while (g := math.gcd(v2, whole)) > 1:
        v2 //= g
    v1 = v // v2
    qs = iter_bases(Q)
    seen: dict[int, int] = {}
    pi = 1 % v
    while pi not in seen:
        seen[pi] = K = len(seen)
        if K >= len(Q.prefix) and pi % v1 == 0:
            break
        pi = pi * next(qs) % v
    else:
        return seen[pi], len(seen) - seen[pi]

    g = math.gcd(pi, v2)
    w = v2 // g
    scale = pow(pi // g, -1, w)
    phases = list(itertools.accumulate(itertools.islice(qs, L), lambda c, q: c * q % w, initial=1 % w))
    order, log = phase_logs(phases.pop(), w)
    meets = [(a, p // g * scale % w) for p, a in seen.items() if p % v1 == 0 and math.gcd(p, v2) == g]
    meets += [(K + r, phases[r]) for r in range(1, L)]
    best = (math.inf, 0)
    for r, c in enumerate(phases):
        inverse = pow(c, -1, w)
        for a, target in meets:
            d = log(target * inverse % w)
            if d is not None:
                if d * L + r <= a - K:
                    d += order
                best = min(best, (K + d * L + r, a))
    b, n = best
    return n, b - n
