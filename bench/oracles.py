"""Reference computations for the benchmark, written apart from the package.

Nothing here imports cantorseries.  Bases come from the Q spec text itself,
block products from closed forms with `pow` and `math.factorial`,
certificates and digits from a plain residue scan, constant-base orders from
`sympy.n_order`, and dual-representation depths from the prime exponents of
denominators the benchmark built itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def parse_spec(spec: str) -> tuple[int, ...] | None:
    """Period of a `const:` or `periodic:` spec; None for `rule:odd`."""
    kind, _, rest = spec.partition(":")
    if kind in ("const", "periodic"):
        return tuple(int(t) for t in rest.split(","))
    if spec == "rule:odd":
        return None
    raise ValueError(f"benchmark oracles know no spec {spec!r}")


def base(spec: str, k: int) -> int:
    """q_k at 1-based position k."""
    period = parse_spec(spec)
    return 2 * k + 1 if period is None else period[(k - 1) % len(period)]


def bases(spec: str, count: int, start: int = 1) -> list[int]:
    period = parse_spec(spec)
    if period is None:
        return list(range(2 * start + 1, 2 * (start + count) + 1, 2))
    n = len(period)
    return [period[(k - 1) % n] for k in range(start, start + count)]


def _odd_double_factorial(k: int) -> int:
    """3 * 5 * ... * (2k + 1), i.e. (2k + 1)! / (2^k k!)."""
    return math.factorial(2 * k + 1) // (math.factorial(k) << k)


def product(spec: str, lo: int, hi: int) -> int:
    """q_lo * ... * q_hi in closed form; 1 on an empty range."""
    if hi < lo:
        return 1
    period = parse_spec(spec)
    if period is None:
        return _odd_double_factorial(hi) // _odd_double_factorial(lo - 1)
    cycles, rest = divmod(hi - lo + 1, len(period))
    # Any len(period) consecutive positions hold each entry exactly once.
    return pow(math.prod(period), cycles) * math.prod(bases(spec, rest, hi - rest + 1))


@dataclass(frozen=True)
class Scan:
    """Earliest recurrence u_n = u_{n+m} of u_k = q_k * u_{k-1} mod v."""

    n: int
    m: int
    sigma: Fraction
    digits: tuple[int, ...]


def scan(x: Fraction, spec: str) -> Scan:
    """Plain integer scan of the shift residues until one repeats."""
    u, v = x.numerator, x.denominator
    first = [-1] * v
    first[u] = 0
    digits = []
    k = 0
    while True:
        k += 1
        d, u = divmod(base(spec, k) * u, v)
        digits.append(d)
        if first[u] >= 0:
            return Scan(first[u], k - first[u], Fraction(u, v), tuple(digits))
        first[u] = k


def expansion(x: Fraction, spec: str, count: int) -> tuple[list[int], Fraction]:
    """First `count` greedy digits of x and the shift value after them."""
    u, v = x.numerator, x.denominator
    digits = []
    for q in bases(spec, count):
        d, u = divmod(q * u, v)
        digits.append(d)
    return digits, Fraction(u, v)


def const_certificate(v: int, q: int) -> tuple[int, int]:
    """Minimal (n, m) for a reduced u/v over the constant base q.

    v = v_q * w with v_q built from primes of q and w coprime to q: the
    residues collide first when q^n absorbs v_q and q^m = 1 mod w.
    """
    from sympy import n_order  # imported late: only checks need it, and it is large

    n = 0
    w = v
    for p in _primes_of(math.gcd(v, q)):
        e_v = e_q = 0
        while w % p == 0:
            w //= p
            e_v += 1
        qq = q
        while qq % p == 0:
            qq //= p
            e_q += 1
        n = max(n, -(-e_v // e_q))
    return n, 1 if w == 1 else int(n_order(q, w))


def _primes_of(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _valuation(n: int, p: int) -> int:
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def dual_n0(spec: str, factors: dict[int, int]) -> int | None:
    """Least n0 with r | q_1 ... q_{n0} for r = prod p^e, or None if none exists.

    For list-backed Q each prime p gains a fixed exponent per period, so the
    depth where it is covered follows from whole periods plus a walk through
    one more.  Over rule:odd an odd prime p first divides q_k = 2k + 1 at
    k = (p - 1)/2; only square-free odd r is built for it.
    """
    period = parse_spec(spec)
    n0 = 0
    for p, e in factors.items():
        if period is None:
            if p == 2:
                return None
            if e != 1:
                raise ValueError(f"no rule:odd depth oracle for {p}^{e}")
            n0 = max(n0, (p - 1) // 2)
            continue
        gains = [_valuation(q, p) for q in period]
        per_period = sum(gains)
        if per_period == 0:
            return None
        full = (e - 1) // per_period
        need = e - full * per_period
        k = 0
        while need > 0:
            need -= gains[k]
            k += 1
        n0 = max(n0, full * len(period) + k)
    return n0


def digits_value(digits: list[int] | tuple[int, ...], spec: str) -> Fraction:
    """sum e_i / (q_1 ... q_i), one term at a time."""
    total = Fraction(0)
    weight = 1
    for d, q in zip(digits, bases(spec, len(digits))):
        weight *= q
        total += Fraction(d, weight)
    return total


def regroup_identity(x: Fraction, spec: str, breakpoints: list[int], lams: list[int]) -> bool:
    """Partial-sum identity of a regrouping at its last breakpoint.

    x = sum_k lam_k / (B_1 ... B_k) + sigma^{n_K}(x) / (B_1 ... B_K) with
    B_k the closed-form block products and sigma from the residue scan.
    """
    _, tail = expansion(x, spec, breakpoints[-1])
    total = Fraction(0)
    weight = 1
    lo = 0
    for nk, lam in zip(breakpoints, lams):
        block = product(spec, lo + 1, nk)
        if not 0 <= lam < block:
            return False
        weight *= block
        total += Fraction(lam, weight)
        lo = nk
    return total + tail / weight == x
