"""Rationality certificates from shift-state recurrence.

A value x in [0, 1) expanded over Q is rational exactly when two of its
shift values coincide: sigma^n(x) = sigma^{n+m}(x) for some n >= 0, m >= 1.
For reduced x = u/v every shift value is u_k/v with u_k in {0, ..., v-1},
so a recurrence must appear within v steps, and conversely a recurrence
pins x down in closed form.  This module finds, checks, and inverts such
certificates.

The first recurrence of u/v depends on Q and v alone, as
u_k = u * (q1...q_k mod v) mod v with u a unit mod v.  It is found by a
scan of the states, one step each.  On a list-backed Q with v >= 512, a
scan that runs past (len(prefix) + L) * sqrt(v) steps, L the period
length, hands over to a closed form with no step per state: a short walk uses up the prefix and the primes v shares with the
period product, and then one baby-step giant-step table of at most
sqrt(v) powers of the period product gives, for every pair of period
phases, the first step at which they meet.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .foundation import (
    DomainError,
    ListBacked,
    QSequence,
    Rational,
    _base_product_mod,
    _is_int,
    _of,
    _record,
    _sequence,
    _sized_split,
    _unchecked,
    base_product,
    iter_bases,
)
from .expansion import DigitWord, _expand, _unit_value, _word_positional

__all__ = [
    "BlockDescription", "CertificateCheck", "RationalityCertificate",
    "block_description", "certify_rational", "reconstruct", "verify_certificate",
]


@_record
class RationalityCertificate:
    """A recurrence sigma^n(x) = sigma^{n+m}(x) with its block product.

    block_product is P = q_{n+1} * ... * q_{n+m}; any x certified by (n, m)
    satisfies the divisibility v | q1...q_n * (P - 1) on its reduced
    denominator v.  For reduced x = u/v that witness is the recurrence
    itself, as u is a unit mod v.
    """

    n: int
    m: int
    sigma_value: Fraction
    block_product: int


@_record
class CertificateCheck:
    """Outcome of re-deriving a certificate from scratch.  recurrence_ok and
    divisibility_ok are one test (see RationalityCertificate): equal flags."""

    ok: bool
    reason: str | None
    recurrence_ok: bool
    divisibility_ok: bool

    def __bool__(self) -> bool:
        return self.ok


@_record
class BlockDescription:
    """Digits 1..n (preperiod) plus a recurring block at positions n+1..n+m.

    Describes the number whose shift value returns to itself after the
    block: the digits need not repeat position-wise (the bases differ), only
    the shift value recurs.  Any in-range block that is not all-maximal
    yields a consistent description: the reconstructed value re-expands to
    exactly these digits and returns to the same shift value after m steps.
    """

    preperiod: DigitWord
    block: DigitWord

    def __post_init__(self) -> None:
        if _of(DigitWord, self.preperiod).start != 1:
            raise DomainError(f"preperiod must start at position 1, got {self.preperiod.start}")
        if len(_of(DigitWord, self.block)) < 1:
            raise DomainError("recurring block needs at least one digit")
        want = len(self.preperiod) + 1
        if self.block.start != want:
            raise DomainError(f"block must start at position {want}, got {self.block.start}")


# On a list-backed Q with v >= _SCAN_BELOW the scan hands over to
# _phases.phase_search after (len(prefix) + L) * (isqrt(v) + 1) steps, L
# the period length.  phase_search takes O((len(prefix) + L) * L * sqrt(v))
# steps, so a recurrence the scan does not reach costs at most O(L) times
# its n + m steps; with no prefix, phase_search measured 1.5 to 3 times the
# scan's budget (prime v from 10^3 to 10^6, L <= 3).  Below _SCAN_BELOW the
# scan of at most v steps is cheaper than phase_search's fixed cost: the
# measured crossovers (Python 3.11.7, shared VM) are about 400 on const:2
# and const:10, 500 to 800 on periodic:2,3 and 1000 to past 1500 on
# periodic:5,2,7, whose scans end early; the mean of the four crosses
# between 512 and 768.
_SCAN_BELOW = 512


def _recurrence(x: Fraction, Q: QSequence) -> tuple[int, int, int]:
    """(n, m, u_n) of the earliest recurrence u_n = u_{n+m} of reduced
    x = u/v, with u_k = q_k * u_{k-1} mod v.

    The scan keeps the first step at which each state appears, up to the
    first state seen twice, at step n + m <= v.  As u_k = u * pi_k mod v
    with pi_k = q1...q_k mod v and u a unit mod v, (n, m) depends on Q and
    v alone: on a list-backed Q with v >= _SCAN_BELOW the scan stops after
    (len(prefix) + L) * (isqrt(v) + 1) steps, L the period length, and
    _phases.phase_search gives (n, m).  The cost is O(n + m) steps, and
    O((len(prefix) + L) * L * sqrt(v)) when the scan stops.  Rule
    sequences, and smaller v, scan to the end.
    """
    u, v = x.numerator, x.denominator
    qs = iter_bases(Q)
    if isinstance(Q, ListBacked) and v >= _SCAN_BELOW:
        qs = itertools.islice(qs, (len(Q.prefix) + len(Q.period)) * (math.isqrt(v) + 1))
    first_seen = {u: 0}
    for k, q in enumerate(qs, 1):
        u = q * u % v
        n = first_seen.setdefault(u, k)
        if n < k:
            return n, k - n, u
    from ._phases import phase_search  # the budgeted scan met no repeat

    n, m = phase_search(Q, v)
    return n, m, x.numerator * _base_product_mod(Q, 1, n, v) % v


def certify_rational(x: Rational | int, Q: QSequence) -> RationalityCertificate:
    """Earliest shift-state recurrence of x under Q.

    On reduced x = u/v the shift values are u_k/v with
    u_k = q_k * u_{k-1} mod v, at most v distinct ones, so a recurrence
    sigma^n(x) = sigma^{n+m}(x) appears with n + m <= v.  The returned pair
    is the first one, the least n + m, which makes the output canonical
    even though any later recurrence would certify too.  It comes from a
    scan of n + m steps; on a list-backed Q with v >= _SCAN_BELOW, a scan
    that reaches (len(prefix) + L) * (isqrt(v) + 1) steps, L the period
    length, stops there for a closed form: a walk of at most
    len(prefix) + L * bits(v) steps and at most (len(prefix) + L) * L
    discrete logs over one baby-step table of at most ceil(sqrt(v))
    entries.  Either way the cost is O(L * (n + m)).  sigma_value is
    then (u * (q1...q_n mod v) mod v)/v, and the block product is built in
    closed form: one past base_product's size bound raises DomainError.
    """
    x = _unit_value(x)
    n, m, u = _recurrence(x, Q)
    return RationalityCertificate(n, m, Fraction(u, x.denominator), base_product(Q, n + 1, n + m))


def verify_certificate(x: Rational | int, Q: QSequence, cert: RationalityCertificate) -> CertificateCheck:
    """Re-derive a certificate's claims by direct exact recomputation.

    Total in x and cert: any x and any cert, even one that is not a
    RationalityCertificate, give a CertificateCheck.  A Q that is not a
    QSequence raises TypeError, as everywhere else.  Checks, in order, that
    cert is a RationalityCertificate with int n >= 0, m >= 1 and
    block_product (never bools) and a Fraction sigma_value, that x lies in
    [0, 1), that sigma^n(x) = sigma^{n+m}(x), which for reduced x = u/v is
    the divisibility v | q1...q_n * (P - 1), and that the recorded shift
    value and block product match.  Non-minimal certificates pass: any valid
    recurrence certifies.  A range 1..n longer than sys.maxsize on a rule
    sequence, or n+1..n+m longer than it on any sequence or with a product
    past base_product's size bound, fails the field check (invalid_fields).

    No shift steps are walked.  With x = u_0/v and u_k = q_k * u_{k-1} mod v,
    u_n = u_0 * (q1...q_n mod v) mod v and u_{n+m} = u_n * P mod v, so the
    recurrence holds iff v divides u_n * (P - 1).  The cost is that of the
    block product P plus one modular power; rule sequences add at most
    min(n, v) small modular multiplies, as any v consecutive bases of
    rule:odd have the same product mod v.
    """
    _sequence(Q)
    if not isinstance(cert, RationalityCertificate):
        return CertificateCheck(False, "invalid_fields", False, False)
    n, m, sigma, product = cert.n, cert.m, cert.sigma_value, cert.block_product
    if not (_is_int(n) and _is_int(m) and _is_int(product) and isinstance(sigma, Fraction)) or n < 0 or m < 1:
        return CertificateCheck(False, "invalid_fields", False, False)
    try:
        x = _unit_value(x)
    except DomainError:
        return CertificateCheck(False, "value_out_of_range", False, False)
    try:
        return _check_recurrence(x, Q, n, m, cert)
    except DomainError:
        return CertificateCheck(False, "invalid_fields", False, False)


def _check_recurrence(
    x: Fraction, Q: QSequence, n: int, m: int, claim: RationalityCertificate | None = None
) -> CertificateCheck:
    """verify_certificate's check of sigma^n(x) = sigma^{n+m}(x) for reduced
    x = u/v in [0, 1), n >= 0 and m >= 1, with claim's shift value and block
    product when given; it builds the block product once, and only for a
    claim to compare it with (without one, P - 1 is taken mod v), and raises
    base_product's DomainError for a range or product past its bounds.  The
    recurrence, v | u_n * (P - 1) with u_n = u * q1...q_n mod v, is the
    divisibility v | q1...q_n * (P - 1), as u is a unit mod v."""
    v = x.denominator
    head = _base_product_mod(Q, 1, n, v)
    if claim is None:
        _sized_split(Q, n + 1, n + m)  # the same bounds as with a claim
        gap = (_base_product_mod(Q, n + 1, n + m, v) - 1) % v
    else:
        product = base_product(Q, n + 1, n + m)
        gap = (product - 1) % v
    u_n = x.numerator * head % v
    if u_n * gap % v:
        return CertificateCheck(False, "recurrence_mismatch", False, False)
    if claim is not None:
        sigma = claim.sigma_value  # a Fraction, so it is u_n/v iff the cross products agree
        if sigma.numerator * v != u_n * sigma.denominator:
            return CertificateCheck(False, "sigma_mismatch", True, True)
        if claim.block_product != product:
            return CertificateCheck(False, "block_product_mismatch", True, True)
    return CertificateCheck(True, None, True, True)


def block_description(x: Rational | int, Q: QSequence) -> BlockDescription:
    """Eventually-recurring digit description of x.

    The recurrence (n, m) is certify_rational's, found the same way, and
    the first n + m digits, from expansion._expand, are split at n.  A
    block product that certify_rational refuses raises its DomainError
    before any expansion.
    """
    x = _unit_value(x)
    n, m, _ = _recurrence(x, Q)
    _sized_split(Q, n + 1, n + m)
    digits, _ = _expand(x.numerator, x.denominator, Q, 1, n + m)
    return BlockDescription(_unchecked(DigitWord, digits[:n], 1), _unchecked(DigitWord, digits[n:], n + 1))


def reconstruct(desc: BlockDescription, Q: QSequence) -> Rational:
    """Exact value described by preperiod digits plus a recurring block.

    With P the block's base product and N its positional numerator
    (e_{n+1}*q_{n+2}...q_{n+m} + ... + e_{n+m}), the recurring tail sums to
    sigma^n = N/(P - 1); the preperiod, worth H/D, then places it:
    x = H/D + sigma^n/D.  N = P - 1 exactly when every block digit is maximal.
    """
    pre = _of(BlockDescription, desc).preperiod
    # an empty preperiod is worth 0/1 and has no digit to check
    head, den = _word_positional(pre, Q) if pre.digits else (0, 1)
    num, product = _word_positional(desc.block, Q)
    if num == product - 1:
        raise DomainError("all-maximal block describes the excluded endpoint value 1")
    return Fraction(head * (product - 1) + num, den * (product - 1))
