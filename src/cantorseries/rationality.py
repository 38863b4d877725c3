"""Rationality certificates from shift-state recurrence.

A value x in [0, 1) expanded over Q is rational exactly when two of its
shift values coincide: sigma^n(x) = sigma^{n+m}(x) for some n >= 0, m >= 1.
For reduced x = u/v every shift value is u_k/v with u_k in {0, ..., v-1},
so a recurrence must appear within v steps, and conversely a recurrence
pins x down in closed form.  This module finds, checks, and inverts such
certificates.
"""

from __future__ import annotations

from fractions import Fraction

from .foundation import (
    DomainError,
    QSequence,
    Rational,
    _base_product_mod,
    _record,
    _unchecked,
    base_product,
    iter_bases,
)
from .expansion import DigitWord, _positional, _residues, _unit_value, validate_digits

__all__ = [
    "BlockDescription", "CertificateCheck", "RationalityCertificate",
    "block_description", "certify_rational", "reconstruct", "verify_certificate",
]


@_record
class RationalityCertificate:
    """A recurrence sigma^n(x) = sigma^{n+m}(x) with its block product.

    block_product is P = q_{n+1} * ... * q_{n+m}; any x certified by (n, m)
    satisfies the divisibility v | q1...q_n * (P - 1) on its reduced
    denominator v, which is the cheap arithmetic witness checked alongside
    the recurrence itself.
    """

    n: int
    m: int
    sigma_value: Fraction
    block_product: int


@_record
class CertificateCheck:
    """Outcome of re-deriving a certificate from scratch."""

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
        if self.preperiod.start != 1:
            raise DomainError(f"preperiod must start at position 1, got {self.preperiod.start}")
        if len(self.block) < 1:
            raise DomainError("recurring block needs at least one digit")
        want = len(self.preperiod) + 1
        if self.block.start != want:
            raise DomainError(f"block must start at position {want}, got {self.block.start}")


def _recurrence(x: Rational | int, Q: QSequence) -> tuple[Fraction, int, int, int, list[int]]:
    """Scan for the earliest recurrence: (x, n, m, u_n, digits 1..n+m).

    Records the first step at which each state u_k appears and stops at the
    first state seen twice, at step n + m.
    """
    x = _unit_value(x)
    first_seen = {x.numerator: 0}
    digits = []
    for d, u in _residues(x.numerator, x.denominator, iter_bases(Q)):
        digits.append(d)
        n = first_seen.setdefault(u, len(digits))
        if n < len(digits):
            return x, n, len(digits) - n, u, digits


def certify_rational(x: Rational | int, Q: QSequence) -> RationalityCertificate:
    """Earliest shift-state recurrence of x under Q.

    Scans sigma^0, sigma^1, ... recording the first step at which each exact
    value appears; stops at the first value seen twice.  On reduced x = u/v
    the states are the integers u_k = q_k * u_{k-1} mod v, at most v distinct
    ones, so the scan stops with n + m <= v.  The returned pair minimises
    n + m (the first collision happens at step n + m), which makes the
    output canonical even though any later recurrence would certify too.
    """
    x, n, m, u, _ = _recurrence(x, Q)
    return RationalityCertificate(n, m, Fraction(u, x.denominator), base_product(Q, n + 1, n + m))


def verify_certificate(x: Rational | int, Q: QSequence, cert: RationalityCertificate) -> CertificateCheck:
    """Re-derive a certificate's claims by direct exact recomputation.

    Total: never raises.  Checks, in order, that the fields are in range,
    that x lies in [0, 1), that sigma^n(x) = sigma^{n+m}(x), that the
    recorded shift value and block product match, and that the reduced
    denominator v divides q1...q_n * (P - 1).  Non-minimal certificates
    pass: any valid recurrence certifies.  A range 1..n longer than
    sys.maxsize on a rule sequence, or n+1..n+m longer than it on any
    sequence, fails the field check (invalid_fields).

    No shift steps are walked.  With x = u_0/v and u_k = q_k * u_{k-1} mod v,
    u_n = u_0 * (q1...q_n mod v) mod v and u_{n+m} = u_n * P mod v, so the
    recurrence holds iff v divides u_n * (P - 1).  The cost is that of the
    block product P plus one modular power; rule sequences add at most
    min(n, v) small modular multiplies, as any v consecutive bases of
    rule:odd have the same product mod v.
    """
    n, m = cert.n, cert.m
    if any(not isinstance(f, int) or isinstance(f, bool) for f in (n, m)) or n < 0 or m < 1:
        return CertificateCheck(False, "invalid_fields", False, False)
    try:
        x = _unit_value(x)
    except DomainError:
        return CertificateCheck(False, "value_out_of_range", False, False)
    v = x.denominator
    try:
        head = _base_product_mod(Q, 1, n, v)
        product = base_product(Q, n + 1, n + m)
    except DomainError:
        return CertificateCheck(False, "invalid_fields", False, False)
    u_n = x.numerator * head % v
    gap = (product - 1) % v
    recurrence_ok = u_n * gap % v == 0
    divisibility_ok = head * gap % v == 0
    sigma_n = Fraction(u_n, v)
    if not recurrence_ok:
        return CertificateCheck(False, "recurrence_mismatch", False, divisibility_ok)
    if cert.sigma_value != sigma_n:
        return CertificateCheck(False, "sigma_mismatch", True, divisibility_ok)
    if cert.block_product != product:
        return CertificateCheck(False, "block_product_mismatch", True, divisibility_ok)
    if not divisibility_ok:
        return CertificateCheck(False, "divisibility_failed", True, False)
    return CertificateCheck(True, None, True, True)


def block_description(x: Rational | int, Q: QSequence) -> BlockDescription:
    """Eventually-recurring digit description of x.

    The digits come from the same scan that certify_rational runs, so they
    equal certify-then-expand split at n.
    """
    _, n, _, _, digits = _recurrence(x, Q)
    digits = tuple(digits)
    return BlockDescription(_unchecked(DigitWord, digits[:n], 1), _unchecked(DigitWord, digits[n:], n + 1))


def reconstruct(desc: BlockDescription, Q: QSequence) -> Rational:
    """Exact value described by preperiod digits plus a recurring block.

    With P the block's base product and N its positional numerator
    (e_{n+1}*q_{n+2}...q_{n+m} + ... + e_{n+m}), the recurring tail sums to
    sigma^n = N/(P - 1); the preperiod, worth H/D, then places it:
    x = H/D + sigma^n/D.  N = P - 1 exactly when every block digit is maximal.
    """
    validate_digits(desc.preperiod, Q)
    validate_digits(desc.block, Q)
    num, product = _positional(desc.block.digits, Q, desc.block.start)
    if num == product - 1:
        raise DomainError("all-maximal block describes the excluded endpoint value 1")
    head, den = _positional(desc.preperiod.digits, Q, 1)
    return Fraction(head * (product - 1) + num, den * (product - 1))
