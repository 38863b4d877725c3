"""Structural analysis of Cantor series representations.

Covers the questions that sit on top of plain expansion: when a rational
has a second, trailing-maximum representation and how to convert between
the two; when the shift values of a number are eventually constant; which
numbers the shift operator fixes outright; and how digit blocks between
chosen breakpoints regroup into a coarser Cantor series.

`BlockDescription` in annotations is rationality.BlockDescription, which
loads only when shift_constant_check is handed one.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from fractions import Fraction

from .foundation import (
    DomainError,
    ListBacked,
    QSequence,
    Rational,
    _base_product_mod,
    _check_count,
    _check_int,
    _of,
    _product,
    _record,
    _sequence,
    _span,
    _unchecked,
    iter_bases,
    tail_min,
)
from .expansion import (
    DigitWord,
    _digits,
    _expand,
    _unit_value,
    _word_positional,
    evaluate_finite,
    validate_digits,
)

__all__ = [
    "CofiniteExpansion", "DualRepresentationReport", "FixedPointCandidate", "FixedPointReport", "RegroupBlock",
    "Regrouping", "ShiftConstantReport",
    "cofinite_value", "convert_dual", "dual_representation", "fixed_point_digits", "fixed_points",
    "fold_cofinite", "regroup", "shift_constant_check",
]


@_record
class CofiniteExpansion:
    """Representation ending in maximal digits q_k - 1 forever.

    `head` holds positions 1..m, already including the decremented digit at
    position m; every position k > m implicitly carries q_k - 1.  Canonical
    form keeps the head's last digit <= q_m - 2, folding any trailing
    maximal digits into the tail, so equality of canonical forms is equality
    of values.
    """

    head: DigitWord

    def __post_init__(self) -> None:
        if _of(DigitWord, self.head).start != 1:
            raise DomainError(f"cofinite head must start at position 1, got {self.head.start}")
        if len(self.head) < 1:
            raise DomainError("empty cofinite head would describe the excluded endpoint value 1")

    @property
    def tail_start(self) -> int:
        return len(self.head) + 1


def fold_cofinite(digits: Sequence[int], Q: QSequence) -> CofiniteExpansion:
    """Canonicalise raw head digits by folding trailing maximal digits left."""
    word = DigitWord(digits)
    validate_digits(word, Q)
    ds, m = word.digits, len(word)
    qs = _span(Q, 1, m)
    while m and ds[m - 1] == qs[m - 1] - 1:
        m -= 1
    if not m:
        raise DomainError("head folds away entirely: the all-maximal expansion of 1 is out of domain")
    return _unchecked(CofiniteExpansion, _unchecked(DigitWord, ds[:m], 1))


def cofinite_value(cof: CofiniteExpansion, Q: QSequence) -> Rational:
    """Exact value: head digits plus the trailing-maximum tail.

    The tail sum telescopes to exactly one unit of the head's last weight:
    sum_{k>m} (q_k - 1)/(q1...q_k) = 1/(q1...q_m), so the head is
    evaluated as local_value is, from a tail worth 1.  An all-maximal head
    is worth the excluded endpoint 1, a DomainError.
    """
    num, den = _word_positional(_of(CofiniteExpansion, cof).head, Q, 1)
    if num == den:
        raise DomainError("all-maximal head describes the excluded endpoint value 1")
    return Fraction(num, den)


@_record
class DualRepresentationReport:
    """Whether p/r also has a trailing-maximum representation.

    decision "yes" carries the minimal n0 with r | q1...q_{n0} and both
    materialised forms; "no" is proved (r does not divide the product at
    the depth that would suffice, or an even r on rule:odd, whose bases are
    all odd); "undecided" reports the exhausted search bound.
    """

    decision: str
    n0: int | None = None
    bound: int | None = None
    finite_form: DigitWord | None = None
    cofinite_form: CofiniteExpansion | None = None


def _twin(digits: tuple[int, ...]) -> CofiniteExpansion:
    """The trailing-maximum twin of checked finite digits at positions 1,
    2, ...: trailing zeros trimmed, then the last digit decremented."""
    m = len(digits)
    while m and digits[m - 1] == 0:
        m -= 1
    if not m:
        raise DomainError("the zero value has no trailing-maximum twin")
    return _unchecked(CofiniteExpansion, _unchecked(DigitWord, digits[: m - 1] + (digits[m - 1] - 1,), 1))


def convert_dual(form: DigitWord | CofiniteExpansion, Q: QSequence) -> CofiniteExpansion | DigitWord:
    """Convert between the finite and trailing-maximum twin representations.

    Finite (..., e_m) with e_m >= 1 maps to head (..., e_m - 1) with maximal
    digits from m+1 on; the inverse increments the head's last digit.  Both
    forms evaluate to the same rational.  Trailing zeros on finite input are
    trimmed first; the zero value itself has no twin.
    """
    if isinstance(form, DigitWord):
        if form.start != 1:
            raise DomainError(f"finite form must start at position 1, got {form.start}")
        validate_digits(form, Q)
        return _twin(form.digits)
    if isinstance(form, CofiniteExpansion):
        validate_digits(form.head, Q)
        ds = form.head.digits
        if ds[-1] > _span(Q, len(ds), 1)[0] - 2:
            raise DomainError(f"cofinite head not canonical: digit at position {len(ds)} must be <= base - 2")
        return _unchecked(DigitWord, ds[:-1] + (ds[-1] + 1,), 1)
    raise TypeError(f"expected DigitWord or CofiniteExpansion, got {form!r}")


def dual_representation(x: Rational, Q: QSequence, bound: int = 10000) -> DualRepresentationReport:
    """Decide whether reduced p/r in (0, 1) has two representations.

    It does exactly when r divides some q1...q_k, the least such k being
    n0; divisibility is monotone in k.  The residue q1...q_k mod r is tested
    at k = 1, 2, 4, ... up to `top`, then the last doubling is bisected;
    each test extends the residue at the last failing k by one
    _base_product_mod, so no range is walked twice and no product is built.
    For list-backed Q, top = len(prefix) + len(period) * bits(r) settles it
    (a prime of r dividing the period product needs at most bits(r) periods
    past the prefix): a residue there is a "no".  Every base of rule:odd is
    odd, so an even r is a "no"; for an odd r, top = `bound`, a residue
    there is "undecided", and the cost is O(min(n0, bound)) small multiplies.
    """
    x = _unit_value(x)
    if x == 0:
        raise DomainError("dual representation is defined on (0, 1), got 0")
    _check_int(bound, 1, "search bound")
    r = x.denominator
    if isinstance(_sequence(Q), ListBacked):
        top, exhausted = len(Q.prefix) + len(Q.period) * r.bit_length(), DualRepresentationReport("no")
    elif r % 2:
        top, exhausted = bound, DualRepresentationReport("undecided", bound=bound)
    else:
        return DualRepresentationReport("no")

    lo, hi, head = 0, 1, 1  # head = q1...q_lo mod r; r >= 2 does not divide the empty product
    while residue := head * _base_product_mod(Q, lo + 1, hi, r) % r:
        if hi >= top:
            return exhausted
        lo, hi, head = hi, min(2 * hi, top), residue
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if residue := head * _base_product_mod(Q, lo + 1, mid, r) % r:
            lo, head = mid, residue
        else:
            hi = mid
    n0 = hi

    digits, u = _expand(x.numerator, r, Q, 1, n0)
    if u:  # sigma^n0(x) = u/r is 0 exactly when the n0 digits evaluate to x
        raise AssertionError("divisibility test and greedy expansion disagree on the n0 digits")
    word = _unchecked(DigitWord, digits, 1)
    return DualRepresentationReport("yes", n0=n0, finite_form=word, cofinite_form=_twin(digits))


@_record
class ShiftConstantReport:
    """Digit-ratio constancy check over a window of positions.

    The shift values of x are constant from step `after` onward exactly when
    every later digit satisfies e_n/(q_n - 1) = sigma^after(x).  `holds`
    states that equality over the checked window; `conclusive` marks whether
    the window provably decides the unbounded claim (it always does for a
    failure, and for list-backed Q once the window covers every recurring
    shift state).
    """

    holds: bool
    after: int
    constant: Fraction | None
    ratio_witnesses: tuple[tuple[int, int, int], ...]
    conclusive: bool


def shift_constant_check(
    x: Rational | BlockDescription,
    Q: QSequence,
    n0: int = 0,
    horizon: int = 50,
) -> ShiftConstantReport:
    """Check e_n/(q_n - 1) = sigma^{n0}(x) for n0 < n <= n0 + horizon.

    Block descriptions are reconstructed to their exact value first.  The
    window's digits are expansion._expand's over its `horizon` bases from
    sigma^{n0}(x) = a/b, one modular power as in shift_value: on lanes of
    one int where _expand's gate sends them, as in expand, else one step
    per digit.  Each position is compared in integers,
    e_n * b == (q_n - 1) * a, so it costs O(horizon) for any n0; one
    ending past sys.maxsize raises DomainError.  For a list-backed Q
    the pair (shift state, position in period) recurs within denominator *
    period steps, so a clean window of that length decides the property
    for all n; shorter clean windows are reported as inconclusive, while
    any failing window is conclusive by counterexample.
    """
    if not isinstance(x, (int, Fraction)):  # rationality loads only for a BlockDescription
        from .rationality import BlockDescription, reconstruct
        if isinstance(x, BlockDescription):
            x = reconstruct(x, Q)
    x = _unit_value(x)
    _check_int(n0, 0, "window start")
    _check_count(_check_int(horizon, 1, "window length") + n0)

    v = x.denominator
    target = Fraction(x.numerator * _base_product_mod(_sequence(Q), 1, n0, v) % v, v)
    a, b = target.numerator, target.denominator
    digits, _ = _expand(a, b, Q, n0 + 1, horizon)
    qs = _span(Q, n0 + 1, horizon)
    witnesses = tuple(zip(range(n0 + 1, n0 + horizon + 1), digits, qs))
    holds = all(e * b == (q - 1) * a for e, q in zip(digits, qs))
    conclusive = not holds or (
        isinstance(Q, ListBacked) and horizon >= max(n0, len(Q.prefix)) - n0 + v * len(Q.period)
    )
    return ShiftConstantReport(holds, n0, target if holds else None, witnesses, conclusive)


@_record
class FixedPointCandidate:
    """One candidate eps/(q-1) for a value fixed by every shift."""

    eps: int
    value: Fraction
    member: bool
    failing_position: int | None
    endpoint: bool


@_record
class FixedPointReport:
    """All q candidates eps/(q-1), q = min base, with membership verdicts.

    A candidate is a true fixed point iff (q - 1) divides eps * (q_n - 1)
    at every position, so the candidate list can be strictly larger than
    the set of members; `failing_position` pins the first failure.  The
    eps = q - 1 candidate is the domain endpoint 1, reported here and
    nowhere else.
    """

    q: int
    candidates: tuple[FixedPointCandidate, ...]


def fixed_points(Q: QSequence) -> FixedPointReport:
    """Enumerate values x with sigma^n(x) = x for every n.

    Any such value is eps/(q-1) with q the minimum base and
    eps in {0, ..., q-1}; membership is the integrality of the digit rule
    e_n = eps*(q_n - 1)/(q - 1), checked over the prefix plus one full
    period for list-backed sequences.  On rule:odd, q - 1 = 2 divides every
    q_n - 1 = 2n, so every candidate is a member.
    """
    q = tail_min(Q, 0).value
    checked = Q.prefix + Q.period if isinstance(Q, ListBacked) else ()
    candidates = []
    for eps in range(q):
        failing = next((n for n, qn in enumerate(checked, 1) if eps * (qn - 1) % (q - 1)), None)
        candidates.append(FixedPointCandidate(eps, Fraction(eps, q - 1), failing is None, failing, endpoint=eps == q - 1))
    return FixedPointReport(q, tuple(candidates))


def fixed_point_digits(Q: QSequence, eps: int, q: int | None = None) -> Iterator[int]:
    """Digit iterator e_n = eps*(q_n - 1)/(q - 1) of a fixed-point member.

    q defaults to the minimum base, tail_min(Q).value.  Q, eps and q are
    checked at the call; the iterator raises DomainError on the first
    position where the rule is not integral, i.e. when eps is not actually
    a member.
    """
    qs = iter_bases(Q)
    q = tail_min(Q).value if q is None else _check_int(q, 2, "minimum base q")
    if not 0 <= _check_int(eps, 0, "digit candidate") <= q - 1:
        raise DomainError(f"digit candidate must lie in 0..{q - 1}, got {eps}")

    def digits() -> Iterator[int]:
        for n, qn in enumerate(qs, 1):
            d, r = divmod(eps * (qn - 1), q - 1)
            if r:
                raise DomainError(f"candidate {eps} fails the integrality test at position {n}")
            yield d

    return digits()


@_record
class RegroupBlock:
    """One regrouped block: new digit lam, new base mu + 1."""

    lam: int
    mu: int


@_record
class Regrouping:
    """Blockwise summary of a regrouping.

    `mu` is the minimum of the block mu_k over the computed blocks and `lam`
    the digit of the first block achieving it.  `ratio_constant` states
    lam_k/mu_k is the same for every block (the regrouped series is then
    shift-constant from step 0); `proportional` states lam_k = (mu_k/mu)*lam
    exactly.  Given how lam is chosen the two conditions coincide (every
    mu_k >= 1), so both hold the one test lam_k * mu == mu_k * lam.
    """

    breakpoints: tuple[int, ...]
    blocks: tuple[RegroupBlock, ...]
    mu: int
    lam: int
    ratio_constant: bool
    proportional: bool


def regroup(
    x: Rational | DigitWord,
    Q: QSequence,
    breakpoints: Sequence[int] | Callable[[int], int],
    count: int | None = None,
) -> tuple[tuple[int, ...], DigitWord, Regrouping]:
    """Merge digit runs between breakpoints into a coarser Cantor series.

    With 0 = n_0 < n_1 < n_2 < ... the k-th block spans positions
    n_{k-1}+1 .. n_k and becomes one digit lam_k in base mu_k + 1 =
    q_{n_{k-1}+1} * ... * q_{n_k}; the new digits are the positional
    numerators of the old blocks, so the regrouped prefix plus the carried
    shift state reproduce x exactly.  Returns the explicit list of new
    bases, the new digit word, and the block report.

    Each block is one shift step in the regrouped base: from the state
    sigma^{n_{k-1}}(x) = u/v, lam_k, u = divmod(u * (mu_k + 1), v), which
    _digits takes over the block products.  The cost is the block products
    plus one division by v per block, and one multiply pair per
    block for the report's flags; a last breakpoint past sys.maxsize raises
    DomainError before any product, and a block product past
    base_product's size bound before it is built.  With `count`, at most
    `count` breakpoints are read, from a sequence or any iterable.
    """
    if callable(breakpoints):
        if count is None:
            raise DomainError("breakpoint rule needs an explicit block count")
        # count is checked before the rule runs: a float would leak TypeError, a huge count fill memory
        bps = tuple(map(breakpoints, range(1, _check_count(_check_int(count, 1, "block count")) + 1)))
    elif count is None:
        bps = tuple(breakpoints)
        count = _check_int(len(bps), 1, "block count")
    else:  # count is checked first, as for a rule, and bounds the items read
        bps = tuple(nk for _, nk in zip(range(_check_int(count, 1, "block count")), breakpoints))
    if len(bps) < count:
        raise DomainError(f"need {count} breakpoints, got {len(bps)}")
    if any(isinstance(nk, bool) or not isinstance(nk, int) or nk <= lo for lo, nk in zip((0,) + bps, bps)):
        raise DomainError(f"breakpoints must be strictly increasing positive integers, got {bps}")

    if isinstance(x, DigitWord):
        x = evaluate_finite(x, Q)
    x = _unit_value(x)

    _check_count(bps[-1])
    _sequence(Q)
    products = tuple(_product(Q, lo + 1, hi) for lo, hi in zip((0,) + bps, bps))
    lams, _ = _digits(x.numerator, x.denominator, products)
    blocks = [RegroupBlock(lam, prod - 1) for lam, prod in zip(lams, products)]

    mu = min(b.mu for b in blocks)
    lam_star = next(b.lam for b in blocks if b.mu == mu)
    proportional = all(b.lam * mu == b.mu * lam_star for b in blocks)
    report = Regrouping(bps, tuple(blocks), mu, lam_star, proportional, proportional)
    return products, _unchecked(DigitWord, lams, 1), report
