"""Digit generation by the shift operator, exact partial sums, and enclosures.

The shift operator drops the first digit of a Cantor series and rescales:
sigma(x) = q1*x - e1 where e1 = floor(q1*x).  Iterating it yields the digit
word of x, and after n steps the exact identity

    x = sum_{i<=n} e_i/(q1...q_i) + sigma^n(x)/(q1...q_n)

holds, which is what makes every operation here loss-free.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import chain, islice

from .foundation import (
    DomainError,
    QSequence,
    Rational,
    _RUN,
    _base_product_mod,
    _check_int,
    _merge_runs,
    _record,
    _take,
    _unchecked,
    iter_bases,
)

__all__ = [
    "DigitWord", "Enclosure", "ShiftState",
    "digit_stream", "enclosure", "evaluate_finite", "expand", "local_value", "shift_step", "shift_value",
    "validate_digits",
]


@_record
class DigitWord:
    """A finite run of digits occupying positions start, start+1, ..."""

    digits: tuple[int, ...]
    start: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "digits", tuple(self.digits))
        _check_int(self.start, 1, "digit word start")
        for off, d in enumerate(self.digits):
            if not isinstance(d, int) or isinstance(d, bool) or d < 0:
                raise DomainError(f"digit at position {self.start + off} must be a nonnegative integer, got {d!r}")

    def __len__(self) -> int:
        return len(self.digits)

    @property
    def end(self) -> int:
        """Last occupied position; start - 1 when empty."""
        return self.start + len(self.digits) - 1


@_record
class ShiftState:
    """Exact value sigma^step(x) of the shifted tail."""

    step: int
    value: Fraction


@_record
class Enclosure:
    """Closed interval containing every completion of a digit prefix."""

    low: Fraction
    high: Fraction


def _unit_value(x: Rational | int, what: str = "value") -> Fraction:
    if isinstance(x, int) and not isinstance(x, bool):
        x = Fraction(x)
    elif not isinstance(x, Fraction):
        raise DomainError(f"{what} must be an int or a Fraction, got {x!r}")
    if not 0 <= x < 1:
        raise DomainError(f"{what} must lie in [0, 1), got {x}")
    return x


def _residues(u: int, v: int, bases: Iterable[int]) -> Iterator[tuple[int, int]]:
    """Digits and states (e_k, u_k) of reduced u/v under the given bases:
    e_k, u_k = divmod(q_k * u_{k-1}, v) is the shift operator on integers,
    as sigma^k(u/v) = u_k/v.  Only the current state is held."""
    for q in bases:
        d, u = divmod(q * u, v)
        yield d, u


def _fold(pairs: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """(N, P) of (base, digit) pairs, one multiply per digit."""
    num, prod = 0, 1
    for q, d in pairs:
        num = num * q + d
        prod *= q
    return num, prod


def _positional(digits: Sequence[int], Q: QSequence, start: int) -> tuple[int, int]:
    """(N, P) for digits at positions start, start+1, ...: P is the product
    of their bases and N = sum e_i * (product of the bases after i), so the
    digits are worth N/P in the radix system that begins at `start`.

    A word of at most _RUN digits is folded directly; a longer one in runs
    of _RUN that _merge_runs combines, O(M(m) log m).  The bases are
    streamed, never listed.
    """
    pairs = zip(iter_bases(Q, start), digits)
    if len(digits) <= _RUN:
        return _fold(pairs)
    return _merge_runs(_fold(islice(pairs, _RUN)) for _ in range(0, len(digits), _RUN))


def validate_digits(word: DigitWord, Q: QSequence) -> None:
    """Check every digit against its position's alphabet {0, ..., q_k - 1}."""
    for k, (q, d) in enumerate(zip(iter_bases(Q, word.start), word.digits), word.start):
        if d >= q:
            raise DomainError(f"digit {d} at position {k} out of range for base {q}")


def shift_step(state: ShiftState, q: int) -> tuple[int, ShiftState]:
    """One application of the shift operator with base q.

    Emits the digit floor(q * value) and the next exact state; the digit is
    always in {0, ..., q-1} and the next value stays in [0, 1).
    """
    if q < 2:
        raise DomainError(f"shift base must be >= 2, got {q}")
    value = _unit_value(state.value, "shift value")
    scaled = q * value
    digit = math.floor(scaled)
    return digit, ShiftState(state.step + 1, scaled - digit)


def expand(x: Rational | int, Q: QSequence, count: int) -> tuple[DigitWord, ShiftState]:
    """First `count` digits of x under Q, plus the exact final shift state.

    Digits follow the greedy floor rule, which picks the terminating (all
    zero tail) representation whenever two exist.  On a reduced x = u/v the
    shift values are u_k/v.  While v is wider than the product P of the
    next _RUN bases, one step N, u_{k+r} = divmod(u_k * P, v) crosses them
    all (the partial-sum identity above, applied to sigma^k(x)), and their
    digits are peeled off N from the right: m/_RUN divisions of v-sized
    integers for m digits instead of m.  From the first run as wide as v
    on, or from the start for v of at most _RUN bits, it steps one base at
    a time, which is then cheaper than peeling.
    """
    x = _unit_value(x)
    u, v = x.numerator, x.denominator
    qs = _take(iter_bases(Q), _check_int(count, 1, "digit count"))
    out: list[int] = []
    while v.bit_length() > _RUN and (run := list(islice(qs, _RUN))):
        if len(run) * max(run).bit_length() >= v.bit_length():
            qs = chain(run, qs)
            break
        num, u = divmod(u * math.prod(run), v)
        peeled = []
        for q in reversed(run):
            num, d = divmod(num, q)
            peeled.append(d)
        out += reversed(peeled)
    for d, u in _residues(u, v, qs):
        out.append(d)
    return _unchecked(DigitWord, tuple(out), 1), ShiftState(count, Fraction(u, v))


def shift_value(x: Rational | int, Q: QSequence, n: int) -> Fraction:
    """Exact value sigma^n(x) of the n-times shifted tail.

    On reduced x = u/v, sigma^n(x) = u_n/v with u_n = u * (q1...q_n mod v)
    mod v, so no shift step is walked: one modular power for list-backed Q;
    for rule sequences one modular power and at most min(n, v) small
    modular multiplies, as any v consecutive bases of rule:odd have the
    same product mod v.
    """
    x = _unit_value(x)
    v = x.denominator
    return Fraction(x.numerator * _base_product_mod(Q, 1, _check_int(n, 0, "shift count"), v) % v, v)


def digit_stream(x: Rational | int, Q: QSequence) -> Iterator[tuple[int, ShiftState]]:
    """Yields (digit, state) forever, the state being sigma^k(x) after digit k.

    Holds a private cursor; the exact states it yields make resumption from
    any point trivial.
    """
    x = _unit_value(x)
    for k, (d, u) in enumerate(_residues(x.numerator, x.denominator, iter_bases(Q)), 1):
        yield d, ShiftState(k, Fraction(u, x.denominator))


def local_value(word: DigitWord, Q: QSequence) -> Fraction:
    """Value of a word in the radix system that begins at its own start.

    For a word at positions s..s+m-1 this is sum e_i/(q_s ... q_i), i.e. the
    contribution of the word to the shifted tail sigma^{s-1}.
    """
    validate_digits(word, Q)
    return Fraction(*_positional(word.digits, Q, word.start))


def _finite_positional(word: DigitWord, Q: QSequence) -> tuple[int, int]:
    """(N, P) of a validated word that starts at position 1."""
    if word.start != 1:
        raise DomainError(f"finite evaluation expects a word starting at position 1, got {word.start}")
    validate_digits(word, Q)
    return _positional(word.digits, Q, 1)


def evaluate_finite(word: DigitWord, Q: QSequence) -> Rational:
    """Exact value of a finite digit word starting at position 1."""
    return Fraction(*_finite_positional(word, Q))


def enclosure(word: DigitWord, Q: QSequence) -> Enclosure:
    """Interval [low, low + 1/(q1...qn)] containing every completion.

    Any infinite Cantor series whose digits begin with this word has its
    value inside the enclosure; the width is exactly the weight of position
    n, so enclosures shrink by a factor q_{n+1} per extra digit.
    """
    num, prod = _finite_positional(word, Q)
    return Enclosure(Fraction(num, prod), Fraction(num + 1, prod))
