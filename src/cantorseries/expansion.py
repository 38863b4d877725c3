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
from itertools import compress, islice
from operator import countOf, ge, lt

from .foundation import (
    DomainError,
    ListBacked,
    QSequence,
    Rational,
    _LANE_BITS,
    _RUN,
    _base_product_mod,
    _check_count,
    _check_int,
    _merge_runs,
    _of,
    _record,
    _sequence,
    _span,
    _split,
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
        digits = self.__dict__["digits"] = tuple(self.digits)
        _check_int(self.start, 1, "digit word start")
        if digits and (countOf(map(type, digits), int) != len(digits) or min(digits) < 0):
            # past the C-level check: name the first bad digit, let int subclasses through
            for off, d in enumerate(digits):
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

    def __post_init__(self) -> None:
        _check_int(self.step, 0, "shift step")
        _unit_value(self.value, "shift value")


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
    if not 0 <= x.numerator < x.denominator:  # reduced, with a positive denominator
        raise DomainError(f"{what} must lie in [0, 1), got {x}")
    return x


def _digits(u: int, v: int, bases: Iterable[int]) -> tuple[tuple[int, ...], int]:
    """Digits e_1..e_m of reduced u/v under the given bases, and the last
    state u_m: e_k, u_k = divmod(q_k * u_{k-1}, v) is the shift operator on
    integers, as sigma^k(u/v) = u_k/v.  One step per digit serves rule
    sequences, list-backed ones off the lanes and regroup's block
    products.  The whole periods of the long expansions that _expand's
    gate sends to _packing.expand_lanes take the lanes instead; the prefix
    part and the last partial period of those still come here.
    """
    out: list[int] = []
    for q in bases:
        d, u = divmod(q * u, v)
        out.append(d)
    return tuple(out), u


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

    This is the fold for the words of more than _RUN digits that
    _word_positional does not fold at C level (rule sequences, periods of
    more than _RUN bases, and digits of 256 or more) and _walk does not
    walk whole, and for the prefix part of those it does.  Its callers
    check Q and start, and the bases come from _span.  Runs of _RUN
    digits, and at least one, fold (N, P) pairs one multiply per digit,
    and _merge_runs merges them with their products: O(M(m) log m)."""
    pairs = zip(_span(Q, start, len(digits)), digits)
    nums, prods = map(list, zip(*[_fold(islice(pairs, _RUN)) for _ in range(0, max(len(digits), 1), _RUN)]))
    return _merge_runs(nums, prods)


# The largest denominator _walk steps at.  Swept from 2**32 to 2**256 with
# evaluate_finite (Python 3.11.7, shared VM): random rule:odd and 70-base-
# period words of 65-300 digits took at most 2 us more at 2**64 than at
# 2**32, and 10-15% more from 2**96 on; rule:odd dual forms of products of
# primes near 20,000 walked whole up to the bound, 2.4-3.6 against 9.4-9.7
# ms on the product tree.
_WALK_BELOW = 1 << 64


def _walk(digits: Sequence[int], Q: QSequence, start: int, tail: int) -> tuple[int, int]:
    """A pair worth (N + tail)/P, (N, P) = _positional(digits, Q, start) and
    tail 0 or 1, walked from the right: a tail worth a/b, reduced, and the
    digit e of base q left of it are worth (e*b + a)/(q*b), which only q
    can reduce.  As the tails of u/v are worth u_k/v, b never passes the
    value's own denominator and only grows leftward; once it passes
    _WALK_BELOW, _positional folds the digits left of that point into
    (N', P') and the pair is (N'*b + a, P'*b).
    """
    a, b, k = tail, 1, len(digits)
    for e, q in zip(reversed(digits), reversed(_span(Q, start, k))):
        if b > _WALK_BELOW:
            num, prod = _positional(digits[:k], Q, start)
            return num * b + a, prod * b
        num = e * b + a
        g = math.gcd(num, q)
        a, b, k = num // g, q // g * b, k - 1
    return a, b


# _packing's two functions, imported for the first long word: a cold call
# on short words does not compile the module, and later words pay for no
# import statement (1.4 us each, Python 3.11.7).
_pack = _fold_packed = None


def _packed(word: DigitWord, Q: QSequence) -> tuple[tuple[int, tuple[int, ...], int, int], bytes] | None:
    """validate_digits(word, Q), returning foundation._split's cut of the
    word and _packing.pack's form of every digit past the prefix when it
    has one: it has more than _RUN digits on a list-backed Q with a period
    of at most _RUN bases, and its digits past the prefix, the last
    partial period included, are below 256.  The prefix part is checked
    one step per digit, and so is every other word, and the whole word
    once a check fails, to name the first bad digit.
    """
    global _pack, _fold_packed
    digits, start = _of(DigitWord, word).digits, word.start
    if len(digits) > _RUN and isinstance(Q, ListBacked) and len(Q.period) <= _RUN:
        if _pack is None:
            from ._packing import fold as _fold_packed, pack as _pack
        head, run, _, _ = split = _split(Q, start, len(digits))
        if (packed := _pack(digits[head:], run)) is not None and all(map(lt, digits, Q.prefix[start - 1 :])):
            return split, packed
    qs = _span(_sequence(Q), start, len(digits))
    k = next(compress(range(len(digits)), map(ge, digits, qs)), None)
    if k is not None:
        raise DomainError(f"digit {digits[k]} at position {start + k} out of range for base {qs[k]}")
    return None


def validate_digits(word: DigitWord, Q: QSequence) -> None:
    """Check every digit against its position's alphabet {0, ..., q_k - 1};
    the DomainError names the first digit out of range.  Past the prefix of
    a list-backed Q, every digit of a long word whose digits there are all
    below 256, the last partial period included, is checked by one C-level
    pass per period phase (see _packed); other digits, one step each."""
    _packed(word, Q)


def _word_positional(word: DigitWord, Q: QSequence, tail: int | None = None) -> tuple[int, int]:
    """validate_digits(word, Q), then _positional(word.digits, Q, word.start):
    for a word of at most _RUN digits, one loop over its _span (a bad digit
    goes to _packed, which names the first); for a longer one, from the
    packed form of its digits past the prefix where it has one: the whole
    periods, which _packing.fold reads at C level, joined once by the last
    partial period (folded by _fold) and the prefix part (by _positional).
    Given a tail of 0 or 1, a pair worth (N + tail)/P instead, from _walk
    for a word _positional would fold."""
    digits, start = _of(DigitWord, word).digits, word.start
    if len(digits) <= _RUN:
        qs = _span(_sequence(Q), start, len(digits))
        num = 0
        for q, d in zip(qs, digits):
            if d >= q:
                _packed(word, Q)  # names the first bad digit
            num = num * q + d
        return num + (tail or 0), math.prod(qs)
    if (packed := _packed(word, Q)) is None:
        return _positional(digits, Q, start) if tail is None else _walk(digits, Q, start, tail)
    (head, run, K, last), bs = packed
    num, prod = _fold_packed(K, bs, run)
    tail_num, tail_prod = _fold(zip(run, digits[len(digits) - last :]))
    num, prod = num * tail_prod + tail_num, prod * tail_prod
    if head:
        head_num, head_prod = _positional(digits[:head], Q, start)
        num, prod = head_num * prod + num, head_prod * prod
    return num + (tail or 0), prod


def shift_step(state: ShiftState, q: int) -> tuple[int, ShiftState]:
    """One application of the shift operator with base q.

    Emits the digit floor(q * value) and the next exact state; the digit is
    always in {0, ..., q-1} and the next value stays in [0, 1).
    """
    _check_int(q, 2, "shift base")
    value = _unit_value(_of(ShiftState, state).value, "shift value")
    scaled = q * value
    digit = math.floor(scaled)
    return digit, _unchecked(ShiftState, state.step + 1, scaled - digit)


# The least count that _expand, the lane gate, hands to
# _packing.expand_lanes.  Over 65- to 16,384-bit v, the wide lanes took 0.08
# to 0.83 times the time of one step per digit at 256 digits on const:2,
# const:10, periodic:2,3 and periodic:5,2,7 (0.19 to 1.40 on const:256,
# whose digits fill a byte each), and 0.09 to 4.6 times at 32 to 128
# digits; past W = 2**64 they took 0.20 to 2.3 times at 79 and 94 bits of
# W, winning only from v of 1,024 bits on, and 1.3 to 22 times for a
# 64-base period of bases 193-256 (Python 3.11.7, shared VM).
_LANES_FROM = 256
_expand_lanes = None  # _packing.expand_lanes, imported for the first long expansion


def _expand(u: int, v: int, Q: QSequence, lo: int, count: int) -> tuple[tuple[int, ...], int]:
    """_digits(u, v, _span(Q, lo, count)): the digits of reduced u/v under
    the count bases from position lo, and the last state.

    This is the one lane gate.  _digits makes the digits unless Q is
    list-backed with a period of at most _RUN bases, all at most 256, count
    is at least _LANES_FROM, and v or the period product W has at most
    _LANE_BITS bits.  There _packing.expand_lanes steps the whole
    periods past the prefix (foundation._split) on up to 1024 lanes of one
    int, a run of bases of product at most 256 per step, from residues of
    v, or for a wider v from the leaves of one division of v per chunk of
    about 1,024 bits; _digits takes the prefix part and the last partial
    period.  The n + m digits of 12345/30011 took 0.13 to 0.22 times the
    loop's time (30,010 digits on const:2 in 0.35 ms, against 2.8 ms), and
    the 1,000 to 8,000 digits of the benchmark's list-backed dual forms,
    at v of 2,110 to 13,290 bits, 0.05 to 0.20 times the loop's (8,000
    digits on const:2 in 0.75 ms, against 13.7 ms).  At v of 48 to 64
    bits and 256 to 2,047 digits, a band no benchmark workload reaches,
    the lanes took 0.29 to 0.72 times the loop's time on const:2, 0.33 to
    0.78 on periodic:2,3, 0.50 to 1.04 on periodic:5,2,7 and
    prefix:7,3,250;2,3,5, and 0.71 to 1.21 on const:10, past 1.05 only
    from 60 bits at up to 768 digits (8 us at most); const:256, whose
    digits fill a byte each, took 0.95 to 2.01 there, and 0.56 to 1.45 at
    16 to 47 bits (best of 7 in 3 rounds, Python 3.11.7, shared VM).
    """
    global _expand_lanes
    if count < _LANES_FROM or not (
        isinstance(Q, ListBacked) and len(Q.period) <= _RUN and max(Q.period) <= 256
        and min(v, math.prod(Q.period)).bit_length() <= _LANE_BITS
    ):
        return _digits(u, v, _span(Q, lo, count))
    if _expand_lanes is None:
        from ._packing import expand_lanes as _expand_lanes
    head, run, K, tail = _split(Q, lo, count)
    first, u = _digits(u, v, Q.prefix[lo - 1 : lo - 1 + head])
    out, u = _expand_lanes(u, v, run, K)
    last, u = _digits(u, v, run[:tail])
    out += bytes(last)
    return first + tuple(out) if first else tuple(out), u


def expand(x: Rational | int, Q: QSequence, count: int) -> tuple[DigitWord, ShiftState]:
    """First `count` digits of x under Q, plus the exact final shift state.

    Digits follow the greedy floor rule, which picks the terminating (all
    zero tail) representation whenever two exist.  _expand makes them:
    one step per digit, or whole periods at once on lanes of one int for
    the long expansions that its gate sends there.
    """
    x = _unit_value(x)
    _sequence(Q)  # a Q that is not a QSequence raises TypeError before a bad count
    digits, u = _expand(x.numerator, v := x.denominator, Q, 1, _check_count(_check_int(count, 1, "digit count")))
    return _unchecked(DigitWord, digits, 1), _unchecked(ShiftState, count, Fraction(u, v))


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
    _check_int(n, 0, "shift count")
    return Fraction(x.numerator * _base_product_mod(_sequence(Q), 1, n, v) % v, v)


def digit_stream(x: Rational | int, Q: QSequence) -> Iterator[tuple[int, ShiftState]]:
    """Yields (digit, state) forever, the state being sigma^k(x) after digit k.

    Holds a private cursor; the exact states it yields make resumption from
    any point trivial.
    """
    x = _unit_value(x)
    u, v = x.numerator, x.denominator
    for k, q in enumerate(iter_bases(Q), 1):
        (d,), u = _digits(u, v, (q,))
        yield d, _unchecked(ShiftState, k, Fraction(u, v))


def local_value(word: DigitWord, Q: QSequence) -> Fraction:
    """Value of a word in the radix system that begins at its own start.

    For a word at positions s..s+m-1 this is sum e_i/(q_s ... q_i), i.e. the
    contribution of the word to the shifted tail sigma^{s-1}.  Past 64
    digits, a word not folded from packed periods (rule sequences, say) is
    walked from the right, one small gcd per digit, while the value's
    denominator is at most 2**64 (_walk).
    """
    return Fraction(*_word_positional(word, Q, 0))


def evaluate_finite(word: DigitWord, Q: QSequence) -> Rational:
    """Exact value of a finite digit word starting at position 1, as
    local_value gives it."""
    if _of(DigitWord, word).start != 1:
        raise DomainError(f"finite evaluation expects a word starting at position 1, got {word.start}")
    return Fraction(*_word_positional(word, Q, 0))


def enclosure(word: DigitWord, Q: QSequence) -> Enclosure:
    """Interval [low, low + 1/(q1...qn)] containing every completion.

    Any infinite Cantor series whose digits begin with this word has its
    value inside the enclosure; the width is exactly the weight of position
    n, so enclosures shrink by a factor q_{n+1} per extra digit.
    """
    if _of(DigitWord, word).start != 1:
        raise DomainError(f"finite evaluation expects a word starting at position 1, got {word.start}")
    num, prod = _word_positional(word, Q)
    return Enclosure(Fraction(num, prod), Fraction(num + 1, prod))
