"""Exact rational values and base sequences for Cantor series.

A Cantor series writes a number x in [0, 1) as

    x = e1/q1 + e2/(q1*q2) + e3/(q1*q2*q3) + ...

over a fixed sequence Q = (q_k) of integer bases q_k >= 2, with digits
e_k in {0, ..., q_k - 1}.  This module provides the base-sequence kinds,
their text grammar, and tail-minimum queries; rationals are plain
`fractions.Fraction` values, which are always stored reduced.

Every value and report type of the package is a frozen record made by
`_record`: the part of `dataclass(frozen=True)` the package uses, without
the dataclass module, whose import of `inspect`, `ast` and `dis` a cold CLI
call would pay for each time.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction

__all__ = [
    "Constant", "DomainError", "ListBacked", "ParseError", "Periodic", "PrefixPeriodic", "QSequence",
    "Rational", "Rule", "TailMin",
    "base_product", "bases", "format_qseq", "iter_bases", "parse_qseq", "q_at", "tail_min",
]

Rational = Fraction


class ParseError(ValueError):
    """Text does not conform to the Q-sequence or number grammar."""


class DomainError(ValueError):
    """An exact operation was applied outside its domain."""


def _is_int(value: object) -> bool:
    """Whether value is an int and not a bool; an exact int is tested first."""
    return value.__class__ is int or isinstance(value, int) and not isinstance(value, bool)


def _check_int(value: object, lowest: int, what: str) -> int:
    """Return value if it is an int (never a bool) >= lowest; else raise DomainError."""
    if value.__class__ is not int and not _is_int(value) or value < lowest:
        raise DomainError(f"{what} must be an integer >= {lowest}, got {value!r}")
    return value


def _of(cls: type, value: object) -> object:
    """Return value if it is an instance of the record class cls; else raise TypeError."""
    if not isinstance(value, cls):
        raise TypeError(f"not a {cls.__name__}: {value!r}")
    return value


def _record(cls: type) -> type:
    """Make cls a frozen record, as dataclass(frozen=True) would.

    The fields are cls's annotations, in order; trailing ones may have
    class-level defaults.  The generated __init__ stores them and then
    calls __post_init__ if cls has one.  A record's __dict__ holds exactly
    its fields, in that order, and equality (within one class only),
    hashing and repr read it there, as the dataclass methods read the
    fields.  Assigning or deleting an attribute raises AttributeError.
    """
    fields = tuple(cls.__annotations__)
    defaults = {f: vars(cls)[f] for f in fields if f in vars(cls)}
    lines = [f"def __init__(self, {', '.join(f'{f}=_defaults[{f!r}]' if f in defaults else f for f in fields)}):"]
    lines += _stores(fields)
    if hasattr(cls, "__post_init__"):
        lines.append("    self.__post_init__()")
    namespace = {"_defaults": defaults}
    exec("\n".join(lines), namespace)
    init = cls.__init__ = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {**cls.__annotations__, "return": None}  # the dataclass signature
    cls.__match_args__ = fields
    cls.__eq__, cls.__hash__, cls.__repr__ = _record_eq, _record_hash, _record_repr
    cls.__setattr__, cls.__delattr__ = _record_setattr, _record_delattr
    return cls


def _record_eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return self.__dict__ == other.__dict__


def _record_hash(self):
    return hash(tuple(self.__dict__.values()))


def _record_repr(self):
    return f"{self.__class__.__qualname__}({', '.join(f'{k}={v!r}' for k, v in self.__dict__.items())})"


def _record_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _record_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _stores(fields: tuple[str, ...]) -> list[str]:
    """Source lines that store the local variables `fields` in self's __dict__."""
    # item stores: twice as fast as object.__setattr__
    return ["    _stored = self.__dict__", *(f"    _stored[{f!r}] = {f}" for f in fields)]


def _unchecked(cls: type, *values: object) -> object:
    """A record of cls holding `values`, one per field, without running
    __post_init__: for values the package computed itself, which those
    checks would only repeat.

    The first call for cls generates a builder that stores them as
    __init__ does, and keeps it on cls: 0.4 us for a ShiftState, against
    0.9 us for an update of a new record's __dict__.  _record does not
    make one for every class, as that cost about 40 us of import time
    each (Python 3.11.7)."""
    build = cls.__dict__.get("_unchecked")
    if build is None:
        fields = cls.__match_args__
        lines = [f"def build({', '.join(fields)}):", "    self = _new(_cls)", *_stores(fields), "    return self"]
        namespace = {"_new": object.__new__, "_cls": cls}
        exec("\n".join(lines), namespace)
        build = cls._unchecked = namespace["build"]
    return build(*values)


@_record
class ListBacked:
    """A finite, possibly empty prefix of bases followed by a cycling period.

    Build it through `Constant`, `Periodic` or `PrefixPeriodic`; the three
    spellings make the same kind of value, so `Periodic((7,)) == Constant(7)`.
    """

    prefix: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "prefix", tuple(self.prefix))
        object.__setattr__(self, "period", tuple(self.period))
        if not self.period:
            raise DomainError("a list-backed base sequence needs at least one period entry")
        for i, b in enumerate(self.prefix + self.period, 1):
            _check_int(b, 2, f"base at position {i}")


def Constant(base: int) -> ListBacked:
    """Every position uses the same base."""
    return ListBacked((), (base,))


def Periodic(period: Sequence[int]) -> ListBacked:
    """Bases cycle through a fixed finite list, starting at position 1."""
    return ListBacked((), period)


def PrefixPeriodic(prefix: Sequence[int], period: Sequence[int]) -> ListBacked:
    """A non-empty finite prefix of bases followed by a cycling period."""
    if not prefix:
        raise DomainError("prefix-periodic base sequence needs a non-empty prefix")
    return ListBacked(prefix, period)


# The one rule sequence, "odd": q_k = 2k + 1, giving 3, 5, 7, ...
# structure relies on three of its facts: the bases increase (the tail
# minimum is the next base), every base is odd (no even denominator divides
# a base product), and q_1 - 1 = 2 divides every q_k - 1 = 2k (every
# fixed-point candidate is a member).  _base_product_mod uses a fourth:
# q_{k+v} = q_k + 2v.
@_record
class Rule:
    """Bases given by a closed-form rule; the one rule is "odd", q_k = 2k + 1."""

    rule_id: str

    def __post_init__(self) -> None:
        if self.rule_id != "odd":
            raise DomainError(f"unknown rule {self.rule_id!r}; known rules: ['odd']")


QSequence = ListBacked | Rule


def _sequence(Q: object) -> QSequence:
    """Q if it is a QSequence; else TypeError.  The exact classes are
    tested first: an isinstance on the union costs more than both."""
    if Q.__class__ is ListBacked or Q.__class__ is Rule or isinstance(Q, QSequence):
        return Q
    raise TypeError(f"not a QSequence: {Q!r}")


def iter_bases(Q: QSequence, start: int = 1) -> Iterator[int]:
    """Endless iterator over the bases q_start, q_{start+1}, ..."""
    _check_int(start, 1, "base position")
    if isinstance(_sequence(Q), Rule):
        return itertools.count(2 * start + 1, 2)
    if start <= len(Q.prefix):
        return itertools.chain(Q.prefix[start - 1 :], itertools.cycle(Q.period))
    return itertools.cycle(_span(Q, start, len(Q.period)))


def _check_count(count: int) -> int:
    """count, or DomainError past sys.maxsize: no such count can be sliced."""
    if count > sys.maxsize:
        raise DomainError(f"count {count} is too large to materialise")
    return count


_RUN = 64  # bases handled one at a time within a run; whole runs are merged or stepped


def _merge_runs(nums: list[int], prods: list[int] | int) -> tuple[int, int]:
    """(N, P) of one or more consecutive runs with numerators `nums` and
    products `prods`, one per run or one int shared by every run: a
    positional numerator and its base product, or a plain product when
    every numerator is 0.

    Blocks of runs merge in pairs counted from the right, one level at a
    time, as (N1*P2 + N2, P1*P2): O(M(m) log m), not O(m^2).  An odd first
    block goes up a level alone, so the right-hand block of every pair at
    level k is whole, 2**k runs.  A shared product W = 2**a * r, r odd,
    makes that block's product R << s, R = r**(2**k) and s = a * 2**k,
    squared and doubled once per level; each pair merges as
    (N1 * R << s) + N2, a multiplier log(r)/log(W) of W's width (70% for
    W = 10), and P is r**count << a * count.  The loop is flat: recursive
    nested functions form reference cycles, which kept their products
    alive until the cyclic collector ran.  The lists are merged in place,
    so each value is freed once it has been merged.
    """
    count, shared = len(nums), isinstance(prods, int)
    shift = a = (prods & -prods).bit_length() - 1 if shared else 0
    level = odd = prods >> a if shared else prods
    while (size := len(nums)) > 1:
        for j, i in enumerate(range(size % 2, size, 2), size % 2):
            right = level if shared else level[i + 1]
            nums[j] = (nums[i] * right << shift) + nums[i + 1]
            if not shared:
                level[j] = level[i] * right
        del nums[j + 1 :]
        if not shared:
            del level[j + 1 :]
        elif j:
            level *= level
            shift *= 2
    return nums[0], odd**count << a * count if shared else level[0]


def _span(Q: QSequence, lo: int, count: int) -> Sequence[int]:
    """The bases q_lo, ..., q_{lo+count-1} (none for count <= 0): a range on
    rule:odd, else the prefix part and a slice of repeated periods (at most
    count + L items).  It checks nothing: Q is a QSequence, lo an int >= 1."""
    if isinstance(Q, Rule):
        return range(2 * lo + 1, 2 * (lo + count), 2)
    pre, per = Q.prefix, Q.period
    if lo > len(pre):
        phase = (lo - len(pre) - 1) % len(per)
        return (per * -(-(phase + count) // len(per)))[phase : phase + count]
    head = pre[lo - 1 : lo - 1 + count]
    return head + _span(Q, len(pre) + 1, count - len(head))


def _split(Q: ListBacked, lo: int, count: int) -> tuple[int, tuple[int, ...], int, int]:
    """(head, run, K, tail): the count positions from lo of a list-backed Q
    are `head` bases of the prefix, then K whole periods of `run`, the
    period rotated to the phase of position lo + head, then run[:tail]."""
    pre, per = Q.prefix, Q.period
    head = min(count, max(0, len(pre) - lo + 1))
    phase = (lo + head - len(pre) - 1) % len(per)
    K, tail = divmod(count - head, len(per))
    return head, per[phase:] + per[:phase], K, tail


def bases(Q: QSequence, count: int, start: int = 1) -> tuple[int, ...]:
    """The bases q_start, ..., q_{start+count-1}."""
    _check_int(start, 1, "base position")
    return tuple(_span(_sequence(Q), start, _check_count(_check_int(count, 0, "base count"))))


def q_at(Q: QSequence, k: int) -> int:
    """Base q_k at 1-based position k."""
    return bases(Q, 1, k)[0]


def _product_split(Q: QSequence, lo: int, hi: int) -> tuple[Sequence[int], int, int]:
    """q_lo * ... * q_hi as (factors, whole, cycles): the product of the
    sequence `factors` times whole ** cycles.

    For list-backed sequences `factors` is a tuple of the prefix part and
    one partial period, sliced out, and whole is the product of a full
    period; for rule sequences it is the range of every base, and a range
    past sys.maxsize raises DomainError.  It checks nothing else: Q is a
    QSequence, lo an int >= 1 and hi an int >= 0.
    """
    count = hi - lo + 1
    if count <= 0:
        return (), 1, 0
    if isinstance(Q, Rule):
        _check_count(count)
        return range(2 * lo + 1, 2 * hi + 2, 2), 1, 0
    pre, per = Q.prefix, Q.period
    head = pre[lo - 1 : hi]
    cycles, rest = divmod(count - len(head), len(per))
    phase = (lo + len(head) - len(pre) - 1) % len(per)
    return head + (per + per)[phase : phase + rest], math.prod(per), cycles


# The largest product base_product builds: 2**22 bits (512 KiB, about 1.26
# million decimal digits); the largest it admits took 0.4 to 0.5 s to build
# (Python 3.11.7, shared VM).  The largest that the tests, the README and
# the benchmark build is 10**50001, about 166,000 bits.
_MAX_PRODUCT_BITS = 1 << 22


def _sized_split(Q: QSequence, lo: int, hi: int) -> tuple[Sequence[int], int, int]:
    """_product_split(Q, lo, hi), or DomainError for a range past sys.maxsize
    and, before any multiply, for a product whose bit length bound passes
    _MAX_PRODUCT_BITS: cycles * bits(period product) for the whole periods
    of a list-backed range, count * bits(q_hi) for a rule's rising bases."""
    factors, whole, cycles = split = _product_split(Q, lo, hi)
    _check_count(hi - lo + 1)
    bits = cycles * whole.bit_length() if isinstance(Q, ListBacked) else len(factors) * (2 * hi + 1).bit_length()
    if bits > _MAX_PRODUCT_BITS:
        raise DomainError(f"product of bases {lo}..{hi} would exceed {_MAX_PRODUCT_BITS} bits")
    return split


def base_product(Q: QSequence, lo: int, hi: int) -> int:
    """Product q_lo * q_{lo+1} * ... * q_hi; 1 when the range is empty.

    For list-backed sequences only the prefix part and one partial period
    are multiplied out; the whole periods in between are one power of the
    period product W.  A range of at most _RUN bases takes it plainly, as
    W**cycles has at most _RUN * bits(W) bits.  A longer one takes it as
    r**cycles << a * cycles for W = 2**a * r, r odd (10**30010 in 0.43 ms,
    against 0.73 ms as a power of 10, Python 3.11.7).  More than _RUN
    other factors go in runs of _RUN, whose products _merge_runs multiplies
    in pairs counted from the right, with zero numerators, so m rule bases
    cost O(M(m) log m).  A range or product too large for _sized_split
    raises DomainError before any multiply.
    """
    _sequence(Q)
    _check_int(hi, 0, "last base position")
    factors, whole, cycles = _sized_split(Q, _check_int(lo, 1, "first base position"), hi)
    if hi - lo < _RUN:
        return math.prod(factors) * whole**cycles
    a = (whole & -whole).bit_length() - 1
    power = (whole >> a) ** cycles << a * cycles
    if len(factors) <= _RUN:
        return math.prod(factors) * power
    prods = [math.prod(factors[i : i + _RUN]) for i in range(0, len(factors), _RUN)]
    return _merge_runs([0] * len(prods), prods)[1] * power


def _product_mod(factors: Iterable[int], modulus: int, out: int = 1) -> int:
    """out times the factors, reduced mod `modulus` after each multiply."""
    for q in factors:
        out = out * q % modulus
    return out


def _base_product_mod(Q: QSequence, lo: int, hi: int, modulus: int) -> int:
    """base_product(Q, lo, hi) % modulus without the big product: one modular
    power and at most one small multiply per other factor.

    For list-backed sequences the power covers the whole periods.  For rule
    sequences it covers runs of v = modulus bases: q_{k+v} = q_k + 2v for
    q_k = 2k + 1, so any v consecutive bases have the same product mod v,
    and a range of any length takes at most v multiplies.  Its callers
    check Q, lo and hi, as for _product_split.
    """
    factors, whole, cycles = _product_split(Q, lo, hi)
    if isinstance(Q, Rule):
        cycles, rest = divmod(len(factors), modulus)
        part = _product_mod(factors[:rest], modulus)
        # the run q_lo .. q_{lo+v-1}: those rest bases, then the next v - rest
        whole = _product_mod(factors[rest:modulus], modulus, part) if cycles else 1
        return pow(whole, cycles, modulus) * part % modulus
    return _product_mod(factors, modulus, pow(whole, cycles, modulus))


def _parse_int(tok: str, what: str) -> int:
    """The integer spelled by tok: an optional sign and ASCII digits, and
    nothing else (no underscores, whitespace or other scripts' digits)."""
    body = tok[1:] if tok[:1] in ("+", "-") else tok
    if body.isascii() and body.isdigit():
        try:
            return int(tok)
        except ValueError:  # past sys.get_int_max_str_digits()
            pass
    raise ParseError(f"bad integer {tok!r} in {what}")


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    """The comma-separated integers of text; ParseError when it is empty."""
    if not text:
        raise ParseError(f"empty {what} list")
    return tuple(_parse_int(tok, f"{what} list") for tok in text.split(","))


def parse_qseq(text: str) -> QSequence:
    """Parse the base-sequence grammar.

    Accepted forms (whitespace is not significant):

        const:<q>
        periodic:<q1,q2,...>
        prefix:<a1,...;p1,...>
        rule:odd
    """
    s = "".join(text.split())
    head, sep, rest = s.partition(":")
    if not sep:
        raise ParseError(f"expected <kind>:<spec>, got {text!r}")
    try:
        if head == "const":
            (b,) = _parse_ints(rest, "const")
            return Constant(b)
        if head == "periodic":
            return Periodic(_parse_ints(rest, "period"))
        if head == "prefix":
            pre_text, semi, per_text = rest.partition(";")
            if not semi:
                raise ParseError(f"prefix form needs <prefix;period>, got {text!r}")
            return PrefixPeriodic(_parse_ints(pre_text, "prefix"), _parse_ints(per_text, "period"))
        if head == "rule":
            return Rule(rest)
    except ValueError as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(str(exc)) from None
    raise ParseError(f"unknown base-sequence kind {head!r}")


def format_qseq(Q: QSequence) -> str:
    """Render a QSequence back into the grammar; inverse of parse_qseq.

    A list-backed value takes the shortest spelling that describes it.
    """
    if isinstance(_sequence(Q), Rule):
        return f"rule:{Q.rule_id}"
    period = ",".join(map(str, Q.period))
    if Q.prefix:
        return "prefix:" + ",".join(map(str, Q.prefix)) + ";" + period
    return ("const:" if len(Q.period) == 1 else "periodic:") + period


@_record
class TailMin:
    """Minimum base strictly beyond a position.

    `value` is min{ q_k : k > after }.  Every sequence the package accepts
    has one, so `decidable` is always True.
    """

    after: int
    value: int | None
    decidable: bool


def tail_min(Q: QSequence, n0: int = 0) -> TailMin:
    """Exact minimum of q_k over k > n0.

    For list-backed kinds it is the least of the remaining prefix and one
    full period; the bases of the rule increase, so there it is q_{n0+1}.
    Anything but a QSequence raises TypeError, as in iter_bases.
    """
    _check_int(n0, 0, "tail start n0")
    return TailMin(n0, min(Q.prefix[n0:] + Q.period) if isinstance(Q, ListBacked) else q_at(Q, n0 + 1), True)
