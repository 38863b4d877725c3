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
from collections.abc import Callable, Iterable, Iterator, Sequence
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


def _check_int(value: object, lowest: int, what: str) -> int:
    """Return value if it is an int (never a bool) >= lowest; else raise DomainError."""
    if not isinstance(value, int) or isinstance(value, bool) or value < lowest:
        raise DomainError(f"{what} must be an integer >= {lowest}, got {value!r}")
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
    lines.append("    _stored = self.__dict__")  # item stores: twice as fast as object.__setattr__
    lines += [f"    _stored[{f!r}] = {f}" for f in fields]
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


def _unchecked(cls: type, *values: object) -> object:
    """A record of cls holding `values`, one per field, without running
    __post_init__: for values the package computed itself, which those
    checks would only repeat."""
    record = object.__new__(cls)
    record.__dict__.update(zip(cls.__match_args__, values))
    return record


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


@_record
class Rule:
    """Bases given by a closed-form rule from the fixed catalog."""

    rule_id: str

    def __post_init__(self) -> None:
        if self.rule_id not in RULE_CATALOG:
            raise DomainError(f"unknown rule {self.rule_id!r}; known rules: {sorted(RULE_CATALOG)}")


QSequence = ListBacked | Rule


# The closed catalog of rule sequences: rule id -> k -> q_k.  Its one rule,
# q_k = 2k + 1, gives 3, 5, 7, ...; structure relies on three of its facts:
# the bases increase (the tail minimum is the next base), every base is odd
# (no even denominator divides a base product), and q_1 - 1 = 2 divides
# every q_k - 1 = 2k (every fixed-point candidate is a member).
# _base_product_mod uses a fourth: q_{k+v} = q_k + 2v.
RULE_CATALOG: dict[str, Callable[[int], int]] = {"odd": lambda k: 2 * k + 1}


def iter_bases(Q: QSequence, start: int = 1) -> Iterator[int]:
    """Endless iterator over the bases q_start, q_{start+1}, ..."""
    _check_int(start, 1, "base position")
    if isinstance(Q, Rule):
        return map(RULE_CATALOG[Q.rule_id], itertools.count(start))
    if not isinstance(Q, ListBacked):
        raise TypeError(f"not a QSequence: {Q!r}")
    pre, per = Q.prefix, Q.period
    if start <= len(pre):
        return itertools.chain(pre[start - 1 :], itertools.cycle(per))
    return itertools.islice(itertools.cycle(per), (start - len(pre) - 1) % len(per), None)


def _check_count(count: int) -> int:
    """count, or DomainError past sys.maxsize: no such count can be sliced."""
    if count > sys.maxsize:
        raise DomainError(f"count {count} is too large to materialise")
    return count


def _take(it: Iterator, count: int) -> Iterator:
    """The first `count` items of `it`, under the _check_count guard."""
    return itertools.islice(it, _check_count(count))


_RUN = 64  # bases handled one at a time within a run; whole runs are merged or stepped


def _merge_runs(runs: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """(N, P) of consecutive runs (N_i, P_i), adjacent ones combining as
    (N1*P2 + N2, P1*P2): a positional numerator and its base product, or a
    plain product when every N is 0.  No runs give (0, 1).

    The top two merge whenever they cover equally many runs, like a binary
    counter, so large multiplies pair equal sizes: O(M(m) log m), not
    O(m^2).  The rest of the stack folds right to left.
    """
    stack: list[tuple[int, int, int]] = []  # (N, P, runs covered)
    for num, prod in runs:
        size = 1
        while stack and stack[-1][2] == size:
            left_num, left_prod, _ = stack.pop()
            num, prod, size = left_num * prod + num, left_prod * prod, 2 * size
        stack.append((num, prod, size))
    num, prod = 0, 1
    while stack:
        left_num, left_prod, _ = stack.pop()
        num, prod = left_num * prod + num, left_prod * prod
    return num, prod


def q_at(Q: QSequence, k: int) -> int:
    """Base q_k at 1-based position k."""
    return next(iter_bases(Q, k))


def bases(Q: QSequence, count: int, start: int = 1) -> tuple[int, ...]:
    """The bases q_start, ..., q_{start+count-1}."""
    return tuple(_take(iter_bases(Q, start), _check_int(count, 0, "base count")))


def _product_split(Q: QSequence, lo: int, hi: int) -> tuple[Iterator[int], int, int, int]:
    """q_lo * ... * q_hi as (factors, size, whole, cycles): the product of
    the finite iterator `factors`, of `size` items, times whole ** cycles.

    For list-backed sequences `factors` holds only the prefix part and one
    partial period, and whole is the product of a full period; rule
    sequences yield every base as a factor.
    """
    count = _check_int(hi, 0, "last base position") - _check_int(lo, 1, "first base position") + 1
    if count <= 0:
        return iter(()), 0, 1, 0
    it = iter_bases(Q, lo)
    if isinstance(Q, Rule):
        return _take(it, count), count, 1, 0
    head = min(count, max(0, len(Q.prefix) - lo + 1))
    cycles, rest = divmod(count - head, len(Q.period))
    return _take(it, head + rest), head + rest, math.prod(Q.period), cycles


# The largest product base_product builds: 2**22 bits (512 KiB, about 1.26
# million decimal digits); the largest it admits took 0.4 to 0.5 s to build
# (Python 3.11.7, shared VM).  The largest that the tests, the README and
# the benchmark build is 10**50001, about 166,000 bits.
_MAX_PRODUCT_BITS = 1 << 22


def _sized_split(Q: QSequence, lo: int, hi: int) -> tuple[Iterator[int], int, int, int]:
    """_product_split(Q, lo, hi), or DomainError for a range past sys.maxsize
    and, before any multiply, for a product whose bit length bound passes
    _MAX_PRODUCT_BITS: cycles * bits(period product) for the whole periods
    of a list-backed range, count * bits(q_hi) for a rule's rising bases."""
    factors, size, whole, cycles = split = _product_split(Q, lo, hi)
    _check_count(hi - lo + 1)
    bits = cycles * whole.bit_length() if isinstance(Q, ListBacked) else size * RULE_CATALOG[Q.rule_id](hi).bit_length()
    if bits > _MAX_PRODUCT_BITS:
        raise DomainError(f"product of bases {lo}..{hi} would exceed {_MAX_PRODUCT_BITS} bits")
    return split


def base_product(Q: QSequence, lo: int, hi: int) -> int:
    """Product q_lo * q_{lo+1} * ... * q_hi; 1 when the range is empty.

    For list-backed sequences only the prefix part and one partial period
    are multiplied out; the whole periods in between are one power.  More
    than _RUN other factors go in runs merged by _merge_runs, so m rule
    bases cost O(M(m) log m).  A range or product too large for
    _sized_split raises DomainError before any multiply.
    """
    factors, size, whole, cycles = _sized_split(Q, lo, hi)
    if size <= _RUN:
        return math.prod(factors) * whole**cycles
    runs = ((0, math.prod(itertools.islice(factors, _RUN))) for _ in range(0, size, _RUN))
    return _merge_runs(runs)[1] * whole**cycles


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
    and a range of any length takes at most v multiplies.
    """
    factors, size, whole, cycles = _product_split(Q, lo, hi)
    if isinstance(Q, Rule):
        cycles, rest = divmod(size, modulus)
        part = _product_mod(itertools.islice(factors, rest), modulus)
        # the run q_lo .. q_{lo+v-1}: those rest bases, then the next v - rest
        whole = _product_mod(itertools.islice(factors, modulus - rest), modulus, part) if cycles else 1
        return pow(whole, cycles, modulus) * part % modulus
    return _product_mod(factors, modulus, pow(whole, cycles, modulus))


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    if not text:
        raise ParseError(f"empty {what} list")
    out = []
    for tok in text.split(","):
        try:
            out.append(int(tok))
        except ValueError:
            raise ParseError(f"bad integer {tok!r} in {what} list") from None
    return tuple(out)


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
            (b,) = _parse_int_list(rest, "const")
            return Constant(b)
        if head == "periodic":
            return Periodic(_parse_int_list(rest, "period"))
        if head == "prefix":
            pre_text, semi, per_text = rest.partition(";")
            if not semi:
                raise ParseError(f"prefix form needs <prefix;period>, got {text!r}")
            return PrefixPeriodic(_parse_int_list(pre_text, "prefix"), _parse_int_list(per_text, "period"))
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
    if isinstance(Q, Rule):
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
