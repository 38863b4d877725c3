"""Digit check and positional fold of long words from one `bytes` of their
digits, and long expansions from residues packed in lanes of one int.

expansion hands over a word of more than _RUN digits on a list-backed Q
with a period of L <= _RUN bases, and an expansion of at least
_LANES_FROM digits (more past 47 bits of v) on such a Q with every period
base at most 256 and a denominator of at most _LANE_BITS bits.  Both
paths keep one byte per digit or per period in a lane of one int (SWAR,
L. Lamport, CACM 18 (1975), 471-475): the fold reads every period product
up to 256 at C level, and the expansion steps every lane through a run
of bases of product up to 256 at once.  The module is imported on first
use, not with the package, so a cold call on short words does not
compile it.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Sequence

from .foundation import ListBacked, _RUN, _merge_runs
from .expansion import _digits, _fold, _positional

# The bytes below q are _BYTES[:q]: deleting them from the digits of base q
# leaves exactly the digits out of range.
_BYTES = bytes(range(256))
# int(text, W) reads one character per digit, for W <= 36: byte d -> d's character.
_DIGIT_TEXT = bytes.maketrans(bytes(range(36)), b"0123456789abcdefghijklmnopqrstuvwxyz")
# Base-W digits read by one int() call before _merge_runs merges the chunks.
# Chunks of 64 to 512 cost the same on the 30,010-digit const:10 block of
# 12345/30011 (Python 3.11.7, shared VM); 256 stays below 640, the least
# int-to-str digit limit Python allows, so int() never refuses a chunk.
_CHUNK = 256
# The most lanes expand_lanes steps at once, so its ints stay bounded (17 KiB
# for a 32-bit v, 33 KiB for a 64-bit one) however many digits are asked
# for; 256 and 4096 lanes ran within 10% of it on 30,000 digits (Python
# 3.11.7, shared VM).
_LANES = 1024


def pack(digits: Sequence[int], Q: ListBacked, start: int) -> tuple[int, bytes, tuple[int, ...]] | None:
    """(head, bs, run) when the digits at positions start, start+1, ...
    past Q's prefix are all below 256 and all below their bases; else None.

    head is the number of digits over the prefix, which are not checked
    here, bs the bytes of the digits after them, and run the period from
    the phase of the first of those.  bs is checked one phase j at a time,
    at C level: deleting the bytes below run[j] from bs[j::L] must leave
    nothing (0.07 ms for 30,010 digits, against 0.9 ms for max(bs[j::L]),
    Python 3.11.7).
    """
    pre, per = Q.prefix, Q.period
    head = min(len(digits), max(0, len(pre) - start + 1))
    try:
        bs = bytes(digits[head:])
    except ValueError:  # a digit of 256 or more
        return None
    phase = (start + head - len(pre) - 1) % len(per)
    run = per[phase:] + per[:phase]
    if any(bs[j :: len(run)].translate(None, _BYTES[:q]) for j, q in enumerate(run)):
        return None
    return head, bs, run


def fold(digits: Sequence[int], Q: ListBacked, start: int, packed: tuple[int, bytes, tuple[int, ...]]) -> tuple[int, int]:
    """expansion._positional(digits, Q, start) for checked digits whose
    packed form pack gave.

    When the period product W = run[0] * ... * run[L-1] is at most 256,
    the K whole periods past the prefix fold at C level:
    int.from_bytes(bs[j::L]) puts the digit of phase j of each period in a
    byte lane of its own, and
    sum_j int.from_bytes(bs[j::L]) * (run[j+1] * ... * run[L-1]) holds in
    each lane that period's base-W digit, below W, so no lane carries.
    Up to W = 36 those digits become text, and int(text, W) reads them in
    chunks of _CHUNK (a power of two W in one piece, as int() is linear
    there): on 30,000 digits that is 0.2 to 0.8 ms faster than the merge
    below.  Past 36, neighbouring lanes merge inside the int, one level at a
    time, as X = (X >> w & mask) * R + (X & mask): lanes of w bits that
    hold n digits each become lanes of 2w bits that hold 2n, R = W**n, and
    W**2n <= 2**2w keeps every lane apart.  Zero lanes on top pad K to
    whole chunks, and after log2(_RUN) levels each lane is one chunk of
    _RUN digits.  The chunks merge by _merge_runs over W**chunk; every
    power of W = 2**a * r, r odd, is taken as _merge_runs takes its own,
    an odd power and a shift: W**k = r**k << a * k.  A first, shorter
    chunk, a partial last period (folded by _fold) and the prefix part
    (by _positional) join that result once.  A larger W takes _positional.
    """
    head, bs, run = packed
    W = math.prod(run)
    if W > 256:
        return _positional(digits, Q, start)
    L = len(run)
    K = len(bs) // L
    lanes, after = 0, 1
    for j in reversed(range(L)):
        lanes += int.from_bytes(bs[j : K * L : L], "big") * after
        after *= run[j]
    a = (W & -W).bit_length() - 1
    r = W >> a
    if W <= 36:
        step = _CHUNK if r > 1 else max(K, 1)
        lead = K % step  # digits of a first, shorter chunk
        text = lanes.to_bytes(K, "big").translate(_DIGIT_TEXT)
        nums = [int(text[i : i + step], W) for i in range(lead, K, step)]
        first = int(text[:lead], W) if lead else 0
    else:
        step, width, R = _RUN, 8, W
        lead, size = K % step, -(-K // step) * step  # zero lanes pad the first chunk
        while width < 8 * step:
            mask = int.from_bytes((b"\xff" * (width // 8) + bytes(width // 8)) * (size * 4 // width), "little")
            lanes = (lanes >> width & mask) * R + (lanes & mask)
            width, R = 2 * width, R * R
        chunks = lanes.to_bytes(size, "big")
        nums = [int.from_bytes(chunks[i : i + step], "big") for i in range(0, size, step)]
        first = nums.pop(0) if lead else 0
    num, prod = _merge_runs(nums, r**step << a * step) if nums else (0, 1)
    if lead:
        num, prod = first * prod + num, r**lead * prod << a * lead
    tail_num, tail_prod = _fold(zip(run, digits[head + K * L :]))
    num, prod = num * tail_prod + tail_num, prod * tail_prod
    if head:
        head_num, head_prod = _positional(digits[:head], Q, start)
        num, prod = head_num * prod + num, head_prod * prod
    return num, prod


@functools.cache
def _digit_table(after: int, q: int) -> bytes:
    """The bytes.translate table b -> b // after % q, built from repeated
    byte patterns: each digit d < q spread over `after` bytes (one multiply
    by a repunit of bytes, which no byte carries out of), repeated.  It is
    kept for later calls, as after * q <= 256 bounds them to about 1,400
    tables of 256 bytes: built afresh, they made 256 digits of
    12345/30011 on const:2 take 40 us instead of 15."""
    size = after * q
    spread = bytearray(size)
    spread[::after] = _BYTES[:q]
    block = (int.from_bytes(spread, "little") * int.from_bytes(b"\1" * after, "little")).to_bytes(size, "little")
    return (block * -(-256 // size))[:256]


def expand_lanes(u: int, v: int, Q: ListBacked, count: int) -> tuple[tuple[int, ...], int]:
    """expansion._digits(u, v, the first count bases of Q) for a Q whose
    period bases are all at most 256, so every digit past the prefix is a
    byte; any v >= 1 works, and expand hands over v of at most _LANE_BITS
    bits, where the lanes are faster.

    The digits over the prefix and of a last partial period come from
    _digits.  The K whole periods past the prefix run on at most _LANES
    lanes, S periods each: lane i, a bit field B bits wide of one int,
    starts at the residue of period i * S, u * W**(i*S) mod v for the
    period product W, built by doubling (lanes k..2k-1 are lanes 0..k-1
    times W**(k*S) mod v).  A lane then walks its S * L bases in greedy
    runs of consecutive bases whose product c is at most 256.  One
    multiply of the whole int by c and one lane-wise division by v (see
    _lane_mulmod) give every lane's quotient b < c, one byte per lane, and
    its residue after the run.  b holds the run's digits in mixed radix,
    and one translate per base, b -> b // after % q with `after` the
    product of the run's later bases, writes that base's digit of every
    lane to every (S * L)-th byte of the output.  S is at least
    ceil(K / _LANES), and at least the g periods whose product is at most
    256, so that short expansions take whole runs too: const:2 steps 8
    bases at once, periodic:2,3 six and const:10 two.
    """
    pre, per = Q.prefix, Q.period
    head = min(count, len(pre))
    first, u = _digits(u, v, pre[:head])
    L = len(per)
    K, tail = divmod(count - head, L)
    W = math.prod(per)
    g = 1  # the periods that one run of product at most 256 can hold
    while W ** (g + 1) <= 256:
        g += 1
    S = max(g, -(-K // _LANES))
    lanes = -(-K // S)
    span = S * L
    out = bytearray(lanes * span)
    mulmod, B = _lane_mulmod(v, lanes)
    residues, k, power = u, 1, pow(W, S, v)
    while k < lanes:
        more = min(k, lanes - k)
        residues |= mulmod(residues & ((1 << more * B) - 1), power)[1] << k * B
        k, power = k + more, power * power % v
    bases, j = per * S, 0
    while j < span:
        c, end = bases[j], j + 1
        while end < span and c * bases[end] <= 256:
            c, end = c * bases[end], end + 1
        quotients, residues = mulmod(residues, c)
        b = quotients.to_bytes(lanes * B // 8, "little")[:: B // 8]
        for i in range(j, end):
            c //= bases[i]
            out[i::span] = b.translate(_digit_table(c, bases[i]))
        j = end
    del out[K * L :]  # the last lane's periods past K
    last, u = _digits(pow(W, K, v) * u % v, v, per[:tail])
    out += bytes(last)
    return first + tuple(out) if first else tuple(out), u


def _lane_mulmod(v: int, lanes: int) -> tuple[Callable[[int, int], tuple[int, int]], int]:
    """(mulmod, B): mulmod(X, c) is (quotients, remainders) of c times each
    of the first `lanes` lanes of X by v, for c < max(v, 257) and lanes
    below v, in lanes of B bits.

    A division by the invariant v is a multiply by a reciprocal and a
    shift (T. Granlund and P. L. Montgomery, PLDI 1994): with l = bits(v),
    every y = c * x below 2**N for N = l + max(l, 8), s = N + l and
    M = 2**s // v + 1 gives y // v = y * M >> s.  A lane of B >= 2N + 1
    bits holds y * M, so no lane carries into the next, and the quotient,
    below 2**(N - l + 1) <= 2**(B - s), sits in the low bits of its lane
    once the whole int is shifted by s; the mask keeps those bits and
    drops what the lane above shifted down.
    """
    l = v.bit_length()
    N = l + max(l, 8)
    s = N + l
    M = (1 << s) // v + 1
    B = 8 * -(-(2 * N + 1) // 8)  # whole bytes
    mask = int.from_bytes(((1 << N - l + 1) - 1).to_bytes(B // 8, "little") * lanes, "little")

    def mulmod(X: int, c: int) -> tuple[int, int]:
        Y = X * c
        quotients = Y * M >> s & mask
        return quotients, Y - quotients * v

    return mulmod, B
