"""Digit check and positional fold of long words from one `bytes` of their
digits, and long expansions from residues packed in lanes of one int.

expansion hands over every digit past the prefix of a word of more than _RUN
digits on a list-backed Q with a period of L <= _RUN bases when each is
below 256: pack checks them all, the last partial period included, and fold
folds the whole periods.  It hands over the whole periods past the prefix of
the long expansions that expansion._expand, the one lane gate, sends here.
foundation._split cuts the periods out, and expansion runs the prefix part
and the last partial period.  Both paths keep one period's digits or residue
in a lane of one int (SWAR, L. Lamport, CACM 18 (1975), 471-475): the fold
reads every period at C level, in lanes of as many bytes as its product
needs, and the expansion steps every lane through a run of bases of product
up to 256 at once, its lanes started at residues of a narrow denominator or,
for a wide one, at the leaves of one division per chunk.  The module is
imported on first use, not with the package, so a cold call on short words
does not compile it.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Sequence

from .foundation import _LANE_BITS, _RUN, _merge_runs

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
# For a v past _LANE_BITS bits, expand_lanes' lane modulus, the largest
# power of the period product below 2**_LEAF_BITS (the product itself past
# that), and its chunks of about _CHUNK_BITS bits, one division by v each.
# Swept over 16-64 and 256-4,096 bits on the six list-backed dual forms of
# the benchmark, the sum of their times was least at 24 and 1,024 (2.61 ms;
# 2.74 at 32 and 512, 3.24 at 64 and 1,024, 3.56 at 64 and 4,096): a
# narrower modulus steps fewer runs a lane in narrower lanes, a wider one
# cuts fewer leaves in Python (Python 3.11.7, shared VM).  One division of
# u * W**K by v, split over cached powers of W (Brent and Zimmermann, Modern
# Computer Arithmetic, 1.7), took 0.60 ms against 0.53 ms for the chunks on
# const:10 at 4,000 digits.
_LEAF_BITS = 24
_CHUNK_BITS = 1024


def pack(digits: Sequence[int], run: tuple[int, ...]) -> bytes | None:
    """The bytes of the digits, periods of run from its first base, the
    last one possibly partial, when each is below its base and below 256;
    else None, and expansion checks and folds the word one step per digit.

    The check is at C level, one phase j at a time: deleting the bytes
    below run[j] from bs[j::L] must leave nothing (0.07 ms for 30,010
    digits, against 0.9 ms for max(bs[j::L]), Python 3.11.7).
    """
    try:
        bs = bytes(digits)
    except ValueError:  # a digit of 256 or more
        return None
    if any(bs[j :: len(run)].translate(None, _BYTES[:q]) for j, q in enumerate(run)):
        return None
    return bs


def fold(K: int, bs: bytes, run: tuple[int, ...]) -> tuple[int, int]:
    """(N, P) of the K whole periods of run that begin bs, their digits
    checked, one byte each, as pack gave them: P = W**K and N their
    positional numerator.  A last partial period in bs is not read.

    The periods fold at C level, in lanes of B bytes, the fewest that hold
    W - 1 for the period product W = run[0] * ... * run[L-1].  Strided
    slice assignment puts the digit of phase j of each period in the low
    byte of a lane of its own, and X = X * run[j] + (those lanes), for
    j = 0, ..., L-1, leaves in each lane that period's base-W digit, below
    W, so no lane carries; each step multiplies X by one base, never by a
    product of bases.  Up to W = 36 those digits become text, and
    int(text, W) reads them in chunks of _CHUNK (a power of two W in one
    piece, as int() is linear there): on 30,000 digits that is 0.2 to 0.8
    ms faster than the merge below.  Past 36, neighbouring lanes merge
    inside the int, one level at a time, as
    X = (X >> w & mask) * R + (X & mask): lanes of w bits that hold n
    digits each, from w = 8 * B and n = 1, become lanes of 2w bits that
    hold 2n, R = W**n, and W**2n <= 2**2w keeps every lane apart.  Zero
    lanes on top pad K to whole chunks.  The levels stop once each lane, a
    chunk of base-W digits, is at least _RUN bytes wide, so B = 1 takes
    _RUN digits a chunk: in a sweep of 8 to 64 periods a chunk on 30,010
    digits, chunks of 512 to 1,152 bits merged fastest at B = 2, 4 and 9
    (Python 3.11.7).  The chunks merge by _merge_runs over W**chunk; every
    power of W = 2**a * r, r odd, is taken as _merge_runs takes its own, an
    odd power and a shift: W**k = r**k << a * k.  A first, shorter chunk
    joins that result once.
    """
    W, L = math.prod(run), len(run)
    B = -(-(W - 1).bit_length() // 8)
    lanes = 0
    for j, q in enumerate(run):  # each digit goes to the low byte of a zeroed lane
        row = bytearray(K * B)
        row[B - 1 :: B] = bs[j : K * L : L]
        lanes = lanes * q + int.from_bytes(row, "big")
    a = (W & -W).bit_length() - 1
    r = W >> a
    if W <= 36:
        step = _CHUNK if r > 1 else max(K, 1)
        lead = K % step  # digits of a first, shorter chunk
        text = lanes.to_bytes(K, "big").translate(_DIGIT_TEXT)
        nums = [int(text[i : i + step], W) for i in range(lead, K, step)]
        first = int(text[:lead], W) if lead else 0
    else:
        # step: the periods a chunk holds, the fewest, a power of two, that fill _RUN bytes
        step, width, R = 1 << ((_RUN - 1) // B).bit_length(), 8 * B, W
        lead, size = K % step, -(-K // step) * step * B  # zero lanes pad the first chunk
        while width < 8 * B * step:
            mask = int.from_bytes((b"\xff" * (width // 8) + bytes(width // 8)) * (size * 4 // width), "little")
            lanes = (lanes >> width & mask) * R + (lanes & mask)
            width, R = 2 * width, R * R
        chunks = lanes.to_bytes(size, "big")
        nums = [int.from_bytes(chunks[i : i + B * step], "big") for i in range(0, size, B * step)]
        first = nums.pop(0) if lead else 0
    num, prod = _merge_runs(nums, r**step << a * step) if nums else (0, 1)
    if lead:
        num, prod = first * prod + num, r**lead * prod << a * lead
    return num, prod


@functools.cache
def _digit_table(after: int, q: int) -> bytes:
    """The bytes.translate table b -> b // after % q, one byte at a time
    (13 us, Python 3.11.7).  It is kept for later calls, as after * q <=
    256 bounds them to about 1,400 tables of 256 bytes."""
    return bytes(b // after % q for b in range(256))


def expand_lanes(u: int, v: int, run: tuple[int, ...], K: int) -> tuple[bytearray, int]:
    """expansion._digits(u, v, run * K), the digits in a bytearray, for a
    run of bases all at most 256, so every digit is a byte; any v >= 1
    works.

    The K periods run on lanes, S periods each: bit fields B bits wide of
    one int, each holding a residue x of a lane modulus m, whose digits
    over the S * L bases are those of x/m.  A lane walks them in greedy
    runs of consecutive bases whose product c is at most 256.  One
    multiply of the whole int by c and one lane-wise division by m (see
    _lane_mulmod) give every lane's quotient b < c, one byte per lane, and
    its residue after the run.  b holds the run's digits in mixed radix,
    and one translate per base, b -> b // after % q with `after` the
    product of the run's later bases, writes that base's digit of every
    lane to every (S * L)-th byte of the output.

    The lanes start in one of two ways.  For v of at most _LANE_BITS bits,
    m = v: S is at least ceil(K / _LANES), and at least the g periods whose
    product is at most 256, so that short expansions take whole runs too
    (const:2 steps 8 bases at once, periodic:2,3 six and const:10 two), and
    lane i starts at the residue of period i * S, u * W**(i*S) mod v for the
    period product W, built by doubling (lanes k..2k-1 are lanes 0..k-1
    times W**(k*S) mod v).  For a wider v, m = W**S for the most periods S,
    at least one, with W**S below 2**_LEAF_BITS.  The K periods are cut into
    chunks of C periods, S times the leaves of m that fill _CHUNK_BITS, and
    each chunk's digits are those of N/W**C for N, u = divmod(u * W**C, v),
    the partial-sum identity applied to the chunk's first state.  N's base-m
    digits, its leaves, are the lanes' start, S periods each, and the state
    after the last chunk is the last u.  At most _LANES lanes step at once,
    so the ints stay bounded however many digits are asked for.
    """
    W, L = math.prod(run), len(run)
    if v.bit_length() <= _LANE_BITS:
        g = 1  # the periods that one run of product at most 256 can hold
        while W ** (g + 1) <= 256:
            g += 1
        S = max(g, -(-K // _LANES))
        lanes = -(-K // S)
        mulmod, B = _lane_mulmod(v, lanes)
        residues, k, power = u, 1, pow(W, S, v)
        while k < lanes:
            more = min(k, lanes - k)
            residues |= mulmod(residues & ((1 << more * B) - 1), power)[1] << k * B
            k, power = k + more, power * power % v
        out = _step_lanes(residues, lanes, mulmod, B, run * S)
        del out[K * L :]  # the last lane's periods past K
        return out, pow(W, K, v) * u % v
    S = 1
    while W ** (S + 1) < 1 << _LEAF_BITS:
        S += 1
    m = W**S
    n = max(1, _CHUNK_BITS // m.bit_length())  # leaves a chunk
    C, out = n * S, bytearray()
    power, per_pass = W**C, _LANES // n * C  # the periods of a chunk and of a pass
    mulmod, B = _lane_mulmod(m, min(-(-K // S), _LANES))  # the most leaves a pass holds
    for at in range(0, K, per_pass):
        leaves: list[bytes] = []
        for lo in range(at, min(at + per_pass, K), C):
            r = min(C, K - lo)
            N, u = divmod(u * (power if r == C else W**r), v)
            k = -(-r // S)
            N *= W ** (k * S - r)  # zero periods fill the last leaf
            chunk = []
            for _ in range(k):
                N, c = divmod(N, m)
                chunk.append(c.to_bytes(B // 8, "little"))
            leaves += reversed(chunk)
        out += _step_lanes(int.from_bytes(b"".join(leaves), "little"), len(leaves), mulmod, B, run * S)
    del out[K * L :]
    return out, u


def _step_lanes(residues: int, lanes: int, mulmod: Callable[[int, int], tuple[int, int]], B: int,
                bases: tuple[int, ...]) -> bytearray:
    """The digits of the `lanes` lanes of residues, B bits each, over the
    bases, as expand_lanes steps them: lane after lane, in one bytearray."""
    span = len(bases)
    out = bytearray(lanes * span)
    j = 0
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
    return out


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
