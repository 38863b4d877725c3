"""Digit check and positional fold of long words from one `bytes` of their digits.

expansion hands over a word of more than _RUN digits on a list-backed Q
with a period of L <= _RUN bases.  The module is imported on first use,
not with the package, so a cold call on short words does not compile it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .foundation import ListBacked, _merge_runs
from .expansion import _fold, _positional

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

    When the period product W = run[0] * ... * run[L-1] is at most 36, the
    K whole periods past the prefix fold at C level (SWAR, L. Lamport,
    CACM 18 (1975), 471-475): int.from_bytes(bs[j::L]) puts the digit of
    phase j of each period in a byte lane of its own, and
    sum_j int.from_bytes(bs[j::L]) * (run[j+1] * ... * run[L-1]) holds in
    each lane that period's base-W digit, below W, so no lane carries.
    Those K base-W digits become text, and int(text, W) reads them in
    chunks of _CHUNK, which _merge_runs merges over W**_CHUNK; a power of
    two W is read in one piece, as int() is linear there.  A partial last
    period (folded by _fold) and the prefix part (by _positional) join that
    result once.  A larger W takes _positional.
    """
    head, bs, run = packed
    W = math.prod(run)
    if W > 36:
        return _positional(digits, Q, start)
    L = len(run)
    K = len(bs) // L
    lanes, after = 0, 1
    for j in reversed(range(L)):
        lanes += int.from_bytes(bs[j : K * L : L], "big") * after
        after *= run[j]
    text = lanes.to_bytes(K, "big").translate(_DIGIT_TEXT)
    step = _CHUNK if W & (W - 1) else max(K, 1)
    lead = K % step
    nums = [int(text[i : i + step], W) for i in range(lead, K, step)]
    num, prod = _merge_runs(nums, W**step) if nums else (0, 1)
    if lead:
        num, prod = int(text[:lead], W) * prod + num, W**lead * prod
    tail_num, tail_prod = _fold(zip(run, digits[head + K * L :]))
    num, prod = num * tail_prod + tail_num, prod * tail_prod
    if head:
        head_num, head_prod = _positional(digits[:head], Q, start)
        num, prod = head_num * prod + num, head_prod * prod
    return num, prod
