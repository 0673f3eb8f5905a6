"""Deterministic 64-bit splittable random streams.

The generator is SplitMix64: the state advances by a fixed odd constant and
each output is the avalanche mix of the new state.  A stream is fully
determined by a (master seed, stream index) pair, so sample index ``i`` of a
run produces bit-identical output no matter how samples are distributed
across workers, platforms, or Python builds.

``Stream`` draws one value at a time and is the reference.  The k-th state
of a stream is its seed plus ``k`` times the increment, so many outputs are
mixed at once, packed into one integer.  ``stream_words`` mixes the first
``D`` outputs of one stream that way; the tournament sampler takes all the
draws of a sample from it.  The Monte Carlo scan draws whole index ranges
with ``stream_permutations``, which yields exactly
``stream_for(master, i).permutation(n)`` for each index ``i`` and packs the
draws of many streams together.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Iterator, Sequence
from functools import lru_cache

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_INDEX_SALT = 0x6A09E667F3BCC909
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
# 128-bit lanes per packed int of stream_permutations and stream_words: 32 KB each.
_LANES = 2048


def mix64(z: int) -> int:
    """SplitMix64 finalizer (Stafford variant 13)."""
    z &= _MASK
    z ^= z >> 30
    z = (z * _MUL1) & _MASK
    z ^= z >> 27
    z = (z * _MUL2) & _MASK
    z ^= z >> 31
    return z


class Stream:
    """One SplitMix64 output stream."""

    __slots__ = ("_state",)

    def __init__(self, state: int):
        self._state = state & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return mix64(self._state)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection."""
        if n <= 0:
            raise ValueError("below() requires n >= 1")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def coin(self) -> int:
        """Fair bit (top bit of the next output)."""
        return self.next_u64() >> 63

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def permutation(self, n: int) -> list[int]:
        items = list(range(n))
        self.shuffle(items)
        return items


def _stream_seed(master: int, index: int) -> int:
    return mix64(mix64(master) ^ mix64((index & _MASK) ^ _INDEX_SALT))


def stream_for(master: int, index: int = 0) -> Stream:
    """Independent stream for (master seed, stream index)."""
    return Stream(_stream_seed(master, index))


def _lanes(words: list[int], count: int = 1) -> int:
    """The 64-bit ``words``, repeated ``count`` times, packed low to high into one int."""
    return int.from_bytes(array("Q", words).tobytes() * count, "little")


def _mix_lanes(z: int, mask: int) -> int:
    """``mix64`` of every 128-bit lane of ``z`` at once.

    Each lane holds a 64-bit value in its low half and zeros above; ``mask``
    keeps the low halves.  A 64x64-bit product fits in its lane, and the bits
    a right shift pulls down from the next lane land in the masked-off half.
    """
    z = ((z ^ (z >> 30)) & mask) * _MUL1 & mask
    z = ((z ^ (z >> 27)) & mask) * _MUL2 & mask
    return (z ^ (z >> 31)) & mask


def _steps(draws: int, count: int) -> int:
    """Lane ``k * count + s`` holds ``(k + 1)`` times the increment, for k < draws and s < count."""
    return int.from_bytes(b"".join(array("Q", [(k * _GAMMA) & _MASK, 0]).tobytes() * count
                                   for k in range(1, draws + 1)), "little")


@lru_cache(maxsize=16)
def _word_lanes(count: int) -> tuple[int, int, int]:
    """A 1, the increments and the low-half mask in each of ``count`` lanes."""
    return _lanes([1, 0], count), _steps(count, 1), _lanes([_MASK, 0], count)


def stream_words(master: int, index: int, count: int) -> Sequence[int]:
    """The first ``count`` outputs of ``stream_for(master, index)``, mixed in one pass.

    Lane ``k`` holds the stream seed plus ``k + 1`` increments, in packed
    ints of at most ``_LANES`` lanes; the words are the raw 64-bit outputs,
    before any rejection, in draw order.
    """
    seed = _stream_seed(master, index)
    if sys.byteorder != "little":
        stream = Stream(seed)
        return [stream.next_u64() for _ in range(count)]
    chunks = []
    for start in range(0, count, _LANES):
        size = min(_LANES, count - start)
        ones, steps, mask = _word_lanes(size)
        z = (((seed + start * _GAMMA) & _MASK) * ones + steps) & mask
        chunks.append(_mix_lanes(z, mask).to_bytes(16 * size, "little"))
    return memoryview(b"".join(chunks)).cast("Q")[::2]


def _draw_limits(n: int) -> list[int]:
    """The rejection limit of each draw of ``Stream.permutation(n)``, as in ``Stream.below``."""
    return [(1 << 64) - (1 << 64) % m for m in range(n, 1, -1)]


def stream_permutations(master: int, lo: int, hi: int, n: int) -> Iterator[list[int]]:
    """Yield ``stream_for(master, i).permutation(n)`` for each i in [lo, hi).

    Streams go in sub-batches of at most ``_LANES // (n - 1)``.  A sub-batch
    mixes its stream seeds, then all ``n - 1`` states of every stream, each
    as one packed int (lane ``k * count + s`` holds draw ``k`` of stream
    ``s``), and runs Fisher-Yates on the unpacked draws.  A stream with a
    draw at or over its rejection limit, which the scalar draw would redraw,
    is drawn by ``Stream.permutation`` instead.
    """
    draws = n - 1
    if not 1 <= draws <= _LANES or sys.byteorder != "little":
        for index in range(lo, hi):
            yield stream_for(master, index).permutation(n)
        return
    limits = _draw_limits(n)
    tops = range(n - 1, 0, -1)
    per = _LANES // draws
    head = mix64(master)

    def constants(count: int) -> tuple[int, int, int, int]:
        return (_lanes([_MASK, 0], count), _lanes([head, 0], count),
                _lanes([_MASK, 0], count * draws), _steps(draws, count))

    count = min(per, hi - lo)
    mask, heads, draw_mask, offsets = constants(count)
    for start in range(lo, hi, per):
        if hi - start < count:
            count = hi - start
            mask, heads, draw_mask, offsets = constants(count)
        z = _lanes([w for i in range(start, start + count) for w in ((i & _MASK) ^ _INDEX_SALT, 0)])
        z = _mix_lanes(_mix_lanes(z, mask) ^ heads, mask)
        z = int.from_bytes(z.to_bytes(16 * count, "little") * draws, "little")
        z = _mix_lanes((z + offsets) & draw_mask, draw_mask)
        words = memoryview(z.to_bytes(16 * count * draws, "little")).cast("Q")
        for s in range(count):
            items = list(range(n))
            for i, u, limit in zip(tops, words[2 * s::2 * count], limits):
                if u >= limit:
                    items = stream_for(master, start + s).permutation(n)
                    break
                j = u % (i + 1)
                items[i], items[j] = items[j], items[i]
            yield items
