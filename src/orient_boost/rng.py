"""Deterministic 64-bit splittable random streams.

The generator is SplitMix64: the state advances by a fixed odd constant and
each output is the avalanche mix of the new state.  A stream is fully
determined by a (master seed, stream index) pair, so sample index ``i`` of a
run produces bit-identical output no matter how samples are distributed
across workers, platforms, or Python builds.

``Stream`` draws one value at a time and is the reference.  The k-th state
of a stream is its seed plus ``k`` times the increment, so many outputs of
many streams are mixed at once, packed into one integer.  Two callers turn
the outputs into exactly the scalar draws, rejection included: a
``ResidueLayout`` gives the residues of ``Stream.below`` for a fixed list of
moduli on one stream, all the draws of a tournament sample, and
``stream_permutations`` yields ``stream_for(master, i).permutation(n)`` for a
range of indices, the copies of the Monte Carlo scan, from ``_words``.

An output is rejected at or over its modulus's limit from
``rejection_limits``.  A ``ResidueLayout`` lays out its moduli's limits
with its packing constants once, for all the samples of a sampling plan;
``stream_permutations`` computes its n - 1 limits once per call, and
``_layout`` caches its packing constants per lane shape.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Iterator, Sequence
from functools import lru_cache
from operator import mod

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_INDEX_SALT = 0x6A09E667F3BCC909
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
# 128-bit lanes per packed int of a stream_permutations sub-batch, 32 KB, unless one
# stream has more draws; a ResidueLayout packs all the draws of its one stream
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

    def permutation(self, n: int) -> list[int]:
        """A Fisher-Yates shuffle of range(n)."""
        items = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
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


@lru_cache(maxsize=16)
def _layout(count: int, draws: int) -> tuple[int, int, int, int, int]:
    """A 1, s in lane s, and the low-half mask, in each of ``count`` lanes; the
    low-half mask in each of ``draws * count`` lanes, and ``k + 1`` increments
    in lane ``k * count + s`` of them."""
    steps = b"".join(array("Q", [(k * _GAMMA) & _MASK, 0]).tobytes() * count for k in range(1, draws + 1))
    return (_lanes([1, 0], count), _lanes([w for s in range(count) for w in (s, 0)]), _lanes([_MASK, 0], count),
            _lanes([_MASK, 0], count * draws), int.from_bytes(steps, "little"))


def _words(master: int, lo: int, count: int, draws: int) -> Sequence[int]:
    """The first ``draws`` outputs of each stream ``stream_for(master, lo + s)``,
    s < count: output k of stream s at position ``k * count + s``.

    One packed int mixes the ``count`` stream seeds, lane s holding stream
    s's; a second, of ``draws * count`` lanes, adds ``k + 1`` increments to
    the seed in lane ``k * count + s`` and mixes every state.  The words are
    raw 64-bit outputs, before any rejection.
    """
    if sys.byteorder != "little":
        streams = [stream_for(master, i) for i in range(lo, lo + count)]
        return [stream.next_u64() for _ in range(draws) for stream in streams]
    ones, ramp, mask, draw_mask, steps = _layout(count, draws)
    z = ((((lo & _MASK) * ones + ramp) & mask) ^ _INDEX_SALT * ones)  # lane s: index lo + s, salted
    z = _mix_lanes(_mix_lanes(z, mask) ^ mix64(master) * ones, mask)
    z = int.from_bytes(z.to_bytes(16 * count, "little") * draws, "little")
    z = _mix_lanes((z + steps) & draw_mask, draw_mask)
    return memoryview(z.to_bytes(16 * count * draws, "little")).cast("Q")[::2].tolist()


def rejection_limits(mods: Sequence[int]) -> tuple[int, ...]:
    """The rejection limit of ``Stream.below(m)`` for each modulus m: an output
    at or over it is redrawn.  A modulus of 2^64 has limit 2^64 and never redraws."""
    return tuple((1 << 64) - (1 << 64) % m for m in mods)


class ResidueLayout:
    """``tuple(map(stream.below, mods))`` of one stream, from one packed pass.

    ``limits`` is ``rejection_limits(mods)``.  Lane k of ``len(mods)``
    128-bit lanes holds ``k + 1`` increments and the headroom
    ``2^64 - limits[k]``; the replicator, a 1 in every lane, puts the stream
    seed into each lane with one product.  Adding the headroom carries an
    output into bit 64 of its lane exactly when it is at or over its limit,
    so the rejection test is one carry test over all the lanes.
    """

    __slots__ = ("mods", "limits", "_replicator", "_steps", "_mask", "_headroom", "_carry", "_size")

    def __init__(self, mods: Sequence[int], limits: Sequence[int]):
        self.mods, self.limits = tuple(mods), tuple(limits)
        draws = len(self.mods)
        self._size = 16 * draws
        self._replicator = _lanes([1, 0], draws)
        self._steps = _lanes([w for k in range(1, draws + 1) for w in ((k * _GAMMA) & _MASK, 0)])
        self._mask = _lanes([_MASK, 0], draws)
        self._headroom = _lanes([w for limit in self.limits for w in ((1 << 64) - limit, 0)])
        self._carry = _lanes([0, 1], draws)

    def _rejected(self, z: int) -> int:
        """Non-zero iff some lane of the packed outputs ``z`` is at or over its limit."""
        return (z + self._headroom) & self._carry

    def residues(self, master: int, index: int) -> tuple[int, ...]:
        """The ``Stream.below`` residues of ``mods`` on ``stream_for(master, index)``.

        If an output reaches its rejection limit, which ``below`` would
        redraw, the whole tuple is drawn from the scalar stream instead.
        """
        if sys.byteorder != "little":
            return tuple(map(stream_for(master, index).below, self.mods))
        mask = self._mask
        z = _mix_lanes((_stream_seed(master, index) * self._replicator + self._steps) & mask, mask)
        if self._rejected(z):
            return tuple(map(stream_for(master, index).below, self.mods))
        return tuple(map(mod, memoryview(z.to_bytes(self._size, "little")).cast("Q")[::2], self.mods))


def stream_permutations(master: int, lo: int, hi: int, n: int) -> Iterator[list[int]]:
    """Yield ``stream_for(master, i).permutation(n)`` for each i in [lo, hi).

    Streams go in sub-batches of ``_LANES // (n - 1)``, and at least one:
    ``_words`` draws all ``n - 1`` outputs of a sub-batch's streams at once,
    and Fisher-Yates runs on each stream's outputs.  A stream with an output
    at or over its rejection limit, which the scalar draw would redraw, is
    drawn by ``Stream.permutation`` instead.
    """
    draws = max(n - 1, 0)
    per = max(1, _LANES // max(draws, 1))
    tops = range(n - 1, 0, -1)
    limits = rejection_limits(range(n, 1, -1))
    for start in range(lo, hi, per):
        count = min(per, hi - start)
        words = _words(master, start, count, draws)
        for s in range(count):
            items = list(range(n))
            for i, u, limit in zip(tops, words[s::count], limits):
                if u >= limit:
                    items = stream_for(master, start + s).permutation(n)
                    break
                j = u % (i + 1)
                items[i], items[j] = items[j], items[i]
            yield items
