import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orient_boost import rng
from orient_boost.rng import Stream, mix64, stream_for, stream_permutations, stream_residues


def test_streams_are_deterministic_and_independent():
    a = stream_for(1, 0)
    b = stream_for(1, 0)
    assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]
    c = stream_for(1, 1)
    assert stream_for(1, 0).next_u64() != c.next_u64()
    assert stream_for(2, 0).next_u64() != stream_for(1, 0).next_u64()


def test_below_is_in_range_and_covers_values():
    s = stream_for(7)
    seen = set()
    for _ in range(2000):
        x = s.below(6)
        assert 0 <= x < 6
        seen.add(x)
    assert seen == set(range(6))


def test_permutation_is_a_permutation():
    s = stream_for(9)
    for n in (1, 2, 5, 12):
        assert sorted(s.permutation(n)) == list(range(n))


def test_coin_is_roughly_fair():
    s = stream_for(3)
    heads = sum(s.coin() for _ in range(10_000))
    assert abs(heads / 10_000 - 0.5) < 0.02


def test_mix64_is_stable():
    # frozen outputs guard against accidental generator changes
    assert mix64(0) == 0
    assert mix64(1) == 6238072747940578789
    assert Stream(0).next_u64() == mix64(0x9E3779B97F4A7C15)


def _sub_batch(n):
    """Streams per packed sub-batch of ``stream_permutations`` at size n (at least 1)."""
    return max(1, rng._LANES // max(1, n - 1))


# masters and indices are masked to 64 bits, so negative and >= 2^64 values are valid
WIDE = st.one_of(st.integers(-(2 ** 70), -1), st.integers(0, 10 ** 6),
                 st.integers(2 ** 64 - 500, 2 ** 64 + 500), st.integers(2 ** 64, 2 ** 70))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), master=WIDE, n=st.integers(0, 70),
       lo=st.one_of(st.integers(1, 10 ** 6), st.integers(2 ** 64 - 500, 2 ** 64 + 500), st.integers(-(2 ** 70), -1)))
def test_batched_draw_equals_per_stream_draws(data, master, n, lo):
    per = _sub_batch(n)
    hi = lo + data.draw(st.integers(per + 1, 2 * per + 3), label="length")
    assert list(stream_permutations(master, lo, hi, n)) == [stream_for(master, i).permutation(n) for i in range(lo, hi)]


def test_batched_draw_of_an_empty_or_short_range():
    assert list(stream_permutations(4, 10, 10, 21)) == []
    assert list(stream_permutations(4, 10, 12, 21)) == [stream_for(4, i).permutation(21) for i in (10, 11)]


def _forced_limits(mods):
    """Limits that reject each of a stream's len(mods) draws with probability
    about 1/(2 len(mods) + 2) instead of under m/2^64."""
    return ((1 << 64) - (1 << 64) // (2 * len(mods) + 2),) * len(mods)


@pytest.mark.parametrize("n", [2, 3, 21, 70])
def test_rejected_streams_fall_back_to_the_scalar_draw(monkeypatch, n):
    lo, hi = 5, 5 + 3 * _sub_batch(n) // 2
    want = [stream_for(-3, i).permutation(n) for i in range(lo, hi)]
    monkeypatch.setattr(rng, "rejection_limits", _forced_limits)
    redrawn = []
    monkeypatch.setattr(rng, "stream_for", lambda master, index=0: redrawn.append(index) or stream_for(master, index))
    assert list(stream_permutations(-3, lo, hi, n)) == want
    # streams after a rejected one are still drawn from their own offsets
    assert 0.2 * (hi - lo) < len(redrawn) < 0.8 * (hi - lo)
    mods = tuple(range(n, 1, -1))
    redrawn.clear()
    got = [stream_residues(-3, i, mods, _forced_limits(mods)) for i in range(lo, hi)]
    assert got == [tuple(map(stream_for(-3, i).below, mods)) for i in range(lo, hi)]
    assert 0.2 * (hi - lo) < len(redrawn) < 0.8 * (hi - lo)


class _Scripted(Stream):
    """A stream whose outputs are given."""

    __slots__ = ("_outputs",)

    def __init__(self, outputs):
        super().__init__(0)
        self._outputs = iter(outputs)

    def next_u64(self):
        return next(self._outputs)


@pytest.mark.parametrize("n", [2, 3, 21, 70])
def test_draw_limits_are_the_scalar_rejection_thresholds(n):
    mods = tuple(range(n, 1, -1)) + (1, 1 << 64)
    limits = rng.rejection_limits(mods)
    assert len(limits) == len(mods)
    for m, limit in zip(mods, limits):
        assert _Scripted([limit - 1]).below(m) == (limit - 1) % m
        if limit < 1 << 64:
            assert _Scripted([limit, 5]).below(m) == 5 % m


def test_a_coin_modulus_never_rejects():
    # 2^64 is the coin's modulus: the raw word, whose top bit Stream.coin() reads
    assert rng.rejection_limits((1 << 64,)) == (1 << 64,)
    stream = stream_for(3, 4)
    mods = (1 << 64,) * 5
    assert stream_residues(3, 4, mods, rng.rejection_limits(mods)) == tuple(stream.next_u64() for _ in range(5))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(master=WIDE, index=WIDE, count=st.integers(1, 3),
       draws=st.one_of(st.integers(0, 8), st.integers(9, 300), st.integers(rng._LANES - 2, 2 * rng._LANES + 3)))
def test_packed_words_equal_the_stream_outputs(master, index, count, draws):
    # output k of stream index + s sits at k * count + s
    streams = [stream_for(master, index + s) for s in range(count)]
    want = [[stream.next_u64() for _ in range(draws)] for stream in streams]
    words = rng._words(master, index, count, draws)
    assert len(words) == count * draws
    assert [list(words[s::count]) for s in range(count)] == want


# every valid modulus of Stream.below: small ones, any up to 2^64, 2^64 itself,
# and ones just over 2^63, which reject about half the words
MODULI = st.one_of(st.integers(1, 70), st.integers(1, 1 << 64), st.just(1 << 64),
                   st.integers((1 << 63) + 1, (1 << 63) + 1000))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(master=WIDE, index=WIDE, pool=st.lists(MODULI, min_size=1, max_size=8),
       length=st.one_of(st.integers(0, 300), st.integers(rng._LANES - 2, 4100)))
def test_stream_residues_equal_the_scalar_below_draws(master, index, pool, length):
    mods = tuple(pool[i % len(pool)] for i in range(length))
    stream = stream_for(master, index)
    assert stream_residues(master, index, mods, rng.rejection_limits(mods)) == tuple(map(stream.below, mods))


def test_the_big_endian_branch_lays_out_the_words_alike(monkeypatch):
    packed = [list(rng._words(-7, 2 ** 64 - 2, count, draws)) for count, draws in ((1, 0), (1, 9), (3, 5))]
    monkeypatch.setattr(rng.sys, "byteorder", "big")
    assert [rng._words(-7, 2 ** 64 - 2, count, draws) for count, draws in ((1, 0), (1, 9), (3, 5))] == packed
