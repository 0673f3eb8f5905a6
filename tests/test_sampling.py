import hashlib
import math
from fractions import Fraction
from functools import cache
from itertools import permutations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from orient_boost import rng, sampling
from orient_boost.designs import (
    Block,
    BlockKind,
    Decomposition,
    adjusted_decomposition,
    extend_to_even,
    projective_plane_decomposition,
    steiner_triple_system,
)
from orient_boost.counting import CopyKernel
from orient_boost.errors import BudgetExceededError, InvalidDecompositionError, InvalidTournamentError
from orient_boost.orientations import Orientation, Tournament, make_pattern, vertex_orbits
from orient_boost.rng import Stream, stream_for
from orient_boost.sampling import (
    BaseTournaments,
    SampleSeed,
    SamplingPlan,
    circulant_regular_tournament,
    enumerate_support,
    quadratic_residue_tournament,
    sample,
)


def test_circulant_small():
    t3 = circulant_regular_tournament(3)
    assert t3.beats(0, 1) and t3.beats(1, 2) and t3.beats(2, 0)
    assert circulant_regular_tournament(5).out_degrees() == [2] * 5
    assert circulant_regular_tournament(7).is_regular()
    with pytest.raises(InvalidTournamentError):
        circulant_regular_tournament(6)


def test_quadratic_residue_tournament():
    t = quadratic_residue_tournament(7)
    assert t.is_regular()
    with pytest.raises(InvalidTournamentError):
        quadratic_residue_tournament(5)  # 5 = 1 mod 4
    with pytest.raises(InvalidTournamentError):
        quadratic_residue_tournament(9)  # not prime


def test_base_tournaments_validation():
    with pytest.raises(InvalidTournamentError, match="size mismatch"):
        BaseTournaments(circulant_regular_tournament(3), circulant_regular_tournament(7))
    from orient_boost.orientations import transitive_tournament
    with pytest.raises(InvalidTournamentError, match="not regular"):
        BaseTournaments(transitive_tournament(3), circulant_regular_tournament(5))


def test_sample_triple_system_is_regular():
    fano = steiner_triple_system(7)
    bases = BaseTournaments.circulant(3)
    for index in range(1000):
        t = sample(fano, bases, SampleSeed(123, index))
        assert t.out_degrees() == [3] * 7


def test_sample_plane_is_regular():
    pg = projective_plane_decomposition(4)
    bases = BaseTournaments.circulant(5)
    for index in range(100):
        assert sample(pg, bases, SampleSeed(9, index)).out_degrees() == [10] * 21


def test_sample_even_extension_is_balanced():
    d = extend_to_even(adjusted_decomposition(7, 3))
    bases = BaseTournaments.circulant(3)
    for index in range(100):
        t = sample(d, bases, SampleSeed(77, index))
        assert all(t.in_degree(v) in (3, 4) for v in range(8))


def test_sample_k2t1_block():
    d = adjusted_decomposition(11, 3)
    bases = BaseTournaments.circulant(3)
    assert sample(d, bases, SampleSeed(5, 0)).is_regular()


def test_sample_determinism():
    fano = steiner_triple_system(7)
    bases = BaseTournaments.circulant(3)
    a = sample(fano, bases, SampleSeed(42, 17))
    b = sample(fano, bases, SampleSeed(42, 17))
    assert a.rows == b.rows
    assert any(sample(fano, bases, SampleSeed(42, i)).rows != a.rows for i in range(5))


def test_mismatched_bases_are_refused_alike_by_every_consumer():
    fano, bases = steiner_triple_system(7), BaseTournaments.circulant(5)
    refusals = []
    for refuse in (lambda: sampling.sampling_plan(fano, bases), lambda: sample(fano, bases, SampleSeed(0, 0)),
                   lambda: enumerate_support(fano, bases),
                   lambda: CopyKernel(make_pattern("cycle", 7), fano, bases)):
        with pytest.raises(InvalidTournamentError) as err:
            refuse()
        refusals.append(str(err.value))
    assert refusals == ["base tournament has 5 vertices, decomposition t=3"] * 4


def test_marginal_edge_fairness():
    fano = steiner_triple_system(7)
    bases = BaseTournaments.circulant(3)
    hits = sum(sample(fano, bases, SampleSeed(2024, i)).beats(0, 1) for i in range(10_000))
    assert abs(hits / 10_000 - 0.5) <= 0.02


def test_enumerate_support_triple_system(monkeypatch):
    fano = steiner_triple_system(7)
    bases = BaseTournaments.circulant(3)
    monkeypatch.setattr(sampling, "_SUPPORT_BUDGET", 128)  # 2 distinct outcomes per block
    outcomes = list(enumerate_support(fano, bases))
    monkeypatch.setattr(sampling, "_SUPPORT_BUDGET", 127)
    with pytest.raises(BudgetExceededError):
        list(enumerate_support(fano, bases))
    assert len(outcomes) == 128
    assert all(w == Fraction(1, 128) for _, w in outcomes)
    assert sum(w for _, w in outcomes) == 1
    assert all(t.is_regular() for t, _ in outcomes)
    assert len({t.rows for t, _ in outcomes}) == 128


def test_enumerate_support_coin_blocks(monkeypatch):
    # K4 as one 4-cycle plus the two diagonals; support is 2 per block
    d = Decomposition(4, 3, (
        Block(BlockKind.C4, (0, 1, 2, 3)),
        Block(BlockKind.EDGE, (0, 2)),
        Block(BlockKind.EDGE, (1, 3)),
    ))
    monkeypatch.setattr(sampling, "_SUPPORT_BUDGET", 8)
    outcomes = list(enumerate_support(d, BaseTournaments.circulant(3)))
    monkeypatch.setattr(sampling, "_SUPPORT_BUDGET", 7)
    with pytest.raises(BudgetExceededError):
        list(enumerate_support(d, BaseTournaments.circulant(3)))
    assert len(outcomes) == 8
    assert sum(w for _, w in outcomes) == 1
    assert len({t.rows for t, _ in outcomes}) == 8


def test_enumerate_support_budget():
    # a K5 block has 24 distinct orientations under the circulant base; the
    # count stops at the first block that takes the product over the budget
    pg = projective_plane_decomposition(4)
    with pytest.raises(BudgetExceededError, match=f"needs a budget of at least {24 ** 5},"):
        list(enumerate_support(pg, BaseTournaments.circulant(5)))


def test_enumerate_support_refuses_a_block_before_listing_it(monkeypatch):
    def listed(*args):
        raise AssertionError("relabelings listed")

    monkeypatch.setattr(sampling, "_block_outcomes", listed)
    monkeypatch.setattr(sampling, "_SUPPORT_BUDGET", 119)
    with pytest.raises(BudgetExceededError):
        list(enumerate_support(projective_plane_decomposition(4), BaseTournaments.circulant(5)))


def _not_a_partition(kind: str) -> Decomposition:
    """A t = 3 design whose blocks fail to partition the pairs of K_n in one way."""
    fano = steiner_triple_system(7)
    if kind == "overlap":
        return Decomposition(7, 3, fano.blocks + (Block(BlockKind.EDGE, (0, 1)),))
    if kind == "duplicate":
        return Decomposition(7, 3, fano.blocks + fano.blocks[:1])
    if kind == "gap":
        return Decomposition(7, 3, fano.blocks[1:])
    if kind == "block size":
        return Decomposition(4, 3, (Block(BlockKind.KT, (0, 1, 2, 3)),))
    a, b, _ = fano.blocks[0].vertices
    return Decomposition(7, 3, (Block(BlockKind.KT, (a, b, 7)),) + fano.blocks[1:])


# the refusal of each kind, pinned byte for byte; every consumer of a design
# raises the same text
_REFUSALS = {
    "overlap": "blocks do not partition the pairs of K_7: pair (0,1) covered 2 times",
    "duplicate": "blocks do not partition the pairs of K_7: pair (0,2) covered 2 times",
    "gap": "blocks do not partition the pairs of K_7: pair (0,2) never covered",
    "block size": "blocks do not partition the pairs of K_4: block 0 (KT) has 4 vertices, expected 3",
    "vertex range": "blocks do not partition the pairs of K_7: block 0 has a vertex outside 0..6",
}


@pytest.mark.parametrize("kind", sorted(_REFUSALS))
def test_a_design_that_is_not_a_partition_is_refused_before_any_draw(kind, monkeypatch):
    d, bases = _not_a_partition(kind), BaseTournaments.circulant(3)

    def drawn(*args):
        raise AssertionError("drew before checking the design")

    monkeypatch.setattr(sampling, "ResidueLayout", drawn)
    monkeypatch.setattr(sampling, "_block_outcomes", drawn)
    refusals = []
    for refuse in (lambda: sampling.sampling_plan(d, bases), lambda: sample(d, bases, SampleSeed(1, 0)),
                   lambda: next(iter(enumerate_support(d, bases))),
                   lambda: CopyKernel(make_pattern("cycle", d.n), d, bases)):
        with pytest.raises(InvalidDecompositionError) as err:
            refuse()
        refusals.append(str(err.value))
    assert refusals == [_REFUSALS[kind]] * 4


def test_a_design_with_too_few_pairs_is_refused_before_any_row():
    # 10^12 vertices: a check that allocated one row per vertex would fail at once
    d, bases = Decomposition(10**12, 3, ()), BaseTournaments.circulant(3)
    message = "blocks do not partition the pairs of K_1000000000000: pair (0,1) never covered"
    for refuse in (lambda: sampling.sampling_plan(d, bases), lambda: sample(d, bases, SampleSeed(1, 0)),
                   lambda: next(iter(enumerate_support(d, bases)))):
        with pytest.raises(InvalidDecompositionError) as err:
            refuse()
        assert str(err.value) == message


def test_enumerate_support_counts_distinct_outcomes():
    # 12 triples with 6 relabelings each, but 2 distinct orientations each
    outcomes = list(enumerate_support(steiner_triple_system(9), BaseTournaments.circulant(3)))
    assert len(outcomes) == 2 ** 12
    assert len({t.rows for t, _ in outcomes}) == 2 ** 12
    assert all(w == Fraction(1, 2 ** 12) for _, w in outcomes)


def listed_outcomes(block, bases):
    """Oracle: a complete block's orientations counted over all k! relabelings."""
    arcs, base, k = block.arcs(), bases.of(block.kind), len(block.vertices)
    counts = {}
    for sigma in permutations(range(k)):
        label = dict(zip(block.vertices, sigma))
        key = tuple((u, v) if base.beats(label[u], label[v]) else (v, u) for u, v in arcs)
        counts[key] = counts.get(key, 0) + 1
    return [(key, Fraction(cnt, math.factorial(k))) for key, cnt in sorted(counts.items())]


def _reversed_triangle(t, triangle):
    """t with the directed triangle (x, y, z) reversed: still regular."""
    rows = list(t.rows)
    x, y, z = triangle
    for u, v in ((x, y), (y, z), (z, x)):
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
    return Tournament(t.n, tuple(rows))


def test_block_outcomes_list_one_relabeling_per_base_orbit():
    # the K5 of (11,3) under the vertex-transitive circulant, and a size-7 block
    # under a regular base with three vertex orbits
    (k5,) = [b for b in adjusted_decomposition(11, 3).blocks if b.kind is BlockKind.K2T1]
    r7 = _reversed_triangle(circulant_regular_tournament(7), (0, 2, 4))
    assert r7.is_regular() and [len(o) for o in vertex_orbits(Orientation(7, frozenset(r7.edges())))] == [3, 3, 1]
    bases7 = BaseTournaments(r7, circulant_regular_tournament(13))
    for block, bases in ((k5, BaseTournaments.circulant(3)), (Block(BlockKind.KT, (6, 2, 9, 4, 0, 7, 3)), bases7)):
        outcomes = sampling._block_outcomes(block, bases)
        assert outcomes == listed_outcomes(block, bases)
        assert sum(w for _, w in outcomes) == 1


def test_support_matches_sampler_distribution():
    # every sampled tournament appears in the enumerated support
    fano = steiner_triple_system(7)
    bases = BaseTournaments.circulant(3)
    support = {t.rows for t, _ in enumerate_support(fano, bases)}
    for index in range(50):
        assert sample(fano, bases, SampleSeed(31, index)).rows in support


def test_base_tournaments_of_block_kind():
    bases = BaseTournaments.circulant(5)
    assert bases.of(BlockKind.KT) is bases.r
    assert bases.of(BlockKind.K2T1) is bases.rstar


def _rows_digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# Golden pins: seeded rows and support outcomes, recorded before the coin
# blocks were oriented through Block.arcs(); any change to the draw shows here.
@pytest.mark.parametrize("design,first_rows,digest", [
    ("coin6", [(44, 17, 10, 50, 37, 6), (42, 20, 49, 6, 9, 26), (10, 52, 49, 6, 41, 9)],
     "dcafd41fd31ea4c21aa45d7f0d1d07b5c8d7a1b0171e7865ecec7949b4a8f027"),
    ("even12", [(810, 3288, 1411, 2292, 357, 3654, 2949, 1585, 682, 3102, 345, 1429),
                (1240, 3621, 2673, 422, 1354, 2961, 1194, 3350, 2631, 217, 2860, 601),
                (1190, 3640, 3466, 241, 1413, 2772, 2327, 1858, 2603, 93, 2920, 665)],
     "d56c46cf98f645c4c112d8d62e1357c727cb36fabc79c9e3f5cca4f21cb703ff"),
])
def test_sample_rows_are_pinned(coin_design6, design, first_rows, digest):
    d = coin_design6 if design == "coin6" else extend_to_even(adjusted_decomposition(11, 3))
    bases = BaseTournaments.circulant(3)
    assert [sample(d, bases, SampleSeed(7, i)).rows for i in range(3)] == first_rows
    lines = [" ".join(map(str, sample(d, bases, SampleSeed(s, s % 5)).rows)) for s in range(300)]
    assert _rows_digest(lines) == digest


def test_enumerate_support_of_coin_blocks_is_pinned(coin_design6):
    outcomes = list(enumerate_support(coin_design6, BaseTournaments.circulant(3)))
    assert len(outcomes) == 64
    assert all(w == Fraction(1, 64) for _, w in outcomes)
    assert outcomes[0][0].rows == (42, 20, 41, 18, 37, 10)
    assert _rows_digest(f"{' '.join(map(str, t.rows))} {w}" for t, w in outcomes) == (
        "4f860f9e6d53ea4d948bbf14c717909ec7d49dd6d0eb1fa86d405d30d0ff62ce")


def _orient_block(block: Block, bases: BaseTournaments, stream: Stream, rows: list[int]) -> None:
    """The per-pair block walk that ``sample`` made before its plan: the scalar oracle."""
    vs = block.vertices
    if block.kind in (BlockKind.KT, BlockKind.K2T1):
        base = bases.of(block.kind)
        sigma = stream.permutation(len(vs))
        for a in range(len(vs)):
            for b in range(a + 1, len(vs)):
                if base.beats(sigma[a], sigma[b]):
                    rows[vs[a]] |= 1 << vs[b]
                else:
                    rows[vs[b]] |= 1 << vs[a]
    elif stream.coin():
        for u, v in block.arcs():
            rows[u] |= 1 << v
    else:
        for u, v in block.arcs():
            rows[v] |= 1 << u


def oracle_sample(d: Decomposition, bases: BaseTournaments, seed: SampleSeed) -> Tournament:
    stream = stream_for(seed.master, seed.index)
    rows = [0] * d.n
    for block in d.blocks:
        _orient_block(block, bases, stream, rows)
    return Tournament(d.n, tuple(rows))


_DESIGNS = {
    "fano": lambda: steiner_triple_system(7),
    "11-3": lambda: adjusted_decomposition(11, 3),
    "25-5": lambda: adjusted_decomposition(25, 5),
    "13-7": lambda: adjusted_decomposition(13, 7),
    "even-12": lambda: extend_to_even(adjusted_decomposition(11, 3)),
}


@cache
def _design(name: str) -> Decomposition:
    return _DESIGNS[name]()


SEEDS = st.integers(-(2 ** 70), 2 ** 70)


@pytest.mark.parametrize("name", ["fano", "11-3", "25-5", "13-7", "even-12", "coin6"])
@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(master=SEEDS, index=SEEDS)
def test_planned_sample_equals_the_per_pair_walk(coin_design6, name, master, index):
    d = coin_design6 if name == "coin6" else _design(name)
    bases = BaseTournaments.circulant(d.t)
    seed = SampleSeed(master, index)
    assert sample(d, bases, seed).rows == oracle_sample(d, bases, seed).rows


def test_a_packed_draw_at_its_limit_is_redrawn_from_a_scalar_stream(monkeypatch):
    d, bases, seed = _design("11-3"), BaseTournaments.circulant(3), SampleSeed(3, 8)
    plan = sampling.sampling_plan(d, bases)
    words = rng._words(seed.master, seed.index, 1, len(plan.layout.mods))
    limits = list(rng.rejection_limits(plan.layout.mods))
    limits[-1] = words[-1]  # the K2T1 block's last draw reaches its limit
    monkeypatch.setattr(plan, "layout", rng.ResidueLayout(plan.layout.mods, limits))
    redrawn = []
    monkeypatch.setattr(rng, "stream_for", lambda master, index=0: redrawn.append(index) or stream_for(master, index))
    assert sample(d, bases, seed).rows == oracle_sample(d, bases, seed).rows
    assert redrawn == [seed.index]


def test_redrawn_words_are_read_like_the_per_pair_walk(monkeypatch):
    # a rejection zone of half the words below 2^64, in the packed check and
    # in the scalar stream: almost every sample is redrawn, later blocks read
    # later words, and the walk must read the same ones; a coin (modulus 2^64)
    # never rejects, as in Stream.coin
    def limit(m):
        return 1 << 64 if m == 1 << 64 else 1 << 63

    def below(self, n):
        while True:
            u = self.next_u64()
            if u < limit(n):
                return u % n

    monkeypatch.setattr(Stream, "below", below)
    d, bases = _design("even-12"), BaseTournaments.circulant(3)
    plan = sampling.sampling_plan(d, bases)
    monkeypatch.setattr(plan, "layout", rng.ResidueLayout(plan.layout.mods, map(limit, plan.layout.mods)))
    redrawn = []
    monkeypatch.setattr(rng, "stream_for", lambda master, index=0: redrawn.append(index) or stream_for(master, index))
    for index in range(20):
        seed = SampleSeed(5, index)
        assert sample(d, bases, seed).rows == oracle_sample(d, bases, seed).rows
    assert len(redrawn) == 20


def test_relabeling_memo_is_bounded():
    small = SamplingPlan(_design("25-5"), BaseTournaments.circulant(5))
    large = SamplingPlan(_design("13-7"), BaseTournaments.circulant(7))
    for index in range(300):
        for plan in (small, large):
            plan.orient(plan.layout.residues(1, index))
    memos = {id(memo): memo for *_, memo, _ in small._complete}
    assert len(memos) == 1 and 0 < len(*memos.values()) <= 120
    assert [memo for *_, memo, _ in large._complete] == [None]


def test_sampling_plan_is_built_once_per_pair():
    d, bases = _design("fano"), BaseTournaments.circulant(3)
    assert sampling.sampling_plan(d, bases) is sampling.sampling_plan(d, bases)
    assert sampling.sampling_plan(d, bases).layout.mods == (3, 2) * 7
    assert sampling.sampling_plan(d, bases).layout.limits == rng.rejection_limits((3, 2) * 7)


def test_plans_are_matched_by_identity_then_by_equality():
    d, bases = _design("fano"), BaseTournaments.circulant(3)
    reversed_bases = BaseTournaments(Tournament(3, (0b100, 0b001, 0b010)), bases.rstar)
    twin = Decomposition(d.n, d.t, tuple(d.blocks))
    plan = sampling.sampling_plan(d, bases)
    assert twin is not d and sampling.sampling_plan(twin, BaseTournaments.circulant(3)) is plan
    seed = SampleSeed(1, 0)
    for b in (reversed_bases, bases, reversed_bases):
        assert sample(d, b, seed).rows == oracle_sample(d, b, seed).rows
    assert sample(d, reversed_bases, seed).rows != sample(d, bases, seed).rows
    assert sampling.sampling_plan(d, reversed_bases) is not plan
