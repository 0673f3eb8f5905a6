import math
import multiprocessing
import os
import random
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from functools import partial
from itertools import combinations, permutations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orient_boost import counting, sampling
from orient_boost.counting import (
    CopyKernel,
    ExactSummary,
    _ExactSums,
    _run_chunks,
    baseline_expected_copies,
    count_embeddings,
    count_hamilton_cycles,
    count_hamilton_paths,
    count_labeled_copies,
    estimate_expected_copies,
    exact_copy_summary,
    hamilton_shape,
    typical_closed_form,
    worker_count_from_env,
)
from orient_boost.designs import (
    Block,
    BlockKind,
    Decomposition,
    adjusted_decomposition,
    extend_to_even,
    point_stabiliser_orbits,
    steiner_triple_system,
)
from orient_boost.errors import BudgetExceededError, InvalidTournamentError
from orient_boost.orientations import (
    Orientation,
    make_pattern,
    orientation_from_edges,
    random_orientation,
    random_tournament,
    Tournament,
    tournament_from_edges,
    transitive_tournament,
    vertex_orbits,
)
from orient_boost.rng import stream_for, stream_permutations
from orient_boost.sampling import (
    BaseTournaments,
    SampleSeed,
    circulant_regular_tournament,
    enumerate_support,
    quadratic_residue_tournament,
    sample,
)


def all_tournaments(n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for bits in range(1 << len(pairs)):
        edges = [(u, v) if (bits >> k) & 1 else (v, u) for k, (u, v) in enumerate(pairs)]
        yield tournament_from_edges(n, edges)


def test_count_triangle_copies():
    c3 = make_pattern("cycle", 3)
    triangle = tournament_from_edges(3, [(0, 1), (1, 2), (2, 0)])
    assert count_labeled_copies(c3, triangle) == 3
    assert count_labeled_copies(c3, transitive_tournament(3)) == 0


def test_matching_counts_are_tournament_independent():
    m2 = make_pattern("matching", 4)
    assert all(count_labeled_copies(m2, t) == 6 for t in all_tournaments(4))
    for n in (6, 8):
        m = make_pattern("matching", n)
        expected = math.factorial(n) // 2 ** (n // 2)
        for seed in range(25):
            assert count_labeled_copies(m, random_tournament(n, seed)) == expected


def test_isolated_vertices_multiply_free_slots():
    h = orientation_from_edges(5, [(0, 1)])
    t = random_tournament(5, 3)
    assert count_labeled_copies(h, t) == math.factorial(5) // 2


def _hamilton_path_ends(t: Tournament, starts, free: int | None = None) -> dict[int, int]:
    """Directed paths of t through exactly the vertices of the bitset ``free``
    (every vertex by default) that start in ``starts``, counted by end vertex.

    Subset DP over (mask, endpoint); each layer is dropped once extended.
    """
    rows = t.rows
    full = (1 << t.n) - 1 if free is None else free
    dp: list[dict[int, int] | None] = [None] * (1 << t.n)
    for v in starts:
        if full >> v & 1:
            dp[1 << v] = {v: 1}
    for mask in range(1, full):
        cur = dp[mask]
        if cur is None:
            continue
        for v, cnt in cur.items():
            avail = rows[v] & full & ~mask
            while avail:
                low = avail & -avail
                w = low.bit_length() - 1
                avail ^= low
                nm = mask | low
                d = dp[nm]
                if d is None:
                    d = {}
                    dp[nm] = d
                d[w] = d.get(w, 0) + cnt
        dp[mask] = None
    return dp[full] or {}


def dp_hamilton_cycles(t: Tournament) -> int:
    """Oracle: paths from vertex 0 whose end beats vertex 0, by the subset DP."""
    if t.n < 3:
        return 0
    return sum(cnt for v, cnt in _hamilton_path_ends(t, (0,)).items() if t.rows[v] & 1)


def dp_hamilton_paths(t: Tournament) -> int:
    """Oracle: Hamilton paths from every start vertex, by the subset DP."""
    return sum(_hamilton_path_ends(t, range(t.n)).values())


def dp_covering_walks(t: Tournament, free: int, starts: int, ends: int) -> int:
    """Oracle of ``_covering_walks``: paths through exactly the vertices of
    ``free`` from a vertex of ``starts`` to one of ``ends``, by the subset DP."""
    firsts = [v for v in range(t.n) if starts >> v & 1]
    return sum(cnt for v, cnt in _hamilton_path_ends(t, firsts, free).items() if ends >> v & 1)


def walk_args(t: Tournament, closed: bool) -> tuple[int, int, int]:
    """(free, starts, ends) of ``_covering_walks`` for the Hamilton cycles
    (``closed``) or paths of t, as ``count_hamilton_cycles`` and
    ``count_hamilton_paths`` pass them."""
    if closed:
        rest = (1 << t.n) - 2
        return rest, t.rows[0], rest & ~t.rows[0]
    every = (1 << t.n) - 1
    return every, every, every


@settings(max_examples=80, deadline=None, derandomize=True)
@given(n=st.integers(1, 12), seed=st.integers(0, 10 ** 6))
def test_hamilton_counts_equal_subset_dp(n, seed):
    t = random_tournament(n, seed)
    assert count_hamilton_cycles(t) == dp_hamilton_cycles(t)
    assert count_hamilton_paths(t) == dp_hamilton_paths(t)


def test_hamilton_counts_of_the_empty_tournament():
    t = Tournament(0, ())
    assert count_hamilton_cycles(t) == dp_hamilton_cycles(t) == 0
    assert count_hamilton_paths(t) == dp_hamilton_paths(t) == 0


def test_hamilton_cycles_pinned_at_n16():
    # the value the subset DP gives; 15 free vertices, so 32 chunks of 2^10 lanes,
    # each 36 bits wide: 32 by the Brégman bound on row sums 7 and 8, 4 guard bits
    t = sample(adjusted_decomposition(16, 3), BaseTournaments.circulant(3), SampleSeed(1, 0))
    assert count_hamilton_cycles(t) == 52424821


def test_hamilton_paths_pinned_at_n16():
    # on the tournament of the cycle pin: 16 free vertices, so 64 chunks, and
    # every absent high vertex drops out of the shared sums of its chunk
    t = sample(adjusted_decomposition(16, 3), BaseTournaments.circulant(3), SampleSeed(1, 0))
    assert count_hamilton_paths(t) == 1493245689


def test_hamilton_dp_against_brute_force():
    for n in (3, 4, 5):
        cn, pn = make_pattern("cycle", n), make_pattern("path", n)
        for t in all_tournaments(n):
            assert count_labeled_copies(cn, t) == n * count_hamilton_cycles(t)
            assert count_labeled_copies(pn, t) == count_hamilton_paths(t)


@pytest.mark.parametrize("n,seeds", [(6, 40), (7, 30), (8, 20), (9, 10)])
def test_hamilton_dp_random_tournaments(n, seeds):
    cn, pn = make_pattern("cycle", n), make_pattern("path", n)
    for seed in range(seeds):
        t = random_tournament(n, seed)
        assert count_labeled_copies(cn, t) == n * count_hamilton_cycles(t)
        assert count_labeled_copies(pn, t) == count_hamilton_paths(t)


@pytest.mark.parametrize("n", [5, 7, 9])
def test_hamilton_dp_circulant(n):
    t = circulant_regular_tournament(n)
    assert count_labeled_copies(make_pattern("cycle", n), t) == n * count_hamilton_cycles(t)


def brute_embeddings(edges, m, rows):
    """Oracle: list every injection of 0..m-1 into the tournament."""
    return sum(all((rows[inj[u]] >> inj[v]) & 1 for u, v in edges)
               for inj in permutations(range(len(rows)), m))


@st.composite
def digraph_into_tournament(draw):
    size = draw(st.integers(1, 7))
    m = draw(st.integers(1, size))  # m < size: injective; m == size: spanning
    arcs = [(u, v) for u in range(m) for v in range(m) if u != v]
    edges = draw(st.lists(st.sampled_from(arcs), unique=True, max_size=len(arcs))) if arcs else []
    if size % 2 and size > 1 and draw(st.booleans()):
        t = circulant_regular_tournament(size)
    else:
        t = random_tournament(size, draw(st.integers(0, 10 ** 6)))
    return edges, m, t.rows


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=digraph_into_tournament())
def test_count_embeddings_equals_injection_listing(case):
    # vertices on no edge, opposite arcs and both m < size and m == size all occur
    edges, m, rows = case
    assert count_embeddings(edges, m, rows) == brute_embeddings(edges, m, rows)


def test_count_embeddings_pins_hamilton_cycles_of_circulant9():
    t = circulant_regular_tournament(9)
    assert count_embeddings(make_pattern("cycle", 9).edges, 9, t.rows) == 9 * count_hamilton_cycles(t) == 1998


TABLE_BASES = {  # the regular bases of the kernel
    "circulant3": circulant_regular_tournament(3),
    "circulant5": circulant_regular_tournament(5),
    "circulant7": circulant_regular_tournament(7),
    "qr7": quadratic_residue_tournament(7),
}
# each regular base is isomorphic to its reverse, which would hide a table with every arc reversed
TABLE_TOURNAMENTS = {**TABLE_BASES, "random6": random_tournament(6, 1)}


@st.composite
def shape_into_base(draw, bases=TABLE_BASES):
    """(base name, an oriented shape on vertices 0..m-1 with at least one edge, m), m <= base size."""
    name = draw(st.sampled_from(sorted(bases)))
    m = draw(st.integers(2, bases[name].n))
    pairs = draw(st.lists(st.sampled_from(list(combinations(range(m), 2))), unique=True, min_size=1))
    return name, [(u, v) if draw(st.booleans()) else (v, u) for u, v in pairs], m


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=shape_into_base(TABLE_TOURNAMENTS))
def test_injection_table_count_equals_count_embeddings(case):
    # vertices on no edge occur, and m == size is the spanning case
    name, edges, m = case
    rows = TABLE_TOURNAMENTS[name].rows
    table = counting._injection_table(rows, m)
    assert counting._table_count(table, edges, m) == count_embeddings(edges, m, rows) \
        == brute_embeddings(edges, m, rows)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=shape_into_base(), perm_seed=st.integers(0, 10 ** 6))
def test_kernel_counts_alike_on_both_sides_of_the_table_cap(case, perm_seed):
    """One complete block on the base: the capture is counted from a table at
    a cap of perm(size, m) and by ``count_embeddings`` one below it."""
    name, edges, _ = case
    r = TABLE_BASES[name]
    d = Decomposition(r.n, r.n, (Block(BlockKind.KT, tuple(range(r.n))),))
    h = orientation_from_edges(r.n, edges)
    bases = BaseTournaments(r, circulant_regular_tournament(2 * r.n - 1))
    pi = stream_for(perm_seed, 0).permutation(r.n)
    verts = len({x for e in edges for x in e})
    total = math.perm(r.n, verts)
    # one edge, two edges and a triangle are closed forms, counted by no injection
    closed = len(edges) <= 2 or (len(edges) == 3 and verts == 3)
    ratios = []
    for cap in (total, total - 1):
        with mock.patch.object(counting, "_TABLE_INJECTIONS", cap):
            kernel = CopyKernel(h, d, bases)
            ratios.append(kernel.ratio(pi))
        assert bool(kernel._tables) == (cap == total and not closed)
    assert ratios[0] == ratios[1] == kernel.ratio(pi, method="enumerate")


@pytest.mark.parametrize("count", [count_hamilton_cycles, count_hamilton_paths], ids=["cycles", "paths"])
def test_hamilton_dp_refuses_n21_before_allocating(monkeypatch, count):
    """_HAMILTON_BUDGET = 20 is the largest size measured: on a 2-vCPU host
    n = 20 takes 0.8-1.6 s for cycles and 2.3-3.8 s for paths (lanes of 50
    and 55 bits, 1,024 chunks for paths), with no measurable peak-RSS
    growth."""
    import orient_boost.counting as counting

    def allocated(*args):
        raise AssertionError("walk lanes built")

    monkeypatch.setattr(counting, "_covering_walks", allocated)
    with pytest.raises(BudgetExceededError):
        count(circulant_regular_tournament(21))


def test_transitive_tournament_counts():
    # the sink's empty row leaves no cycle and 0 lane bits
    for n in range(3, 13):
        t = transitive_tournament(n)
        assert counting._hamilton_bits(t.rows, *walk_args(t, closed=True)) == 0
        assert count_hamilton_cycles(t) == 0
        assert count_hamilton_paths(t) == 1


def test_hamilton_counts_below_three_vertices():
    for n, paths in ((0, 0), (1, 1), (2, 1)):
        for t in (transitive_tournament(n), random_tournament(n, 5)):
            assert count_hamilton_cycles(t) == 0
            assert count_hamilton_paths(t) == paths


def _shape_by_search(h: Orientation) -> str | None:
    """Oracle of ``hamilton_shape``: a vertex order whose consecutive pairs (and
    the closing pair) are edges, with no other edge."""
    n, edges = h.n, h.edges
    for order in permutations(range(n)):
        steps = list(zip(order, order[1:]))
        if len(edges) == n - 1 and all(e in edges for e in steps):
            return "path"
        if len(edges) == n and all(e in edges for e in steps + [(order[-1], order[0])]):
            return "cycle"
    return None


@settings(max_examples=80, deadline=None, derandomize=True)
@given(n=st.integers(1, 8), closed=st.booleans(), seed=st.integers(0, 10 ** 6))
def test_hamilton_shape_matches_a_permutation_search(n, closed, seed):
    h = random_orientation(n, min(n - 1 + closed, n * (n - 1) // 2), seed)
    assert hamilton_shape(h) == _shape_by_search(h)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(3, 14))
def test_hamilton_shape_of_relabelled_cycles_and_paths(data, n):
    perm = data.draw(st.permutations(range(n)))
    cycle = make_pattern("cycle", n).relabel(perm)
    assert hamilton_shape(cycle) == "cycle"
    assert hamilton_shape(make_pattern("path", n).relabel(perm)) == "path"
    # one edge dropped leaves a path, one edge reversed leaves neither
    u, v = data.draw(st.sampled_from(sorted(cycle.edges)))
    assert hamilton_shape(Orientation(n, cycle.edges - {(u, v)})) == "path"
    assert hamilton_shape(Orientation(n, cycle.edges - {(u, v)} | {(v, u)})) is None


@pytest.mark.parametrize("n", [3, 7, 13, 21])
def test_hamilton_shape_of_named_patterns(n):
    for seed in range(5):
        assert hamilton_shape(make_pattern("k_regular_random", n, k=1, seed=seed)) == "cycle"
    if n > 4:
        assert hamilton_shape(make_pattern("k_regular_random", n, k=2, seed=1)) is None
    assert hamilton_shape(orientation_from_edges(n, [(0, 1)])) == ("path" if n == 2 else None)
    assert hamilton_shape(make_pattern("matching", n + 1)) == ("path" if n + 1 == 2 else None)
    if n > 3:  # a cycle on all but one vertex, and the last vertex hanging off it: n edges, not one cycle
        hanging = [(v, (v + 1) % (n - 1)) for v in range(n - 1)] + [(n - 1, 0)]
        assert hamilton_shape(orientation_from_edges(n, hanging)) is None


@pytest.mark.parametrize("shape", ["cycle", "path"])
def test_walk_counts_of_relabelled_shapes_equal_embedding_counts(shape):
    for seed in range(4):
        n = 5 + seed
        h = make_pattern(shape, n).relabel(random.Random(seed).sample(range(n), n))
        t = random_tournament(n, seed)
        walks = n * count_hamilton_cycles(t) if shape == "cycle" else count_hamilton_paths(t)
        assert hamilton_shape(h) == shape
        assert count_labeled_copies(h, t) == walks


@settings(max_examples=120, deadline=None, derandomize=True)
@given(n=st.integers(1, 12), seed=st.integers(0, 10 ** 6), closed=st.booleans())
def test_hamilton_count_is_below_two_to_the_lane_bits(n, seed, closed):
    """The Brégman bits hold the count, and never exceed those of (n-1)! or n!."""
    t = random_tournament(n, seed)
    bits = counting._hamilton_bits(t.rows, *walk_args(t, closed))
    count = dp_hamilton_cycles(t) if closed else dp_hamilton_paths(t)
    assert count < 1 << bits
    assert bits <= math.factorial(n - 1 if closed else n).bit_length() + 1


# every row sum equal: the Brégman bound is tightest here, so the lanes are narrowest
REGULAR_TOURNAMENTS = {
    **{f"circulant{n}": circulant_regular_tournament(n) for n in range(3, 14, 2)},
    "qr7": quadratic_residue_tournament(7),
    "qr11": quadratic_residue_tournament(11),
}


@pytest.mark.parametrize("name", sorted(REGULAR_TOURNAMENTS))
def test_hamilton_counts_of_regular_tournaments_equal_subset_dp(name):
    t = REGULAR_TOURNAMENTS[name]
    for closed, count, oracle in ((True, count_hamilton_cycles, dp_hamilton_cycles),
                                  (False, count_hamilton_paths, dp_hamilton_paths)):
        exact = oracle(t)
        assert count(t) == exact < 1 << counting._hamilton_bits(t.rows, *walk_args(t, closed))


def lanes_of(x, lay):
    """The 2^k lanes of x, low lane first; nothing may lie above the last."""
    assert x >> (lay.width << lay.k) == 0
    mask = (1 << lay.width) - 1
    return [x >> s * lay.width & mask for s in range(1 << lay.k)]


def pack_lanes(values, lay):
    return sum(v << s * lay.width for s, v in enumerate(values))


# the cycles (closed) or paths of n vertices walk over f = n - closed free
# vertices, so f runs over 1..20; cycles below 3 vertices have no walk
LAYOUT_CASES = [(n, closed) for n in range(1, 21) for closed in (True, False) if n >= 3 or not closed]


@pytest.mark.parametrize("n,closed", LAYOUT_CASES)
def test_lane_layout_carries_stay_inside_each_lane(n, closed):
    """For the Brégman bits of the cycles or paths of a few random
    n-vertex tournaments, f = n - closed free vertices, and for the cap of
    f! (``_hamilton_bits`` clamps to it), the masks mark the lanes they
    name, a sum of f + 1 full lanes (a step sums at most f - 1, the end
    read at most f onto the accumulator) carries into no other lane, the
    start lanes hold the inclusion-exclusion signs, and ``_lane_sum`` is the
    sum of the lanes."""
    f = n - closed
    rng = random.Random(2 * n + closed)
    bits_seen = {counting._hamilton_bits(t.rows, *walk_args(t, closed))
                 for t in (random_tournament(n, seed) for seed in range(3))}
    bits_seen.add(math.factorial(f).bit_length() + 1)
    for bits in sorted(bits_seen - {0}):
        lay = counting._lane_layout(f, bits)
        assert lay.width == bits + f.bit_length()
        top = (1 << bits) - 1
        lanes = range(1 << lay.k)
        assert lanes_of(lay.full, lay) == [top for _ in lanes]
        for p, start in enumerate(lay.start):
            assert lanes_of(start, lay) == [top if (lay.k - s.bit_count() + p) % 2 else 1 for s in lanes]
        for j, member in enumerate(lay.member):
            assert lanes_of(member, lay) == [top * (s >> j & 1) for s in lanes]
        assert lanes_of(sum([lay.full] * (f + 1)), lay) == [(f + 1) * top for _ in lanes]

        wide = [rng.randrange(1 << lay.width) for _ in lanes]
        assert counting._lane_sum(pack_lanes(wide, lay), lay) == sum(wide)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_hamilton_counts_over_several_chunks_equal_subset_dp(seed):
    """At n = 13, past the hypothesis test, cycles fix 2 high vertices (4
    chunks) and paths 3 (8 chunks, with odd and even numbers of absent
    vertices), so chunks start from both signs."""
    t = random_tournament(13, seed)
    assert count_hamilton_cycles(t) == dp_hamilton_cycles(t)
    assert count_hamilton_paths(t) == dp_hamilton_paths(t)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(n=st.integers(12, 14), seed=st.integers(0, 10 ** 6))
def test_hamilton_counts_with_shared_sums_equal_subset_dp(n, seed):
    """Past the hypothesis test at n <= 12: 11 to 14 free vertices, so every
    count plans shared sums and runs 2 to 16 chunks."""
    t = random_tournament(n, seed)
    assert count_hamilton_cycles(t) == dp_hamilton_cycles(t)
    assert count_hamilton_paths(t) == dp_hamilton_paths(t)


@st.composite
def in_neighbour_matrix(draw):
    """Operand lists of f <= 16 targets over operands 0..f-1, as ascending
    lists, and a bitset of present vertices."""
    f = draw(st.integers(1, 16))
    ins = [[o for o in range(f) if row >> o & 1] for row in draw(st.lists(
        st.integers(0, (1 << f) - 1), min_size=f, max_size=f))]
    return ins, draw(st.integers(0, (1 << f) - 1))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=in_neighbour_matrix())
def test_chunk_sums_expand_to_the_present_in_neighbours_each_once(case):
    """Through the pair sums of its chunk, each present target sums exactly
    its present in-neighbours, each once; a pair sum reads only earlier
    slots, and some present target reads it."""
    ins, live = case
    present = [i for i in range(len(ins)) if live >> i & 1]
    pairs, sums = counting._chunk_sums(counting._shared_sums(ins), live)
    slots = [Counter([i]) for i in present]
    for a, b in pairs:
        assert a < len(slots) and b < len(slots)
        slots.append(slots[a] + slots[b])
    read = set()
    for i, s in zip(present, sums, strict=True):
        assert sum((slots[j] for j in s), Counter()) == Counter(o for o in ins[i] if live >> o & 1)
        read.update(s)
    for j in reversed(range(len(present), len(slots))):
        if j in read:
            read.update(pairs[j - len(present)])
    assert read >= set(range(len(present), len(slots)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(11, 14), seed=st.integers(0, 10 ** 6), data=st.data())
def test_covering_walks_over_several_chunks_equal_subset_dp(n, seed, data):
    """11 to 13 free vertices out of n, so 2 to 8 chunks with shared sums, in
    which the absent high vertices drop out of the pair sums."""
    t = random_tournament(n, seed)
    free = sum(1 << v for v in data.draw(st.sets(st.integers(0, n - 1), min_size=11,
                                                 max_size=min(13, n))))
    masks = st.integers(0, (1 << n) - 1)
    starts, ends = data.draw(masks), data.draw(masks)
    assert counting._covering_walks(t.rows, free, starts, ends) == dp_covering_walks(t, free, starts, ends)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(n=st.integers(1, 10), seed=st.integers(0, 10 ** 6), data=st.data())
def test_covering_walks_equal_subset_dp_on_any_free_start_and_end_sets(n, seed, data):
    """Walks through any vertex subset, from any start set to any end set,
    which may hold vertices outside ``free``, against the subset DP."""
    t = random_tournament(n, seed)
    masks = st.integers(0, (1 << n) - 1)
    free, starts, ends = data.draw(masks), data.draw(masks), data.draw(masks)
    walks = counting._covering_walks(t.rows, free, starts, ends)
    assert walks == dp_covering_walks(t, free, starts, ends)
    assert walks < 1 << counting._hamilton_bits(t.rows, free, starts, ends)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(3, 11), seed=st.integers(0, 10 ** 6))
def test_cycles_through_each_forced_arc_sum_to_the_cycle_count(n, seed):
    """The cycles through the arc 0 -> b are the walks over 1..n-1 from b
    alone to in(0); over every b in out(0) they are all the cycles."""
    t = random_tournament(n, seed)
    rest, out0, in0 = walk_args(t, closed=True)
    forced = [counting._covering_walks(t.rows, rest, 1 << b, in0) for b in range(n) if out0 >> b & 1]
    assert sum(forced) == count_hamilton_cycles(t)


# ---------------------------------------------------------------------------
# per-permutation statistics and probabilities
# ---------------------------------------------------------------------------

def reference_block_stats(pi, h, d):
    """Independent recount of the per-copy captures, straight from definitions."""
    pair_block = {}
    for idx, block in enumerate(d.blocks):
        for e in block.edges():
            pair_block[e] = idx
    by_block = {}
    for u, v in h.edges:
        a, b = pi[u], pi[v]
        key = pair_block[(a, b) if a < b else (b, a)]
        by_block.setdefault(key, []).append((u, v))
    und = {(min(u, v), max(u, v)) for u, v in h.edges}
    c = i = f = g = 0
    typical = True
    for bid, group in by_block.items():
        if len(group) >= 2 and d.blocks[bid].kind != BlockKind.KT:
            typical = False
        if len(group) > 3 and d.blocks[bid].kind == BlockKind.KT:
            typical = False
        if len(group) == 3 and d.blocks[bid].kind == BlockKind.KT:
            verts = {x for e in group for x in e}
            if len(verts) != 3:
                typical = False
        for x in range(len(group)):
            for y in range(x + 1, len(group)):
                (u1, v1), (u2, v2) = group[x], group[y]
                shared = {u1, v1} & {u2, v2}
                if len(shared) != 1:
                    continue
                s = shared.pop()
                outer1 = u1 if v1 == s else v1
                outer2 = u2 if v2 == s else v2
                if (min(outer1, outer2), max(outer1, outer2)) in und:
                    continue
                if (v1 == s) != (v2 == s):
                    c += 1
                else:
                    i += 1
        if len(group) >= 3:
            for tri in combinations(group, 3):
                verts = {x for e in tri for x in e}
                if len(verts) != 3:
                    continue
                heads = {v for _, v in tri}
                if len(heads) == 3:
                    f += 1
                else:
                    g += 1
    return c, i, f, g, typical


def test_block_stats_against_reference():
    fano = steiner_triple_system(7)
    patterns = [
        make_pattern("cycle", 7),
        make_pattern("path", 7),
        random_orientation(7, 8, seed=11),
        random_orientation(7, 10, seed=3),
    ]
    for h in patterns:
        kernel = CopyKernel(h, fano)
        for idx in range(250):
            pi = stream_for(h.edge_count, idx).permutation(7)
            st = kernel.block_stats(pi)
            assert (st.c, st.i, st.f, st.g, st.typical) == reference_block_stats(pi, h, fano)


def test_block_stats_trivial_cases():
    fano = steiner_triple_system(7)
    c7 = make_pattern("cycle", 7)
    kernel = CopyKernel(c7, fano)
    for pi in permutations(range(7)):
        if all(len(g) == 1 for g in kernel.groups(pi).values()):
            st = kernel.block_stats(pi)
            assert (st.c, st.i, st.f, st.g, st.typical) == (0, 0, 0, 0, True)
            break
    else:
        pytest.fail("no spread-out permutation found")
    # a consistent pair pushed into one triple block
    line = fano.blocks[0].vertices
    h = orientation_from_edges(7, [(0, 1), (1, 2)])
    pi = [0] * 7
    rest = [v for v in range(7) if v not in line]
    pi[0], pi[1], pi[2] = line
    pi[3], pi[4], pi[5], pi[6] = rest
    st = CopyKernel(h, fano).block_stats(pi)
    assert (st.c, st.i, st.f, st.g, st.typical) == (1, 0, 0, 0, True)


def test_probability_no_shared_blocks_is_half_per_edge():
    fano = steiner_triple_system(7)
    c7 = make_pattern("cycle", 7)
    kernel = CopyKernel(c7, fano)
    for pi in permutations(range(7)):
        if all(len(g) == 1 for g in kernel.groups(pi).values()):
            assert kernel.probability(pi) == Fraction(1, 2 ** 7)
            break


def test_probability_vanishes_for_transitive_triangle_in_triple_block():
    fano = steiner_triple_system(7)
    h = orientation_from_edges(7, [(0, 1), (0, 2), (1, 2)])
    line = fano.blocks[2].vertices
    pi = list(range(7))
    others = [v for v in range(7) if v not in line]
    pi[0], pi[1], pi[2] = line
    pi[3:] = others
    kernel = CopyKernel(h, fano)
    st = kernel.block_stats(pi)
    assert st.g == 1
    assert kernel.probability(pi) == 0
    assert kernel.probability(pi, method="enumerate") == 0


def test_closed_form_equals_enumeration_everywhere():
    fano = steiner_triple_system(7)
    bases = BaseTournaments.circulant(3)
    for h in (make_pattern("cycle", 7), random_orientation(7, 9, seed=8)):
        kernel = CopyKernel(h, fano, bases)
        for idx in range(400):
            pi = stream_for(99, idx).permutation(7)
            p_enum = kernel.probability(pi, method="enumerate")
            assert kernel.probability(pi) == p_enum
            st = kernel.block_stats(pi)
            if st.typical:
                assert typical_closed_form(st, h.edge_count, 3) == p_enum


def test_exact_expectation_single_edge():
    bases = BaseTournaments.circulant(3)
    d5 = Decomposition(5, 3, (Block(BlockKind.K2T1, (0, 1, 2, 3, 4)),))
    single = orientation_from_edges(5, [(0, 1)])
    assert exact_copy_summary(single, d5, bases).expectation == Fraction(math.factorial(5), 2)
    fano = steiner_triple_system(7)
    single7 = orientation_from_edges(7, [(2, 5)])
    assert exact_copy_summary(single7, fano, bases).expectation == Fraction(math.factorial(7), 2)


def _summed_terms(h, d) -> int:
    """The oracle of the exact budget: (pattern orbits) · (stabiliser orbits) · (n-2)!."""
    return len(vertex_orbits(h)) * len(point_stabiliser_orbits(d)) * math.factorial(h.n - 2)


def _count_terms_calls(monkeypatch) -> list:
    calls = []

    class CountedKernel(CopyKernel):
        def _terms(self, pi):
            calls.append(pi)
            return super()._terms(pi)

    monkeypatch.setattr(counting, "CopyKernel", CountedKernel)
    return calls


def test_exact_expectation_budget(monkeypatch):
    # the budget counts the terms summed against budget_n!: C7 on Fano sums 5!
    # and C9 on STS(9) 7!, so they are admitted at budgets 5 and 7; P9 sums
    # 9 · 7! = 45,360 > 8! and is refused at 8
    calls = _count_terms_calls(monkeypatch)
    fano, sts9 = steiner_triple_system(7), steiner_triple_system(9)
    c7, c9, p9 = make_pattern("cycle", 7), make_pattern("cycle", 9), make_pattern("path", 9)
    assert exact_copy_summary(c7, fano, budget_n=5).ratio == Fraction(43, 15)
    assert len(calls) == _summed_terms(c7, fano) == math.factorial(5)
    calls.clear()
    assert exact_copy_summary(c9, sts9, budget_n=7).ratio == Fraction(101, 35)
    assert len(calls) == _summed_terms(c9, sts9) == math.factorial(7)
    calls.clear()
    # 8! < 45,360 <= 9!, so the refusal names 9 as the budget that admits the sum
    with pytest.raises(BudgetExceededError, match=(
            r"^exact sum at n=9 of 45360 terms \(9 pattern orbits x 1 stabiliser orbits x 7!\) "
            r"needs a budget of at least 9, over the budget of 8 \(in k! terms\)$")):
        exact_copy_summary(p9, sts9, budget_n=8)
    with pytest.raises(BudgetExceededError, match="of at least 5! terms needs a budget of at least 5,"):
        exact_copy_summary(c7, fano, budget_n=4)
    assert calls == []


def test_exact_expectation_budget_refuses_huge_n_before_the_orbit_search(monkeypatch):
    def searched(*args):
        raise AssertionError("orbit search ran")

    monkeypatch.setattr(counting, "vertex_orbits", searched)
    monkeypatch.setattr(counting, "point_stabiliser_orbits", searched)
    # at the default budget of 10, C13 on STS(13) sums at least 11! terms
    with pytest.raises(BudgetExceededError, match=r"^exact sum at n=13 of at least 11! terms needs a budget of "
                                                  r"at least 11, over the budget of 10 \(in k! terms\)$"):
        exact_copy_summary(make_pattern("cycle", 13), steiner_triple_system(13))


def test_exact_expectation_budget_far_above_n_is_decided_at_once():
    # budget_n! itself is never computed; 3·10^9! would take longer than any run
    c7, fano = make_pattern("cycle", 7), steiner_triple_system(7)
    start = time.perf_counter()
    summary = exact_copy_summary(c7, fano, budget_n=3 * 10**9)
    assert time.perf_counter() - start < 5
    assert summary == exact_copy_summary(c7, fano)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_exact_expectation_budget_decisions_match_the_term_count(n, monkeypatch):
    # the summed terms against budget_n!, computed as written, is the oracle here,
    # and an admitted sum makes exactly that many _terms calls
    calls = _count_terms_calls(monkeypatch)
    d = adjusted_decomposition(n, 3)
    stabiliser = len(point_stabiliser_orbits(d))
    patterns = [make_pattern("cycle", n), make_pattern("path", n),
                make_pattern("k_regular_random", n, k=2, seed=1)]
    patterns += [make_pattern("matching", n)] if n % 2 == 0 else []
    for h in patterns:
        terms = _summed_terms(h, d)
        calls.clear()
        full = exact_copy_summary(h, d)
        assert len(calls) == terms
        for budget in range(n - 3, n + 2):
            if terms <= math.factorial(budget):
                assert exact_copy_summary(h, d, budget_n=budget) == full
                continue
            if budget < n - 2:
                message, needs = rf"^exact sum at n={n} of at least {n - 2}! terms ", n - 2
            else:
                message = (rf"^exact sum at n={n} of {terms} terms \({len(vertex_orbits(h))} "
                           rf"pattern orbits x {stabiliser} stabiliser orbits x {n - 2}!\) ")
                needs = next(k for k in range(n + 1) if math.factorial(k) >= terms)
            with pytest.raises(BudgetExceededError, match=message + rf"needs a budget of at least {needs}, "
                                                                    rf"over the budget of {budget} \(in k! terms\)$"):
                exact_copy_summary(h, d, budget_n=budget)


def test_exact_matches_support_average_for_path():
    fano = steiner_triple_system(7)
    bases = BaseTournaments.circulant(3)
    p7 = make_pattern("path", 7)
    exact = exact_copy_summary(p7, fano, bases).expectation
    acc = Fraction(0)
    for t, w in enumerate_support(fano, bases):
        acc += w * count_labeled_copies(p7, t)
    assert acc == exact


def test_exact_matches_support_average_for_k2t1_design():
    # a single size-5 complete block exercises the larger base tournament
    bases = BaseTournaments.circulant(3)
    d5 = Decomposition(5, 3, (Block(BlockKind.K2T1, (0, 1, 2, 3, 4)),))
    for seed in (1, 6):
        h = random_orientation(5, 5, seed=seed)
        exact = exact_copy_summary(h, d5, bases).expectation
        acc = Fraction(0)
        total = Fraction(0)
        for t, w in enumerate_support(d5, bases):
            acc += w * count_labeled_copies(h, t)
            total += w
        assert total == 1
        assert acc == exact


def test_coin_blocks_match_support_weighted_count(coin_design6):
    # every block is a 3-cycle, 4-cycle, star-path or edge, so every factor of
    # a copy comes from the coin-block captures
    bases = BaseTournaments.circulant(3)
    support = list(enumerate_support(coin_design6, bases))
    c6 = make_pattern("cycle", 6)
    assert exact_copy_summary(c6, coin_design6, bases).expectation == Fraction(105, 4)
    assert sum(w * 6 * count_hamilton_cycles(t) for t, w in support) == Fraction(105, 4)
    for h in (make_pattern("path", 6), random_orientation(6, 9, seed=4)):
        exact = exact_copy_summary(h, coin_design6, bases).expectation
        assert exact == sum(w * count_labeled_copies(h, t) for t, w in support)


def test_coin_factor_of_c8_equals_a_recount_from_the_block_arcs():
    # the kernel builds each coin block's arc set once; here every copy's coin
    # factor is recounted from Block.arcs() afresh
    d = adjusted_decomposition(8, 3)
    kernel = CopyKernel(make_pattern("cycle", 8), d)
    coin_blocks = set()
    for index in range(2000):
        pi = stream_for(13, index).permutation(8)
        factor = expected = 1
        for bid, group in kernel.groups(pi).items():
            block = d.blocks[bid]
            if block.kind.complete:
                continue
            coin_blocks.add(bid)
            arcs = set(block.arcs())
            mapped = [(pi[u], pi[v]) for u, v in group]
            hits = all(a in arcs for a in mapped) + all((v, u) in arcs for u, v in mapped)
            expected *= hits << (len(group) - 1)
            factor *= kernel._coin_hits(bid, group, pi) << (len(group) - 1)
        assert factor == expected
    assert coin_blocks and set(kernel._coin_arcs) == coin_blocks


def test_exact_matches_support_weighted_cycles_on_sts9():
    # 6^12 relabellings, but only 2^12 distinct outcomes for enumerate_support to list
    d = steiner_triple_system(9)
    bases = BaseTournaments.circulant(3)
    exact = exact_copy_summary(make_pattern("cycle", 9), d, bases).expectation
    assert exact == Fraction(8181, 4)
    assert sum(w * 9 * count_hamilton_cycles(t) for t, w in enumerate_support(d, bases)) == exact


def test_expectation_matches_direct_sampled_counts_at_n9():
    # whole-pipeline cross-check: summing per-permutation probabilities must
    # agree with counting copies in actually sampled tournaments
    d9 = adjusted_decomposition(9, 3)
    bases = BaseTournaments.circulant(3)
    c9 = make_pattern("cycle", 9)
    summary = exact_copy_summary(c9, d9, bases)
    assert summary.expectation == Fraction(8181, 4)  # frozen after first run
    acc = 0
    draws = 1500
    for index in range(draws):
        acc += 9 * count_hamilton_cycles(sample(d9, bases, SampleSeed(7777, index)))
    assert abs(acc / draws - float(summary.expectation)) / float(summary.expectation) < 0.05


def test_even_extension_expectation(monkeypatch):
    from orient_boost.designs import adjusted_decomposition, extend_to_even
    d8 = extend_to_even(adjusted_decomposition(7, 3))
    bases = BaseTournaments.circulant(3)
    # matchings appear the same number of times in every tournament, so the
    # expectation over the balanced space equals the coin-flip baseline
    m4 = make_pattern("matching", 8)
    assert exact_copy_summary(m4, d8, bases).expectation == Fraction(math.factorial(8), 2 ** 4)
    # full oracle for the 8-cycle over the 2048-outcome support
    c8 = make_pattern("cycle", 8)
    exact = exact_copy_summary(c8, d8, bases).expectation
    acc = Fraction(0)
    monkeypatch.setattr(sampling, "_SUPPORT_BUDGET", 5_000_000)
    for t, w in enumerate_support(d8, bases):
        acc += w * 8 * count_hamilton_cycles(t)
    assert acc == exact
    assert exact > Fraction(math.factorial(8), 2 ** 8)


def test_estimator_brackets_exact_value():
    fano = steiner_triple_system(7)
    bases = BaseTournaments.circulant(3)
    c7 = make_pattern("cycle", 7)
    exact_ratio = exact_copy_summary(c7, fano, bases).ratio
    hits = 0
    runs = 100
    for run in range(runs):
        rep = estimate_expected_copies(c7, fano, bases, samples=1000, master_seed=run)
        if abs(rep.ratio - float(exact_ratio)) <= 3 * rep.ratio_stderr:
            hits += 1
    assert hits >= 99


def test_estimator_brackets_exact_value_with_triangle_captures():
    # this pattern holds a cyclic triangle, exercising the triangle factors
    fano = steiner_triple_system(7)
    bases = BaseTournaments.circulant(3)
    h = random_orientation(7, 8, seed=8)
    assert exact_copy_summary(h, fano, bases).capture_averages[2] > 0
    exact_ratio = float(exact_copy_summary(h, fano, bases).ratio)
    rep = estimate_expected_copies(h, fano, bases, samples=4000, master_seed=14)
    assert abs(rep.ratio - exact_ratio) <= 3 * rep.ratio_stderr


def test_estimator_deterministic_and_worker_independent():
    fano = steiner_triple_system(7)
    bases = BaseTournaments.circulant(3)
    c7 = make_pattern("cycle", 7)
    a = estimate_expected_copies(c7, fano, bases, samples=600, master_seed=5)
    b = estimate_expected_copies(c7, fano, bases, samples=600, master_seed=5)
    assert (a.ratio, a.ratio_stderr, a.typical_fraction) == (b.ratio, b.ratio_stderr, b.typical_fraction)
    c = estimate_expected_copies(c7, fano, bases, samples=600, master_seed=5, workers=3)
    assert (a.ratio, a.ratio_stderr, a.typical_fraction) == (c.ratio, c.ratio_stderr, c.typical_fraction)


def test_estimator_report_fields():
    fano = steiner_triple_system(7)
    c7 = make_pattern("cycle", 7)
    rep = estimate_expected_copies(c7, fano, samples=200, master_seed=1)
    assert rep.baseline == Fraction(math.factorial(7), 2 ** 7)
    assert rep.samples == 200 and rep.master_seed == 1
    assert rep.ratio_stderr >= 0
    assert baseline_expected_copies(c7) == rep.baseline


def test_estimate_is_finite_when_the_baseline_fits_a_float():
    # 193!/2^193 is about 5.5e300: over 10^300, yet inside the float range
    rep = estimate_expected_copies(make_pattern("cycle", 193), adjusted_decomposition(193, 3),
                                   samples=3, master_seed=0)
    assert rep.baseline > 10 ** 300 and rep.ratio > 0
    assert rep.estimate == float(rep.baseline) * rep.ratio
    assert math.isfinite(rep.estimate)


def test_estimate_past_the_float_range(monkeypatch):
    # 199!/2^199 is about 4.9e312, so the estimate is inf unless the ratio is 0
    c199 = make_pattern("cycle", 199)
    d = adjusted_decomposition(199, 3)
    assert estimate_expected_copies(c199, d, samples=2, master_seed=0).estimate == math.inf
    monkeypatch.setattr(counting, "_run_chunks", lambda *args: _ExactSums())
    rep = estimate_expected_copies(c199, d, samples=2, master_seed=0)
    assert rep.ratio == 0 and rep.estimate == 0.0


def test_exact_block_averages_cycle_on_triple_system():
    fano = steiner_triple_system(7)
    c7 = make_pattern("cycle", 7)
    avgs = exact_copy_summary(c7, fano).capture_averages
    assert avgs == (Fraction(7, 5), 0, 0, 0)


@pytest.mark.parametrize("pattern", ["cycle", "path"])
def test_monte_carlo_stderrs_match_the_exact_variance(pattern):
    # the exact mean and variance of the ratio from one pass over all 7! copies on the Fano plane
    h, fano = make_pattern(pattern, 7), steiner_triple_system(7)
    kernel = CopyKernel(h, fano)
    ratios = [kernel.ratio(pi) for pi in permutations(range(7))]
    mean = sum(ratios) / len(ratios)
    assert mean == exact_copy_summary(h, fano).ratio
    sd = math.sqrt(sum((r - mean) ** 2 for r in ratios) / len(ratios) / 2000)
    reports = [estimate_expected_copies(h, fano, samples=2000, master_seed=seed) for seed in range(1, 21)]
    assert all(abs(rep.ratio_stderr / sd - 1) <= 0.1 for rep in reports)
    assert sum(abs(rep.ratio - mean) <= 2 * rep.ratio_stderr for rep in reports) >= 17


def test_empirical_block_averages_match_exact_mean():
    fano = steiner_triple_system(7)
    c7 = make_pattern("cycle", 7)
    rep = estimate_expected_copies(c7, fano, samples=4000, master_seed=12)
    assert abs(rep.capture_means[0] - 1.4) <= 3 * rep.capture_stderrs[0]
    assert rep.capture_means[1:] == (0, 0, 0)


def test_empirical_block_averages_matching_pattern_is_zero():
    # no two matching edges share a vertex, so every capture statistic is 0
    d = steiner_triple_system(9)
    m = orientation_from_edges(9, [(0, 1), (2, 3), (4, 5), (6, 7)])
    rep = estimate_expected_copies(m, d, samples=500, master_seed=3)
    assert rep.capture_means == (0, 0, 0, 0)


def test_disjoint_edge_pattern_never_boosts_on_pure_design():
    # two disjoint edges inside one complete block still succeed with
    # probability exactly 1/4, so the per-copy ratio is identically 1
    d = steiner_triple_system(9)
    m = orientation_from_edges(9, [(0, 1), (2, 3), (4, 5), (6, 7)])
    rep = estimate_expected_copies(m, d, samples=400, master_seed=8)
    assert rep.ratio == 1.0
    assert rep.ratio_stderr == 0.0


def test_injection_budget_error_names_block(monkeypatch):
    bases = BaseTournaments.circulant(3)
    d5 = Decomposition(5, 3, (Block(BlockKind.K2T1, (0, 1, 2, 3, 4)),))
    h = random_orientation(5, 6, seed=2)
    monkeypatch.setattr(counting, "_INJECTION_BUDGET", 10)
    kernel = CopyKernel(h, d5, bases)
    with pytest.raises(BudgetExceededError, match="block 0"):
        kernel.probability(list(range(5)), method="enumerate")


def test_auto_path_keeps_the_injection_budget(monkeypatch):
    bases = BaseTournaments.circulant(3)
    d5 = Decomposition(5, 3, (Block(BlockKind.K2T1, (0, 1, 2, 3, 4)),))
    h = random_orientation(5, 6, seed=2)
    m = len({x for e in h.edges for x in e})
    monkeypatch.setattr(counting, "_INJECTION_BUDGET", math.perm(5, m) - 1)
    kernel = CopyKernel(h, d5, bases)
    with pytest.raises(BudgetExceededError, match="block 0"):
        kernel.ratio(list(range(5)))
    assert kernel._memo == {} and kernel._tables == {}  # refused before any entry or table
    monkeypatch.setattr(counting, "_INJECTION_BUDGET", math.perm(5, m))  # the bound itself is allowed
    kernel = CopyKernel(h, d5, bases)
    assert kernel.ratio(list(range(5))) == kernel.ratio(list(range(5)), method="enumerate")


def test_spanning_k9_capture_counts_through_count_embeddings(monkeypatch):
    # (9,5) is one K9 block, so a copy of C9 captures all 9 edges: perm(9, 9)
    # injections are inside the budget but above the table cap
    calls = []
    monkeypatch.setattr(counting, "count_embeddings", lambda *args: calls.append(args) or 1998)
    kernel = CopyKernel(make_pattern("cycle", 9), adjusted_decomposition(9, 5))
    assert kernel.ratio(list(range(9))) == Fraction(1998 << 9, math.factorial(9))
    assert len(calls) == 1 and kernel._tables == {}
    assert math.factorial(9) > counting._TABLE_INJECTIONS


# ---------------------------------------------------------------------------
# the one-pass kernel: golden partial sums, differential oracles, shape memo
# ---------------------------------------------------------------------------

GOLDEN_SCANS = {
    # (master seed 7, sample indices [0, 300)) -> exact partial sums of their tally
    "cycle21-pg24": (
        Fraction(1790377, 2187), Fraction(12670119367, 4782969), 124,
        [984, 0, 0, 0], [3882, 0, 0, 0]),
    "reg2-pg24": (
        Fraction(4092767488, 1594323), Fraction(219417711799328768, 2541865828329), 0,
        [3797, 1723, 0, 128], [50191, 11147, 0, 168]),
    "cycle8-even7": (
        Fraction(731), Fraction(2331), 255, [332, 0, 0, 0], [514, 0, 0, 0]),
}


def _golden_case(name):
    """(pattern, design) of a GOLDEN_SCANS case."""
    if name == "cycle8-even7":
        return make_pattern("cycle", 8), extend_to_even(steiner_triple_system(7))
    d = adjusted_decomposition(21, 5)
    h = make_pattern("cycle", 21) if name == "cycle21-pg24" else \
        make_pattern("k_regular_random", 21, k=2, seed=7)
    return h, d


@pytest.mark.parametrize("name", sorted(GOLDEN_SCANS))
def test_scan_partial_sums_are_golden(name):
    h, d = _golden_case(name)
    kernel = CopyKernel(h, d, BaseTournaments.circulant(d.t))
    assert _ExactSums().tally(kernel, stream_permutations(7, 0, 300, h.n)).totals() == GOLDEN_SCANS[name]


@pytest.mark.parametrize("fold", [1, 7])
def test_the_record_does_not_depend_on_the_fold(monkeypatch, fold):
    kernels = [CopyKernel(*_golden_case(name)) for name in sorted(GOLDEN_SCANS)]
    path7, fano = make_pattern("path", 7), steiner_triple_system(7)  # 4 orbits, 120 copies a head
    exact_records = []
    real_totals = _ExactSums.totals
    monkeypatch.setattr(_ExactSums, "totals", lambda self: exact_records.append(vars(self)) or real_totals(self))

    def records():
        scans = [vars(_ExactSums().tally(kernel, stream_permutations(7, 0, 300, kernel.n))) for kernel in kernels]
        summary = exact_copy_summary(path7, fano)
        return scans, exact_records.pop(), summary

    assert counting._FOLD == 512
    whole = records()
    monkeypatch.setattr(counting, "_FOLD", fold)
    assert records() == whole


DIFFERENTIAL_DESIGNS = {
    "fano": steiner_triple_system(7),
    "even8": extend_to_even(steiner_triple_system(7)),  # star-path and edge coin blocks
    "adjusted11": adjusted_decomposition(11, 3),        # holds a K_(2t-1) block
}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(DIFFERENTIAL_DESIGNS)), density=st.floats(0.1, 0.9),
       pattern_seed=st.integers(0, 10 ** 6), perm_seed=st.integers(0, 10 ** 6))
def test_one_pass_equals_enumeration_and_reference(name, density, pattern_seed, perm_seed):
    d = DIFFERENTIAL_DESIGNS[name]
    h = random_orientation(d.n, max(1, round(density * d.n * (d.n - 1) / 2)), seed=pattern_seed)
    kernel = CopyKernel(h, d)
    for index in range(12):  # later copies hit shapes memoised by earlier ones
        pi = stream_for(perm_seed, index).permutation(d.n)
        r, stats = kernel.ratio_and_stats(pi)
        assert r == kernel.ratio(pi, method="enumerate")
        assert (stats.c, stats.i, stats.f, stats.g, stats.typical) == reference_block_stats(pi, h, d)


PROPERTY_DESIGNS = {
    "pg24": adjusted_decomposition(21, 5),
    "adjusted11": adjusted_decomposition(11, 3),  # holds a K_(2t-1) block
}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(PROPERTY_DESIGNS)), pattern_seed=st.integers(0, 10 ** 6),
       perm_seed=st.integers(0, 10 ** 6))
def test_two_regular_closed_forms_equal_enumeration_and_reference(name, pattern_seed, perm_seed):
    d = PROPERTY_DESIGNS[name]
    h = make_pattern("k_regular_random", d.n, k=2, seed=pattern_seed)
    kernel = CopyKernel(h, d)
    for index in range(4):
        pi = stream_for(perm_seed, index).permutation(d.n)
        assert kernel.ratio(pi) == kernel.ratio(pi, method="enumerate")
        stats = kernel.block_stats(pi)
        assert (stats.c, stats.i, stats.f, stats.g, stats.typical) == reference_block_stats(pi, h, d)


def test_memo_key_separates_kt_and_k2t1_bases():
    # a K5 block and a K9 block (t=5) share vertex 8; edge blocks cover the rest
    big, small = tuple(range(9)), tuple(range(8, 13))
    edges = tuple(Block(BlockKind.EDGE, (u, v)) for u in range(8) for v in range(9, 13))
    d = Decomposition(13, 5, (Block(BlockKind.K2T1, big), Block(BlockKind.KT, small)) + edges)
    h = orientation_from_edges(13, [(0, 1), (1, 2), (2, 3)])  # a directed 3-edge path
    kernel = CopyKernel(h, d)
    into_big = list(range(13))
    into_small = [9, 10, 11, 12] + list(range(9))
    factors = []
    for pi in (into_big, into_small):
        assert kernel.ratio(pi) == kernel.ratio(pi, method="enumerate")
        factors.append(kernel.ratio(pi))
    assert len(kernel._memo) == 2
    assert set(kernel._tables) == {(BlockKind.K2T1, 4), (BlockKind.KT, 4)}
    assert factors[0] != factors[1]  # one shape, two bases: a shared key would be wrong


def test_enumerate_never_touches_the_memo():
    kernel = CopyKernel(make_pattern("cycle", 11), adjusted_decomposition(11, 3))
    pis = [stream_for(3, index).permutation(11) for index in range(60)]
    oracle = [kernel.ratio(pi, method="enumerate") for pi in pis]
    assert kernel._memo == {} and kernel._tables == {}
    assert [kernel.ratio(pi) for pi in pis] == oracle
    assert kernel._memo and kernel._tables
    # poison every entry and every table; only "auto" may read them
    for key, (_, _, deltas, typical) in kernel._memo.items():
        kernel._memo[key] = (0, 1, deltas, typical)  # success probability 0
    for table in kernel._tables.values():
        table[:] = [0] * len(table)
    assert [kernel.ratio(pi, method="enumerate") for pi in pis] == oracle
    assert [kernel.ratio(pi) for pi in pis] != oracle


def test_ratio_rejects_unknown_method():
    kernel = CopyKernel(make_pattern("cycle", 7), steiner_triple_system(7))
    with pytest.raises(ValueError, match="enumerate"):
        kernel.ratio(list(range(7)), method="closed")


def test_per_copy_methods_check_the_permutation_size():
    kernel = CopyKernel(make_pattern("cycle", 7), steiner_triple_system(7))
    for pi in (list(range(6)), list(range(8))):
        for call in (kernel.ratio_and_stats, kernel.block_stats, kernel.ratio, kernel.probability,
                     lambda pi: kernel.ratio(pi, method="enumerate"), kernel.groups):
            with pytest.raises(ValueError, match="sizes must agree"):
                call(pi)


@pytest.mark.parametrize("pi", [[0, 1, 2, 3, 4, 5, 5], [0, 1, 2, 3, 4, 5, -1], [1] * 7, [0, 1, 2, 3, 4, 5, 7]],
                         ids=["repeated", "negative", "constant", "out-of-range"])
@pytest.mark.parametrize("method", ["ratio_and_stats", "block_stats", "ratio", "probability", "enumerate",
                                    "groups"])
def test_per_copy_methods_refuse_a_non_permutation(pi, method):
    """Of the right length but no permutation: a repeated image read the
    pair (5, 5) as the last block, and a negative one wrapped round; through
    ``groups`` the edge (5, 6) was filed under block -1, or under block 3."""
    kernel = CopyKernel(make_pattern("cycle", 7), steiner_triple_system(7))
    call = (partial(kernel.ratio, method="enumerate") if method == "enumerate"
            else getattr(kernel, method))
    with pytest.raises(ValueError, match=r"not a permutation of range\(7\)"):
        call(pi)


# ---------------------------------------------------------------------------
# exact sums over Aut(H) vertex orbits, against the brute n! sum
# ---------------------------------------------------------------------------

def _brute_summary(h, d, bases=None):
    """Oracle: every one of the n! copies through ``CopyKernel._terms``, folded into one record."""
    kernel = CopyKernel(h, d, bases)
    acc = _ExactSums()
    for pi in permutations(range(h.n)):
        acc.add(*kernel._terms(pi))
    total, _, typical, sums, _ = acc.totals()
    nfact = math.factorial(h.n)
    return ExactSummary(expectation=total / (1 << h.edge_count), ratio=total / nfact,
                        typical_fraction=Fraction(typical, nfact),
                        capture_averages=tuple(Fraction(x, nfact) for x in sums))


def brute_orbits(h):
    """Oracle: the vertex orbits of every automorphism found among all n! permutations."""
    autos = [p for p in permutations(range(h.n)) if {(p[u], p[v]) for u, v in h.edges} == h.edges]
    return sorted({tuple(sorted({p[x] for p in autos})) for x in range(h.n)})


BRUTE_CASES = {
    "c7-fano": ("cycle", 7, "fano"),
    "p7-fano": ("path", 7, "fano"),
    "reg2-fano": ("k_regular_random", 7, "fano"),  # seed 1: orbits of sizes 1 and 2
    "c7-fano-c3": ("cycle", 7, "fano-c3"),  # stabiliser orbits (1, 2, 6) and (3, 4, 5)
    "c8-even7": ("cycle", 8, "even7"),
    "p8-even7": ("path", 8, "even7"),  # trivial group on a design that is not vertex-transitive
    "matching8-even7": ("matching", 8, "even7"),
    "c6-coin6": ("cycle", 6, "coin6"),
}


@pytest.mark.parametrize("name", sorted(BRUTE_CASES))
def test_orbit_sum_equals_the_brute_sum(name, coin_design6, fano_c3):
    kind, n, design = BRUTE_CASES[name]
    d = {"fano": steiner_triple_system(7), "even7": extend_to_even(steiner_triple_system(7)),
         "coin6": coin_design6, "fano-c3": fano_c3}[design]
    h = make_pattern(kind, n, k=2, seed=1) if kind == "k_regular_random" else make_pattern(kind, n)
    assert exact_copy_summary(h, d) == _brute_summary(h, d)


def test_exact_sum_builds_one_kernel_for_every_orbit(monkeypatch):
    # P7 has the trivial group, so its 7 orbits are its 7 vertices
    p7, fano = make_pattern("path", 7), steiner_triple_system(7)
    assert len(vertex_orbits(p7)) == 7
    kernels = []

    class CountedKernel(CopyKernel):
        def __init__(self, *args):
            kernels.append(args)
            super().__init__(*args)

    monkeypatch.setattr(counting, "CopyKernel", CountedKernel)
    assert exact_copy_summary(p7, fano) == _brute_summary(p7, fano)
    assert len(kernels) == 1 and kernels[0][0] is p7


@st.composite
def small_orientations(draw):
    """Random orientations, and symmetric ones relabelled at random: a circulant
    i -> i + s (mod m) on m of the n vertices, or disjoint directed cycles; the
    vertices left over are isolated."""
    n = draw(st.integers(3, 7))
    kind = draw(st.sampled_from(["random", "circulant", "cycles"]))
    if kind == "random":
        return random_orientation(n, draw(st.integers(0, n * (n - 1) // 2)), seed=draw(st.integers(0, 10 ** 6)))
    if kind == "circulant":
        m = draw(st.integers(3, n))
        # one of each pair {s, m - s}, so no 2-cycles
        shifts = draw(st.sets(st.integers(1, (m - 1) // 2), min_size=1))
        signs = [draw(st.booleans()) for _ in shifts]
        edges = {(i, (i + (s if sign else m - s)) % m) for s, sign in zip(shifts, signs) for i in range(m)}
    else:
        lengths = draw(st.lists(st.integers(3, n), min_size=1, max_size=2).filter(lambda ls: sum(ls) <= n))
        edges, start = set(), 0
        for length in lengths:
            edges |= {(start + i, start + (i + 1) % length) for i in range(length)}
            start += length
    perm = draw(st.permutations(range(n)))
    return Orientation(n, frozenset(edges)).relabel(perm)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(h=small_orientations())
def test_orbit_sum_and_orbits_equal_brute_force(h):
    assert vertex_orbits(h) == brute_orbits(h)
    d = steiner_triple_system(7) if h.n == 7 else adjusted_decomposition(h.n, 3)
    assert exact_copy_summary(h, d) == _brute_summary(h, d)


def test_exact_sum_visits_n_minus_2_factorial_copies_per_stabiliser_orbit(monkeypatch):
    # C7 on Fano: one pattern orbit, one stabiliser orbit of 6 points, so 5! copies, weighted by 7 · 6
    c7, fano = make_pattern("cycle", 7), steiner_triple_system(7)
    seen = []

    class CountedKernel(CopyKernel):
        def _terms(self, pi):
            seen.append(tuple(pi))
            return super()._terms(pi)

    monkeypatch.setattr(counting, "CopyKernel", CountedKernel)
    assert exact_copy_summary(c7, fano) == _brute_summary(c7, fano)
    assert len(seen) == len(set(seen)) == math.factorial(5)
    assert {pi[0] for pi in seen} == {0} and {pi[1] for pi in seen} == {1}


# the bracket stops at n = 9, where STS(9) is 2-transitive and the sum is 8 times
# shorter: at n = 10 the even design fixes its hub, its stabiliser orbits are
# singletons, and the sum is still (n-1)! terms per pattern orbit
@settings(max_examples=4, deadline=None, derandomize=True)
@given(edges=st.integers(1, 36), pattern_seed=st.integers(0, 10 ** 6), master=st.integers(0, 10 ** 6))
def test_exact_ratio_lies_in_a_monte_carlo_bracket_at_n9(edges, pattern_seed, master):
    h, sts9 = random_orientation(9, edges, seed=pattern_seed), steiner_triple_system(9)
    exact = exact_copy_summary(h, sts9).ratio
    rep = estimate_expected_copies(h, sts9, samples=20_000, master_seed=master)
    assert abs(rep.ratio - exact) <= 4 * rep.ratio_stderr


def test_exact_c10_is_pinned_inside_a_monte_carlo_bracket():
    d = adjusted_decomposition(10, 3)  # the even extension of STS(9)
    c10 = make_pattern("cycle", 10)
    summary = exact_copy_summary(c10, d, budget_n=10)
    assert (summary.ratio, summary.expectation) == (Fraction(18, 7), Fraction(18225, 2))
    rep = estimate_expected_copies(c10, d, samples=20_000, master_seed=1)
    assert abs(rep.ratio - 18 / 7) <= 3 * rep.ratio_stderr


# ---------------------------------------------------------------------------
# the partial-sum record: one merge rule for chunks, the pool and the serial scan
# ---------------------------------------------------------------------------

MERGE_DESIGNS = {"fano": steiner_triple_system(7), "even8": extend_to_even(steiner_triple_system(7))}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(), name=st.sampled_from(sorted(MERGE_DESIGNS)), n_samples=st.integers(1, 600),
       pattern_seed=st.integers(0, 10 ** 6), master=st.integers(0, 10 ** 6))
def test_merged_chunk_records_equal_one_scan(data, name, n_samples, pattern_seed, master):
    d = MERGE_DESIGNS[name]
    h = random_orientation(d.n, data.draw(st.integers(1, d.n * (d.n - 1) // 2)), seed=pattern_seed)
    bases = BaseTournaments.circulant(d.t)
    cuts = data.draw(st.lists(st.integers(1, n_samples - 1), unique=True, max_size=6)) if n_samples > 1 else []
    bounds = [0, *sorted(cuts), n_samples]
    chunks = [_ExactSums().tally(CopyKernel(h, d, bases), stream_permutations(master, lo, hi, h.n))
              for lo, hi in zip(bounds, bounds[1:])]
    merged = _ExactSums()
    for chunk in data.draw(st.permutations(chunks)):
        assert merged.merge(chunk) is merged
    whole = _ExactSums().tally(CopyKernel(h, d, bases), stream_permutations(master, 0, n_samples, h.n))
    assert vars(merged) == vars(whole)
    assert merged.totals() == whole.totals()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(num=st.integers(0, 10 ** 9), den=st.integers(1, 10 ** 9), caps=st.tuples(*[st.integers(0, 5)] * 4),
       typical=st.booleans(), times=st.integers(1, 40), before=st.integers(0, 3))
def test_adding_times_k_equals_k_single_adds(num, den, caps, typical, times, before):
    once, single = _ExactSums(), _ExactSums()
    for acc in (once, single):
        for _ in range(before):  # a record that already holds other terms
            acc.add(3, 4, (1, 0, 2, 0), False)
    once.add(num, den, caps, typical, times=times)
    for _ in range(times):
        single.add(num, den, caps, typical)
    assert vars(once) == vars(single)


@pytest.mark.parametrize("name", sorted(GOLDEN_SCANS) + ["coin6"])
def test_tallied_scan_equals_the_copy_by_copy_scan(name, coin_design6):
    h, d = (random_orientation(6, 9, seed=3), coin_design6) if name == "coin6" else _golden_case(name)
    kernel = CopyKernel(h, d)
    single = _ExactSums()
    for pi in stream_permutations(5, 0, 400, h.n):
        single.add(*kernel._terms(pi))
    assert vars(_ExactSums().tally(kernel, stream_permutations(5, 0, 400, h.n))) == vars(single)


def _sample_chunks(master, samples, size, n):
    """Monte Carlo chunks laid out as ``estimate_expected_copies`` lays them, with spans of ``size``."""
    return [(1, stream_permutations, (master, lo, min(lo + size, samples), n)) for lo in range(0, samples, size)]


@pytest.mark.parametrize("samples", [1, 511, 512, 513, 6000])
def test_an_estimate_is_cut_into_the_same_spans_on_any_worker_count(monkeypatch, samples):
    layouts = []

    def run_chunks(h, d, bases, chunks, workers):
        layouts.append(chunks)
        return _ExactSums()

    monkeypatch.setattr(counting, "_run_chunks", run_chunks)
    for workers in (1, 2, 3):
        estimate_expected_copies(make_pattern("cycle", 7), steiner_triple_system(7), samples=samples,
                                 master_seed=5, workers=workers)
    assert layouts[0] == layouts[1] == layouts[2]
    assert counting._FOLD == 512
    assert layouts[0] == _sample_chunks(5, samples, 512, 7)


@pytest.fixture
def pools(monkeypatch):
    """The worker counts of the pools ``_run_chunks`` starts, with a pool's fixed cost set to 0
    so that any run with two chunks left after the first starts one."""
    started, real = [], counting.ProcessPoolExecutor

    def pool(*args, **kwargs):
        started.append(kwargs["max_workers"])
        return real(*args, **kwargs)

    monkeypatch.setattr(counting, "_POOL_SECONDS", 0)
    monkeypatch.setattr(counting, "ProcessPoolExecutor", pool)
    return started


def test_pool_and_serial_scans_give_one_record(pools):
    # three chunks of at most 256 samples: one here, two in the pool
    d = extend_to_even(steiner_triple_system(7))
    h = random_orientation(8, 12, seed=5)
    bases = BaseTournaments.circulant(3)
    serial = _run_chunks(h, d, bases, _sample_chunks(11, 600, 600, 8), 1)
    pooled = _run_chunks(h, d, bases, _sample_chunks(11, 600, 256, 8), 2)
    assert pools == [2]
    assert type(serial) is type(pooled) is _ExactSums
    assert vars(serial) == vars(pooled)


def test_pool_workers_take_the_callers_kernel(monkeypatch, pools):
    # bases of None give the caller's kernel the circulant pair, and the workers take that kernel:
    # one built in any process but this one raises there (a fork inherits the patch), and would
    # break the pool in its initialiser
    d = extend_to_even(steiner_triple_system(7))
    h = random_orientation(8, 12, seed=5)
    serial = _run_chunks(h, d, BaseTournaments.circulant(3), _sample_chunks(11, 600, 600, 8), 1)
    caller, build = os.getpid(), CopyKernel.__init__

    def built_by_the_caller(self, *args):
        if os.getpid() != caller:
            raise AssertionError("a pool worker built a kernel")
        build(self, *args)

    monkeypatch.setattr(CopyKernel, "__init__", built_by_the_caller)
    assert vars(_run_chunks(h, d, None, _sample_chunks(11, 600, 256, 8), 2)) == vars(serial)
    assert pools == [2]


@pytest.mark.parametrize("entry", ["estimate", "exact"])
def test_a_pool_started_by_spawn_gives_the_serial_record(monkeypatch, pools, entry):
    # off fork, each worker unpickles the caller's kernel: 1,200 samples are three spans, and P9 on
    # STS(9) is 9 chunks, one per vertex orbit
    spawn = partial(counting.ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn"))
    monkeypatch.setattr(counting, "ProcessPoolExecutor", spawn)
    if entry == "estimate":
        run = partial(estimate_expected_copies, random_orientation(8, 12, seed=5),
                      extend_to_even(steiner_triple_system(7)), samples=1200, master_seed=11)
    else:
        run = partial(exact_copy_summary, make_pattern("path", 9), steiner_triple_system(9))
    assert vars(run(workers=2)) == vars(run(workers=1))
    assert pools == [2]


@pytest.mark.parametrize("pattern,n,ratio,chunks", [
    ("cycle", 7, Fraction(43, 15), 1), ("cycle", 9, Fraction(101, 35), 1),
    ("path", 9, Fraction(81, 35), 9), ("cycle", 10, Fraction(18, 7), 9),
])
def test_exact_pins_give_one_record_on_one_and_two_workers(monkeypatch, pools, pattern, n, ratio, chunks):
    # one chunk per (pattern orbit, stabiliser orbit): C10 on the even (10,3) has 9 singleton
    # stabiliser orbits and P9 has 9 vertex orbits on the 2-transitive STS(9)
    h, d = make_pattern(pattern, n), adjusted_decomposition(n, 3)
    runs, real = [], counting._run_chunks

    def run_chunks(h, d, bases, chunks, workers):
        runs.append((len(chunks), real(h, d, bases, chunks, workers)))
        return runs[-1][1]

    monkeypatch.setattr(counting, "_run_chunks", run_chunks)
    assert [exact_copy_summary(h, d, budget_n=n, workers=w).ratio for w in (1, 2)] == [ratio, ratio]
    (serial_chunks, serial), (pooled_chunks, pooled) = runs
    assert serial_chunks == pooled_chunks == chunks
    assert vars(serial) == vars(pooled)
    assert pools == ([2] if chunks > 1 else [])


def test_a_pool_holds_at_most_two_chunks_per_worker_unmerged(monkeypatch, pools):
    # 40 spans of 512 samples: the first is tallied here and 39 go to the pool, which
    # submits the next only as it merges one, so a long run holds a bounded set of futures
    submitted, merged, outstanding = [], [], []
    submit, merge = ProcessPoolExecutor.submit, _ExactSums.merge

    def counted_submit(self, *args):
        submitted.append(args)
        outstanding.append(len(submitted) - len(merged))
        return submit(self, *args)

    def counted_merge(self, other):
        merged.append(other)
        return merge(self, other)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", counted_submit)
    monkeypatch.setattr(_ExactSums, "merge", counted_merge)
    run = partial(estimate_expected_copies, make_pattern("cycle", 7), steiner_triple_system(7),
                  samples=40 * 512, master_seed=11)
    pooled = run(workers=2)
    assert pools == [2]
    assert len(submitted) == len(merged) == 39 and max(outstanding) == 2 * 2
    assert vars(pooled) == vars(run(workers=1))


def test_a_copy_refused_in_a_pool_worker_reads_as_in_this_process(pools):
    # the first chunk holds no copy, so every C14 copy on (14,7), one K13 block and the hub, is
    # tallied, and refused, in a pool worker
    h, d = make_pattern("cycle", 14), adjusted_decomposition(14, 7)
    chunks = [(1, stream_permutations, (2, 0, 0, 14)), *_sample_chunks(2, 30, 10, 14)]
    with pytest.raises(BudgetExceededError) as serial:
        _run_chunks(h, d, None, chunks, 1)
    assert pools == []
    with pytest.raises(BudgetExceededError) as pooled:
        _run_chunks(h, d, None, chunks, 2)
    assert pools == [2]
    assert str(pooled.value) == str(serial.value) == ("block 0 needs a budget of at least 6227020800, over the "
                                                      "budget of 500000 (in injections)")


@pytest.mark.parametrize("workers", [0, -2])
@pytest.mark.parametrize("entry", ["estimate", "exact"])
def test_a_worker_count_below_one_is_refused_before_any_kernel(monkeypatch, entry, workers):
    def built(*args):
        raise AssertionError("a kernel was built")

    c7, fano = make_pattern("cycle", 7), steiner_triple_system(7)
    monkeypatch.setattr(counting, "CopyKernel", built)
    with pytest.raises(ValueError, match=rf"^workers must be >= 1, got {workers}$"):
        if entry == "estimate":
            estimate_expected_copies(c7, fano, samples=600, master_seed=1, workers=workers)
        else:
            exact_copy_summary(c7, fano, workers=workers)


@pytest.mark.parametrize("pattern, n, samples, pool_seconds", [
    pytest.param("cycle", 7, None, 0, id="7-None"), pytest.param("cycle", 9, None, 0, id="9-None"),
    pytest.param("cycle", 7, 1, 0, id="7-1"), pytest.param("cycle", 7, 256, 0, id="7-256"),
    pytest.param("k_regular_random", 21, 512, 0, id="reg2-pg24-512"),
    pytest.param("k_regular_random", 21, 1024, 0, id="reg2-pg24-1024"),
    pytest.param("path", 7, None, math.inf, id="path7-fano"),
])
def test_a_run_of_one_chunk_starts_no_pool(monkeypatch, pattern, n, samples, pool_seconds):
    # C7 on the Fano plane and C9 on STS(9) are one chunk each: one vertex orbit on a 2-transitive
    # design; an estimate of at most 512 samples, as the benchmark's 512 samples of the 2-regular
    # pattern on PG(2,4), is one span on any worker count.  1,024 samples are two spans, and one
    # chunk left after the first needs no pool whatever its cost.  P7 on the Fano plane is 7 chunks,
    # but a pool that costs more than any saving never starts.
    h, d = make_pattern(pattern, n, k=2, seed=3), adjusted_decomposition(n, 5 if n == 21 else 3)
    if samples is None:
        run = partial(exact_copy_summary, h, d)
    else:
        run = partial(estimate_expected_copies, h, d, samples=samples, master_seed=4)
    serial = run(workers=1)

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(counting, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(counting, "_POOL_SECONDS", pool_seconds)
    assert vars(run(workers=2)) == vars(serial)


@pytest.mark.parametrize("entry", ["estimate", "exact"])
def test_bases_that_do_not_fit_are_refused_before_a_pool_starts(entry):
    # the run's one kernel refuses them in this process, before the first chunk
    c7, fano, bases = make_pattern("cycle", 7), steiner_triple_system(7), BaseTournaments.circulant(5)
    with pytest.raises(InvalidTournamentError, match="base tournament has 5 vertices, decomposition t=3"):
        if entry == "estimate":
            estimate_expected_copies(c7, fano, bases, samples=600, master_seed=1, workers=2)
        else:
            exact_copy_summary(c7, fano, bases, workers=2)


# ---------------------------------------------------------------------------
# ORIENT_BOOST_THREADS
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("raw,cpus,expected", [
    (None, 8, 1), ("1", 8, 1), ("3", 8, 3), (" 2 ", 8, 2), ("64", 4, 4), ("5", None, 1),
    pytest.param("3", {0, 5}, 2, id="3-affinity-2"),
])
def test_worker_count_from_env(monkeypatch, raw, cpus, expected):
    # cpus is the CPU count of a platform without sched_getaffinity, or the set of CPUs this
    # process may run on, out of 8
    if raw is None:
        monkeypatch.delenv("ORIENT_BOOST_THREADS", raising=False)
    else:
        monkeypatch.setenv("ORIENT_BOOST_THREADS", raw)
    if isinstance(cpus, set):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert worker_count_from_env() == expected


@pytest.mark.parametrize("raw", ["abc", "", "1.5", "0", "-2"])
def test_worker_count_from_env_rejects_bad_values(monkeypatch, raw):
    monkeypatch.setenv("ORIENT_BOOST_THREADS", raw)
    with pytest.raises(ValueError, match="ORIENT_BOOST_THREADS"):
        worker_count_from_env()
