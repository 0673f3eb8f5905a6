import hashlib
import random
from contextlib import contextmanager
from itertools import combinations, permutations
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from orient_boost import designs
from orient_boost.designs import (
    Block,
    BlockKind,
    Decomposition,
    _Budget,
    _cliques,
    _disjoint_cliques,
    _kt_search,
    _splits,
    _triangle_c4_factor,
    adjusted_decomposition,
    decomposition_from_json,
    extend_to_even,
    gcd_identity_holds,
    projective_plane_decomposition,
    steiner_triple_system,
    validate,
)
from orient_boost.errors import (
    BudgetExceededError,
    CongruenceError,
    InfeasibleAtDeskScale,
    InvalidDecompositionError,
)


def complete_edges(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def reference_kt_decomposition(edges, t, node_budget, *, split=False):
    """The set-based lexicographic search: the oracle for the pruned one.

    With `split`, a candidate block is skipped when, once it is removed, the
    residual neighbourhood of some block vertex, the branch vertex first,
    does not split into vertex-disjoint K_(t-1)s.  A split step fails when a
    vertex left has fewer than t-2 neighbours left, and else tries the
    K_(t-1)s through the one with fewest, the lowest among equals.
    Returns (blocks or None, candidate blocks tried, split steps taken).
    """
    adj = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    verts = sorted(adj)
    budget = _Budget(node_budget)
    blocks = []
    candidates = steps = 0

    def cliques_through(u, v):
        def extend(chosen, pool):
            if len(chosen) == t:
                yield tuple(sorted(chosen))
                return
            for idx, w in enumerate(pool):
                if len(pool) - idx < t - len(chosen):
                    break
                yield from extend(chosen + [w], [x for x in pool[idx + 1:] if x in adj[w]])

        yield from extend([u, v], sorted(adj[u] & adj[v]))

    def splits(pool):
        nonlocal steps
        budget.spend()
        steps += 1
        if not pool:
            return True
        degree = {x: len(adj[x] & pool) for x in pool}
        if min(degree.values()) < t - 2:
            return False
        x = min(pool, key=lambda y: (degree[y], y))
        return any(splits(pool - {x, *rest}) for rest in combinations(sorted(adj[x] & pool), t - 2)
                   if all(b in adj[a] for a, b in combinations(rest, 2)))

    def toggle(vs, op):
        for a in vs:
            for b in vs:
                if a != b:
                    op(adj[a], b)

    def search():
        nonlocal candidates
        u = next((u for u in verts if adj[u]), None)
        if u is None:
            return True
        for vs in cliques_through(u, min(adj[u])):
            budget.spend()
            candidates += 1
            toggle(vs, set.discard)
            if not split or all(splits(set(adj[x])) for x in vs):
                blocks.append(vs)
                if search():
                    return True
                blocks.pop()
            toggle(vs, set.add)
        return False

    found = search()
    return ([Block(BlockKind.KT, vs) for vs in blocks] if found else None), candidates, steps


@contextmanager
def counting_nodes():
    """A list that gains one entry per node spent through any _Budget of designs."""
    spent = []

    class CountingBudget(_Budget):
        def spend(self):
            spent.append(None)
            super().spend()

    with mock.patch.object(designs, "_Budget", CountingBudget):
        yield spent


def counted_search(edges, t):
    """_kt_search on the bit rows of the edge list, its blocks as Blocks, with the nodes it spent."""
    adj = [0] * (1 + max((v for e in edges for v in e), default=-1))
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    with counting_nodes() as spent:  # designs._Budget is the counting one inside this block
        blocks = _kt_search(adj, t, designs._Budget(2_000_000))
    return (None if blocks is None else [Block(BlockKind.KT, vs) for vs in blocks]), len(spent)


@pytest.mark.parametrize("n", [7, 9, 13, 15, 19, 21, 25, 27, 31, 33])
def test_steiner_triple_system(n):
    d = steiner_triple_system(n)
    assert len(d.blocks) == n * (n - 1) // 6
    assert all(b.kind == BlockKind.KT for b in d.blocks)
    assert validate(d).ok


@pytest.mark.parametrize("n", [5, 8, 11, 12, 17])
def test_steiner_unsupported_residue(n):
    with pytest.raises(CongruenceError, match="mod 6"):
        steiner_triple_system(n)


def test_projective_plane_order_2_matches_triple_system_shape():
    d = projective_plane_decomposition(2)
    assert d.n == 7 and d.t == 3 and len(d.blocks) == 7
    assert validate(d).ok


def test_projective_plane_order_4():
    d = projective_plane_decomposition(4)
    assert d.n == 21 and d.t == 5 and len(d.blocks) == 21
    assert validate(d).ok
    per_vertex = [0] * 21
    for b in d.blocks:
        for v in b.vertices:
            per_vertex[v] += 1
    assert per_vertex == [5] * 21


def test_projective_plane_order_2_bytes_are_pinned():
    # no DESIGN_SHA256 entry reaches PG(2,2): (7, 3) is built as a Steiner triple system
    text = projective_plane_decomposition(2).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ff8a4ec17cc9ae8737a9e75e1299cc4b0fec7d6ff13114d1cebc71e55ebe4aca")


def _gf_mul(a, b):
    """Product in GF(2), or in GF(4) = GF(2)[x]/(x^2 + x + 1) with elements as bit vectors."""
    prod = 0
    for k in range(2):
        if b >> k & 1:
            prod ^= a << k
    return prod ^ 0b111 if prod & 0b100 else prod


@pytest.mark.parametrize("q", [2, 4])
def test_projective_plane_lines_are_the_zeros_of_a_dot_product(q):
    """Reference construction: the points in the package's order, and the line
    L = (a, b, c) as the points p with L.p = 0, by a plain loop over the field."""
    elems = range(q)
    points = [(1, b, c) for b in elems for c in elems] + [(0, 1, c) for c in elems] + [(0, 0, 1)]

    def dot(u, p):
        acc = 0
        for a, b in zip(u, p):
            acc ^= _gf_mul(a, b)
        return acc

    d = projective_plane_decomposition(q)
    assert (d.n, d.t) == (q * q + q + 1, q + 1)
    assert all(b.kind is BlockKind.KT for b in d.blocks)
    assert [b.vertices for b in d.blocks] == [
        tuple(sorted(i for i, p in enumerate(points) if dot(line, p) == 0)) for line in points]


def test_projective_plane_unsupported_order():
    with pytest.raises(CongruenceError):
        projective_plane_decomposition(3)


def test_backtracking_complete_graphs():
    blocks, _ = counted_search(complete_edges(7), 3)
    assert len(blocks) == 7
    cover = sorted(e for b in blocks for e in b.edges())
    assert cover == complete_edges(7)


def test_backtracking_k11_minus_k5():
    k5 = set(complete_edges(5))
    edges = [e for e in complete_edges(11) if e not in k5]
    blocks, _ = counted_search(edges, 3)
    assert len(blocks) == 15
    cover = sorted(e for b in blocks for e in b.edges())
    assert cover == sorted(edges)


@pytest.mark.parametrize("budget", [0, -3])
def test_non_positive_node_budget_is_rejected(budget):
    with pytest.raises(ValueError, match="node budget"):
        adjusted_decomposition(25, 5, node_budget=budget)


def assert_refused_at(n, t, budget):
    """adjusted_decomposition(n, t) refuses `budget` as InfeasibleAtDeskScale
    naming it, at the first node past the budget, counted over every step."""
    with counting_nodes() as spent, pytest.raises(InfeasibleAtDeskScale) as exc:
        adjusted_decomposition(n, t, node_budget=budget)
    assert len(spent) == budget + 1
    assert str(exc.value) == f"design search at (n={n}, t={t}) exceeded the node budget of {budget} nodes"
    assert type(exc.value.__cause__) is BudgetExceededError


# nodes an unbounded build spends over its layers, K_(2t-1) placement and K_t search,
# a node being one candidate triangle, 4-cycle or clique, one minimal vertex of the
# placement, or one split step
BUILD_NODES = {(9, 5): 2, (11, 3): 143, (17, 3): 770, (25, 5): 2_621}


@pytest.mark.parametrize("n, t", sorted(BUILD_NODES, key=lambda p: (p[1], p[0])))
def test_design_build_spends_one_budget(n, t):
    """Each budget below the nodes of an unbounded build is refused, naming
    it; each budget from there on builds the same design.  Budgets 1-64 pass
    every step's end; above them the budgets go in 16 strides."""
    with counting_nodes() as spent:
        design = adjusted_decomposition(n, t)
    nodes = len(spent)
    assert nodes == BUILD_NODES[n, t]
    assert validate(design).ok
    budgets = {*range(1, 65), *range(1, nodes + 2, -(-nodes // 16)), nodes - 1, nodes, nodes + 1}
    for budget in sorted(b for b in budgets if 1 <= b <= nodes + 1):
        if budget < nodes:
            assert_refused_at(n, t, budget)
        else:
            assert adjusted_decomposition(n, t, node_budget=budget) == design


# nodes spent by the triangle/4-cycle layers of builds that the structure check then
# refuses: (11, 5) peels one layer (q = 3) and (29, 7) two (q = 5); no built design
# runs a layer, since every build in BUILD_NODES has q = 1
LAYER_NODES = {(11, 5): 3, (29, 7): 28}


@pytest.mark.parametrize("n, t", sorted(LAYER_NODES))
def test_a_layer_spends_its_nodes_before_the_structure_check(n, t):
    nodes = LAYER_NODES[n, t]
    for budget in (nodes, None):
        with counting_nodes() as spent, pytest.raises(InfeasibleAtDeskScale, match="vertex-disjoint K_"):
            adjusted_decomposition(n, t, **({} if budget is None else {"node_budget": budget}))
        assert len(spent) == nodes
    for budget in range(1, nodes):
        assert_refused_at(n, t, budget)


def test_design_build_at_23_5_names_the_callers_budget():
    # its triangle/4-cycle layer spends 7 nodes, so budgets 1-6 run out there
    for budget in (*range(1, 41), 20_000):
        assert_refused_at(23, 5, budget)


# The (25,5) design found by the plain lexicographic search, which spent
# 837,572 nodes on it; the seeded samples at n = 25 and 26 depend on it.
GOLDEN_25_5 = (
    (0, 1, 2, 3, 4), (0, 5, 6, 7, 8), (0, 9, 10, 11, 12), (0, 13, 14, 15, 16), (0, 17, 18, 19, 20),
    (0, 21, 22, 23, 24), (1, 5, 9, 13, 17), (1, 6, 10, 14, 21), (1, 7, 11, 18, 22), (1, 8, 15, 19, 23),
    (1, 12, 16, 20, 24), (2, 5, 10, 19, 24), (2, 6, 11, 15, 20), (2, 7, 16, 17, 21), (2, 8, 12, 13, 22),
    (2, 9, 14, 18, 23), (3, 5, 11, 16, 23), (3, 6, 13, 18, 24), (3, 7, 12, 14, 19), (3, 8, 9, 20, 21),
    (3, 10, 15, 17, 22), (4, 5, 14, 20, 22), (4, 6, 12, 17, 23), (4, 7, 9, 15, 24), (4, 8, 10, 16, 18),
    (4, 11, 13, 19, 21), (5, 12, 15, 18, 21), (6, 9, 16, 19, 22), (7, 10, 13, 20, 23), (8, 11, 14, 17, 24),
)


def test_adjusted_25_5_is_the_golden_design():
    text = adjusted_decomposition(25, 5).to_json()
    golden = Decomposition(25, 5, tuple(Block(BlockKind.KT, b) for b in GOLDEN_25_5))
    assert text == golden.to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "95236661bce802d34f2e2fe90383e9b2593530f99da87ce6463166c232eae1d1"
    )
    blocks, spent = counted_search(complete_edges(25), 5)
    assert tuple(b.vertices for b in blocks) == GOLDEN_25_5
    assert spent == 2_621  # the plain search tries 837,572 candidates
    checked, candidates, steps = reference_kt_decomposition(complete_edges(25), 5, 2_000_000, split=True)
    assert checked == blocks and (candidates, steps) == (98, 2_523)


@pytest.mark.parametrize("edges, t, nodes", [
    (complete_edges(7), 3, 49),
    (complete_edges(9), 3, 118),
    (complete_edges(13), 3, 4709),
    (complete_edges(15), 3, 455),
    (complete_edges(21), 5, 336),
    ([e for e in complete_edges(11) if e not in set(complete_edges(5))], 3, 141),
], ids=["K7", "K9", "K13", "K15", "K21-t5", "K11-K5"])
def test_backtracking_matches_reference_on_fixed_graphs(edges, t, nodes):
    want, plain_spent, _ = reference_kt_decomposition(edges, t, 2_000_000)
    checked, candidates, steps = reference_kt_decomposition(edges, t, 2_000_000, split=True)
    got, spent = counted_search(edges, t)
    assert got == want == checked
    assert spent == candidates + steps == nodes
    assert candidates <= plain_spent


@st.composite
def kt_unions(draw):
    """Seeded unions of edge-disjoint K_t blocks (t = 3, 5 or 7) on at most
    13 vertices; for t = 3 and 5, half of them also hold a circulant that
    passes the divisibility checks but is no union of K_t's (C_m, or the
    4-regular C_10(1,2)), laid down before the blocks."""
    t = draw(st.sampled_from([3, 5, 7]))
    n = draw(st.integers(t, 13))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    edges = set()
    sizes = [m for m in {3: (6, 9, 12), 5: (10,), 7: ()}[t] if m <= n]
    if sizes and draw(st.booleans()):
        m = rng.choice(sizes)
        ring = rng.sample(range(n), m)
        edges = {tuple(sorted((ring[i], ring[(i + s) % m])))
                 for i in range(m) for s in ((1,) if t == 3 else (1, 2))}
    for _ in range(60):
        vs = sorted(rng.sample(range(n), t))
        block = {(a, b) for i, a in enumerate(vs) for b in vs[i + 1:]}
        if not block & edges:
            edges |= block
    return sorted(edges), t


@settings(max_examples=150, deadline=None, derandomize=True)
@given(kt_unions())
def test_backtracking_matches_reference_search(case):
    edges, t = case
    want, plain_spent, _ = reference_kt_decomposition(edges, t, 2_000_000)
    checked, candidates, steps = reference_kt_decomposition(edges, t, 2_000_000, split=True)
    got, spent = counted_search(edges, t)
    assert got == want == checked
    assert spent == candidates + steps
    assert candidates <= plain_spent
    if got is not None:
        assert sorted(e for b in got for e in b.edges()) == edges


def test_adjusted_7_3_is_pure():
    d = adjusted_decomposition(7, 3)
    assert len(d.blocks) == 7
    assert all(b.kind == BlockKind.KT for b in d.blocks)
    assert validate(d).ok


def test_adjusted_11_3_has_one_k5():
    d = adjusted_decomposition(11, 3)
    kinds = [b.kind for b in d.blocks]
    assert kinds.count(BlockKind.K2T1) == 1
    assert kinds.count(BlockKind.KT) == 15
    assert validate(d).ok
    # leftover graph degree hits the 3t-5 bound exactly
    k5 = next(b for b in d.blocks if b.kind == BlockKind.K2T1)
    degree = [0] * 11
    for u, v in k5.edges():
        degree[u] += 1
        degree[v] += 1
    assert max(degree) == 4 == 3 * d.t - 5


def test_adjusted_21_5_uses_plane():
    d = adjusted_decomposition(21, 5)
    assert all(b.kind == BlockKind.KT for b in d.blocks)
    assert len(d.blocks) == 21
    assert validate(d).ok


def test_even_refusal_names_the_n_asked_for_and_chains_the_odd_base():
    with pytest.raises(CongruenceError) as exc:
        adjusted_decomposition(4, 5)
    assert str(exc.value) == "n=4 extends the design on n=3: need n >= t, got n=3, t=5"
    assert type(exc.value.__cause__) is CongruenceError


def test_adjusted_13_5_infeasible():
    with pytest.raises(InfeasibleAtDeskScale, match="27 vertices"):
        adjusted_decomposition(13, 5)


def test_adjusted_parameter_errors():
    assert adjusted_decomposition(8, 3) == extend_to_even(adjusted_decomposition(7, 3))
    for t in (-1, 1, 2, 4):  # the K_t search is never reached below odd t = 3
        with pytest.raises(CongruenceError, match=f"need odd t >= 3, got n=9, t={t}"):
            adjusted_decomposition(9, t)
    with pytest.raises(CongruenceError):
        adjusted_decomposition(3, 5)


def complete_rows(n):
    return [((1 << n) - 1) ^ (1 << v) for v in range(n)]


def test_triangle_c4_factor_on_complete_graphs():
    for n in (7, 9, 11, 13):
        adj = complete_rows(n)
        layer = _triangle_c4_factor(adj, n, _Budget(100_000))
        assert layer is not None
        covered = [v for b in layer for v in b.vertices]
        assert sorted(covered) == list(range(n))
        assert sum(1 for b in layer if b.kind == BlockKind.C4) == n % 3
        for b in layer:
            for u, v in b.edges():
                assert adj[u] >> v & 1


def test_triangle_c4_factor_respects_missing_edges():
    # remove one previous layer and ask for another
    n = 9
    adj = complete_rows(n)
    first = _triangle_c4_factor(adj, n, _Budget(100_000))
    for b in first:
        for u, v in b.edges():
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
    assert [a.bit_count() for a in adj] == [n - 3] * n  # one layer costs degree 2
    second = _triangle_c4_factor(adj, n, _Budget(100_000))
    assert second is not None
    for b in second:
        for u, v in b.edges():
            assert adj[u] >> v & 1
        for u, v in b.edges():
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
    assert [a.bit_count() for a in adj] == [n - 5] * n


def reference_triangle_c4_factor(adj, n, budget):
    """The set-based layer search the bit-row one replaced: its oracle."""
    c4_quota = n % 3
    if n - 4 * c4_quota < 0:
        return None
    covered = [False] * n
    out = []

    def search(remaining, c4_left):
        if remaining == 0:
            return c4_left == 0
        v = covered.index(False)
        free = [w for w in range(v + 1, n) if not covered[w]]
        for ia, a in enumerate(free):
            if a not in adj[v] or remaining - 3 < 4 * c4_left:
                continue
            for b in free[ia + 1:]:
                if b not in adj[v] or b not in adj[a]:
                    continue
                budget.spend()
                covered[v] = covered[a] = covered[b] = True
                out.append(Block(BlockKind.C3, (v, a, b)))
                if search(remaining - 3, c4_left):
                    return True
                out.pop()
                covered[v] = covered[a] = covered[b] = False
        if c4_left > 0 and remaining >= 4:
            for ia, a in enumerate(free):
                if a not in adj[v]:
                    continue
                for ib, b in enumerate(free):
                    if ib == ia or b not in adj[a]:
                        continue
                    for c in free:
                        if c <= a or c == b or c not in adj[b] or c not in adj[v]:
                            continue
                        budget.spend()
                        covered[v] = covered[a] = covered[b] = covered[c] = True
                        out.append(Block(BlockKind.C4, (v, a, b, c)))
                        if search(remaining - 4, c4_left - 1):
                            return True
                        out.pop()
                        covered[v] = covered[a] = covered[b] = covered[c] = False
        return False

    return out if search(n, c4_quota) else None


def reference_disjoint_cliques(adj, n, size, count, budget):
    """The set-based disjoint-clique search the bit-row one replaced: its
    oracle, spending one node per minimal vertex tried and one per complete
    candidate clique."""
    used = [False] * n
    found = []

    def extend(chosen, start):
        if len(chosen) == size:
            budget.spend()
            found.append(tuple(chosen))
            if place_next(found[-1][0] + 1):
                return True
            found.pop()
            return False
        for w in range(start, n):
            if used[w] or any(w not in adj[x] for x in chosen):
                continue
            used[w] = True
            chosen.append(w)
            if extend(chosen, w + 1):
                return True
            chosen.pop()
            used[w] = False
        return False

    def place_next(min_start):
        if len(found) == count:
            return True
        for v0 in range(min_start, n):
            if used[v0]:
                continue
            budget.spend()
            used[v0] = True
            if extend([v0], v0 + 1):
                return True
            used[v0] = False
        return False

    return found if place_next(0) else None


def run_budgeted(search, adj, args, nodes):
    """(result, or "exhausted" when the budget ran out; nodes left)."""
    budget = _Budget(nodes)
    try:
        result = search(adj, *args, budget)
    except BudgetExceededError:
        result = "exhausted"
    return result, budget.left


@st.composite
def dense_graphs(draw):
    """A random graph on at most 23 vertices, as bit rows and as neighbour sets."""
    n = draw(st.integers(1, 23))
    keep = draw(st.sampled_from([0.5, 0.8, 0.95, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rows = [0] * n
    for u, v in complete_edges(n):
        if rng.random() < keep:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    sets = [{w for w in range(n) if rows[v] >> w & 1} for v in range(n)]
    return n, rows, sets


NODES = st.one_of(st.integers(1, 300), st.just(20_000))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(dense_graphs(), NODES)
def test_triangle_c4_factor_matches_the_set_based_search(graph, nodes):
    n, rows, sets = graph
    got = run_budgeted(_triangle_c4_factor, rows, (n,), nodes)
    assert got == run_budgeted(reference_triangle_c4_factor, sets, (n,), nodes)
    assert rows == [sum(1 << w for w in s) for s in sets]  # the search only reads the rows


@settings(max_examples=200, deadline=None, derandomize=True)
@given(dense_graphs(), st.integers(2, 7), st.integers(1, 3), NODES)
def test_disjoint_cliques_match_the_set_based_search(graph, size, count, nodes):
    n, rows, sets = graph
    got = run_budgeted(_disjoint_cliques, rows, (n, size, count), nodes)
    assert got == run_budgeted(reference_disjoint_cliques, sets, (n, size, count), nodes)
    assert rows == [sum(1 << w for w in s) for s in sets]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(dense_graphs(), st.integers(1, 6), st.data())
def test_cliques_lists_the_cliques_of_the_pool_in_lexicographic_order(graph, need, data):
    """The lister against itertools: every `need`-subset of the pool, in
    lexicographic order, whose pairs are all edges, joined to the chosen set."""
    n, rows, sets = graph
    pool = data.draw(st.integers(0, (1 << n) - 1))
    chosen = data.draw(st.integers(0, (1 << n) - 1)) & ~pool
    members = [w for w in range(n) if pool >> w & 1]
    want = [chosen | sum(1 << w for w in c) for c in combinations(members, need)
            if all(b in sets[a] for a, b in combinations(c, 2))]
    assert list(_cliques(rows, need, chosen, pool)) == want


@st.composite
def neighbourhoods(draw):
    """(bit rows of a random graph on at most 13 vertices, the neighbourhood
    of vertex 0 as the pool, t in {3, 5, 7}).  Half of them have K_(t-1)s
    laid on a random split of the pool, whose left-over vertices are cut
    from vertex 0, so that both answers come up."""
    t = draw(st.sampled_from([3, 5, 7]))
    n = draw(st.integers(t, 13))
    keep = draw(st.sampled_from([0.5, 0.8, 0.95]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rows = [0] * n
    for u, v in complete_edges(n):
        if rng.random() < keep:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    pool = [w for w in range(n) if rows[0] >> w & 1]
    if draw(st.booleans()):
        rng.shuffle(pool)
        for w in pool[len(pool) - len(pool) % (t - 1):]:
            rows[0] ^= 1 << w
            rows[w] ^= 1
        del pool[len(pool) - len(pool) % (t - 1):]
        for i in range(0, len(pool), t - 1):
            for u, v in combinations(pool[i:i + t - 1], 2):
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return rows, sum(1 << w for w in pool), t


def partitions_into_cliques(rows, pool, size):
    """Every partition of the vertex list `pool` into K_size's of the bit rows, each part a sorted tuple."""
    if not pool:
        return [[]]
    first, rest = pool[0], pool[1:]
    found = []
    for others in combinations(rest, size - 1):
        part = (first, *others)
        if all(rows[a] >> b & 1 for a, b in combinations(part, 2)):
            left = [w for w in rest if w not in others]
            found += [[part, *tail] for tail in partitions_into_cliques(rows, left, size)]
    return found


@settings(max_examples=200, deadline=None, derandomize=True)
@given(neighbourhoods())
def test_splits_matches_the_list_of_every_partition(case):
    """The split check answers whether some partition exists; it finishes at
    the nodes it spent and is refused one node short."""
    rows, pool, t = case
    want = partitions_into_cliques(rows, [w for w in range(len(rows)) if pool >> w & 1], t - 1)
    budget = _Budget(10**6)
    assert _splits(rows, pool, t - 1, budget) == bool(want)
    spent = 10**6 - budget.left
    with pytest.raises(BudgetExceededError):
        _splits(rows, pool, t - 1, _Budget(spent - 1))


def test_smallest_triple_designs():
    d3 = adjusted_decomposition(3, 3)
    assert d3 == Decomposition(3, 3, (Block(BlockKind.KT, (0, 1, 2)),))
    assert adjusted_decomposition(4, 3) == extend_to_even(d3)
    assert validate(extend_to_even(d3)).ok


# sha256 of to_json() for every cheap (n, t) that builds, taken before even n
# and the explicit families moved into adjusted_decomposition; even n was then
# built as extend_to_even(adjusted_decomposition(n - 1, t)).
DESIGN_SHA256 = {
    (5, 3): "a6cc9e8f2c2c0b957e61613a4d3d60d815a3976430fbdd2c4dedca54cc9366ae",
    (6, 3): "effbb6b66ef90d1c0119cf4b5d3a64a6e9ae1256a959c4f294e2da9260ed942c",
    (7, 3): "3b88a390f5b9c1e90531130eab8312faed2789276017ebcaa26d9b3d042b22ad",
    (8, 3): "a51e4f6308ba074216934190bb5ac9ddc1f63537994abeda73915ef7a6586279",
    (9, 3): "fde44c4add305f7e3060cdc58db074de4f7d52b56e389cb6ab8d27920240d22e",
    (10, 3): "6ca59525acbe9decdb292279069f759ef558ee658d4aa1912eaad2479d650521",
    (11, 3): "c728a206e8d898a22a119f145e087a702c8e9aec15218e2859f305f4b313e21e",
    (12, 3): "e20e6b75e003602bb14d64c7d751853c160ad0c7552f960defb0ef72b2a22d4d",
    (13, 3): "4324a2fe5eed390ce4ceff563ddf27b946494f782174d12b08e35e67c4a95f86",
    (14, 3): "3ce8083fa9e13deaefe99f32f03dd95970aef0890fc73828eeccf95df206fa6d",
    (15, 3): "b6a70ab25229935a7499297279ea2f6a67319edb69a41876da1e6244e33c7536",
    (16, 3): "6bd442ceb16543dd7ab1c7afd28145890652dedae93f36812b3a9ee2cc8e1acc",
    (17, 3): "7dadd9784e59e87b93182148e332ef3f282e769a61c6ca3c1e4eddc989e48dab",
    (18, 3): "17521bfd3aa11fd2ffac3d1a8437dca38270eb8884b40b1124ab85a20c39170a",
    (19, 3): "c74c0f9a3f617feceee18f28202380afb6079bae1375f068910f0565327636cf",
    (20, 3): "62128c1f428d060289edd869a4a1a451eda25064a8c91595c879c33da1bd1082",
    (21, 3): "8c4df3a727fce3df399a99660c81dc1848f5e573765fa4aa3a3f7dc331606f9b",
    (22, 3): "eb6208a0f282eeba043f8735ea5deafde14025b82516a7f8fb84cc2689c6cc34",
    (25, 3): "2154f155602797a68964174eb7e010ac18c97a32bb0de04d49c52a425d0a1aeb",
    (26, 3): "8959fd2069f0db59f8ae625e79695cc9c90e07093e6756df310f152f9b8998e7",
    (27, 3): "9658d7401a25fb746eec7806eb8c1b29ded28768955d247835db76ab8c021575",
    (28, 3): "aea8369af103458dc3b7f68834229636ebc5ad8b96d835de92dcf85db62c319c",
    (5, 5): "f9f6d03e79cbfa8ab137724bed781d0e048721684d9772a523a878b4c54e3752",
    (6, 5): "74c0108f03b375bdad2a0c0a123dafc85c521635b7a7c7d75d207326f6d4b204",
    (9, 5): "1a775d493a63301f7a54efa211584fa422ec9211358bec5474ec47cf938cf6fe",
    (10, 5): "0cf5844107cf3587526af51addf90fa51cf8cc8cd39d4cb57caf0a9ec90d2ace",
    (21, 5): "b76a62941df9f4c280fb6c574b54301d4d94e7bd41341bbd3735071b180758bd",
    (22, 5): "cda113d8a53eff5cfc96377c2f15e4ff5ebcfa085963e5a4cf660a1e49495cd4",
    (25, 5): "95236661bce802d34f2e2fe90383e9b2593530f99da87ce6463166c232eae1d1",
    (26, 5): "5ab87d9fab034c2ad87301ce52cfc9a3fb5b2520c5fc274ce8cbd072aa93fc9f",
    (7, 7): "9c3cb011937e627ac0b6ba11775ed1a1151a8557652fc708cb262e09769cb3b9",
    (8, 7): "e53aaa4a21bdb99fe97b5872b3e44556eca1b2b12941e810f99d1f1da9870147",
    (13, 7): "741d5e4f107959020a670de284b9893617b29205a5c2910c5d5618c57fa00924",
    (14, 7): "636c83abb982caec05af78b95e4c2cc70e8f9d5995328aaeebd3f0a4ba9a980d",
}


@pytest.mark.parametrize("n, t", sorted(DESIGN_SHA256, key=lambda p: (p[1], p[0])))
def test_adjusted_design_bytes_are_pinned(n, t):
    text = adjusted_decomposition(n, t).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == DESIGN_SHA256[n, t]


@pytest.mark.parametrize("n, message", [
    (13, "need 3 vertex-disjoint K_9 copies, which requires 27 vertices but n=13"),
    (15, "residual graph at (n=15, t=5) has no K_5-decomposition"),
    (17, "residual graph at (n=17, t=5) has no K_5-decomposition"),
    (19, "could not place 2 disjoint K_9 copies"),
])
def test_adjusted_infeasible_messages_are_pinned(n, message):
    with pytest.raises(InfeasibleAtDeskScale) as exc:
        adjusted_decomposition(n, 5)
    assert str(exc.value) == message


@pytest.mark.parametrize("n, t", [(21, 7), (33, 5)])
def test_refusals_that_only_the_kt_search_reaches_are_pinned(n, t):
    """The K_t search exhausts its space within the default budget: the
    lookahead prunes most here, and None stays None."""
    with pytest.raises(InfeasibleAtDeskScale) as exc:
        adjusted_decomposition(n, t)
    assert str(exc.value) == f"residual graph at (n={n}, t={t}) has no K_{t}-decomposition"


def test_extend_to_even_from_7():
    d = extend_to_even(adjusted_decomposition(7, 3))
    assert d.n == 8
    kinds = [b.kind for b in d.blocks]
    assert kinds.count(BlockKind.STARPATH) == 3
    assert kinds.count(BlockKind.EDGE) == 1
    assert validate(d).ok


def test_extend_to_even_from_21():
    d = extend_to_even(adjusted_decomposition(21, 5))
    assert d.n == 22
    assert sum(1 for b in d.blocks if b.kind == BlockKind.STARPATH) == 10
    assert validate(d).ok


def test_extend_rejects_invalid_input():
    broken = Decomposition(7, 3, steiner_triple_system(7).blocks[1:])
    with pytest.raises(InvalidDecompositionError):
        extend_to_even(broken)


def test_validate_duplicate_triple():
    d = steiner_triple_system(7)
    dup = Decomposition(7, 3, d.blocks + (d.blocks[0],))
    report = validate(dup)
    assert not report.ok
    assert "covered 2 times" in report.first_violation


def test_validate_missing_pair():
    d = steiner_triple_system(7)
    report = validate(Decomposition(7, 3, d.blocks[:-1]))
    assert not report.ok
    assert "never covered" in " ".join(report.failures)


def test_validate_stops_at_a_malformed_t_or_block():
    # neither the cover nor the leftover rules are checked then
    assert validate(Decomposition(4, 3, (Block(BlockKind.KT, (0, 1, 2, 3)),))).failures == (
        "block 0 (KT) has 4 vertices, expected 3",)
    assert validate(Decomposition(4, 4, (Block(BlockKind.C3, (0, 1, 2)),))).failures == (
        "t=4 must be odd and >= 3",)


def test_validate_k2t1_budget_boundary():
    # t=3 allows at most t-1 = 2 size-5 complete blocks
    ok2 = Decomposition(15, 3, (
        Block(BlockKind.K2T1, (0, 1, 2, 3, 4)),
        Block(BlockKind.K2T1, (5, 6, 7, 8, 9)),
    ))
    assert not any("exceed the budget t-1" in f for f in validate(ok2).failures)
    over = Decomposition(15, 3, (
        Block(BlockKind.K2T1, (0, 1, 2, 3, 4)),
        Block(BlockKind.K2T1, (5, 6, 7, 8, 9)),
        Block(BlockKind.K2T1, (10, 11, 12, 13, 14)),
    ))
    assert any("exceed the budget t-1" in f for f in validate(over).failures)


def test_validate_leftover_degree_bound():
    # two K5 blocks sharing a vertex give it leftover degree 8 > 3t-5 = 4
    d = Decomposition(9, 3, (
        Block(BlockKind.K2T1, (0, 1, 2, 3, 4)),
        Block(BlockKind.K2T1, (4, 5, 6, 7, 8)),
    ))
    assert any("max degree" in f for f in validate(d).failures)


def test_validate_even_structure():
    d = extend_to_even(adjusted_decomposition(7, 3))
    # break the hub: recentre one star-path
    blocks = list(d.blocks)
    idx = next(i for i, b in enumerate(blocks) if b.kind == BlockKind.STARPATH)
    l1, c, l2 = blocks[idx].vertices
    blocks[idx] = Block(BlockKind.STARPATH, (c, l1, l2))
    report = validate(Decomposition(8, 3, tuple(blocks)))
    assert not report.ok


def test_decomposition_json_round_trip():
    d = adjusted_decomposition(11, 3)
    back = decomposition_from_json(d.to_json())
    assert back == d
    with pytest.raises(InvalidDecompositionError):
        decomposition_from_json('{"n": 3, "t": 3, "blocks": [{"kind": "K9"}]}')


def test_gcd_identity_for_odd_t():
    assert all(gcd_identity_holds(t) for t in range(3, 100, 2))


@pytest.mark.parametrize("kind,vertices,arcs", [
    (BlockKind.KT, (4, 0, 2), [(4, 0), (4, 2), (0, 2)]),
    (BlockKind.C3, (2, 0, 1), [(2, 0), (0, 1), (1, 2)]),
    (BlockKind.C4, (0, 3, 1, 4), [(0, 3), (3, 1), (1, 4), (4, 0)]),
    (BlockKind.STARPATH, (3, 5, 1), [(3, 5), (5, 1)]),
    (BlockKind.EDGE, (5, 4), [(5, 4)]),
])
def test_block_arcs_follow_the_vertex_order(kind, vertices, arcs):
    block = Block(kind, vertices)
    assert block.arcs() == arcs
    assert block.edges() == [(min(u, v), max(u, v)) for u, v in arcs]


@pytest.mark.parametrize("t", [3, 5, 7])
@pytest.mark.parametrize("kind", list(BlockKind))
def test_block_kind_states_its_size_and_orientation_rule(kind, t):
    pairs = {BlockKind.KT: t * (t - 1) // 2, BlockKind.K2T1: (2 * t - 1) * (t - 1),
             BlockKind.C3: 3, BlockKind.C4: 4, BlockKind.STARPATH: 2, BlockKind.EDGE: 1}[kind]
    block = Block(kind, tuple(range(kind.size(t))))
    assert len(block.arcs()) == len(set(block.edges())) == pairs
    assert kind.complete == (kind in (BlockKind.KT, BlockKind.K2T1))


def single_block_mutations(d):
    """Every design one block away from d: a block dropped, a block duplicated, or one
    vertex of one block swapped for a vertex outside it."""
    blocks = list(d.blocks)
    for b, block in enumerate(blocks):
        yield f"drop {b}", blocks[:b] + blocks[b + 1:]
        yield f"duplicate {b}", blocks + [block]
        for k, x in enumerate(block.vertices):
            for y in range(d.n):
                if y not in block.vertices:
                    vs = block.vertices[:k] + (y,) + block.vertices[k + 1:]
                    yield f"block {b}: {x} -> {y}", blocks[:b] + [Block(block.kind, vs)] + blocks[b + 1:]


MUTATED_DESIGNS = {
    "fano": lambda: steiner_triple_system(7),
    "sts9": lambda: steiner_triple_system(9),
    "even16": lambda: adjusted_decomposition(16, 3),  # star-path and edge blocks
    "pg24": lambda: adjusted_decomposition(21, 5),
}


@pytest.mark.parametrize("name", sorted(MUTATED_DESIGNS))
def test_validate_rejects_every_single_block_mutation(name):
    d = MUTATED_DESIGNS[name]()
    assert validate(d).ok
    for label, blocks in single_block_mutations(d):
        assert not validate(Decomposition(d.n, d.t, tuple(blocks))).ok, f"{name}: {label} passed validation"


PERTURBED_DESIGNS = {
    "sts7": lambda: steiner_triple_system(7),
    "sts9": lambda: steiner_triple_system(9),
    "pg24": lambda: projective_plane_decomposition(4),
    "even8": lambda: extend_to_even(steiner_triple_system(7)),
}


@st.composite
def perturbed_designs(draw):
    """One of PERTURBED_DESIGNS with up to two perturbations: a block dropped or
    duplicated, an EDGE block added, or one vertex of a block moved within or
    outside 0..n-1."""
    d = PERTURBED_DESIGNS[draw(st.sampled_from(sorted(PERTURBED_DESIGNS)))]()
    n, blocks = d.n, list(d.blocks)
    for _ in range(draw(st.integers(0, 2))):
        how = draw(st.sampled_from(["drop", "duplicate", "edge", "move", "out of range"]))
        b = draw(st.integers(0, len(blocks) - 1))
        if how == "drop":
            del blocks[b]
        elif how == "duplicate":
            blocks.append(blocks[b])
        elif how == "edge":
            u, v = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            blocks.append(Block(BlockKind.EDGE, (u, v)))
        else:
            vs = blocks[b].vertices
            k = draw(st.integers(0, len(vs) - 1))
            y = draw(st.integers(0, n - 1) if how == "move" else st.sampled_from([-1, n, n + 5]))
            blocks[b] = Block(blocks[b].kind, vs[:k] + (y,) + vs[k + 1:])
    return Decomposition(n, d.t, tuple(blocks))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(perturbed_designs())
def test_pair_block_index_refuses_exactly_what_validate_finds_not_a_partition(d):
    # the partition part of validate: its t, block and pair failures, listed first
    failures = validate(d).failures
    partition = [f for f in failures if f.startswith(("t=", "block ", "pair "))]
    assert list(failures[:len(partition)]) == partition
    if partition:
        with pytest.raises(InvalidDecompositionError) as err:
            d.pair_block_index()
        assert str(err.value) == f"blocks do not partition the pairs of K_{d.n}: {partition[0]}"
        return
    brute = {pair: b for b, block in enumerate(d.blocks) for pair in block.edges()}
    idx = d.pair_block_index()
    assert {(u, v): idx[u][v] for u in range(d.n) for v in range(d.n) if u != v} == {
        (u, v): brute[min(u, v), max(u, v)] for u in range(d.n) for v in range(d.n) if u != v}
    assert all(idx[v][v] == -1 for v in range(d.n))


# ---------------------------------------------------------------------------
# point-stabiliser orbits, against every permutation of the points
# ---------------------------------------------------------------------------

def brute_stabiliser_orbits(d):
    """Oracle: the orbits on 1..n-1 of the permutations fixing 0 that map each
    block onto a block of its kind, and a coin block's arcs onto that block's
    arcs or all onto their reversal; found among all (n-1)! candidates."""
    by_set = {(b.kind, frozenset(b.vertices)): set(b.arcs()) for b in d.blocks}
    autos = []
    for rest in permutations(range(1, d.n)):
        g = (0, *rest)
        for b in d.blocks:
            target = by_set.get((b.kind, frozenset(g[v] for v in b.vertices)))
            if target is None:
                break
            arcs = {(g[u], g[v]) for u, v in b.arcs()}
            if not b.kind.complete and arcs != target and {(v, u) for u, v in arcs} != target:
                break
        else:
            autos.append(g)
    return sorted({tuple(sorted({g[x] for g in autos})) for x in range(1, d.n)})


@pytest.mark.parametrize("name", ["fano", "pg2", "fano-c3", "even7", "coin6", "6-3", "k5"])
def test_point_stabiliser_orbits_equal_the_brute_search(name, coin_design6, fano_c3):
    d = {"fano": steiner_triple_system(7), "pg2": projective_plane_decomposition(2),
         "fano-c3": fano_c3,
         "even7": extend_to_even(steiner_triple_system(7)), "coin6": coin_design6,
         "6-3": adjusted_decomposition(6, 3),
         "k5": Decomposition(5, 3, (Block(BlockKind.K2T1, (0, 1, 2, 3, 4)),))}[name]
    orbits = designs.point_stabiliser_orbits(d)
    assert orbits == brute_stabiliser_orbits(d)
    assert sorted(x for orbit in orbits for x in orbit) == list(range(1, d.n))


def test_point_stabiliser_orbits_of_the_symmetric_designs():
    # Fano, AG(2,3) and PG(2,4) are 2-transitive; the even extension of STS(9) fixes its hub
    for d in (steiner_triple_system(7), steiner_triple_system(9), projective_plane_decomposition(4)):
        assert designs.point_stabiliser_orbits(d) == [tuple(range(1, d.n))]
    assert designs.point_stabiliser_orbits(adjusted_decomposition(10, 3)) == [(x,) for x in range(1, 10)]


@pytest.mark.parametrize("name", ["fano", "pg2", "fano-c3", "even7", "coin6", "6-3", "k5"])
@settings(max_examples=20, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])  # the fixtures are frozen designs
@given(data=st.data())
def test_point_stabiliser_orbits_follow_a_relabelling_that_fixes_0(name, data, coin_design6, fano_c3):
    # the search's placement order depends on the labels, its orbits must not
    d = {"fano": steiner_triple_system(7), "pg2": projective_plane_decomposition(2),
         "fano-c3": fano_c3,
         "even7": extend_to_even(steiner_triple_system(7)), "coin6": coin_design6,
         "6-3": adjusted_decomposition(6, 3),
         "k5": Decomposition(5, 3, (Block(BlockKind.K2T1, (0, 1, 2, 3, 4)),))}[name]
    sigma = (0, *data.draw(st.permutations(range(1, d.n))))
    moved = Decomposition(d.n, d.t, tuple(Block(b.kind, tuple(sigma[v] for v in b.vertices)) for b in d.blocks))
    images = sorted(tuple(sorted(sigma[x] for x in orbit)) for orbit in designs.point_stabiliser_orbits(d))
    assert designs.point_stabiliser_orbits(moved) == images


def test_point_stabiliser_orbits_of_the_triple_systems_pinned():
    # the orbit lists predate the one search shared with the pattern orbits
    assert designs.point_stabiliser_orbits(steiner_triple_system(13)) == [
        (1, 3, 12), (2, 8, 9), (4, 5, 11), (6, 7, 10)]
    assert designs.point_stabiliser_orbits(steiner_triple_system(15)) == [
        (1, 2, 3, 4), (5,), (6, 7, 8, 9), (10,), (11, 12, 13, 14)]
    assert designs.point_stabiliser_orbits(steiner_triple_system(19)) == [(x,) for x in range(1, 19)]


def test_point_stabiliser_orbits_refuse_what_is_not_a_partition():
    d = Decomposition(4, 3, (Block(BlockKind.C4, (0, 1, 2, 3)), Block(BlockKind.EDGE, (0, 2))))
    with pytest.raises(InvalidDecompositionError, match="pair \\(1,3\\) never covered"):
        designs.point_stabiliser_orbits(d)
