"""Block decompositions of complete graphs.

A decomposition partitions the edge set of K_n into typed blocks, whose
``BlockKind`` states their size and orientation rule once: complete blocks of
size t (KT) or 2t-1 (K2T1), 3- and 4-cycles, and, for even n, a layer of
2-edge star-paths plus one single edge around the last vertex.  The leftover
graph B (union of all C3/C4/K2T1 blocks) must stay sparse: max degree at
most 3t-5, at most n(t-3)/6 triangles, t-3 four-cycles and t-1 copies of
K_{2t-1}.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from .errors import (
    BudgetExceededError,
    CongruenceError,
    InfeasibleAtDeskScale,
    InvalidDecompositionError,
)
from .orientations import _VERTEX_BUDGET, json_int, parsing, searched_orbits


class BlockKind(str, Enum):
    """A block's kind: ``size(t)``, its vertex count at block size t, and its
    orientation rule.  A ``complete`` kind (KT, K2T1) is oriented by the
    regular base of its size under a uniformly random relabelling, any other
    along ``Block.arcs()`` or all reversed, on one fair coin."""

    KT = ("KT", 1, 0, True)
    K2T1 = ("K2T1", 2, -1, True)
    C3 = ("C3", 0, 3, False)
    C4 = ("C4", 0, 4, False)
    STARPATH = ("STARPATH", 0, 3, False)
    EDGE = ("EDGE", 0, 2, False)

    def __new__(cls, value: str, per_t: int, fixed: int, complete: bool):
        kind = str.__new__(cls, value)
        kind._value_ = value
        kind._per_t, kind._fixed, kind.complete = per_t, fixed, complete
        return kind

    def size(self, t: int) -> int:
        return self._per_t * t + self._fixed


@dataclass(frozen=True)
class Block:
    kind: BlockKind
    vertices: tuple[int, ...]

    def arcs(self) -> list[tuple[int, int]]:
        """The block's edges directed along its vertex order.

        (vertices[a], vertices[b]) for every a < b of a complete block, the
        closed cycle of a C3/C4 and the path of a STARPATH/EDGE.  A coin block
        is oriented as these arcs or as their reverse.
        """
        vs = self.vertices
        if self.kind.complete:
            return list(combinations(vs, 2))
        if self.kind is BlockKind.C3 or self.kind is BlockKind.C4:
            return list(zip(vs, vs[1:] + vs[:1]))
        return list(zip(vs, vs[1:]))

    def edges(self) -> list[tuple[int, int]]:
        """Unordered pairs covered by this block, as sorted tuples in the order of ``arcs``."""
        return [(u, v) if u < v else (v, u) for u, v in self.arcs()]


@dataclass(frozen=True)
class Decomposition:
    n: int
    t: int
    blocks: tuple[Block, ...]

    def pair_block_index(self) -> list[list[int]]:
        """Matrix mapping each unordered pair to the index of its covering block,
        and the one partition check of the design's consumers.

        Well-formed blocks whose arcs number n(n-1)/2 in all fill the n x n
        matrix, and a pair covered twice is refused, so none is left
        uncovered.  Else InvalidDecompositionError names the first of
        ``block_failures`` or ``cover_failures``."""
        n = self.n
        failures = block_failures(self)
        arcs = [] if failures else [block.arcs() for block in self.blocks]
        if not failures and sum(map(len, arcs)) == n * (n - 1) // 2:
            idx = [[-1] * n for _ in range(n)]
            for b, block_arcs in enumerate(arcs):
                for u, v in block_arcs:
                    row = idx[u]
                    if row[v] >= 0:  # a pair covered twice
                        raise _not_a_partition(self, cover_failures(self))
                    row[v] = idx[v][u] = b
            return idx
        raise _not_a_partition(self, failures or cover_failures(self))

    def to_json(self) -> str:
        return json.dumps({
            "n": self.n,
            "t": self.t,
            "blocks": [{"kind": b.kind.value, "vertices": list(b.vertices)} for b in self.blocks],
        })


def decomposition_from_json(text: str) -> Decomposition:
    with parsing(InvalidDecompositionError, "decomposition"):
        obj = json.loads(text)
        blocks = tuple(Block(BlockKind(b["kind"]), tuple(map(json_int, b["vertices"]))) for b in obj["blocks"])
        return Decomposition(json_int(obj["n"]), json_int(obj["t"]), blocks)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    failures: tuple[str, ...]

    @property
    def first_violation(self) -> str | None:
        return self.failures[0] if self.failures else None


def _not_a_partition(d: Decomposition, failures: list[str]) -> InvalidDecompositionError:
    return InvalidDecompositionError(f"blocks do not partition the pairs of K_{d.n}: {failures[0]}")


def block_failures(d: Decomposition) -> list[str]:
    """Why t or a block of d is malformed, or [].

    t must be odd and at least 3; each block must have its kind's size
    (``BlockKind.size``), no repeated vertex and no vertex outside 0..n-1.
    No pair is walked.
    """
    failures: list[str] = []
    n, t = d.n, d.t

    if t < 3 or t % 2 == 0:
        failures.append(f"t={t} must be odd and >= 3")

    for b, block in enumerate(d.blocks):
        vs = block.vertices
        want = block.kind.size(t)
        if len(vs) != want:
            failures.append(f"block {b} ({block.kind.value}) has {len(vs)} vertices, expected {want}")
        if len(set(vs)) != len(vs):
            failures.append(f"block {b} repeats a vertex")
        if any(not 0 <= v < n for v in vs):
            failures.append(f"block {b} has a vertex outside 0..{n - 1}")
    return failures


def cover_failures(d: Decomposition) -> list[str]:
    """The pairs of K_n that well-formed blocks of d cover more than once, in
    order, then the first pair they never cover; [] for a partition."""
    n = d.n
    cover: dict[tuple[int, int], int] = {}
    for block in d.blocks:
        for pair in block.edges():
            cover[pair] = cover.get(pair, 0) + 1
    twice = sorted(pair for pair, cnt in cover.items() if cnt > 1)
    failures = [f"pair ({u},{v}) covered {cover[u, v]} times" for u, v in twice]
    if len(cover) != n * (n - 1) // 2:  # fewer, as every covered pair lies in K_n
        u, v = next((u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in cover)
        failures.append(f"pair ({u},{v}) never covered")
    return failures


def validate(d: Decomposition) -> ValidationReport:
    """Check edge-partition exactness, block budgets, and leftover degree."""
    n, t = d.n, d.t
    failures = block_failures(d)
    if failures:
        # the cover is only checked on well-formed blocks
        return ValidationReport(False, tuple(failures))
    failures = cover_failures(d)

    leftover = [b for b in d.blocks if b.kind is BlockKind.C3 or b.kind is BlockKind.C4 or b.kind is BlockKind.K2T1]
    starpaths = [b for b in d.blocks if b.kind == BlockKind.STARPATH]
    single_edges = [b for b in d.blocks if b.kind == BlockKind.EDGE]

    if n % 2 == 1:
        if starpaths or single_edges:
            failures.append("star-path/edge blocks are only allowed for even n")
    else:
        hub = n - 1
        if len(starpaths) != n // 2 - 1 or len(single_edges) != 1:
            failures.append(
                f"even n needs exactly {n // 2 - 1} star-paths and 1 edge block, "
                f"got {len(starpaths)} and {len(single_edges)}"
            )
        for b in starpaths:
            if b.vertices[1] != hub:
                failures.append(f"star-path {b.vertices} is not centered at vertex {hub}")
        for b in single_edges:
            if hub not in b.vertices:
                failures.append(f"edge block {b.vertices} does not touch vertex {hub}")

    c3_count = sum(1 for b in leftover if b.kind == BlockKind.C3)
    c4_count = sum(1 for b in leftover if b.kind == BlockKind.C4)
    big_count = sum(1 for b in leftover if b.kind == BlockKind.K2T1)
    if c3_count * 6 > n * (t - 3):
        failures.append(f"{c3_count} triangle blocks exceed the budget n(t-3)/6 = {n * (t - 3) / 6:g}")
    if c4_count > t - 3:
        failures.append(f"{c4_count} four-cycle blocks exceed the budget t-3 = {t - 3}")
    if big_count > t - 1:
        failures.append(f"{big_count} K_(2t-1) blocks exceed the budget t-1 = {t - 1}")

    # keyed by the leftover blocks' vertices only, so a huge n allocates nothing
    degree: dict[int, int] = {}
    for block in leftover:
        for u, v in block.edges():
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
    worst = max(degree.values(), default=0)
    if worst > 3 * t - 5:
        failures.append(f"leftover graph has max degree {worst} > 3t-5 = {3 * t - 5}")

    return ValidationReport(not failures, tuple(failures))


def point_stabiliser_orbits(d: Decomposition) -> list[tuple[int, ...]]:
    """The orbits on points 1..n-1 of the design automorphisms that fix point
    0, each sorted, listed by least point.

    An automorphism maps each block onto a block of the same kind, so it
    keeps the block-randomised distribution: a coin block is a path or a
    cycle, and a map of its edges onto those of another sends its arcs onto
    that block's arcs or all of them onto their reversal.  So the search
    (``searched_orbits``) labels each pair by its block, of the block's
    kind.  Refuses a design that is not a partition as ``pair_block_index``
    does.
    """
    kinds = [block.kind for block in d.blocks]
    return searched_orbits(d.pair_block_index(), kinds, range(1, d.n), fixed=(0,))


# ---------------------------------------------------------------------------
# explicit families
# ---------------------------------------------------------------------------

def steiner_triple_system(n: int) -> Decomposition:
    """Triple system partitioning E(K_n), for n = 1 or 3 (mod 6), n >= 7.

    n = 3 (mod 6) uses the quasigroup construction on Z_q x {0,1,2} with the
    idempotent operation x*y = (x+y)/2 mod q; n = 1 (mod 6) uses the
    half-idempotent variant on Z_2k x {0,1,2} plus one extra point.
    """
    if n < 7 or n % 6 not in (1, 3):
        raise CongruenceError(f"no triple system at n={n}: need n = 1 or 3 (mod 6), n >= 7")
    triples: list[tuple[int, int, int]] = []
    if n % 6 == 3:
        q = n // 3
        inv2 = (q + 1) // 2

        def pt(x: int, col: int) -> int:
            return x + q * col

        for x in range(q):
            triples.append((pt(x, 0), pt(x, 1), pt(x, 2)))
        for col in range(3):
            for x in range(q):
                for y in range(x + 1, q):
                    z = ((x + y) * inv2) % q
                    triples.append((pt(x, col), pt(y, col), pt(z, (col + 1) % 3)))
    else:
        size = (n - 1) // 3  # even
        half = size // 2

        def op(x: int, y: int) -> int:
            s = (x + y) % size
            return s // 2 if s % 2 == 0 else half + (s - 1) // 2

        def pt(x: int, col: int) -> int:
            return x + size * col

        inf = n - 1
        for x in range(half):
            triples.append((pt(x, 0), pt(x, 1), pt(x, 2)))
        for col in range(3):
            for x in range(half):
                triples.append((inf, pt(half + x, col), pt(x, (col + 1) % 3)))
        for col in range(3):
            for x in range(size):
                for y in range(x + 1, size):
                    triples.append((pt(x, col), pt(y, col), pt(op(x, y), (col + 1) % 3)))
    blocks = tuple(Block(BlockKind.KT, tuple(sorted(tr))) for tr in triples)
    return Decomposition(n, 3, blocks)


_GF4_MUL = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)


def projective_plane_decomposition(q: int) -> Decomposition:
    """Point-line incidence of the order-q projective plane as K_(q+1) blocks.

    Supported orders: q=2 (7 points) and q=4 (21 points); both give odd
    block size t = q+1.
    """
    if q not in (2, 4):
        raise CongruenceError(f"unsupported plane order q={q}: need q in {{2,4}} (odd t=q+1)")
    mul = _GF4_MUL if q == 4 else ((0, 0), (0, 1))
    points = [(1, b, c) for b in range(q) for c in range(q)]
    points += [(0, 1, c) for c in range(q)]
    points.append((0, 0, 1))
    n = len(points)

    blocks = []
    for a, b, c in points:
        # the points p with L.p = 0 over GF(q), addition being XOR; enumerate keeps them sorted
        ra, rb, rc = mul[a], mul[b], mul[c]
        members = tuple(i for i, (x, y, z) in enumerate(points) if not ra[x] ^ rb[y] ^ rc[z])
        if len(members) != q + 1:
            raise InvalidDecompositionError("internal error: line of wrong size")
        blocks.append(Block(BlockKind.KT, members))
    return Decomposition(n, q + 1, tuple(blocks))


# ---------------------------------------------------------------------------
# search machinery
# ---------------------------------------------------------------------------

# Search nodes a design build may spend: the library default and the CLI's
# --node-budget.  A node of the K_t search is a candidate block or a step of
# its split check, so every clique search it makes is counted: a node takes
# about 4 us at (23, 5), which is refused after 7-8 s, and about 3 us at
# (37, 7) (0.17 s for 60,000 nodes).  (25, 5) builds in 2,621 nodes and
# about 7.5 ms (2 vCPUs, Python 3.11.7).  The value is also written into
# every experiment sidecar, whose bytes the tests pin.
NODE_BUDGET = 2_000_000


class _Budget:
    __slots__ = ("left", "nodes")

    def __init__(self, nodes: int):
        self.left = self.nodes = nodes

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise BudgetExceededError("design search", self.nodes + 1, self.nodes, "nodes")


def _kt_search(adj: list[int], t: int, budget: _Budget) -> list[tuple[int, ...]] | None:
    """K_t blocks partitioning the edges of the bit rows `adj`, by lexicographic backtracking.

    Bit w of adj[v] says the edge {v, w} is uncovered; the rows are cleared
    as blocks are placed, and rows of isolated vertices are skipped.  t is
    at least 3, as ``adjusted_decomposition`` requires.  Branches on the
    lexicographically smallest uncovered pair {u, v} and tries the K_t
    blocks through it in lexicographic order.

    Lookahead: once a block is removed, the residual neighbourhood of each
    block vertex x, u first, must split into vertex-disjoint K_(t-1)s of the
    residual graph (``_splits``).  Every residual edge at x must still be
    covered by a K_t through x, and those blocks split the neighbourhood of
    x, so a block that fails the check leaves no solution below it: the
    first decomposition found, and the None result, are those of the plain
    lexicographic search, which tries a superset of these candidates.  The
    candidates are listed lazily; the rows are restored before the lister
    resumes, so it lists what it would have listed at once.

    Returns the blocks as increasing vertex tuples, or None once the search
    space is exhausted.  A node of `budget` is one candidate block or one
    step of a split check, so the lookahead runs inside the budget too: K_25
    at t = 5 takes 98 candidates and 2,523 split steps, where the plain
    search tries 837,572 candidates.
    """
    blocks: list[tuple[int, ...]] = []

    def search(u: int) -> bool:
        # vertices before u have no uncovered edge left, and removals never add one
        while u < len(adj) and not adj[u]:
            u += 1
        if u == len(adj):
            return True
        v = (adj[u] & -adj[u]).bit_length() - 1  # v > u: a neighbour below u would be uncovered
        for vs in _cliques(adj, t, (u, v), adj[u] & adj[v]):
            budget.spend()
            mask = 0
            for x in vs:
                mask |= 1 << x
            for x in vs:
                adj[x] &= ~mask
            if all(_splits(adj, adj[x], t - 1, budget) for x in vs):
                blocks.append(vs)
                if search(u):
                    return True
                blocks.pop()
            for x in vs:
                adj[x] |= mask ^ (1 << x)
        return False

    if search(0):
        return blocks
    return None


def _bits(mask: int):
    """The indices of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def _cliques(adj: list[int], size: int, chosen: tuple[int, ...], pool: int):
    """The K_size vertex sets of the rows `adj` that extend `chosen` by
    vertices of `pool`, lazily and in lexicographic order."""
    need = size - len(chosen)
    if need == 0:
        yield chosen
        return
    while pool.bit_count() >= need:
        low = pool & -pool
        pool ^= low
        w = low.bit_length() - 1
        yield from _cliques(adj, size, chosen + (w,), pool & adj[w])


def _splits(adj: list[int], pool: int, size: int, budget: _Budget) -> bool:
    """Whether the vertex bitset `pool` splits into vertex-disjoint K_size's
    of the rows `adj` (size >= 2).

    Each step spends one node of `budget`.  It fails at once when a pool
    vertex has fewer than size - 1 pool neighbours, and otherwise branches
    on the one with fewest (the lowest among equals), trying the K_size's
    through it in the lexicographic order of ``_cliques``: the fewest-options
    rule of exact cover (D. E. Knuth, "Dancing links", 2000).
    """
    budget.spend()
    if not pool:
        return True
    branch, fewest = -1, pool.bit_count()  # above every degree inside the pool
    for x in _bits(pool):
        degree = (adj[x] & pool).bit_count()
        if degree < size - 1:
            return False
        if degree < fewest:
            branch, fewest = x, degree
    for part in _cliques(adj, size, (branch,), adj[branch] & pool):
        rest = pool
        for x in part:
            rest ^= 1 << x
        if _splits(adj, rest, size, budget):
            return True
    return False


def _triangle_c4_factor(adj: list[int], n: int, budget: _Budget) -> list[Block] | None:
    """Vertex-disjoint triangles plus (n mod 3) four-cycles covering every vertex once.

    Bit w of adj[v] says the edge {v, w} is available; candidates are tried
    lowest vertex first.
    """
    c4_quota = n % 3
    if n - 4 * c4_quota < 0:
        return None
    out: list[Block] = []

    def search(free: int, c4_left: int) -> bool:
        if not free:
            return c4_left == 0
        remaining = free.bit_count()
        v = (free & -free).bit_length() - 1
        free ^= 1 << v
        near = adj[v] & free
        if remaining - 3 >= 4 * c4_left:  # triangles through v, when the 4-cycles still fit
            for _, a, b in _cliques(adj, 3, (v,), near):
                budget.spend()
                out.append(Block(BlockKind.C3, (v, a, b)))
                if search(free ^ (1 << a) ^ (1 << b), c4_left):
                    return True
                out.pop()
        if c4_left > 0 and remaining >= 4:
            for a in _bits(near):
                for b in _bits(free & adj[a]):
                    # the cycle v-a-b-c-v equals v-c-b-a-v; keep a < c
                    for c in _bits(near & adj[b] & ~((2 << a) - 1)):
                        budget.spend()
                        out.append(Block(BlockKind.C4, (v, a, b, c)))
                        if search(free ^ (1 << a) ^ (1 << b) ^ (1 << c), c4_left - 1):
                            return True
                        out.pop()
        return False

    if search((1 << n) - 1, c4_quota):
        return out
    return None


def _disjoint_cliques(adj: list[int], n: int, size: int, count: int,
                      budget: _Budget) -> list[tuple[int, ...]] | None:
    """`count` pairwise vertex-disjoint cliques of the given size, by backtracking.

    Bit w of adj[v] says the edge {v, w} is available.  Symmetry is broken by
    forcing the minimal vertices of successive cliques to increase; the
    cliques through each minimal vertex come from ``_cliques``.  Each minimal
    vertex tried and each candidate clique spends one node, so a placement
    that finds no clique is bounded too.
    """
    found: list[tuple[int, ...]] = []

    def place(free: int) -> bool:
        """Place the rest of the cliques on the bitset `free`, above the last minimal vertex."""
        if len(found) == count:
            return True
        for v0 in _bits(free):
            budget.spend()
            above = free & ~((2 << v0) - 1)
            for vs in _cliques(adj, size, (v0,), adj[v0] & above):
                budget.spend()
                found.append(vs)
                if place(above & ~sum(1 << x for x in vs[1:])):
                    return True
                found.pop()
        return False

    if place((1 << n) - 1):
        return found
    return None


# ---------------------------------------------------------------------------
# the adjusted decomposition pipeline
# ---------------------------------------------------------------------------

def adjusted_decomposition(n: int, t: int, *, node_budget: int = NODE_BUDGET) -> Decomposition:
    """Decompose K_n into K_t blocks plus a bounded sparse leftover.

    Even n is the star-path extension (`extend_to_even`) of the design on
    n-1 vertices.  For odd n, the explicit families come first: the triple
    systems for t = 3 and n = 1 or 3 (mod 6), n >= 7, and PG(2,4) for
    (21, 5).  Otherwise three steps run on one residual graph, kept as bit
    rows: (1) peel (q-1)/2 spanning triangle/4-cycle layers so every degree
    drops to n-q with q = n mod (t-1); (2) remove vertex-disjoint K_(2t-1)
    copies until the edge count is divisible by t(t-1)/2; (3) K_t-decompose
    the rest by lexicographic backtracking (``_kt_search``).  The three
    steps spend one node budget.
    Raises ValueError for a node budget below 1, and InfeasibleAtDeskScale
    when the instance needs more structure than desk-scale search provides
    or the node budget runs out, in any step; the latter names (n, t) and
    the budget, and chains the BudgetExceededError.  An even n's refusal
    names n, then the odd base's refusal, which it chains.  An n over the
    vertex budget raises BudgetExceededError before any row is built.
    """
    if n > _VERTEX_BUDGET:
        raise BudgetExceededError(f"design at n={n}", n, _VERTEX_BUDGET, "vertices")
    if node_budget < 1:
        raise ValueError(f"node budget must be at least 1, got {node_budget}")
    if n % 2 == 0:
        try:
            odd = adjusted_decomposition(n - 1, t, node_budget=node_budget)
        except (CongruenceError, InfeasibleAtDeskScale) as exc:
            raise type(exc)(f"n={n} extends the design on n={n - 1}: {exc}") from exc
        return extend_to_even(odd)
    if t % 2 == 0 or t < 3:
        raise CongruenceError(f"need odd t >= 3, got n={n}, t={t}")
    if n < t:
        raise CongruenceError(f"need n >= t, got n={n}, t={t}")
    if t == 3 and n >= 7 and n % 6 in (1, 3):
        return steiner_triple_system(n)
    if (n, t) == (21, 5):
        return projective_plane_decomposition(4)

    q = n % (t - 1)  # odd, in {1, 3, ..., t-2}, since n is odd and t-1 even
    budget = _Budget(node_budget)
    adj = [((1 << n) - 1) ^ (1 << v) for v in range(n)]  # bit w of adj[v]: edge {v, w} uncovered
    leftover_blocks: list[Block] = []

    def take_leftover(block: Block) -> None:
        leftover_blocks.append(block)
        for u, v in block.edges():
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)

    try:
        for _ in range((q - 1) // 2):
            layer = _triangle_c4_factor(adj, n, budget)
            if layer is None:
                raise InfeasibleAtDeskScale(f"no spanning triangle/4-cycle layer found at (n={n}, t={t})")
            for block in layer:
                take_leftover(block)

        remaining_edges = n * (n - q) // 2
        per_block = t * (t - 1) // 2
        big_edges = (2 * t - 1) * (t - 1)
        k_copies = next(
            k for k in range(t) if (remaining_edges - k * big_edges) % per_block == 0
        )
        if k_copies * (2 * t - 1) > n:
            raise InfeasibleAtDeskScale(
                f"need {k_copies} vertex-disjoint K_{2 * t - 1} copies, which requires "
                f"{k_copies * (2 * t - 1)} vertices but n={n}"
            )
        if k_copies:
            cliques = _disjoint_cliques(adj, n, 2 * t - 1, k_copies, budget)
            if cliques is None:
                raise InfeasibleAtDeskScale(f"could not place {k_copies} disjoint K_{2 * t - 1} copies")
            for vs in cliques:
                take_leftover(Block(BlockKind.K2T1, vs))

        kt_blocks = _kt_search(adj, t, budget)
    except BudgetExceededError as exc:
        raise InfeasibleAtDeskScale(
            f"design search at (n={n}, t={t}) exceeded the node budget of {node_budget} nodes"
        ) from exc
    if kt_blocks is None:
        raise InfeasibleAtDeskScale(
            f"residual graph at (n={n}, t={t}) has no K_{t}-decomposition"
        )

    kt = tuple(Block(BlockKind.KT, vs) for vs in kt_blocks)
    d = Decomposition(n, t, kt + tuple(leftover_blocks))
    report = validate(d)
    if not report.ok:
        raise InvalidDecompositionError(f"internal error: {report.first_violation}")
    return d


def extend_to_even(d: Decomposition) -> Decomposition:
    """Extend a decomposition on odd m vertices to m+1 by star-paths at the new vertex.

    Adds (m-1)/2 star-paths (2i, m, 2i+1) and the single edge {m-1, m}.
    """
    report = validate(d)
    if not report.ok:
        raise InvalidDecompositionError(f"input decomposition invalid: {report.first_violation}")
    m = d.n
    if m % 2 == 0:
        raise CongruenceError("can only extend a decomposition on an odd vertex count")
    extra = [Block(BlockKind.STARPATH, (2 * i, m, 2 * i + 1)) for i in range((m - 1) // 2)]
    extra.append(Block(BlockKind.EDGE, (m - 1, m)))
    return Decomposition(m + 1, d.t, d.blocks + tuple(extra))


def gcd_identity_holds(t: int) -> bool:
    """Divisibility fact the K_(2t-1) removal step relies on, for odd t."""
    return math.gcd((2 * t - 1) * (t - 1), t * (t - 1) // 2) == (t - 1) // 2
