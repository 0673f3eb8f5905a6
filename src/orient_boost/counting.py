"""Labeled-copy counting and expected-copy estimation.

A labeled copy of a pattern H in a tournament T is a permutation of the
vertex set mapping every directed edge of H onto an edge of T.  Under the
block-randomized tournament of a decomposition, the success probability of a
fixed permutation factors over blocks; this module computes that probability
exactly (per-block closed forms for the common shapes, an injection count
for every other complete-block capture, memoised per captured shape with the
block's whole contribution), sums it over all permutations on tiny instances
(``exact_copy_summary``, one chunk for every pattern vertex orbit and every
orbit of the design's point stabiliser, budgeted by the terms it sums), and
estimates it by seeded Monte Carlo otherwise (``estimate_expected_copies``).
Both tally their chunks through one runner, ``_run_chunks``, on one kernel,
or on a worker pool when the first chunk's measured time says that one pays
for itself, into one record of exact partial sums, ``_ExactSums``,
whose one entry ``tally`` adds each distinct term of a fold of ``_FOLD``
copies once, times its count, and whose ``merge`` combines chunks.  A Monte
Carlo chunk's permutations come from ``rng.stream_permutations``, the batched
draw whose scalar oracle is ``stream_for(master, i).permutation(n)``.

``count_embeddings`` is the embedding counter of ``count_labeled_copies``,
``bounds`` and the large complete-block captures of ``CopyKernel``; a
capture of m vertices in a block of size s with at most
``_TABLE_INJECTIONS`` injections is counted instead as the popcount of an
AND of per-arc bitsets over the injections (``_injection_table``, built once
per kernel and (kind, m)): about 1.5 us a shape at t = 5, against 27 us by
backtracking.  ``CopyKernel.ratio(pi, method="enumerate")`` lists injections
instead and stays the independent oracle.  Hamilton cycles and paths are
counted by one walk engine, and ``hamilton_shape`` tells whether a pattern
is one of them under some labelling, so that ``count`` routes it there.  The
engine, ``_covering_walks``, counts the paths through a set F of free
vertices from a start set to an end set, by inclusion-exclusion over the
subsets of F, up to 10 of them packed as lanes of one Python int per vertex,
so a step is a few big-int adds and masks.  From 10 free vertices on, the
adds of a step are planned once per count by Paar's greedy (1997, for the
XOR networks of Reed-Solomon encoders): the pair of in-neighbours that the
most vertices both sum is added once and shared, until no pair is shared.
On the 16-vertex tournament of the cycle pin a step then takes 1,232 adds
over its 32 chunks instead of 1,920.  Hamilton paths take every vertex
for F and for both sets; a Hamilton cycle passes vertex 0 once, so the
cycles are the paths over 1..n-1 from out(0) to in(0).  A lane is exactly as
wide as Brégman's bound on the count (``_hamilton_bits``) and the carries of
one step need: 36 bits for the cycles of a 16-vertex tournament with row
sums 7 and 8, 55 for the paths of a 20-vertex one.  Its measured cost, and
that of every other budget, is in the README's budgets table.
"""

from __future__ import annotations

import math
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import combinations, compress, count, islice, permutations
from operator import itemgetter

from .designs import BlockKind, Decomposition, point_stabiliser_orbits
from .errors import BudgetExceededError
from .orientations import Orientation, Tournament, local_shapes, vertex_orbits
from .rng import stream_permutations
from .sampling import BaseTournaments, checked_pair_index

# ---------------------------------------------------------------------------
# exact counting in a fixed tournament
# ---------------------------------------------------------------------------

def count_embeddings(edges, m: int, rows) -> int:
    """Injective maps of vertices 0..m-1 into the tournament with bit rows ``rows``
    that send every edge (u, v) onto an edge.

    Backtracking over the vertices on edges, each component grown from its
    highest-degree vertex, so every later vertex of a component has an
    earlier neighbour.  The candidates at each depth form one bitset: the
    unused vertices, ANDed with the row of every earlier tail and the
    complement of the row of every earlier head (in a tournament, the
    complement of a row minus the used vertices is exactly the
    in-neighbourhood).  The last depth is a popcount; vertices on no edge
    multiply the count by the injections of the free slots.
    """
    size = len(rows)
    if m > size:
        return 0
    adj: list[set[int]] = [set() for _ in range(m)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    order: list[int] = []
    seen = [False] * m
    for start in sorted(range(m), key=lambda v: -len(adj[v])):
        if seen[start] or not adj[start]:
            continue
        queue = [start]
        seen[start] = True
        while queue:
            u = queue.pop()
            order.append(u)
            for w in sorted(adj[u], key=lambda v: -len(adj[v])):
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
    placed = len(order)
    free = math.perm(size - placed, m - placed)
    if not placed:
        return free

    depth_of = {u: k for k, u in enumerate(order)}
    # tails[k]/heads[k]: depths of the earlier vertices with an edge into/out of order[k]
    tails: list[list[int]] = [[] for _ in order]
    heads: list[list[int]] = [[] for _ in order]
    for u, v in edges:
        du, dv = depth_of[u], depth_of[v]
        if du < dv:
            tails[dv].append(du)
        else:
            heads[du].append(dv)
    full = (1 << size) - 1
    last = placed - 1
    placed_rows = [0] * placed

    def rec(depth: int, used: int) -> int:
        cand = full & ~used
        for k in tails[depth]:
            cand &= placed_rows[k]
        for k in heads[depth]:
            cand &= ~placed_rows[k]
        if depth == last:
            return cand.bit_count()
        total = 0
        while cand:
            low = cand & -cand
            cand ^= low
            placed_rows[depth] = rows[low.bit_length() - 1]
            total += rec(depth + 1, used | low)
        return total

    return rec(0, 0) * free


def count_labeled_copies(h: Orientation, t: Tournament, *, budget_n: int = 10) -> int:
    """Number of vertex permutations mapping every edge of h onto an edge of t.

    The spanning case of ``count_embeddings``, and the oracle of the walk
    counts; the unlabeled count is this divided by aut(h).  An n over
    ``budget_n`` raises BudgetExceededError.
    """
    if h.n != t.n:
        raise ValueError(f"pattern has {h.n} vertices, tournament has {t.n}")
    if h.n > budget_n:
        raise BudgetExceededError(f"brute-force count at n={h.n}", h.n, budget_n, "vertices")
    return count_embeddings(h.edges, h.n, t.rows)


def hamilton_shape(h: Orientation) -> str | None:
    """"cycle" or "path" when h is a directed Hamilton cycle or path under
    some labelling, else None.

    Such an h has n or n - 1 edges, no two leaving one vertex and no two
    entering one, and the walk along them from the vertex nothing enters
    (from 0 for a cycle) visits all n vertices before it stops or returns.
    """
    shape = {h.n - 1: "path", h.n: "cycle"}.get(h.edge_count)
    succ = dict(h.edges)
    entered = set(succ.values())
    if shape is None or len(succ) != h.edge_count or len(entered) != h.edge_count:
        return None
    start = min(set(range(h.n)) - entered, default=0)
    v, seen = succ.get(start), 1
    while v is not None and v != start:
        v, seen = succ.get(v), seen + 1
    return shape if seen == h.n else None


_LANE_VERTICES = 10  # free vertices whose subsets share one int, one lane each
_HAMILTON_BUDGET = 20  # largest n measured; timings in the README's budgets table
_SHARED_SUMS_FROM = 10  # free vertices from which a count plans shared sums; README budgets table
# bit_length(r!), and bit_length(r!)/r over one common denominator, for every
# row sum r the Brégman bound meets: at most the number of free vertices
_FACTORIAL_BITS = tuple(math.factorial(r).bit_length() for r in range(_HAMILTON_BUDGET + 1))
_BREGMAN_DEN = math.lcm(*range(1, _HAMILTON_BUDGET + 1))
_BREGMAN_TERMS = tuple(bits * _BREGMAN_DEN // r if r else 0 for r, bits in enumerate(_FACTORIAL_BITS))


@lru_cache(maxsize=64)
def _members(mask: int) -> tuple[int, ...]:
    """The vertices of a vertex bitset, lowest first."""
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def _hamilton_bits(rows, free: int, starts: int, ends: int) -> int:
    """Bits that hold the walks of ``_covering_walks(rows, free, starts, ends)``:
    the count is below 2^bits.

    Such a walk is a Hamilton cycle through the free vertices F and one added
    vertex z with arcs z -> starts and ends -> z, and a cycle is one
    permutation term of the adjacency permanent.  So by Brégman's theorem
    (1973) log2 of the count is at most the sum of log2(r!)/r over the row
    sums r, |out(v) & F| + [v in ends] for v in F and |starts & F| for z,
    which is below the sum of bit_length(r!)/r, rounded up here over a
    common denominator.  A row sum of 0 leaves no walk, and 0 bits.  The
    result is one bit above the bound, and never more than the bits of |F|!
    walks.
    """
    sums = [(rows[v] & free | ends & 1 << v).bit_count() for v in _members(free)]  # no row holds its own bit
    sums.append((starts & free).bit_count())
    if 0 in sums:
        return 0
    scaled = sum(map(_BREGMAN_TERMS.__getitem__, sums))
    return min(-(-scaled // _BREGMAN_DEN) + 1, _FACTORIAL_BITS[len(sums) - 1] + 1)


@dataclass(frozen=True)
class _Lanes:
    """Lane layout of the covering-walk count for f free vertices and ``bits``.

    Counts are kept modulo 2^bits, from ``_hamilton_bits``.  A lane is
    ``width`` = bits + bit_length(f) bits wide: the guard bits hold the
    carries of a sum of up to f + 1 masked lanes.  Lane s holds the subset s
    of the k lowest free vertices; ``member[j]`` keeps the lanes holding free
    vertex j.  ``start[p]`` holds each lane's inclusion-exclusion sign when
    p of the higher free vertices are left out as well: 1 where an even
    number of free vertices is left out, else 2^bits - 1, which is -1.
    ``fold[j]`` is (shift, mask) of the j-th pairwise fold, whose mask keeps
    the blocks of 2^j lanes without free vertex j.
    """

    bits: int
    width: int
    k: int
    full: int
    member: tuple[int, ...]
    start: tuple[int, int]
    fold: tuple[tuple[int, int], ...]


def _repeat(block: int, width: int, count: int) -> int:
    """``count`` copies of the ``width``-bit ``block``, end to end."""
    return block * (((1 << width * count) - 1) // ((1 << width) - 1))


@lru_cache(maxsize=64)
def _lane_layout(f: int, bits: int) -> _Lanes:
    width = bits + f.bit_length()
    k = min(_LANE_VERTICES, f)
    one = _repeat(1, width, 1 << k)
    full = ((1 << bits) - 1) * one
    fold = tuple((width << j, _repeat((1 << (width << j)) - 1, width << j + 1, 1 << (k - 1 - j)))
                 for j in range(k))
    # lanes whose subset has an even/odd number of the k vertices, doubled one vertex at a time
    even, odd = (1 << bits) - 1, 0
    for shift, _ in fold:
        even, odd = even | odd << shift, odd | even << shift
    plus = odd if k % 2 else even  # the lanes leaving out an even number
    return _Lanes(bits=bits, width=width, k=k, full=full,
                  member=tuple(full & mask << shift for shift, mask in fold),
                  start=(one & plus | full ^ plus, one & ~plus | plus), fold=fold)


def _lane_sum(x: int, lay: _Lanes) -> int:
    """Sum of the lanes of x, folded pairwise: each fold adds the odd blocks
    of 2^j lanes onto the even ones, so a sum is one bit wider per fold and
    always fits its doubled block."""
    for shift, mask in lay.fold:
        x = (x & mask) + (x >> shift & mask)
    return x


def _covering_walks(rows, free: int, starts: int, ends: int) -> int:
    """Walks in the digraph with bit rows ``rows`` that visit every vertex of
    the bitset ``free`` exactly once and no other, starting in ``starts`` and
    ending in ``ends``: its Hamilton paths on ``free`` between those sets.

    Inclusion-exclusion over the free vertices F (Karp 1982): the count is
    the sum over S of F of (-1)^(|F|-|S|) times the walks of |F| - 1 steps
    that stay inside S.  Each free vertex holds one int whose lanes count,
    for every subset of the k lowest free vertices, the signed walks ending
    there, modulo 2^bits of ``_hamilton_bits``, which is above the true
    count.  A walk of no steps stands on a vertex of ``starts`` with its
    lane's sign, 1 or 2^bits - 1; a step is Y[w] = (sum of X[v] over v -> w)
    & mask[w], the sum seeded by its first term, and a vertex with no active
    in-neighbour gets mask 0.  From ``_SHARED_SUMS_FROM`` free vertices on,
    the sums share the pair sums of ``_shared_sums``, added first in each
    step; a partial sum holds at most |F| masked lanes, within the guard
    bits.  The higher free vertices are fixed per chunk, present or absent;
    an absent one drops out, from the shared sums too (``_chunk_sums``), and
    flips the signs.  Each chunk adds its walks ending in ``ends`` to one
    accumulator modulo 2^bits, whose lanes are summed once: the sum modulo
    2^bits is the count itself.  0 bits means there is none.
    """
    bits = _hamilton_bits(rows, free, starts, ends)
    if not bits:
        return 0
    verts = _members(free)
    f = len(verts)
    lay = _lane_layout(f, bits)
    full = lay.full
    at = {1 << v: i for i, v in enumerate(verts)}
    ins = [[] for _ in verts]  # by index in verts: the free in-neighbours, ascending
    for i, v in enumerate(verts):
        out = rows[v] & free
        while out:
            w = out & -out
            ins[at[w]].append(i)
            out ^= w
    plan = _shared_sums(ins) if f >= _SHARED_SUMS_FROM else ((), ins, ())
    low, high = verts[:lay.k], verts[lay.k:]
    acc = 0
    for chunk in range(1 << len(high)):
        kept = tuple(v for j, v in enumerate(high) if chunk >> j & 1)
        act = low + kept
        masks = lay.member + (full,) * len(kept)
        # with no high vertex every vertex is present, and x is indexed as the plan's operands
        pairs, sums = _chunk_sums(plan, chunk << lay.k | (1 << lay.k) - 1) if high else plan[:2]
        steps = [(s[0], s[1:], m) if s else (0, (), 0) for s, m in zip(sums, masks)]
        sign = lay.start[(len(high) - len(kept)) % 2]
        x = [sign & m if starts >> v & 1 else 0 for v, m in zip(act, masks)]
        for _ in range(f - 1):
            for a, b in pairs:
                x.append(x[a] + x[b])
            get = x.__getitem__
            x = [sum(map(get, rest), x[first]) & m for first, rest, m in steps]
        acc = (acc + sum(compress(x, [ends >> v & 1 for v in act]))) & full
    return _lane_sum(acc, lay) % (1 << bits)


def _shared_sums(ins: list[list[int]]) -> tuple[list[tuple[int, int]], list[list[int]], list[int]]:
    """A plan of shared pair sums for the targets w that sum the operands
    ``ins[w]``, drawn from 0..f-1 with f = len(ins): Paar's greedy (1997).
    While some pair of operands is summed by two targets or more, the pair
    summed by the most (the first counted, on a tie) becomes operand f + c for
    the c-th op, in place of both in each of those targets.

    Returns the ops, the operands left to each target, and for each op the
    bitset of the targets whose sum passes through it.  Expanded through the
    ops, the operands of target w are ``ins[w]``, each once.  ``cols[o]``
    holds the targets that sum operand o directly, so a pair's count is the
    popcount of an AND, and a new op changes only the counts of its pair
    and its own.
    """
    f = len(ins)
    terms = [list(s) for s in ins]
    cols = [0] * f
    for w, s in enumerate(ins):
        for o in s:
            cols[o] |= 1 << w
    count = {}
    for a, b in combinations(range(f), 2):
        if (both := (cols[a] & cols[b]).bit_count()) > 1:
            count[a, b] = both
    ops = []
    while count:
        a, b = top = max(count, key=count.__getitem__)
        both, c = cols[a] & cols[b], len(cols)
        ops.append(top)
        cols[a] ^= both
        cols[b] ^= both
        cols.append(both)
        del count[top]
        near = set()  # the operands summed with a and b, whose counts with them and c change
        for w in range(f):
            if both >> w & 1:
                terms[w].remove(a)
                terms[w].remove(b)
                near.update(terms[w])
                terms[w].append(c)
        for x in (a, b, c):
            for o in near:
                key = (o, x) if o < x else (x, o)
                if (shared := (cols[o] & cols[x]).bit_count()) > 1:
                    count[key] = shared
                else:
                    count.pop(key, None)
    through = cols[f:]
    for c in reversed(range(len(ops))):
        for o in ops[c]:
            if o >= f:
                through[o - f] |= through[c]
    return ops, terms, through


def _chunk_sums(plan, live: int) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """The plan of ``_shared_sums`` in a chunk where only the free vertices
    of the bitset ``live`` are present, and x[j] holds the lanes of the j-th:
    the pair sums to append to x in turn, and the slots of x that each
    present target sums.  An op that no present target passes through is
    dropped, and so is one with both operands absent; one with a single
    absent operand stands for the other."""
    ops, terms, through = plan
    f = len(terms)
    slot = [None] * (f + len(ops))
    present = [i for i in range(f) if live >> i & 1]
    for j, i in enumerate(present):
        slot[i] = j
    pairs = []
    for c, (a, b) in enumerate(ops, f):
        if through[c - f] & live:
            sa, sb = slot[a], slot[b]
            if sa is None or sb is None:
                slot[c] = sb if sa is None else sa
            else:
                slot[c] = len(present) + len(pairs)
                pairs.append((sa, sb))
    return pairs, [[s for s in map(slot.__getitem__, terms[i]) if s is not None] for i in present]


def count_hamilton_cycles(t: Tournament) -> int:
    """Directed Hamilton cycles.  Each passes vertex 0 once, so they are the
    paths over 1..n-1 from out(0) to in(0), counted by ``_covering_walks``."""
    if t.n > _HAMILTON_BUDGET:
        raise BudgetExceededError(f"Hamilton cycle count at n={t.n}", t.n, _HAMILTON_BUDGET, "vertices")
    if t.n < 3:
        return 0
    rest = (1 << t.n) - 2
    return _covering_walks(t.rows, rest, t.rows[0], rest & ~t.rows[0])


def count_hamilton_paths(t: Tournament) -> int:
    """Directed Hamilton paths, from every start vertex to every end vertex,
    counted by ``_covering_walks``."""
    if t.n > _HAMILTON_BUDGET:
        raise BudgetExceededError(f"Hamilton path count at n={t.n}", t.n, _HAMILTON_BUDGET, "vertices")
    every = (1 << t.n) - 1
    return _covering_walks(t.rows, every, every, every)


# ---------------------------------------------------------------------------
# per-permutation block statistics and success probability
# ---------------------------------------------------------------------------

# A complete-block capture of m vertices in a block of size s is counted from
# the (kind, m) injection table while perm(s, m) is at most this, and by
# count_embeddings above it.  Measured on 2 vCPUs, Python 3.11.7: a table of
# perm(9, 5) = 15120 injections builds in about 6 ms, the time of about 20
# backtracking counts of 0.3 ms, and one Monte Carlo chunk at t = 5 meets about
# 240 distinct shapes; past 2^14 the build grows with perm(s, m) (33 ms at
# perm(9, 6), 0.2 s at perm(9, 9)) while a backtracking count stays under 1 ms.
_TABLE_INJECTIONS = 1 << 14
_INJECTION_BUDGET = 500_000  # a capture with more injections is refused, on every path


def _injection_table(rows, m: int) -> list[int]:
    """Arc bitsets of the injections of 0..m-1 into the tournament with bit rows ``rows``.

    Entry a * m + b has bit i set when the i-th injection of
    ``permutations(range(size), m)`` sends a -> b onto an edge, so the
    injections that embed a shape are the AND of its arcs' entries.  With
    ``at[a][x]`` the injections sending a to x, arc (a, b) is the union over
    x of ``at[a][x]`` intersected with the injections sending b into the row
    of x.  The sets united are disjoint, so they are summed.
    """
    size = len(rows)
    digit = [bytes(48 + (v == x) for v in range(256)) for x in range(size)]  # "1" at byte x
    at = []
    for a in range(m):
        # the column of a, injection 0 last, so that it lands on bit 0
        column = bytes(map(itemgetter(a), permutations(range(size), m)))[::-1]
        at.append([int(column.translate(digit[x]), 2) for x in range(size)])
    table = [0] * (m * m)
    for b in range(m):
        into = [sum(at[b][y] for y in range(size) if rows[x] >> y & 1) for x in range(size)]
        for a in range(m):
            if a != b:
                table[a * m + b] = sum(at[a][x] & into[x] for x in range(size))
    return table


def _table_count(table: list[int], edges, m: int) -> int:
    """Injections that send every edge (a, b) onto an edge: the AND of the arcs' bitsets."""
    (a, b), *rest = edges
    hits = table[a * m + b]
    for a, b in rest:
        hits &= table[a * m + b]
    return hits.bit_count()


@dataclass(frozen=True)
class CopyBlockStats:
    """Captures of a labeled copy inside single blocks.

    c/i: induced consistent/inconsistent pairs landing in one block;
    f/g: cyclic/transitive triangles landing in one block; typical means no
    non-complete-t block holds two edges and no size-t block holds three
    edges other than a triangle.
    """

    c: int
    i: int
    f: int
    g: int
    typical: bool


@dataclass(frozen=True)
class ExactSummary:
    expectation: Fraction
    ratio: Fraction
    typical_fraction: Fraction
    capture_averages: tuple[Fraction, Fraction, Fraction, Fraction]


class CopyKernel:
    """Per-permutation machinery for one (pattern, decomposition, bases) triple.

    One pass over the blocks a copy touches gives both the success ratio and
    the capture statistics.  Single-edge blocks contribute nothing; an
    induced pair in a size-t block is a closed-form factor, multiplied as an
    integer numerator and denominator; a coin block is tested against its
    arc set, built on the block's first capture.  Every other complete-block
    capture is looked up in one memo, keyed by the block's kind (which fixes
    its size) and its captured edges relabelled by first appearance, whose entry
    holds the block's whole contribution: numerator, denominator, capture
    counts and whether the copy stays typical.  On a
    miss a triangle in a size-t block takes its closed form; any other shape
    of m vertices first checks ``perm(size, m)`` against
    ``_INJECTION_BUDGET`` (as ``ratio(pi, method="enumerate")`` does), then
    counts its injections from the (kind, m) injection table while
    ``perm(size, m) <= _TABLE_INJECTIONS``, and with ``count_embeddings``
    above, which alone reaches the spanning K9 captures of (9,5).  The memo
    and the tables belong to the instance, since callers may pass their own
    bases; the calling process keeps one kernel for every chunk it tallies,
    and so does each pool worker.  Bases
    that do not fit t and a design that is not a partition of K_n are refused
    before any term by ``sampling.checked_pair_index``, which builds the index.
    """

    def __init__(self, h: Orientation, d: Decomposition, bases: BaseTournaments | None = None):
        if h.n != d.n:
            raise ValueError(f"pattern has {h.n} vertices, decomposition has {d.n}")
        self.d = d
        self.bases = bases if bases is not None else BaseTournaments.circulant(d.t)
        self.pair_block = checked_pair_index(d, self.bases)
        self.n = h.n
        self._vertices = frozenset(range(h.n))
        self.h_edges = sorted(h.edges)
        self.e = len(self.h_edges)
        self.block_kind = [b.kind for b in d.blocks]
        self._closed = capture_factors(d.t)
        # keyed in the order of h_edges, the order in which groups lists a block's edges
        self._pair_capture, self._triangle_capture = local_shapes(self.h_edges)
        self._memo: dict[tuple, tuple[int, int, tuple, bool]] = {}
        self._tables: dict[tuple, list[int]] = {}
        self._coin_arcs: dict[int, frozenset[tuple[int, int]]] = {}  # built on a coin block's first capture

    # -- grouping ----------------------------------------------------------

    def groups(self, pi) -> dict[int, list[tuple[int, int]]]:
        """H-edges keyed by the index of the block covering their image; pi is checked."""
        self._check_permutation(pi)
        out: dict[int, list[tuple[int, int]]] = {}
        pair_block = self.pair_block
        for edge in self.h_edges:
            bid = pair_block[pi[edge[0]]][pi[edge[1]]]
            group = out.get(bid)
            if group is None:
                out[bid] = [edge]
            else:
                group.append(edge)
        return out

    # -- the one pass --------------------------------------------------------

    def _terms(self, pi) -> tuple[int, int, tuple[int, int, int, int], bool]:
        """(numerator, denominator, (c, i, f, g), typical) of one copy; not reduced.

        The copy's edges are keyed by block id, and a block keeps only its
        first edge until a second arrives: single-edge blocks contribute
        nothing, and a copy with no other block returns at once.
        """
        first: dict[int, tuple[int, int]] = {}
        groups: dict[int, list[tuple[int, int]]] = {}  # the blocks holding two or more edges
        pair_block = self.pair_block
        for edge in self.h_edges:
            bid = pair_block[pi[edge[0]]][pi[edge[1]]]
            held = first.setdefault(bid, edge)
            if held is not edge:
                group = groups.get(bid)
                if group is None:
                    groups[bid] = [held, edge]
                else:
                    group.append(edge)
        if not groups:
            return 1, 1, (0, 0, 0, 0), True
        num = den = 1
        caps = [0, 0, 0, 0]
        typical = True
        pair_capture = self._pair_capture
        block_kind = self.block_kind
        memo = self._memo
        for bid, group in groups.items():
            m = len(group)
            kind = block_kind[bid]
            if kind is BlockKind.KT and m == 2:
                # an induced pair, or two disjoint edges (factor 1)
                shape = pair_capture.get((group[0], group[1]))
                if shape is not None:
                    caps[shape] += 1
                    a, b = self._closed[shape]
                    num *= a
                    den *= b
                continue
            if kind is BlockKind.KT or kind is BlockKind.K2T1:
                key, verts = self._complete_shape(bid, group)
                entry = memo.get(key)
                if entry is None:
                    entry = self._block_entry(bid, group, key, verts)
                a, b, deltas, block_typical = entry
                for k, x in deltas:
                    caps[k] += x
                typical = typical and block_typical
            else:
                typical = False
                for k in self._capture_shapes(group):
                    caps[k] += 1
                a, b = self._coin_hits(bid, group, pi) << (m - 1), 1
            num *= a
            den *= b
        return num, den, tuple(caps), typical

    def _capture_shapes(self, group) -> list[int]:
        """[c, i, f, g] indices of the induced pairs and triangles among a group's edges."""
        pair_capture = self._pair_capture
        triangle_capture = self._triangle_capture
        found = [pair_capture.get(pair) for pair in combinations(group, 2)]
        found += [triangle_capture.get(tri) for tri in combinations(group, 3)]
        return [k for k in found if k is not None]

    def _block_entry(self, bid: int, group, key: tuple, m: int) -> tuple[int, int, tuple, bool]:
        """Memo entry of a complete block's capture: (numerator, denominator,
        ((capture index, count), ...), typical).  Every pattern edge between two
        vertices the block holds lies in the block, so the captures are those
        of the shape the key names."""
        shapes = self._capture_shapes(group)
        deltas = tuple((k, shapes.count(k)) for k in sorted(set(shapes)))
        kind, mapped = key
        if kind is BlockKind.KT and len(group) == 3 and shapes and shapes[0] >= 2:
            # three edges forming one triangle, none of its pairs induced
            entry = (*self._closed[shapes[0]], deltas, True)
        else:
            rows, total = self._base_injections(bid, key, m)
            if total <= _TABLE_INJECTIONS:
                table = self._tables.get((kind, m))
                if table is None:
                    table = self._tables[kind, m] = _injection_table(rows, m)
                hits = _table_count(table, mapped, m)
            else:
                hits = count_embeddings(mapped, m, rows)
            entry = (hits << len(group), total, deltas, False)
        self._memo[key] = entry
        return entry

    def _check_permutation(self, pi) -> None:
        """Refuse a pi that is not a permutation of range(n): a repeated or
        out-of-range image would be read as some other block."""
        if len(pi) != self.n:
            raise ValueError("permutation, pattern, and decomposition sizes must agree")
        if set(pi) != self._vertices:
            raise ValueError(f"pi is not a permutation of range({self.n})")

    def ratio_and_stats(self, pi) -> tuple[Fraction, CopyBlockStats]:
        self._check_permutation(pi)
        num, den, caps, typical = self._terms(pi)
        return Fraction(num, den), CopyBlockStats(*caps, typical)

    def block_stats(self, pi) -> CopyBlockStats:
        return self.ratio_and_stats(pi)[1]

    def ratio(self, pi, *, method: str = "auto") -> Fraction:
        """Success probability of the copy, scaled by 2^e(H).

        ``method="enumerate"`` skips the closed forms and the memo: every
        block, single edges included, is enumerated afresh, so it serves as
        an independent oracle for the default ``"auto"``.
        """
        if method == "auto":
            return self.ratio_and_stats(pi)[0]
        if method != "enumerate":
            raise ValueError(f"unknown method {method!r}; use 'auto' or 'enumerate'")
        result = Fraction(1)
        for bid, group in self.groups(pi).items():
            if self.block_kind[bid].complete:
                hits, total = self._injection_hits(bid, *self._complete_shape(bid, group))
            else:
                hits, total = self._coin_hits(bid, group, pi), 2
            result *= Fraction(hits, total) * (1 << len(group))
        return result

    def probability(self, pi, *, method: str = "auto") -> Fraction:
        return self.ratio(pi, method=method) / (1 << self.e)

    # -- per-block success probabilities ------------------------------------

    def _coin_hits(self, bid: int, group, pi) -> int:
        """Coin outcomes (of two) of a cycle/star-path/edge block that orient every captured edge."""
        arcs = self._coin_arcs.get(bid)
        if arcs is None:
            arcs = self._coin_arcs[bid] = frozenset(self.d.blocks[bid].arcs())
        mapped = [(pi[u], pi[v]) for u, v in group]
        return all(e in arcs for e in mapped) + all((v, u) in arcs for u, v in mapped)

    def _complete_shape(self, bid: int, group) -> tuple[tuple, int]:
        """Memo key (kind, captured edges relabelled by first appearance) and vertex count.

        A copy maps the group's vertices injectively into the block, so
        relabelling the pattern vertices by first appearance gives the same
        edges as relabelling their images.
        """
        seen: dict[int, int] = {}
        mapped = []
        for u, v in group:
            a = seen.get(u)
            if a is None:
                a = seen[u] = len(seen)
            b = seen.get(v)
            if b is None:
                b = seen[v] = len(seen)
            mapped.append((a, b))
        return (self.block_kind[bid], tuple(mapped)), len(seen)

    def _base_injections(self, bid: int, key: tuple, m: int) -> tuple[tuple[int, ...], int]:
        """(bit rows of the block's base, perm(size, m)); raises over ``_INJECTION_BUDGET``.

        The size is the base's: ``pair_block_index`` checked every block
        against its kind's size."""
        base = self.bases.of(key[0])
        total = math.perm(base.n, m)
        if total > _INJECTION_BUDGET:
            raise BudgetExceededError(f"block {bid}", total, _INJECTION_BUDGET, "injections")
        return base.rows, total

    def _injection_hits(self, bid: int, key: tuple, m: int) -> tuple[int, int]:
        """(injections that orient every captured edge, all injections), by listing every injection."""
        rows, total = self._base_injections(bid, key, m)
        kind, mapped = key
        hits = 0
        for inj in permutations(range(self.bases.of(kind).n), m):
            if all((rows[inj[a]] >> inj[b]) & 1 for a, b in mapped):
                hits += 1
        return hits, total


def capture_factors(t: int) -> tuple[tuple[int, int], ...]:
    """Ratio factors (probability times 2^edges) of the shapes a size-t block
    captures, as (numerator, denominator), indexed as [c, i, f, g]: a
    consistent or inconsistent induced pair, a cyclic or transitive triangle.
    """
    return ((t - 1, t - 2), (t - 3, t - 2), (t + 1, t - 2), (t - 3, t - 2))


def typical_closed_form(stats: CopyBlockStats, e: int, t: int) -> Fraction:
    """Product formula for the success probability of a typical copy."""
    p = Fraction(1, 1 << e)
    for count, (a, b) in zip((stats.c, stats.i, stats.f, stats.g), capture_factors(t)):
        if count:
            p *= Fraction(a, b) ** count
    return p


_FOLD = 4096  # copies per Counter of ``_ExactSums.tally``: a long scan holds one fold's terms


class _ExactSums:
    """The one record of a run's exact partial sums: over its copies, the
    ratio, its square and the capture counts.

    Ratios are summed as integer numerators keyed by their reduced
    denominator, and squares keyed by its square, so a distinct term costs
    one gcd instead of two Fraction additions; ``add(..., times=k)`` adds k
    equal copies at that cost.  Copies enter a record only through
    ``tally``, which adds each distinct term of a fold of copies once (a
    Monte Carlo chunk of 4,000 C8 copies on the even extension of STS(7)
    holds 6 of them).  Records of disjoint chunks combine with ``merge``,
    which adds integers only, so the sum does not depend on the split.
    """

    def __init__(self):
        self.r: dict[int, int] = {}
        self.r_sq: dict[int, int] = {}
        self.typical = 0
        self.s = [0, 0, 0, 0]
        self.sq = [0, 0, 0, 0]

    def add(self, num: int, den: int, caps, typical: bool, times: int = 1) -> None:
        """Add one copy's terms (as ``CopyKernel._terms`` gives them), ``times`` over."""
        g = math.gcd(num, den)
        num //= g
        den //= g
        self.r[den] = self.r.get(den, 0) + num * times
        den *= den
        self.r_sq[den] = self.r_sq.get(den, 0) + num * num * times
        self.typical += typical * times
        for k, x in enumerate(caps):
            if x:
                self.s[k] += x * times
                self.sq[k] += x * x * times

    def tally(self, kernel: CopyKernel, pis, weight: int = 1) -> "_ExactSums":
        """Add the copies ``pis``, scored by ``kernel._terms``, each ``weight``
        times, and return this record.  The terms of ``_FOLD`` copies at a time
        are counted, and each distinct one is added once, times its count."""
        pis = iter(pis)
        while fold := Counter(map(kernel._terms, islice(pis, _FOLD))):
            for terms, k in fold.items():
                self.add(*terms, times=k * weight)
        return self

    def merge(self, other: "_ExactSums") -> "_ExactSums":
        """Add the sums of ``other`` into this record and return it."""
        for mine, theirs in ((self.r, other.r), (self.r_sq, other.r_sq)):
            for den, num in theirs.items():
                mine[den] = mine.get(den, 0) + num
        self.typical += other.typical
        for k in range(4):
            self.s[k] += other.s[k]
            self.sq[k] += other.sq[k]
        return self

    def totals(self) -> tuple[Fraction, Fraction, int, list[int], list[int]]:
        """(sum of ratios, sum of squared ratios, typical copies, capture sums, squared capture sums)."""
        def total(by_den):
            return sum((Fraction(num, den) for den, num in by_den.items()), Fraction(0))
        return total(self.r), total(self.r_sq), self.typical, self.s, self.sq


# a pool worker's kernel, built by _start_worker: its memo and tables serve every
# chunk the worker tallies, and bases of None give it the circulant pair there
_worker_kernel: CopyKernel | None = None


def _start_worker(h: Orientation, d: Decomposition, bases: BaseTournaments | None) -> None:
    global _worker_kernel
    _worker_kernel = CopyKernel(h, d, bases)


def _tally_chunk(chunk, kernel: CopyKernel | None = None) -> _ExactSums:
    weight, source, args = chunk  # the copies source(*args), each weight times
    return _ExactSums().tally(kernel or _worker_kernel, source(*args), weight)


# A pool starts only when the time it would save exceeds this, its fixed cost in
# seconds.  Measured on 2 vCPUs, Python 3.11.7, on the 2-regular pattern of
# PG(2,4), medians of 11 runs in one process in each of three batches: a pool of two
# with the kernel initialiser takes 12-17 ms to start and stop idle, and each
# worker's cold memo adds about 2 ms to a 256-copy chunk (10 ms against 8 warm).
# The caller's warm kernel also tallies its later chunks faster than the first,
# at whose time the saving is counted.  Over six batches of 11-21 alternating
# calls, 6 chunks of 256 (a counted saving of 22-25 ms in four) ran slower
# pooled in five, and 8 (30-39 ms) as fast or faster pooled in five; hence
# 0.03.  The README's pool note has the whole crossover table.
_POOL_SECONDS = 0.03


def _run_chunks(h, d, bases, chunks, workers: int) -> _ExactSums:
    """The one record of ``chunks``, each (weight, module-level source, args),
    merged in list order.  This process tallies the first chunk on its own
    kernel, which also refuses bad bases before any pool, and times it (s
    seconds).  The rest go to a pool of w = min(workers, chunks left) only
    when w > 1 and the time a pool would save, s * (chunks left) * (1 - 1/w),
    exceeds its fixed cost, ``_POOL_SECONDS``; else this kernel tallies them."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    kernel = CopyKernel(h, d, bases)
    first, *rest = chunks
    start = time.perf_counter()
    record = _tally_chunk(first, kernel)
    seconds = time.perf_counter() - start
    workers = min(workers, len(rest))
    if workers > 1 and seconds * len(rest) * (1 - 1 / workers) > _POOL_SECONDS:
        with ProcessPoolExecutor(max_workers=workers, initializer=_start_worker,
                                 initargs=(h, d, bases)) as pool:
            return reduce(_ExactSums.merge, pool.map(_tally_chunk, rest), record)
    return reduce(_ExactSums.merge, map(partial(_tally_chunk, kernel=kernel), rest), record)


# ---------------------------------------------------------------------------
# exact expectation on tiny instances
# ---------------------------------------------------------------------------

def _head_copies(n: int, u: int, head: tuple[int, ...]):
    """The permutations of range(n) that start with ``head``, spread so that
    position u reads the first entry and the others the rest in order."""
    slot = (0 if x == u else x + (x < u) for x in range(n))
    values = (*head, *(v for v in range(n) if v not in head))
    return map(itemgetter(*slot), islice(permutations(values), math.factorial(n - len(head))))


def exact_copy_summary(h: Orientation, d: Decomposition, bases: BaseTournaments | None = None,
                       *, budget_n: int = 9, workers: int = 1) -> ExactSummary:
    """Sum the per-permutation probabilities over all n! permutations, one
    Aut(h) vertex orbit and one design point-stabiliser orbit at a time, as
    one chunk of ``_run_chunks`` each, on ``workers`` processes.

    A copy's terms (``CopyKernel._terms``) depend only on its image edge
    set, which every automorphism s of h keeps: the copies pi and pi∘s score
    alike.  So the copies sending w to vertex 0 give one record S_w for every
    w of an orbit, and the full sum is the sum of |orbit(u)| · S_u over one
    representative u per orbit.

    A design automorphism g that fixes point 0 (``point_stabiliser_orbits``)
    maps each complete block onto a complete block of its kind, and the
    block's uniform relabelling of its base stays uniform; it maps each coin
    block's arcs onto the image block's arcs or their reversal, each drawn
    with probability 1/2.  So g keeps the block-randomised distribution and
    every block's capture, and f(g∘pi) = f(pi) for each term f.  With a
    fixed w ≠ u, pi ↦ g∘pi is then a one-to-one map from the copies with
    pi[u] = 0, pi[w] = p onto those with pi[u] = 0, pi[w] = g(p) of equal
    terms: S_u is the sum of |P| · S_u,p over one representative p per
    stabiliser orbit P.  S_u,p sums (n-2)! copies: the first (n-2)! of
    ``permutations([0, p, ...])``, those with 0 and p in front, spread onto
    positions u, w and the rest.  A design without symmetry has singleton
    orbits, and the sum is (n-1)! terms per pattern orbit.  The copies of
    each (u, P) are one chunk (``_head_copies``), of weight |orbit(u)| · |P|.

    The budget counts the terms summed, (pattern orbits) · (stabiliser
    orbits) · (n-2)!, against budget_n!; a refusal names the least k whose
    k! covers that count.  It is at most n!, so any budget_n >= n is
    accepted without computing budget_n!, and at least (n-2)!, so n - 2 >
    budget_n is refused before any orbit search.
    """
    n = h.n
    if n - 2 > budget_n:
        raise BudgetExceededError(f"exact sum at n={n} of at least {n - 2}! terms", n - 2, budget_n, "k! terms")
    orbits = vertex_orbits(h)
    # (images of the positions in front, |P|): pi[u] = 0 and pi[w] = p; at n = 1 the one copy
    heads = [((0, p[0]), len(p)) for p in point_stabiliser_orbits(d)] or [((0,), 1)]
    summed = len(orbits) * len(heads) * math.factorial(n - len(heads[0][0]))
    if budget_n < n and summed > math.factorial(budget_n):
        raise BudgetExceededError(f"exact sum at n={n} of {summed} terms ({len(orbits)} pattern orbits x "
                                  f"{len(heads)} stabiliser orbits x {n - 2}!)",
                                  next(k for k in count(budget_n + 1) if math.factorial(k) >= summed),
                                  budget_n, "k! terms")
    chunks = [(len(orbit) * size, _head_copies, (n, orbit[0], head)) for orbit in orbits for head, size in heads]
    total, _, typical, sums, _ = _run_chunks(h, d, bases, chunks, workers).totals()
    nfact = math.factorial(n)
    return ExactSummary(
        expectation=total / (1 << h.edge_count),
        ratio=total / nfact,
        typical_fraction=Fraction(typical, nfact),
        capture_averages=tuple(Fraction(s, nfact) for s in sums),
    )


# ---------------------------------------------------------------------------
# Monte Carlo estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EstimateReport:
    n: int
    t: int
    e: int
    samples: int
    master_seed: int
    baseline: Fraction
    baseline_log2: float
    ratio: float
    ratio_stderr: float
    estimate: float
    estimate_log2: float
    typical_fraction: float
    capture_means: tuple[float, float, float, float]
    capture_stderrs: tuple[float, float, float, float]


def worker_count_from_env() -> int:
    """ORIENT_BOOST_THREADS, capped at the CPUs this process may run on (``os.sched_getaffinity``
    where the platform has it, else ``os.cpu_count``); never affects numeric output, only wall time."""
    raw = os.environ.get("ORIENT_BOOST_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"ORIENT_BOOST_THREADS must be an integer >= 1, got {raw!r}")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(workers, cpus or 1)


def _mean_stderr(total, total_sq, m: int) -> tuple[float, float]:
    mean = total / m
    if m < 2:
        return float(mean), 0.0
    var = (total_sq - total * total / m) / (m - 1)
    var = max(var, 0)
    return float(mean), math.sqrt(float(var) / m)


def estimate_expected_copies(h: Orientation, d: Decomposition, bases: BaseTournaments | None = None,
                             *, samples: int, master_seed: int, workers: int = 1) -> EstimateReport:
    """Unbiased Monte Carlo estimate of the expected labeled-copy count.

    Per-sample probabilities are exact rationals; sums are accumulated
    exactly and converted to floats only in the report, so results are
    bit-identical for any worker count.  The report gives the mean ratio and
    the mean captures [c, i, f, g], each with its standard error.  On w > 1
    workers a chunk holds max(256, samples // 8w) samples; ``_run_chunks``
    tallies the first here and starts a pool for the rest only when its
    measured time says the pool would save more than it costs.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    size = samples if workers <= 1 else max(256, samples // (workers * 8))
    chunks = [(1, stream_permutations, (master_seed, lo, min(lo + size, samples), h.n))
              for lo in range(0, samples, size)]
    r_sum, r_sq, typical, s, sq = _run_chunks(h, d, bases, chunks, workers).totals()
    e = h.edge_count
    n = h.n
    baseline = baseline_expected_copies(h)
    ratio, stderr = _mean_stderr(r_sum, r_sq, samples)
    baseline_log2 = log2_fraction(baseline)
    captures = [_mean_stderr(Fraction(s[k]), Fraction(sq[k]), samples) for k in range(4)]
    try:
        estimate = float(baseline) * ratio
    except OverflowError:
        estimate = math.inf if ratio > 0 else 0.0
    return EstimateReport(
        n=n, t=d.t, e=e, samples=samples, master_seed=master_seed,
        baseline=baseline, baseline_log2=baseline_log2,
        ratio=ratio, ratio_stderr=stderr,
        estimate=estimate,
        estimate_log2=baseline_log2 + (math.log2(ratio) if ratio > 0 else -math.inf),
        typical_fraction=typical / samples,
        capture_means=tuple(mean for mean, _ in captures),
        capture_stderrs=tuple(err for _, err in captures),
    )


def log2_fraction(x: Fraction) -> float:
    if x <= 0:
        raise ValueError("log of a non-positive value")
    num, den = x.numerator, x.denominator
    return (num.bit_length() - den.bit_length()) + math.log2(
        num / (1 << num.bit_length()) * (1 << den.bit_length()) / den
    )


def baseline_expected_copies(h: Orientation) -> Fraction:
    """Expected labeled copies in the uniform coin-flip tournament: n!/2^e."""
    return Fraction(math.factorial(h.n), 1 << h.edge_count)
