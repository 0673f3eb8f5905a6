"""Directed patterns (orientations) and tournaments.

An orientation is a simple digraph with no 2-cycles on vertices 0..n-1.  A
tournament orients every pair.  Vertices are dense 0-based integers and all
values here are immutable, so they can be shared freely across threads.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import BudgetExceededError, InvalidOrientationError, InvalidTournamentError
from .rng import stream_for

_PATTERN_ATTEMPTS = 20_000  # seeded draws of k cyclic orders before k_regular_random gives up
_VERTEX_BUDGET = 1_000  # vertices of a named pattern or a built design, checked before any list of n entries


@dataclass(frozen=True)
class Orientation:
    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 1:
            raise InvalidOrientationError("vertex count must be positive")
        for u, v in self.edges:
            if u == v:
                raise InvalidOrientationError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise InvalidOrientationError(f"edge ({u},{v}) out of range for n={self.n}")
            if (v, u) in self.edges:
                raise InvalidOrientationError(f"2-cycle between {min(u, v)} and {max(u, v)}")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def underlying_adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def relabel(self, perm: list[int]) -> "Orientation":
        return Orientation(self.n, frozenset((perm[u], perm[v]) for u, v in self.edges))

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "edges": sorted([u, v] for u, v in self.edges)})


def orientation_from_edges(n: int, edges) -> Orientation:
    """Build an orientation, rejecting duplicates with a diagnostic."""
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if (u, v) in seen:
            raise InvalidOrientationError(f"duplicate edge ({u},{v})")
        seen.add((u, v))
    return Orientation(n, frozenset(seen))


@contextmanager
def parsing(error, kind: str):
    """The one refusal of a malformed file: a parse failure in the block raised as
    ``error("malformed <kind>: <repr of the cause>")``, error being the kind's own."""
    try:
        yield
    except (KeyError, TypeError, ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep
        raise error(f"malformed {kind}: {exc!r}") from exc


def json_int(value) -> int:
    """value, if it is a JSON integer; a bool, float or string is a TypeError."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _n_and_edges(text: str) -> tuple[int, list[tuple[int, int]]]:
    """n and the edges of {"n": n, "edges": [[u, v], ...]}, the JSON of a pattern and of a tournament."""
    obj = json.loads(text)
    return json_int(obj["n"]), [(json_int(u), json_int(v)) for u, v in obj["edges"]]


def orientation_from_json(text: str) -> Orientation:
    with parsing(InvalidOrientationError, "orientation"):
        return orientation_from_edges(*_n_and_edges(text))


def orientation_from_text(text: str) -> Orientation:
    """Plain-text format: first line n, then one "u v" line per edge."""
    with parsing(InvalidOrientationError, "orientation"):
        first, *rest = filter(None, map(str.strip, text.splitlines()))
        return orientation_from_edges(int(first), [(int(u), int(v)) for u, v in map(str.split, rest)])


@dataclass(frozen=True)
class OrientationStats:
    """Pair and triangle statistics of a directed pattern.

    plus/minus count directed and anti-directed 2-edge paths; c/i count the
    induced consistent and inconsistent pairs (outer endpoints non-adjacent);
    f/g count cyclic and transitive triangles.
    """

    plus: int
    minus: int
    c: int
    i: int
    f: int
    g: int
    e: int
    maxdeg: int


def _endpoint_degrees(h: Orientation) -> tuple[Counter, Counter, set[int]]:
    """Out- and in-degrees of the vertices on an edge, and those vertices.

    Every other vertex has degree 0, so nothing is allocated per vertex of n.
    """
    dout = Counter(u for u, _ in h.edges)
    din = Counter(v for _, v in h.edges)
    return dout, din, dout.keys() | din.keys()


def stats(h: Orientation) -> OrientationStats:
    dout, din, ends = _endpoint_degrees(h)
    plus = sum(dout[v] * din[v] for v in ends)
    minus = sum(k * (k - 1) // 2 for k in (*dout.values(), *din.values()))
    maxdeg = max((dout[v] + din[v] for v in ends), default=0)
    pairs, triangles = local_shapes(sorted(h.edges))
    counts = [0, 0, 0, 0]
    for k in (*pairs.values(), *triangles.values()):
        counts[k] += 1
    return OrientationStats(plus, minus, *counts, len(h.edges), maxdeg)


def local_shapes(h_edges) -> tuple[dict, dict]:
    """Shape of every induced pair and triangle of a pattern, as an index into [c, i, f, g].

    An induced pair is two edges at a common vertex whose outer endpoints are
    non-adjacent: consistent (0) iff exactly one edge points into the common
    vertex, inconsistent (1) otherwise.  A triangle is cyclic (2) iff its
    three heads differ, transitive (3) otherwise.  Pairs are keyed (e1, e2)
    and triangles (e1, e2, e3) in the order of ``h_edges``.
    """
    edge_set = set(h_edges)
    h_pairs = {(u, v) if u < v else (v, u) for u, v in h_edges}
    incident: dict[int, list[tuple[int, int]]] = {}
    for edge in h_edges:
        for x in edge:
            incident.setdefault(x, []).append(edge)
    pairs: dict[tuple, int] = {}
    triangles: dict[tuple, int] = {}
    for s, edges in incident.items():
        for e1, e2 in combinations(edges, 2):
            a = e1[0] if e1[1] == s else e1[1]
            b = e2[0] if e2[1] == s else e2[1]
            if (min(a, b), max(a, b)) not in h_pairs:
                pairs[e1, e2] = 0 if (e1[1] == s) != (e2[1] == s) else 1
                continue
            tri = tuple(sorted((e1, e2, (a, b) if (a, b) in edge_set else (b, a))))
            heads = {v for _, v in tri}
            triangles[tri] = 2 if len(heads) == 3 else 3
    return pairs, triangles


@dataclass(frozen=True)
class OrientationFlags:
    even: bool
    eulerian: bool
    balanced: bool
    k_regular: int | None


def classify(h: Orientation) -> OrientationFlags:
    dout, din, ends = _endpoint_degrees(h)
    even = all(dout[v] == din[v] for v in ends)
    balanced = all(abs(dout[v] - din[v]) <= 1 for v in ends)
    # an isolated vertex has out-degree 0 and leaves the pattern disconnected
    isolated = len(ends) < h.n
    out_degrees = {dout[v] for v in ends} | ({0} if isolated else set())
    k_regular = out_degrees.pop() if even and len(out_degrees) == 1 else None
    eulerian = even and (h.n == 1 or not isolated and _connected(h))
    return OrientationFlags(even, eulerian, balanced, k_regular)


def _connected(h: Orientation) -> bool:
    adj = h.underlying_adjacency()
    seen = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == h.n


def vertex_orbits(h: Orientation) -> list[tuple[int, ...]]:
    """The vertex orbits of Aut(h), each sorted, listed by least vertex.

    An automorphism carries the pair labels none (0), out (1) and in (2) onto
    themselves, each its own kind (``searched_orbits``).
    """
    labels = [[0] * h.n for _ in range(h.n)]
    for a, b in h.edges:
        labels[a][b], labels[b][a] = 1, 2
    return searched_orbits(labels, (0, 1, 2), range(h.n))


def searched_orbits(labels, kinds, points, fixed=()) -> list[tuple[int, ...]]:
    """The orbits on ``points`` (increasing) of the permutations g of 0..n-1
    that fix ``fixed`` pointwise and carry the pair labelling onto itself,
    each orbit sorted, listed by least point.

    ``labels[x][y]`` labels the pair (x, y), x != y, by an index into
    ``kinds``; the diagonal is not read.  g carries the labelling onto
    itself if one one-to-one map m of the labels, keeping each label's kind,
    has labels[g(x)][g(y)] = m(labels[x][y]) for every pair.  For each pair
    u < v of points not yet known to share an orbit, a backtracking search
    looks for such a g with g(u) = v; every g found joins each point with
    its image (union-find).

    A vertex maps only to one with the same multiset of label kinds.  The
    placement order is fixed once per u, the most constrained vertex first
    (B. D. McKay, "Practical graph isomorphism", 1981): the fixed points,
    then u, then repeatedly the unplaced vertex with the most links to placed
    vertices through labels rarer than the commonest one (a pattern's edges,
    so the order is breadth-first), ties going to the most links through a
    label that a placed pair already carries (a mapped design block, which
    forces the image), then to the least vertex.
    """
    n = len(labels)
    kind_counts = [frozenset(Counter(kinds[label] for y, label in enumerate(row) if y != x).items())
                   for x, row in enumerate(labels)]
    alike = [[y for y in range(n) if kind_counts[y] == kind_counts[x]] for x in range(n)]
    freq = Counter(label for x, row in enumerate(labels) for y, label in enumerate(row) if y != x)
    commonest = max(freq.values(), default=0)
    rare = {label for label, c in freq.items() if c < commonest}
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def placement_order(u: int) -> list[int]:
        order = [*fixed, u]
        carried = {labels[a][b] for a in order for b in order if a != b}
        rest = [x for x in range(n) if x not in order]
        while rest:
            x = max(rest, key=lambda w: (sum(labels[p][w] in rare for p in order),
                                         sum(labels[p][w] in carried for p in order), -w))
            rest.remove(x)
            carried.update(label for p in order for label in (labels[p][x], labels[x][p]))
            order.append(x)
        return order

    def automorphism(order: list[int], v: int) -> list[int] | None:
        image = [-1] * n
        used = [False] * n
        to, back = [-1] * len(kinds), [-1] * len(kinds)

        def carry(x: int, y: int, k: int) -> list[int] | None:
            """The labels first mapped by placing x on y, or None (nothing
            left mapped) if the label map cannot take them."""
            mapped = []
            # the latest placed first: a mismatch shows sooner on STS(19) and P21
            for p in reversed(order[:k]):
                q = image[p]
                for src, dst in ((labels[p][x], labels[q][y]), (labels[x][p], labels[y][q])):
                    if to[src] < 0 and back[dst] < 0 and kinds[src] == kinds[dst]:
                        to[src], back[dst] = dst, src
                        mapped.append(src)
                    elif to[src] != dst:
                        for src in mapped:
                            back[to[src]] = to[src] = -1
                        return None
            return mapped

        def extend(k: int) -> bool:
            if k == n:
                return True
            x = order[k]
            for y in (x,) if k < len(fixed) else (v,) if k == len(fixed) else alike[x]:
                if not used[y] and (mapped := carry(x, y, k)) is not None:
                    image[x], used[y] = y, True
                    if extend(k + 1):
                        return True
                    used[y] = False
                    for src in mapped:
                        back[to[src]] = to[src] = -1
            return False

        return image if extend(0) else None

    points = list(points)
    for i, u in enumerate(points):
        order = None
        for v in points[i + 1:]:
            if find(u) != find(v) and v in alike[u]:
                order = order or placement_order(u)
                sigma = automorphism(order, v)
                if sigma is not None:
                    for x, y in enumerate(sigma):
                        parent[find(x)] = find(y)
    orbits: dict[int, list[int]] = {}
    for x in points:
        orbits.setdefault(find(x), []).append(x)
    return [tuple(orbit) for orbit in orbits.values()]


def consistency_check(h: Orientation, eps, k: int) -> bool:
    """True iff max degree <= k and plus - minus >= eps * n.

    The degree condition uses the maximum total degree of the underlying
    graph.  eps is treated as an exact rational (floats go through their
    decimal repr).
    """
    eps = as_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    s = stats(h)
    return s.maxdeg <= k and Fraction(s.plus - s.minus) >= eps * h.n


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


def make_pattern(kind: str, n: int, k: int | None = None, seed: int | None = None) -> Orientation:
    """Construct a named test pattern.

    kinds: "cycle" (n >= 3), "path", "matching" (n even), and
    "k_regular_random" (2k < n): the union of k seeded random cyclic vertex
    orders, rejection-sampled until no repeated or opposite edges occur.
    A draw out of attempts, or an n over the vertex budget, raises BudgetExceededError.
    """
    if n > _VERTEX_BUDGET:
        raise BudgetExceededError(f"pattern at n={n}", n, _VERTEX_BUDGET, "vertices")
    if kind == "cycle":
        if n < 3:
            raise ValueError("cycle needs n >= 3")
        return orientation_from_edges(n, [(v, (v + 1) % n) for v in range(n)])
    if kind == "path":
        if n < 2:
            raise ValueError("path needs n >= 2")
        return orientation_from_edges(n, [(v, v + 1) for v in range(n - 1)])
    if kind == "matching":
        if n < 2 or n % 2:
            raise ValueError("matching needs even n >= 2")
        return orientation_from_edges(n, [(2 * v, 2 * v + 1) for v in range(n // 2)])
    if kind == "k_regular_random":
        if k is None or k < 1:
            raise ValueError("k_regular_random needs k >= 1")
        if 2 * k >= n:
            raise ValueError("k_regular_random needs 2k < n")
        stream = stream_for(0 if seed is None else seed)
        for _ in range(_PATTERN_ATTEMPTS):
            edges: set[tuple[int, int]] = set()
            ok = True
            for _cycle in range(k):
                order = stream.permutation(n)
                for idx in range(n):
                    u, v = order[idx], order[(idx + 1) % n]
                    if (u, v) in edges or (v, u) in edges:
                        ok = False
                        break
                    edges.add((u, v))
                if not ok:
                    break
            if ok:
                return Orientation(n, frozenset(edges))
        raise BudgetExceededError(f"a collision-free union of {k} cyclic orders on n={n} at seed {seed or 0}",
                                  _PATTERN_ATTEMPTS + 1, _PATTERN_ATTEMPTS, "attempts")
    raise ValueError(f"unknown pattern kind: {kind}")


def random_orientation(n: int, num_edges: int, seed: int) -> Orientation:
    """Seeded orientation with exactly num_edges edges on uniformly chosen pairs."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not 0 <= num_edges <= len(pairs):
        raise ValueError("num_edges out of range")
    stream = stream_for(seed)
    # partial Fisher-Yates: the first num_edges entries are a uniform sample
    for idx in range(num_edges):
        j = idx + stream.below(len(pairs) - idx)
        pairs[idx], pairs[j] = pairs[j], pairs[idx]
    edges = []
    for u, v in pairs[:num_edges]:
        edges.append((u, v) if stream.coin() else (v, u))
    return orientation_from_edges(n, edges)


# byte b with its bit order reversed: a row's little-endian bytes put vertex
# v at bit v % 8 of byte v // 8, the hex rows put it at bit 7 - v % 8
_REVERSED_BITS = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


@dataclass(frozen=True)
class Tournament:
    """Complete orientation, stored as bit rows: rows[u] bit v set iff u beats v.

    Every pair is checked on construction, and the message names the first
    bad row or pair.  Only the sampler's draws skip the check
    (``_unchecked_tournament``): their design was checked once to partition
    the pairs.
    """

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        n, rows = self.n, self.rows
        if len(rows) != n:
            raise InvalidTournamentError("row count does not match n")
        for u in range(n):
            if rows[u] >> n:
                raise InvalidTournamentError(f"row {u} has bits beyond n")
            if (rows[u] >> u) & 1:
                raise InvalidTournamentError(f"self-edge at vertex {u}")
        for u in range(n):
            for v in range(u + 1, n):
                if ((rows[u] >> v) & 1) == ((rows[v] >> u) & 1):
                    raise InvalidTournamentError(f"pair {{{u},{v}}} not oriented exactly once")

    def beats(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def out_degree(self, u: int) -> int:
        return self.rows[u].bit_count()

    def out_degrees(self) -> list[int]:
        return [self.out_degree(u) for u in range(self.n)]

    def in_degree(self, u: int) -> int:
        return self.n - 1 - self.out_degree(u)

    def is_regular(self) -> bool:
        return self.n % 2 == 1 and all(self.out_degree(u) == (self.n - 1) // 2 for u in range(self.n))

    def is_balanced(self) -> bool:
        return all(self.in_degree(u) in (self.n // 2 - 1, self.n // 2) for u in range(self.n))

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in range(self.n) if (self.rows[u] >> v) & 1]

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "edges": self.edges()})

    def to_hex_text(self) -> str:
        """Compact form: line 1 is n, then one hex row per vertex.

        Row u encodes bits "u beats v" for v ascending, packed big-endian
        within each byte (bit 7 of byte 0 is v=0).
        """
        nbytes = (self.n + 7) // 8
        lines = [str(self.n)]
        lines += [row.to_bytes(nbytes, "little").translate(_REVERSED_BITS).hex() for row in self.rows]
        return "\n".join(lines) + "\n"


def _unchecked_tournament(n: int, rows: tuple[int, ...]) -> Tournament:
    """A Tournament of these rows, built without the per-pair check.

    Precondition: the rows orient every pair of 0..n-1 exactly once.
    ``SamplingPlan.orient``, the one caller, meets it: its plan refused any
    design whose blocks do not partition the pairs of K_n, and each block
    orients each of its pairs once.
    """
    t = object.__new__(Tournament)
    object.__setattr__(t, "n", n)
    object.__setattr__(t, "rows", rows)
    return t


def tournament_from_edges(n: int, edges) -> Tournament:
    """Refuses an edge count other than n(n-1)/2 before allocating the rows."""
    edges = list(edges)
    if len(edges) != n * (n - 1) // 2:
        raise InvalidTournamentError(
            f"a tournament on n={n} vertices has {n * (n - 1) // 2} edges, got {len(edges)}")
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise InvalidTournamentError(f"bad edge ({u},{v})")
        rows[u] |= 1 << v
    return Tournament(n, tuple(rows))


def tournament_from_json(text: str) -> Tournament:
    with parsing(InvalidTournamentError, "tournament"):
        return tournament_from_edges(*_n_and_edges(text))


def tournament_from_hex_text(text: str) -> Tournament:
    with parsing(InvalidTournamentError, "tournament"):
        first, *lines = filter(None, map(str.strip, text.splitlines()))
        n = int(first)
        if len(lines) != n:
            raise InvalidTournamentError(f"expected {n} hex rows, got {len(lines)}")
        nbytes, full = (n + 7) // 8, (1 << n) - 1
        rows = []
        for u, line in enumerate(lines):
            buf = bytes.fromhex(line)
            if len(buf) != nbytes:
                raise InvalidTournamentError(f"hex row {u} has {len(buf)} bytes, expected {nbytes}")
            rows.append(int.from_bytes(buf.translate(_REVERSED_BITS), "little") & full)
        return Tournament(n, tuple(rows))


def random_tournament(n: int, seed: int) -> Tournament:
    """Every pair oriented by an independent fair coin."""
    stream = stream_for(seed)
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if stream.coin():
                rows[u] |= 1 << v
            else:
                rows[v] |= 1 << u
    return Tournament(n, tuple(rows))


def transitive_tournament(n: int) -> Tournament:
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            rows[u] |= 1 << v
    return Tournament(n, tuple(rows))
