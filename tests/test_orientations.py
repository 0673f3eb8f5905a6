from dataclasses import astuple
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orient_boost.errors import InvalidOrientationError, InvalidTournamentError
from orient_boost.orientations import (
    Orientation,
    _REVERSED_BITS,
    Tournament,
    classify,
    consistency_check,
    local_shapes,
    make_pattern,
    orientation_from_edges,
    orientation_from_json,
    orientation_from_text,
    random_orientation,
    random_tournament,
    stats,
    tournament_from_edges,
    tournament_from_hex_text,
    tournament_from_json,
    transitive_tournament,
    vertex_orbits,
)
from orient_boost.rng import stream_for


def test_stats_directed_triangle():
    s = stats(make_pattern("cycle", 3))
    assert (s.plus, s.minus, s.c, s.i, s.f, s.g) == (3, 0, 0, 0, 1, 0)
    assert s.e == 3 and s.maxdeg == 2


def test_stats_transitive_triangle():
    # consistent pair exists but its outer endpoints are adjacent, so c=0
    h = orientation_from_edges(3, [(0, 1), (0, 2), (1, 2)])
    s = stats(h)
    assert (s.plus, s.minus, s.c, s.i, s.f, s.g) == (1, 2, 0, 0, 0, 1)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_stats_cycle(n):
    s = stats(make_pattern("cycle", n))
    assert (s.plus, s.minus, s.c, s.i, s.f, s.g) == (n, 0, n, 0, 0, 0)


@pytest.mark.parametrize("n,k,seed", [(15, 2, 3), (11, 3, 9), (21, 2, 1)])
def test_stats_k_regular(n, k, seed):
    h = make_pattern("k_regular_random", n, k=k, seed=seed)
    assert classify(h).k_regular == k
    s = stats(h)
    assert s.plus == k * k * n
    assert s.minus == k * (k - 1) * n
    assert s.plus - s.minus == k * n


def test_identities_on_random_orientations():
    for seed in range(300):
        n = 3 + (seed * 37) % 30
        m = seed % (n * (n - 1) // 2 + 1)
        h = random_orientation(n, m, seed=seed)
        s = stats(h)
        assert s.plus == 3 * s.f + s.c + s.g
        assert s.minus == 2 * s.g + s.i
        assert s.plus == sum(b == c for _, b in h.edges for c, _ in h.edges)


def triple_shape_counts(h):
    """[c, i, f, g] by inspecting every vertex triple of h on its own."""
    counts = [0, 0, 0, 0]
    for triple in combinations(range(h.n), 3):
        inside = [(u, v) for u, v in h.edges if u in triple and v in triple]
        if len(inside) == 3:
            counts[2 if len({v for _, v in inside}) == 3 else 3] += 1
        elif len(inside) == 2:
            (a, b), (c, d) = inside
            centre = ({a, b} & {c, d}).pop()
            counts[0 if (b == centre) != (d == centre) else 1] += 1
    return counts


def test_local_shapes_match_a_triple_by_triple_count():
    for seed in range(150):
        n = 3 + seed % 9
        h = random_orientation(n, seed % (n * (n - 1) // 2 + 1), seed=seed)
        pairs, triangles = local_shapes(sorted(h.edges))
        counts = [0, 0, 0, 0]
        for k in (*pairs.values(), *triangles.values()):
            counts[k] += 1
        s = stats(h)
        assert counts == [s.c, s.i, s.f, s.g] == triple_shape_counts(h)


def test_stats_relabel_invariance():
    for seed in range(100):
        h = random_orientation(9, 12, seed=seed)
        perm = stream_for(seed, 1).permutation(9)
        assert stats(h.relabel(perm)) == stats(h)


def test_classify_cycle_path_matching():
    flags = classify(make_pattern("cycle", 8))
    assert flags.eulerian and flags.balanced and flags.k_regular == 1
    flags = classify(make_pattern("path", 8))
    assert flags.balanced and not flags.even and flags.k_regular is None
    flags = classify(make_pattern("matching", 8))
    assert flags.balanced and not flags.even
    # even but disconnected: two disjoint directed triangles
    h = orientation_from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    flags = classify(h)
    assert flags.even and not flags.eulerian and flags.k_regular == 1


def dense_stats_and_flags_oracle(h):
    """``stats`` and ``classify`` from per-vertex degree lists of all n vertices and a BFS."""
    n = h.n
    dout, din = [0] * n, [0] * n
    adj = [set() for _ in range(n)]
    for u, v in h.edges:
        dout[u] += 1
        din[v] += 1
        adj[u].add(v)
        adj[v].add(u)
    plus = sum(dout[v] * din[v] for v in range(n))
    minus = sum(dout[v] * (dout[v] - 1) // 2 + din[v] * (din[v] - 1) // 2 for v in range(n))
    maxdeg = max(dout[v] + din[v] for v in range(n))
    even = all(dout[v] == din[v] for v in range(n))
    balanced = all(abs(dout[v] - din[v]) <= 1 for v in range(n))
    k_regular = dout[0] if even and len(set(dout)) == 1 else None
    seen, frontier = {0}, [0]
    while frontier:
        for w in adj[frontier.pop()]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    eulerian = even and len(seen) == n
    return (plus, minus, len(h.edges), maxdeg), (even, eulerian, balanced, k_regular)


def test_stats_and_classify_equal_the_dense_oracle():
    cases = 0
    for n in range(1, 10):
        for e in range(n * (n - 1) // 2 + 1):
            for seed in range(16):
                h = random_orientation(n, e, seed=seed)
                s = stats(h)
                got = (s.plus, s.minus, s.e, s.maxdeg), astuple(classify(h))
                assert got == dense_stats_and_flags_oracle(h), (n, e, seed)
                cases += 1
    for h in (make_pattern("cycle", 8), orientation_from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])):
        s = stats(h)
        assert ((s.plus, s.minus, s.e, s.maxdeg), astuple(classify(h))) == dense_stats_and_flags_oracle(h)
    assert cases == 2064


def test_stats_and_classify_allocate_nothing_per_vertex():
    # n = 10^12: a list of n degrees would not fit in memory
    empty = orientation_from_json('{"n": 1000000000000, "edges": []}')
    assert (stats(empty).e, stats(empty).maxdeg) == (0, 0)
    assert astuple(classify(empty)) == (True, False, True, 0)
    h = orientation_from_edges(10 ** 12, [(0, 1), (1, 2), (2, 0)])
    assert (stats(h).plus, stats(h).f, stats(h).maxdeg) == (3, 1, 2)
    flags = classify(h)
    assert flags.even and not flags.eulerian and flags.k_regular is None
    assert astuple(classify(Orientation(1, frozenset()))) == (True, True, True, 0)


def test_eulerian_patterns_pass_unit_margin():
    # every connected pattern with in-degree == out-degree clears eps = 1
    for seed in range(40):
        h = make_pattern("k_regular_random", 9 + 2 * (seed % 4), k=1 + seed % 2, seed=seed)
        flags = classify(h)
        assert flags.even
        if flags.eulerian:
            s = stats(h)
            assert consistency_check(h, 1, s.maxdeg)


def test_consistency_check():
    c6 = make_pattern("cycle", 6)
    assert consistency_check(c6, 1, 2)  # eulerian with max degree 2
    assert not consistency_check(c6, 1, 1)  # degree bound fails
    m = make_pattern("matching", 8)
    assert not consistency_check(m, Fraction(1, 1000), 1)  # margin is exactly 0
    # balanced pattern with (0.5+eps)n edges passes at 2*eps/k
    p10 = make_pattern("path", 10)  # 9 = (0.5+0.4)*10 edges, max degree 2
    assert consistency_check(p10, Fraction(2 * Fraction(4, 10), 2), 2)
    with pytest.raises(ValueError):
        consistency_check(c6, 0, 2)


def test_make_pattern_examples():
    c5 = make_pattern("cycle", 5)
    assert c5.edges == frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)})
    m6 = make_pattern("matching", 6)
    assert m6.edge_count == 3
    with pytest.raises(ValueError):
        make_pattern("cycle", 2)
    with pytest.raises(ValueError):
        make_pattern("matching", 7)
    with pytest.raises(ValueError):
        make_pattern("k_regular_random", 6, k=3)
    with pytest.raises(ValueError):
        make_pattern("octagon", 8)


def test_make_pattern_k_regular_is_deterministic():
    a = make_pattern("k_regular_random", 15, k=2, seed=5)
    b = make_pattern("k_regular_random", 15, k=2, seed=5)
    assert a.edges == b.edges


def test_orientation_validation():
    with pytest.raises(InvalidOrientationError, match="2-cycle between 1 and 2"):
        orientation_from_edges(3, [(1, 2), (2, 1)])
    with pytest.raises(InvalidOrientationError, match=r"duplicate edge \(0,1\)"):
        orientation_from_edges(3, [(0, 1), (0, 1)])
    with pytest.raises(InvalidOrientationError):
        orientation_from_edges(3, [(0, 3)])
    with pytest.raises(InvalidOrientationError):
        orientation_from_edges(2, [(1, 1)])


def test_orientation_parsers_round_trip():
    h = random_orientation(8, 11, seed=4)
    assert orientation_from_json(h.to_json()).edges == h.edges
    text = "8\n" + "\n".join(f"{u} {v}" for u, v in sorted(h.edges)) + "\n"
    assert orientation_from_text(text).edges == h.edges
    with pytest.raises(InvalidOrientationError, match="2-cycle"):
        orientation_from_text("3\n0 1\n1 0\n")
    with pytest.raises(InvalidOrientationError):
        orientation_from_json('{"n": 2}')


def test_tournament_basics():
    t3 = transitive_tournament(3)
    assert t3.beats(0, 1) and t3.beats(0, 2) and t3.beats(1, 2)
    assert not t3.is_regular()
    with pytest.raises(InvalidTournamentError):
        tournament_from_edges(3, [(0, 1), (1, 0), (1, 2), (0, 2)])
    with pytest.raises(InvalidTournamentError):
        tournament_from_edges(3, [(0, 1), (1, 2)])  # pair {0,2} missing


def test_tournament_from_edges_refuses_the_edge_count_first():
    # 200000 vertices need 19999900000 edges; the count is refused before any row is allocated
    with pytest.raises(InvalidTournamentError, match="n=200000 vertices has 19999900000 edges, got 0$"):
        tournament_from_edges(200_000, [])
    with pytest.raises(InvalidTournamentError, match="has 3 edges, got 4$"):
        tournament_from_edges(3, [(0, 1), (1, 0), (1, 2), (0, 2)])
    with pytest.raises(InvalidTournamentError, match=r"bad edge \(0,3\)"):
        tournament_from_edges(3, [(0, 1), (1, 2), (0, 3)])


def test_tournament_rows_are_checked_without_an_n_bit_mask():
    # all-zero rows fail at the first pair; an n-bit mask per row made this O(n^2)
    with pytest.raises(InvalidTournamentError, match=r"pair \{0,1\} not oriented exactly once"):
        Tournament(200_000, (0,) * 200_000)
    with pytest.raises(InvalidTournamentError, match="row 1 has bits beyond n"):
        Tournament(3, (0b110, 0b1100, 0b000))
    with pytest.raises(InvalidTournamentError, match="self-edge at vertex 0"):
        Tournament(3, (0b111, 0b100, 0b000))


def tournament_check_oracle(n: int, rows) -> str | None:
    """The per-pair loop, written out on its own: the first fault of the rows, or None."""
    if len(rows) != n:
        return "row count does not match n"
    for u in range(n):
        if rows[u] >> n:
            return f"row {u} has bits beyond n"
        if (rows[u] >> u) & 1:
            return f"self-edge at vertex {u}"
    for u in range(n):
        for v in range(u + 1, n):
            if ((rows[u] >> v) & 1) == ((rows[v] >> u) & 1):
                return f"pair {{{u},{v}}} not oriented exactly once"
    return None


def damaged_rows(n: int, seed: int, faults) -> tuple[int, ...]:
    """The rows of ``random_tournament(n, seed)`` with each (kind, a, b) fault applied in turn."""
    rows = list(random_tournament(n, seed).rows)
    stride = 8
    while stride < n:
        stride *= 2
    for kind, a, b in faults:
        if kind == "count":
            rows = rows[:-1] if a % 2 and rows else rows + [0]
        elif rows:
            u = b % len(rows)
            if kind == "flip":
                rows[u] ^= 1 << a % max(n, 1)
            elif kind == "self":
                rows[u] |= 1 << u
            elif kind == "between" and stride > n:
                rows[u] |= 1 << n + a % (stride - n)
            elif kind == "past":
                rows[u] |= 1 << stride + a % 64
            elif kind == "negative":
                rows[u] = ~rows[u]
    return tuple(rows)


FAULTS = st.tuples(st.sampled_from(["flip", "flip", "self", "between", "past", "negative", "count"]),
                   st.integers(0, 1 << 16), st.integers(0, 1 << 16))


@settings(max_examples=250, deadline=None, derandomize=True)
@given(n=st.integers(0, 130), seed=st.integers(0, 1 << 16), faults=st.lists(FAULTS, max_size=3))
@example(n=0, seed=0, faults=[])
@example(n=1, seed=0, faults=[("self", 0, 0)])
@example(n=7, seed=1, faults=[("between", 0, 3)])
@example(n=8, seed=1, faults=[("past", 0, 7)])
@example(n=9, seed=1, faults=[("between", 6, 8)])
@example(n=15, seed=1, faults=[])
@example(n=16, seed=1, faults=[])
@example(n=17, seed=1, faults=[("negative", 0, 16)])
@example(n=32, seed=1, faults=[])
@example(n=33, seed=1, faults=[("flip", 32, 0)])
@example(n=64, seed=1, faults=[])
@example(n=65, seed=1, faults=[("count", 1, 0)])
@example(n=128, seed=1, faults=[])
@example(n=128, seed=1, faults=[("past", 0, 127)])
@example(n=129, seed=1, faults=[])
@example(n=129, seed=1, faults=[("flip", 5, 100)])
def test_tournament_check_accepts_and_refuses_as_the_per_pair_loop(n, seed, faults):
    rows = damaged_rows(n, seed, faults)
    expected = tournament_check_oracle(n, rows)
    if expected is None:
        assert Tournament(n, rows).rows == rows
    else:
        with pytest.raises(InvalidTournamentError) as err:
            Tournament(n, rows)
        assert str(err.value) == expected


def test_tournament_serialization_round_trip():
    for seed in range(10):
        n = 4 + seed
        t = random_tournament(n, seed)
        assert tournament_from_json(t.to_json()).rows == t.rows
        assert tournament_from_hex_text(t.to_hex_text()).rows == t.rows


def hex_text_oracle(t: Tournament) -> str:
    """The bit-by-bit hex encoder the byte-table one replaced."""
    nbytes = (t.n + 7) // 8
    lines = [str(t.n)]
    for u in range(t.n):
        buf = bytearray(nbytes)
        row = t.rows[u]
        for v in range(t.n):
            if (row >> v) & 1:
                buf[v // 8] |= 1 << (7 - v % 8)
        lines.append(buf.hex())
    return "\n".join(lines) + "\n"


def hex_rows_oracle(text: str) -> tuple[int, ...]:
    """The bit-by-bit hex decoder the byte-table one replaced; it reads only bits below n."""
    lines = text.split()
    n = int(lines[0])
    rows = []
    for u in range(n):
        buf = bytes.fromhex(lines[u + 1])
        row = 0
        for v in range(n):
            if (buf[v // 8] >> (7 - v % 8)) & 1:
                row |= 1 << v
        rows.append(row)
    return tuple(rows)


@st.composite
def tournaments(draw, sizes=st.integers(1, 40)) -> Tournament:
    n = draw(sizes)
    pairs = list(combinations(range(n), 2))
    bits = draw(st.integers(0, (1 << len(pairs)) - 1))
    rows = [0] * n
    for k, (u, v) in enumerate(pairs):
        if bits >> k & 1:
            rows[u] |= 1 << v
        else:
            rows[v] |= 1 << u
    return Tournament(n, tuple(rows))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(t=tournaments())
@example(t=transitive_tournament(7)).via("byte boundary")
@example(t=transitive_tournament(8)).via("byte boundary")
@example(t=transitive_tournament(9)).via("byte boundary")
@example(t=random_tournament(16, 1)).via("byte boundary")
@example(t=random_tournament(17, 1)).via("byte boundary")
def test_hex_and_json_round_trips_equal_the_bit_loop(t):
    text = t.to_hex_text()
    assert text == hex_text_oracle(t)
    assert tournament_from_hex_text(text).rows == hex_rows_oracle(text) == t.rows
    assert tournament_from_json(t.to_json()).rows == t.rows


def hex_rows_encoded_one_by_one(t: Tournament) -> str:
    """The per-row encoder the one-call one replaced: each row's bytes reversed and hexed alone."""
    nbytes = (t.n + 7) // 8
    lines = [str(t.n)] + [row.to_bytes(nbytes, "little").translate(_REVERSED_BITS).hex() for row in t.rows]
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(t=st.one_of(tournaments(), tournaments(sizes=st.sampled_from([8, 16, 24, 32, 40]))))
def test_hex_text_equals_the_per_row_encoding_and_reads_back(t):
    text = t.to_hex_text()
    assert text == hex_rows_encoded_one_by_one(t)
    assert tournament_from_hex_text(text).rows == t.rows


@settings(max_examples=60, deadline=None, derandomize=True)
@given(t=tournaments(), pad=st.integers(1, 127))
def test_hex_padding_bits_are_ignored_like_the_bit_loop(t, pad):
    # the bits after vertex n-1 in a row's last byte are not read
    spare = -t.n % 8
    if not spare:
        pad = 0
    lines = t.to_hex_text().split()
    lines[1:] = [row[:-2] + f"{int(row[-2:], 16) | (pad & ((1 << spare) - 1)):02x}" for row in lines[1:]]
    text = "\n".join(lines) + "\n"
    assert tournament_from_hex_text(text).rows == hex_rows_oracle(text) == t.rows


@pytest.mark.parametrize("rows,message", [
    (["0000", "00"], "hex row 1 has 1 bytes, expected 2"),
    (["0000", "000000"], "hex row 1 has 3 bytes, expected 2"),
    (["", "0000"], "expected 9 hex rows, got 8"),
])
def test_hex_row_length_errors(rows, message):
    t = random_tournament(9, 3)
    lines = t.to_hex_text().split()
    lines[1:3] = [r for r in rows if r]
    with pytest.raises(InvalidTournamentError, match=f"^{message}$"):
        tournament_from_hex_text("\n".join(lines))


def test_tournament_degree_helpers():
    t = random_tournament(9, 0)
    assert sum(t.out_degrees()) == 9 * 8 // 2
    assert transitive_tournament(6).is_balanced() is False


def test_vertex_orbits_at_n_21_pinned():
    # relabelled by v -> 5v + 3 (mod 21), so the search cannot lean on the numeric order;
    # the orbit lists predate the one search shared with the design stabiliser
    relabel = [(5 * v + 3) % 21 for v in range(21)]
    assert vertex_orbits(make_pattern("cycle", 21).relabel(relabel)) == [tuple(range(21))]
    assert vertex_orbits(make_pattern("path", 21).relabel(relabel)) == [(v,) for v in range(21)]
    assert vertex_orbits(make_pattern("k_regular_random", 21, k=2, seed=3)) == [(v,) for v in range(21)]
