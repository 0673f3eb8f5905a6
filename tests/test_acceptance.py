"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import functools
import math
from fractions import Fraction
from itertools import permutations

import pytest

from orient_boost.bounds import (
    amgm_bound,
    inequalities_hold,
    kreg_boost_formula,
    solve_parameters,
    verify_relabel_probabilities,
)
from orient_boost.cli import main as cli_main
from orient_boost.counting import (
    CopyKernel,
    count_labeled_copies,
    estimate_expected_copies,
    exact_copy_summary,
    typical_closed_form,
)
from orient_boost.designs import (
    BlockKind,
    adjusted_decomposition,
    projective_plane_decomposition,
    steiner_triple_system,
    validate,
)
from orient_boost.orientations import (
    make_pattern,
    random_orientation,
    random_tournament,
    stats,
    tournament_from_edges,
)
from orient_boost.rng import stream_for
from orient_boost.sampling import (
    BaseTournaments,
    circulant_regular_tournament,
    enumerate_support,
)

MC_SEED = 20260810
MC_SAMPLES = 100_000


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:02d}: FAIL  {desc}", flush=True)
                raise
            print(f"ACCEPTANCE {num:02d}: PASS  {desc}", flush=True)
        return wrapper
    return deco


@pytest.fixture(scope="module")
def fano():
    return steiner_triple_system(7)


@pytest.fixture(scope="module")
def pg21():
    return projective_plane_decomposition(4)


@pytest.fixture(scope="module")
def bases3():
    return BaseTournaments.circulant(3)


@pytest.fixture(scope="module")
def bases5():
    return BaseTournaments.circulant(5)


@pytest.fixture(scope="module")
def big_mc_report(pg21, bases5):
    c21 = make_pattern("cycle", 21)
    return estimate_expected_copies(c21, pg21, bases5, samples=MC_SAMPLES, master_seed=MC_SEED)


@criterion(1, "relabeling pair/triangle probabilities, exact for t in {3,5,7}")
def test_criterion_01_relabel_probabilities():
    expected = {
        3: (Fraction(1), Fraction(1)),
        5: (Fraction(2, 3), Fraction(1, 2)),
        7: (Fraction(3, 5), Fraction(2, 5)),
    }
    for t, (cons, cyc) in expected.items():
        chk = verify_relabel_probabilities(circulant_regular_tournament(t), method="permutations")
        assert chk.uniform_over_triples
        assert chk.consistent == cons
        assert chk.cyclic == cyc
        assert chk.inconsistent == 1 - cons
        assert chk.transitive == 1 - cyc


@criterion(2, "plus/minus identities on 1000 seeded random patterns, n <= 50")
def test_criterion_02_statistic_identities():
    for seed in range(1000):
        n = 3 + (seed * 131) % 48
        max_edges = n * (n - 1) // 2
        m = (seed * 17) % (min(max_edges, 3 * n) + 1)
        h = random_orientation(n, m, seed=seed)
        s = stats(h)
        assert s.plus == 3 * s.f + s.c + s.g
        assert s.minus == 2 * s.g + s.i


@criterion(3, "matching copy count equals n!/2^(n/2) in every tournament")
def test_criterion_03_matching_law():
    m2 = make_pattern("matching", 4)
    pairs = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    for bits in range(64):
        edges = [(u, v) if (bits >> k) & 1 else (v, u) for k, (u, v) in enumerate(pairs)]
        assert count_labeled_copies(m2, tournament_from_edges(4, edges)) == 6
    for n in (6, 8):
        pattern = make_pattern("matching", n)
        expected = math.factorial(n) // 2 ** (n // 2)
        for seed in range(100):
            assert count_labeled_copies(pattern, random_tournament(n, seed)) == expected


@criterion(4, "design validity: triple systems, the 21-point plane, adjusted(11,3)")
def test_criterion_04_design_validity():
    for n in (7, 9, 13, 15):
        d = steiner_triple_system(n)
        assert len(d.blocks) == n * (n - 1) // 6
        assert validate(d).ok
    assert validate(projective_plane_decomposition(4)).ok
    d11 = adjusted_decomposition(11, 3)
    leftovers = [b for b in d11.blocks if b.kind != BlockKind.KT]
    assert len(leftovers) == 1 and leftovers[0].kind == BlockKind.K2T1
    assert validate(d11).ok


@criterion(5, "exact expectation equals the enumerated-support average at n=7")
def test_criterion_05_oracle_equivalence(fano, bases3):
    patterns = [
        make_pattern("cycle", 7),
        make_pattern("path", 7),
        random_orientation(7, 8, seed=2026),
    ]
    support = list(enumerate_support(fano, bases3))
    assert sum(w for _, w in support) == 1
    for h in patterns:
        exact = exact_copy_summary(h, fano, bases3).expectation
        weighted = Fraction(0)
        for t, w in support:
            weighted += w * count_labeled_copies(h, t)
        assert weighted == exact


@criterion(6, "closed-form probability equals injection enumeration on typical copies")
def test_criterion_06_closed_form(fano, bases3, pg21, bases5):
    for h in (make_pattern("cycle", 7), random_orientation(7, 8, seed=2026)):
        kernel = CopyKernel(h, fano, bases3)
        e = h.edge_count
        for pi in permutations(range(7)):
            st = kernel.block_stats(pi)
            if st.typical:
                assert typical_closed_form(st, e, 3) == kernel.probability(pi, method="enumerate")
    c21 = make_pattern("cycle", 21)
    kernel = CopyKernel(c21, pg21, bases5)
    checked = 0
    index = 0
    while checked < 10_000:
        pi = stream_for(MC_SEED, index).permutation(21)
        index += 1
        st = kernel.block_stats(pi)
        if not st.typical:
            continue
        assert typical_closed_form(st, 21, 5) == kernel.probability(pi, method="enumerate")
        checked += 1


@criterion(7, "exact boost ratio for the 7-cycle over the Fano-style design")
def test_criterion_07_exact_boost(fano, bases3):
    summary = exact_copy_summary(make_pattern("cycle", 7), fano, bases3)
    delta = Fraction(1, 4 * (3 - 2))
    assert summary.ratio > 1 + delta  # 1.25
    assert float(summary.ratio) > 2 ** 1.4  # geometric-mean prediction 2.639...
    # regression constant from the first verified run
    assert summary.ratio == Fraction(43, 15)
    assert summary.expectation == Fraction(903, 8)


@criterion(8, "Monte Carlo boost ratio for the 21-cycle over the 21-point plane")
def test_criterion_08_monte_carlo_boost(big_mc_report):
    rep = big_mc_report
    assert rep.samples == MC_SAMPLES
    assert rep.ratio > 1.5
    threshold = 1 + 1 / 12  # 1 + delta at t=5
    assert rep.ratio - 5 * rep.ratio_stderr > threshold
    assert rep.ratio_stderr > 0


@criterion(9, "average captures match stat*(t-2)/(n-2) on pure designs")
def test_criterion_09_average_captures(fano, pg21):
    c7 = make_pattern("cycle", 7)
    exact = exact_copy_summary(c7, fano).capture_averages
    assert exact[0] == Fraction(7, 5)  # 1.4 exactly
    rep = estimate_expected_copies(c7, fano, samples=20_000, master_seed=424242)
    assert abs(rep.capture_means[0] - 1.4) <= 3 * rep.capture_stderrs[0]
    c21 = make_pattern("cycle", 21)
    rep21 = estimate_expected_copies(c21, pg21, samples=20_000, master_seed=424242)
    target = 21 * 3 / 19
    assert abs(rep21.capture_means[0] - target) <= 3 * rep21.capture_stderrs[0]
    assert rep21.capture_means[1:] == (0, 0, 0)


@criterion(10, "parameter solver: least odd block size and exact inequality checks")
def test_criterion_10_parameter_solver():
    sol = solve_parameters(1, 1)
    assert (sol.t, sol.delta) == (7, Fraction(1, 20))
    for eps, k in ((1, 1), (1, 2), (Fraction(1, 2), 1), ("0.1", 1)):
        sol = solve_parameters(eps, k)
        assert all(inequalities_hold(sol.t, eps, k))
        if sol.t > 3:
            assert not all(inequalities_hold(sol.t - 2, eps, k))


@criterion(11, "k-regular boost product approaches e^k")
def test_criterion_11_boost_formula_limit():
    for k in (1, 2, 3):
        value = kreg_boost_formula(k, 10 ** 6 + 1)
        assert abs(value / math.exp(k) - 1) < 1e-3


@criterion(12, "atypical-copy mass stays below the degree/blocksize bound and 0.9")
def test_criterion_12_atypical_fraction(big_mc_report):
    atypical = 1 - big_mc_report.typical_fraction
    d, t, n = 2, 5, 21
    bound = 11 * d ** 3 * t ** 4 / n  # vacuous here, but asserted as stated
    assert atypical <= bound
    assert atypical < 0.9


@criterion(13, "experiment CSV bytes are identical across worker counts")
def test_criterion_13_thread_determinism(tmp_path, capsys, monkeypatch):
    outputs = []
    for threads in ("1", "4"):
        monkeypatch.setenv("ORIENT_BOOST_THREADS", threads)
        path = tmp_path / f"threads{threads}.csv"
        code = cli_main([
            "experiment", "--pattern", "cycle", "--n", "9", "--t", "3",
            "--samples", "1500", "--seed", "77", "--output", str(path),
        ])
        capsys.readouterr()
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


def test_geometric_mean_direction_summary(fano, bases3):
    # companion check: the exact ratio dominates the bound built from its own averages
    summary = exact_copy_summary(make_pattern("cycle", 7), fano, bases3)
    bound = amgm_bound(summary.capture_averages, 3)
    assert float(summary.ratio) >= bound.value
