import dataclasses
import math
from fractions import Fraction
from itertools import count, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orient_boost.bounds import (
    amgm_bound,
    inequalities_hold,
    kreg_boost_formula,
    solve_parameters,
    verify_relabel_probabilities,
)
from orient_boost.counting import capture_factors
from orient_boost.errors import BudgetExceededError, InvalidTournamentError
from orient_boost.orientations import transitive_tournament
from orient_boost.sampling import circulant_regular_tournament, quadratic_residue_tournament


@pytest.mark.parametrize("t,cons,cyc", [
    (3, Fraction(1), Fraction(1)),
    (5, Fraction(2, 3), Fraction(1, 2)),
    (7, Fraction(3, 5), Fraction(2, 5)),
])
def test_relabel_probabilities_circulant(t, cons, cyc):
    chk = verify_relabel_probabilities(circulant_regular_tournament(t))
    assert chk.ok
    assert chk.consistent == cons
    assert chk.cyclic == cyc
    assert chk.inconsistent == 1 - cons
    assert chk.transitive == 1 - cyc


@pytest.mark.parametrize("field", ["consistent", "inconsistent", "cyclic", "transitive", "uniform_over_triples"])
def test_relabel_check_fails_on_any_field_off_its_capture_factor(field):
    chk = verify_relabel_probabilities(circulant_regular_tournament(5))
    off = not chk.uniform_over_triples if field == "uniform_over_triples" else getattr(chk, field) + Fraction(1, 60)
    assert chk.ok and not dataclasses.replace(chk, **{field: off}).ok


def test_relabel_probabilities_t9_and_base_independence():
    chk = verify_relabel_probabilities(circulant_regular_tournament(9))
    assert chk.ok and chk.method == "injections"
    assert chk.consistent == Fraction(4, 7)
    qr = verify_relabel_probabilities(quadratic_residue_tournament(7))
    circ = verify_relabel_probabilities(circulant_regular_tournament(7))
    assert qr.ok and circ.ok
    assert (qr.consistent, qr.cyclic) == (circ.consistent, circ.cyclic)


# (t-1)/(2t-4) and (t+1)/(4t-8) at t = 15 and 19
@pytest.mark.parametrize("r,cons,cyc", [
    (circulant_regular_tournament(15), Fraction(7, 13), Fraction(4, 13)),
    (quadratic_residue_tournament(19), Fraction(9, 17), Fraction(5, 17)),
], ids=["circulant15", "qr19"])
def test_relabel_injections_beyond_t13(r, cons, cyc):
    chk = verify_relabel_probabilities(r)
    assert chk.ok and chk.method == "injections"
    assert (chk.consistent, chk.cyclic) == (cons, cyc)


@pytest.mark.parametrize("t", [3, 5, 7, 9])
def test_capture_factors_match_measured_relabel_probabilities(t):
    # one fixed orientation of a 2-path (4 of them) or a triangle (8 of them):
    # a consistent pair is one of 2, an inconsistent one of 2, a cyclic
    # triangle one of 2 and a transitive one of 6
    chk = verify_relabel_probabilities(circulant_regular_tournament(t))
    measured = (chk.consistent * 4 / 2, chk.inconsistent * 4 / 2,
                chk.cyclic * 8 / 2, chk.transitive * 8 / 6)
    assert tuple(Fraction(a, b) for a, b in capture_factors(t)) == measured


def test_relabel_methods_agree():
    for t in (3, 5, 7):
        r = circulant_regular_tournament(t)
        a = verify_relabel_probabilities(r, method="permutations")
        b = verify_relabel_probabilities(r, method="injections")
        assert (a.consistent, a.cyclic) == (b.consistent, b.cyclic)


def test_relabel_probability_brute_oracle():
    # independent tally: relabel the tournament explicitly and inspect one triple
    r = circulant_regular_tournament(5)
    cons = cyc = 0
    for sigma in permutations(range(5)):
        beats = lambda u, v: r.beats(sigma[u], sigma[v])
        if beats(0, 1) == beats(1, 2):
            cons += 1
        if beats(0, 1) == beats(1, 2) == beats(2, 0):
            cyc += 1
    assert Fraction(cons, 120) == Fraction(2, 3)
    assert Fraction(cyc, 120) == Fraction(1, 2)


def test_relabel_rejects_bad_input():
    with pytest.raises(InvalidTournamentError):
        verify_relabel_probabilities(transitive_tournament(5))
    with pytest.raises(BudgetExceededError):
        verify_relabel_probabilities(circulant_regular_tournament(9), method="permutations")


def test_triple_pattern_totals_in_regular_tournaments():
    # any regular tournament on t vertices has t(t-1)(t-3)/8 transitive triples
    for t in (5, 7, 9):
        r = circulant_regular_tournament(t)
        cyclic = 0
        for a in range(t):
            for b in range(a + 1, t):
                for c in range(b + 1, t):
                    edges = ((a, b) if r.beats(a, b) else (b, a),
                             (b, c) if r.beats(b, c) else (c, b),
                             (a, c) if r.beats(a, c) else (c, a))
                    heads = {v for _, v in edges}
                    if len(heads) == 3:
                        cyclic += 1
        total = t * (t - 1) * (t - 2) // 6
        assert total - cyclic == t * (t - 1) * (t - 3) // 8


def test_solve_parameters_examples():
    sol = solve_parameters(1, 1)
    assert (sol.t, sol.delta) == (7, Fraction(1, 20))
    assert sol.rho == Fraction(1, 5)
    sol = solve_parameters(1, 2)
    assert (sol.t, sol.delta) == (19, Fraction(1, 68))
    sol = solve_parameters("0.1", 1)
    assert sol.t == 43 and sol.t >= 21  # third inequality alone forces t >= 20
    sol = solve_parameters(Fraction(1, 2), 1)
    assert sol.t == 11


@pytest.mark.parametrize("eps,k", [(1, 1), (1, 2), ("0.1", 1), (Fraction(1, 2), 1), (Fraction(3, 4), 2)])
def test_solve_parameters_minimality(eps, k):
    sol = solve_parameters(eps, k)
    assert all(inequalities_hold(sol.t, eps, k))
    if sol.t > 3:
        assert not all(inequalities_hold(sol.t - 2, eps, k))


def test_solve_parameters_validation():
    with pytest.raises(ValueError):
        solve_parameters(0, 1)
    with pytest.raises(ValueError):
        solve_parameters(2, 1)
    with pytest.raises(ValueError):
        solve_parameters(1, 0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(eps=st.fractions(Fraction(1, 20), 1, max_denominator=20), k=st.integers(1, 2))
def test_solve_parameters_is_the_least_odd_t_from_3(eps, k):
    """The scan starts at 2/eps, below which the third inequality fails, and finds the t a scan from 3 finds."""
    t = next(t for t in count(3, 2) if all(inequalities_hold(t, eps, k)))
    assert solve_parameters(eps, k).t == t


@pytest.mark.parametrize("eps, k, power", [
    (Fraction(1, 100000), 1, 299_999),  # the numerator of 3 - eps
    (Fraction(1, 1000), 3, 18_000),  # 2k^2/eps
    (Fraction(1499, 1500), 1, 3_001),  # one over, though the answer is t = 7
    (1, 39, 3_042),  # 2k^2 at eps = 1
])
def test_solve_refuses_a_power_over_its_budget_at_once(eps, k, power):
    with pytest.raises(BudgetExceededError) as exc:
        solve_parameters(eps, k)
    assert str(exc.value) == (f"solve at eps={eps}, k={k} needs a budget of at least {power}, over the budget "
                              "of 3000 (in the largest power raised to)")


def test_solve_admits_a_power_at_its_budget():
    # the largest power is 3,000, the numerator of 3 - 1497/1499 = 3000/1499
    assert solve_parameters(Fraction(1497, 1499), 1).t == 7


def test_kreg_boost_formula_small_t():
    assert kreg_boost_formula(1, 7) == pytest.approx(0.909, abs=1e-3)
    with pytest.raises(ValueError):
        kreg_boost_formula(1, 6)
    with pytest.raises(ValueError):
        kreg_boost_formula(1, 3)
    with pytest.raises(ValueError):
        kreg_boost_formula(0, 7)


def test_kreg_boost_formula_limits():
    assert abs(kreg_boost_formula(1, 10001) / math.e - 1) < 1e-3
    for k in (1, 2, 3):
        assert abs(kreg_boost_formula(k, 10 ** 6 + 1) / math.exp(k) - 1) < 1e-3


@pytest.mark.parametrize("k, t", [(1, 10 ** 400 + 1), (10 ** 200, 7), (710, 10 ** 9 + 1)])
def test_kreg_boost_formula_outside_the_float_range_is_refused(k, t):
    with pytest.raises(ValueError, match=f"the boost product at k={k}, t={t} is outside the float range"):
        kreg_boost_formula(k, t)


def test_amgm_bound_values():
    assert amgm_bound((0, 0, 0, 0), 5).value == 1.0
    b = amgm_bound((Fraction(7, 5), 0, 0, 0), 3)
    assert b.value == pytest.approx(2 ** 1.4, rel=1e-12)
    assert amgm_bound((1, 0.5, 0, 0), 3).value == 0.0
    assert amgm_bound((1, 0, 0, 0.5), 3).value == 0.0
    with pytest.raises(ValueError):
        amgm_bound((-1, 0, 0, 0), 5)


def test_amgm_margin_report():
    b = amgm_bound((Fraction(7, 5), 0, 0, 0), 3, eps=1)
    assert b.margin == pytest.approx(1.4)
    assert b.margin_required == pytest.approx(1.5)
    assert b.margin_ok is False
    assert amgm_bound((4, 0, 0, 0), 5, eps=1).margin_ok is True
    assert amgm_bound((1, 0, 0, 0), 3).margin_ok is None


def test_amgm_direction_on_exact_instance():
    # geometric-mean bound from exact averages stays below the exact ratio
    from orient_boost.counting import exact_copy_summary
    from orient_boost.designs import steiner_triple_system
    from orient_boost.orientations import make_pattern
    from orient_boost.sampling import BaseTournaments

    fano = steiner_triple_system(7)
    bases = BaseTournaments.circulant(3)
    for h in (make_pattern("cycle", 7), make_pattern("path", 7)):
        summary = exact_copy_summary(h, fano, bases)
        assert summary.typical_fraction == 1
        bound = amgm_bound(summary.capture_averages, 3)
        assert float(summary.ratio) >= bound.value - 1e-12
