"""Every budget of the package refuses through the one BudgetExceededError.

Each row trips one of the twelve refusal sites with a small input.  The
error states the least budget that admits the work (a lower bound where the
work stops early) and the budget, both integers in the budget's unit.
"""

from fractions import Fraction

import pytest

from orient_boost.bounds import solve_parameters, verify_relabel_probabilities
from orient_boost.counting import (
    count_hamilton_cycles,
    count_labeled_copies,
    estimate_expected_copies,
    exact_copy_summary,
)
from orient_boost.designs import adjusted_decomposition, steiner_triple_system
from orient_boost.errors import BudgetExceededError, InfeasibleAtDeskScale
from orient_boost.orientations import make_pattern, random_tournament
from orient_boost.sampling import BaseTournaments, circulant_regular_tournament, enumerate_support

REFUSALS = {
    "vertices of a pattern": (lambda: make_pattern("cycle", 1001), 1001, 1000),
    "Hamilton count": (lambda: count_hamilton_cycles(random_tournament(21, 1)), 21, 20),
    "brute-force count": (lambda: count_labeled_copies(make_pattern("cycle", 11), random_tournament(11, 1),
                                                       budget_n=10), 11, 10),
    # (13,7) is one K13 block, which the first copy of C13 captures whole: perm(13, 13) injections
    "injections": (lambda: estimate_expected_copies(make_pattern("cycle", 13), adjusted_decomposition(13, 7),
                                                    samples=1, master_seed=1), 6_227_020_800, 500_000),
    # at least (12-2)! terms, refused before any orbit search
    "exact sum, up front": (lambda: exact_copy_summary(make_pattern("cycle", 12), adjusted_decomposition(12, 3),
                                                       budget_n=9), 10, 9),
    # 9 · 7! = 45,360 terms, over 8! and at most 9!
    "exact sum, counted": (lambda: exact_copy_summary(make_pattern("path", 9), steiner_triple_system(9),
                                                      budget_n=8), 9, 8),
    "relabelings of a block": (lambda: list(enumerate_support(adjusted_decomposition(13, 7),
                                                              BaseTournaments.circulant(7))), 6_227_020_800, 10**6),
    # 26 coin triangles, two outcomes each: the count stops at 2^20
    "support outcomes": (lambda: list(enumerate_support(steiner_triple_system(13), BaseTournaments.circulant(3))),
                         2**20, 10**6),
    "solve exponent": (lambda: solve_parameters(Fraction(1, 100000), 1), 299_999, 3000),
    # (25,5) builds in 2,621 nodes
    "design nodes": (lambda: adjusted_decomposition(25, 5, node_budget=2620), 2621, 2620),
    "k-regular draw": (lambda: make_pattern("k_regular_random", 7, k=3, seed=5), 20_001, 20_000),
    "permutation tally": (lambda: verify_relabel_probabilities(circulant_regular_tournament(9),
                                                               method="permutations"), 9, 7),
}


@pytest.mark.parametrize("call, size, budget", REFUSALS.values(), ids=REFUSALS)
def test_every_budget_refuses_with_what_the_work_needs_and_the_budget(call, size, budget):
    with pytest.raises((BudgetExceededError, InfeasibleAtDeskScale)) as exc:
        call()
    # a design build's node budget is refused as InfeasibleAtDeskScale naming (n, t), caused by the one error
    err = exc.value.__cause__ if type(exc.value) is InfeasibleAtDeskScale else exc.value
    assert type(err) is BudgetExceededError
    assert (err.size, err.budget) == (size, budget) and size > budget
    assert f" needs a budget of at least {size}, over the budget of {budget} (in " in str(err)
