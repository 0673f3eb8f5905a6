"""Closed-form probabilities, parameter selection, and boost formulas.

Everything here is exact rational arithmetic except the two evaluators that
are inherently real-valued (the k-regular boost product and the geometric
mean bound), which use log-space floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, permutations

from .counting import capture_factors, count_embeddings
from .errors import BudgetExceededError, InvalidTournamentError
from .orientations import Tournament, as_fraction


@dataclass(frozen=True)
class RelabelCheck:
    """Measured vs predicted triple probabilities under uniform relabeling."""

    t: int
    consistent: Fraction
    inconsistent: Fraction
    cyclic: Fraction
    transitive: Fraction
    uniform_over_triples: bool
    method: str

    @property
    def ok(self) -> bool:
        """Uniform over triples, and as ``capture_factors(t)`` predicts: a fixed
        directed 2-path has probability c/4 and a fixed cyclic triangle f/8, so
        a pair is consistent with probability c/2 and a triangle cyclic f/4."""
        (c_num, c_den), _, (f_num, f_den), _ = capture_factors(self.t)
        consistent, cyclic = Fraction(c_num, 2 * c_den), Fraction(f_num, 4 * f_den)
        return (self.uniform_over_triples and (self.consistent, self.cyclic) == (consistent, cyclic)
                and (self.inconsistent, self.transitive) == (1 - consistent, 1 - cyclic))


def verify_relabel_probabilities(r: Tournament, *, method: str = "auto") -> RelabelCheck:
    """Exhaustively measure pair/triangle probabilities under random relabeling.

    For every ordered vertex triple (x, y, z), over a uniform relabeling of
    r: the probability that the edges {x,y} and {y,z} form a directed path,
    and that {x,y,z} induces a directed triangle.  The 'permutations' method
    tallies every relabeling separately per triple (t <= 7); 'injections'
    groups the t! relabelings by their restriction to the triple, which is
    uniform over ordered injections, and counts the directed 2-paths and
    3-cycles with ``count_embeddings``.
    """
    t = r.n
    if t % 2 == 0:
        raise InvalidTournamentError("relabeling probabilities need odd t")
    if not r.is_regular():
        raise InvalidTournamentError("base tournament must be regular")
    if method == "auto":
        method = "permutations" if t <= 7 else "injections"

    if method == "permutations":
        if t > 7:
            raise BudgetExceededError(f"permutation tally at t={t}", t, 7, "base vertices")
        bm = tuple(tuple((r.rows[a] >> b) & 1 for b in range(t)) for a in range(t))
        perms = list(permutations(range(t)))
        total = len(perms)
        cons_counts = set()
        cyc_counts = set()
        for x in range(t):
            for y in range(t):
                if y == x:
                    continue
                for z in range(t):
                    if z in (x, y):
                        continue
                    cons = cyc = 0
                    for s in perms:
                        a, b, c = s[x], s[y], s[z]
                        if bm[a][b] == bm[b][c]:
                            cons += 1
                            if bm[a][b] == bm[c][a]:
                                cyc += 1
                    cons_counts.add(cons)
                    cyc_counts.add(cyc)
        uniform = len(cons_counts) == 1 and len(cyc_counts) == 1
        cons = Fraction(cons_counts.pop(), total)
        cyc = Fraction(cyc_counts.pop(), total)
    else:
        # the restriction of a uniform relabeling to any ordered triple is a
        # uniform injection, identically for every source triple; a consistent
        # (cyclic) triple is a directed 2-path (3-cycle) in one of two directions
        total = t * (t - 1) * (t - 2)
        uniform = True
        cons = Fraction(2 * count_embeddings(((0, 1), (1, 2)), 3, r.rows), total)
        cyc = Fraction(2 * count_embeddings(((0, 1), (1, 2), (2, 0)), 3, r.rows), total)

    return RelabelCheck(
        t=t,
        consistent=cons,
        inconsistent=1 - cons,
        cyclic=cyc,
        transitive=1 - cyc,
        uniform_over_triples=uniform,
        method=method,
    )


@dataclass(frozen=True)
class ParameterSolution:
    t: int
    rho: Fraction
    delta: Fraction
    eps: Fraction
    k: int


# The largest power a check of `solve_parameters` may raise to.  A solve scans
# about 2k^2/eps values of t, each raising t-sized fractions to these powers, so
# its cost grows with their square (timings in the README's budgets table).
_EXPONENT_BUDGET = 3000


def _exponents(eps: Fraction, k: int) -> tuple[int, int, int, int]:
    """The powers the checks raise to: 3 - eps and 2k^2/eps, as numerator and denominator."""
    exp3, kk = 3 - eps, Fraction(2 * k * k) / eps
    return exp3.numerator, exp3.denominator, kk.numerator, kk.denominator


def inequalities_hold(t: int, eps, k: int) -> tuple[bool, bool, bool]:
    """The three selection inequalities at a candidate odd t, checked exactly.

    Rational exponents are removed by raising both sides to the exponent's
    denominator, which preserves order for positive bases.
    """
    eps = as_fraction(eps)
    u, v, w, x = _exponents(eps, k)
    consistent, _, cyclic, _ = (Fraction(a, b) for a, b in capture_factors(t))
    first = cyclic ** v >= consistent ** u

    rho = Fraction(1, t - 2)
    lhs = (1 - rho * rho) ** w
    rhs = ((1 + rho / 2) / (1 + rho)) ** x
    second = lhs >= rhs

    third = t * eps >= 2
    return first, second, third


def solve_parameters(eps, k: int) -> ParameterSolution:
    """Least odd t satisfying all three selection inequalities.

    The third, t * eps >= 2, fails below 2/eps, so the scan starts there.
    Raises BudgetExceededError when a check would raise to a power over
    ``_EXPONENT_BUDGET``.
    """
    eps = as_fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError("eps must be in (0, 1]")
    if k < 1:
        raise ValueError("k must be a positive integer")
    if (power := max(_exponents(eps, k))) > _EXPONENT_BUDGET:
        raise BudgetExceededError(f"solve at eps={eps}, k={k}", power, _EXPONENT_BUDGET, "the largest power raised to")
    for t in count(max(3, math.ceil(2 / eps)) | 1, 2):
        if all(inequalities_hold(t, eps, k)):
            return ParameterSolution(
                t=t, rho=Fraction(1, t - 2), delta=Fraction(1, 4 * (t - 2)), eps=eps, k=k
            )
    raise AssertionError("unreachable: the scan terminates for eps in (0,1]")


def kreg_boost_formula(k: int, t: int) -> float:
    """Finite-t boost product for k-regular patterns; tends to e^k as t grows."""
    if t < 5 or t % 2 == 0:
        raise ValueError(f"need odd t >= 5, got {t}")
    if k < 1:
        raise ValueError("k must be a positive integer")
    try:
        log = k * (t - 3) * math.log1p(1 / (t - 2))
        log += k * k * t * math.log1p(-1 / ((t - 2) ** 2))
        log += k * k * t * math.log1p(-(3 * t - 5) / ((t - 1) ** 3))
        return math.exp(log)
    except OverflowError:
        raise ValueError(f"the boost product at k={k}, t={t} is outside the float range") from None


@dataclass(frozen=True)
class GeometricMeanBound:
    value: float
    margin: float | None
    margin_required: float | None

    @property
    def margin_ok(self) -> bool | None:
        if self.margin is None:
            return None
        return self.margin >= self.margin_required


def amgm_bound(averages, t: int, eps=None) -> GeometricMeanBound:
    """Geometric-mean lower bound on the boost ratio from capture averages.

    averages = (C, I, F, G): average per-copy captures.  The bound is the
    product of the ``capture_factors(t)`` raised to these averages.  With
    eps given, also reports the exponent margin C + (3-eps)F - I - G against
    the required eps*t/2.
    """
    c, i, f, g = (float(x) for x in averages)
    if min(c, i, f, g) < 0:
        raise ValueError("averages must be nonnegative")

    def power(num: int, den: int, exponent: float) -> float:
        if exponent == 0:
            return 1.0
        if num == 0:
            return 0.0
        return math.exp(exponent * math.log(num / den))

    value = 1.0
    for exponent, (num, den) in zip((c, i, f, g), capture_factors(t)):
        value *= power(num, den, exponent)
    if eps is None:
        return GeometricMeanBound(value, None, None)
    eps = float(as_fraction(eps))
    margin = c + (3 - eps) * f - i - g
    return GeometricMeanBound(value, margin, eps * t / 2)
