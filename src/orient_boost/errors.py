"""Exception types shared across the package."""


class OrientBoostError(Exception):
    """Base class for all package errors."""


class InvalidOrientationError(OrientBoostError):
    """A directed pattern violates the no-2-cycle / no-duplicate contract."""


class InvalidTournamentError(OrientBoostError):
    """A dominance matrix is not a tournament."""


class InvalidDecompositionError(OrientBoostError):
    """A block decomposition is malformed or fails validation."""


class CongruenceError(OrientBoostError):
    """Construction parameters violate a divisibility/congruence requirement."""


class BudgetExceededError(OrientBoostError):
    """Work refused by its budget, the one refusal of every budget.

    ``size`` is the least budget that admits the work, a lower bound where
    the work stops early, and ``budget`` the budget it was refused at; both
    are integers in the budget's unit, which the message names.
    """

    def __init__(self, work: str, size: int, budget: int, unit: str):
        super().__init__(work, size, budget, unit)  # its arguments, so that a pool worker's refusal pickles
        self.size, self.budget = size, budget

    def __str__(self) -> str:
        work, size, budget, unit = self.args
        return f"{work} needs a budget of at least {size}, over the budget of {budget} (in {unit})"


class InfeasibleAtDeskScale(OrientBoostError):
    """The requested construction is not achievable within desk-scale search limits."""
