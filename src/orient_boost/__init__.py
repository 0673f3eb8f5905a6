"""Block-randomized regular tournaments and expected spanning-copy counts."""

from .bounds import (
    GeometricMeanBound,
    ParameterSolution,
    RelabelCheck,
    amgm_bound,
    inequalities_hold,
    kreg_boost_formula,
    solve_parameters,
    verify_relabel_probabilities,
)
from .counting import (
    CopyBlockStats,
    CopyKernel,
    EstimateReport,
    baseline_expected_copies,
    count_hamilton_cycles,
    count_hamilton_paths,
    count_labeled_copies,
    estimate_expected_copies,
    exact_copy_summary,
    typical_closed_form,
)
from .designs import (
    Block,
    BlockKind,
    Decomposition,
    ValidationReport,
    adjusted_decomposition,
    decomposition_from_json,
    extend_to_even,
    point_stabiliser_orbits,
    projective_plane_decomposition,
    steiner_triple_system,
    validate,
)
from .errors import (
    BudgetExceededError,
    CongruenceError,
    InfeasibleAtDeskScale,
    InvalidDecompositionError,
    InvalidOrientationError,
    InvalidTournamentError,
    OrientBoostError,
)
from .orientations import (
    Orientation,
    OrientationFlags,
    OrientationStats,
    Tournament,
    classify,
    consistency_check,
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
from .sampling import (
    BaseTournaments,
    SampleSeed,
    circulant_regular_tournament,
    enumerate_support,
    quadratic_residue_tournament,
    sample,
)

__version__ = "0.1.0"
