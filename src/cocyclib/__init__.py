"""Exact computations for locally constant linear cocycles over subshifts of
finite type: holonomies, Lyapunov exponents, distortion-regularity blocks,
shadowing orbits, block upper-triangular structure checks and transfer
function reconstruction."""

__version__ = "0.1.0"

from .sft import (  # noqa: F401
    INFINITE,
    MetricParams,
    PeriodicPoint,
    SymbolicPoint,
    TransitionMatrix,
    agreement_radius,
    bracket,
    connecting_word,
    distance,
    enumerate_periodic,
    full_shift,
    golden_mean_shift,
    is_admissible,
    periodic_point,
    point,
    same_sequence,
    shift,
)
from .measure import MarkovMeasure, cylinder_measure, sample_point, stationary  # noqa: F401
from .linalg import (  # noqa: F401
    ConeParams,
    Flag,
    Subspace,
    cone_growth_bound,
    cone_invariance_check,
    eigensplit,
    oblique_projection,
    principal_angle,
    projective_lipschitz_bound,
    transversality_time,
)
from .cocycle import (  # noqa: F401
    LocallyConstantCocycle,
    coboundary_conjugate,
    evaluate,
    inverse_cocycle,
    iterate,
    qc_distortion,
)
from .holonomy import (  # noqa: F401
    HolonomyMap,
    composed_holonomy,
    stable_holonomy,
    unstable_holonomy,
)
from .regularity import (  # noqa: F401
    BlockParams,
    ExponentReport,
    block_membership_finite,
    block_membership_periodic,
    finite_scale_exponent,
    flag_transport,
    monte_carlo_exponent,
    periodic_exponents,
)
from .shadow import ShadowSpec, angle_experiment, build_shadow, growth_measure, shadow_profile  # noqa: F401
from .zimmer import ZimmerDescriptor, membership, normalize_exponent, quotient_action, random_element  # noqa: F401
from .transfer import (  # noqa: F401
    ConjugacyReport,
    TransferEvaluator,
    exact_conjugacy_residual,
    exact_path_gap,
    holder_estimate,
    superdiagonal_peel,
    verify_conjugacy,
)
