"""Chebyshev polynomials on equipotential level curves.

Computes monic Chebyshev (minimax) polynomials on discretized level
curves of explicit exterior-map families, the associated Faber
polynomials from truncated Laurent series, and ships experiment
harnesses for the convergence/invariance behavior that connects them.
"""

from .series import (
    ComplexPolynomial,
    DepthExhaustionError,
    LaurentSeriesAtInfinity,
    NotMonicError,
    faber_basis_expand,
    faber_powers,
    faber_recurrence,
    monic_faber,
)
from .curves import (
    Circle,
    CurveFamily,
    CurveSample,
    ExplicitMap,
    Interval,
    InversePolynomialImage,
    Lemniscate,
    capacity_leading_coefficient,
    faber_basis,
    joukowski,
    phi_series,
    sample_level_curve,
)
from .minimax import (
    MinimaxSolution,
    RankDeficiencyError,
    SolveOptions,
    chebyshev_on_points,
    curve_sup_norms,
    solve_chebyshev,
)
from .rootfind import RootFindingError, RootSet, all_roots
from .experiments import (
    ExperimentError,
    FaberErrorReport,
    InvarianceReport,
    RateReport,
    RivlinReport,
    TrajectorySet,
    WidomReport,
    faber_error_decay,
    invariance_experiment,
    monic_classical_chebyshev,
    rate_experiment,
    rivlin_check,
    widom_experiment,
    zero_trajectories,
)

__version__ = "0.1.0"
