"""Backward (scattering) solver for the 1D Vlasov-Poisson system with massless electrons."""

__version__ = "0.1.0"

from .asymptotic import (
    AsymptoticDatum,
    ClassParameters,
    ValidationReport,
    eval_f_star,
    fourier_f_star,
    h_limit,
    make_gaussian_cosine_datum,
    make_tabulated_datum,
    validate_class_membership,
)
from .characteristics import FieldHistory
from .poisson import (
    BoundsReport,
    FieldSlice,
    NewtonReport,
    SpatialGrid,
    kernel_eval,
    solve_linear,
    solve_nonlinear,
    stability_ratio,
    verify_potential_bounds,
)
from .scheme import (
    DensityHistory,
    RunSettings,
    SchemeResult,
    field_update,
    push_density,
    run_iteration,
    weighted_norm,
)
from .diagnostics import (
    Certificate,
    DecayReport,
    InstabilityReport,
    WeakConvergenceReport,
    certify,
    decay_fit,
    instability_report,
    lipschitz_estimate,
    weak_convergence_gap,
)
