"""Fixed-point iteration on the electric field.

The solution is f(t, x, v) = f*(label), the label being the free-flight state
its characteristic reaches at the horizon; transported_datum reads f this way
on the (x, v) mesh of each time slice.  Each sweep integrates out the velocity
(composite Simpson) and re-solves the split Poisson problem slice by slice.
Convergence is tracked in the exponentially weighted sup norm, whose
successive deltas contract with factor 1/2 in the theorem regime.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .asymptotic import (
    AsymptoticDatum,
    ValidationReport,
    default_vmax,
    eval_f_star,
    validate_class_membership,
)
from .characteristics import DEFAULT_SUBSTEPS, FieldHistory, transport_to_horizon
from .errors import DomainError, ParameterError, SolverDivergenceError
from .poisson import NEWTON_TOL, SpatialGrid, make_field_slice

MAX_ITERATIONS = 30
FIXED_POINT_RTOL = 1e-9


@dataclass(frozen=True)
class DensityHistory:
    """Time x space samples of the spatial density with per-slice mass."""

    times: np.ndarray
    rho: np.ndarray
    mass: np.ndarray

    def __post_init__(self):
        for name in ("times", "rho", "mass"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass
class SchemeResult:
    """Trace of one fixed-point run: resolved window, norms, deltas, ratios, final histories."""

    horizon: float
    vmax: float
    norms: list[float] = field(default_factory=list)
    deltas: list[float] = field(default_factory=list)
    ratios: list[float] = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    tolerance: float = 0.0
    field_history: FieldHistory | None = None
    density_history: DensityHistory | None = None


def simpson_weights(n_intervals: int, h: float) -> np.ndarray:
    """Composite Simpson weights on n_intervals (even) uniform intervals."""
    if n_intervals % 2 != 0 or n_intervals < 2:
        raise ParameterError(f"velocity interval count must be even >= 2, got {n_intervals}")
    w = np.ones(n_intervals + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * h / 3.0


def transported_datum(
    datum: AsymptoticDatum,
    history: FieldHistory,
    times,
    v: np.ndarray,
    substeps: int = DEFAULT_SUBSTEPS,
):
    """Yield the transported datum on the v x grid mesh for each t in times.

    f(t, x, v) = f*(X(T) - T V(T), V(T)), where (X, V) is the characteristic
    through (x, v) at t, carried to the horizon T with step history.dt /
    substeps.  The mesh is built once; each slice has shape (v.size, nx).
    """
    x = history.grid.nodes
    X0, V0 = (a.ravel() for a in np.meshgrid(x, v))
    step = history.dt / substeps
    T = history.horizon
    for t in times:
        XT, VT = transport_to_horizon(history, float(t), X0, V0, step)
        yield eval_f_star(datum, XT - T * VT, VT).reshape(v.size, x.size)


def push_density(
    datum: AsymptoticDatum,
    history: FieldHistory,
    vmax: float,
    nv: int,
    substeps: int = DEFAULT_SUBSTEPS,
) -> DensityHistory:
    """Density of the transported datum on every (time, space) node.

    rho(t_i, x_j) = sum_k w_k f(t_i, x_j, v_k), the composite Simpson sum of
    each transported_datum slice over the truncated velocity grid.
    """
    v = np.linspace(-vmax, vmax, nv + 1)
    w = simpson_weights(nv, v[1] - v[0])
    slices = transported_datum(datum, history, history.times, v, substeps)
    rho = np.array([w @ f for f in slices])
    np.maximum(rho, 0.0, out=rho)  # clip negative round-off from quadrature
    mass = rho.mean(axis=1)
    return DensityHistory(times=history.times, rho=rho, mass=mass)


def field_update(
    density: DensityHistory, grid: SpatialGrid, newton_tol: float = NEWTON_TOL
) -> FieldHistory:
    """Solve the split Poisson problem on every slice and assemble the new field."""
    slices = []
    for i in range(density.times.size):
        try:
            slices.append(make_field_slice(density.rho[i], grid, newton_tol=newton_tol))
        except (ParameterError, DomainError, SolverDivergenceError) as exc:
            exc.args = (f"slice {i} (t={density.times[i]:g}): {exc}",)
            raise
    return FieldHistory.from_slices(density.times, grid, slices)


def weighted_norm_array(times: np.ndarray, values: np.ndarray, a: float, t0: float) -> float:
    """max over nodes with t >= t0 of e^{a t} sup_x |values(t, .)| (grid lower bound of the sup)."""
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ParameterError("empty history")
    mask = times >= t0 - 1e-12
    sup = np.max(np.abs(values[mask]), axis=1)
    return float(np.max(np.exp(a * times[mask]) * sup))


def weighted_norm(history: FieldHistory, a: float, t0: float) -> float:
    """Weighted norm of the total field of a history."""
    return weighted_norm_array(history.times, history.E, a, t0)


@dataclass(frozen=True)
class RunSettings:
    """Numerics of one fixed-point run, with the defaults of the configuration file.

    vmax and horizon left None are resolved by run_iteration and recorded in
    its SchemeResult.
    """

    nx: int = 256
    nv: int = 512
    nt: int = 200
    vmax: float | None = None
    horizon: float | None = None
    newton_tol: float = NEWTON_TOL
    ode_substeps: int = DEFAULT_SUBSTEPS
    fixed_point_tol: float = FIXED_POINT_RTOL
    max_iterations: int = MAX_ITERATIONS
    exploratory: bool = False


def default_horizon(klass, truncation: float = 1e-10) -> float:
    """Horizon T with the theorem's envelope truncation (16 a1 / a) e^{-aT} <= truncation."""
    T = math.log(16.0 * klass.a1 / (klass.a * truncation)) / klass.a
    return max(T, klass.t0 + 1.0 / klass.a)


def run_iteration(
    datum: AsymptoticDatum, settings: RunSettings, report: ValidationReport | None = None
) -> SchemeResult:
    """Alternate density pushes and field updates until the weighted delta is small.

    Outside the theorem regime (or for data failing class membership) the run
    proceeds only when settings.exploratory is set; contraction is then
    reported rather than asserted.  Non-convergence at the iteration cap is a
    result, not an exception.  A caller that has already validated the datum
    passes its report; otherwise the datum is validated here.
    """
    klass = datum.klass
    if report is None:
        report = validate_class_membership(datum)
    if not report.admissible:
        if not settings.exploratory:
            raise ParameterError(
                "datum fails class membership or theorem-regime conditions; "
                "set exploratory mode to proceed"
            )
        warnings.warn(
            "running outside the theorem regime: contraction is reported, not guaranteed",
            stacklevel=2,
        )

    grid = SpatialGrid(settings.nx)
    horizon = settings.horizon if settings.horizon is not None else default_horizon(klass)
    if horizon <= klass.t0:
        raise ParameterError(f"horizon {horizon} must exceed t0 {klass.t0}")
    vmax = settings.vmax if settings.vmax is not None else default_vmax(datum)
    times = np.linspace(klass.t0, horizon, settings.nt + 1)

    result = SchemeResult(horizon=horizon, vmax=vmax)
    history = FieldHistory.zero(times, grid)
    density = None
    tol = None
    for n in range(1, settings.max_iterations + 1):
        density = push_density(datum, history, vmax, settings.nv, settings.ode_substeps)
        new_history = field_update(density, grid, newton_tol=settings.newton_tol)
        norm = weighted_norm(new_history, klass.a, klass.t0)
        delta = weighted_norm_array(times, new_history.E - history.E, klass.a, klass.t0)
        result.norms.append(norm)
        result.deltas.append(delta)
        if len(result.deltas) >= 2 and result.deltas[-2] > 0.0:
            result.ratios.append(delta / result.deltas[-2])
        history = new_history
        result.iterations = n
        if tol is None:
            tol = settings.fixed_point_tol * (1.0 + norm)
            result.tolerance = tol
        if delta <= tol:
            result.converged = True
            break
    result.field_history = history
    result.density_history = density
    return result


def reconstruct_f(datum: AsymptoticDatum, history: FieldHistory, point) -> float:
    """f(t, x, v) = f* at the asymptotic label of the trajectory through the point."""
    from .characteristics import label_from_point

    label = label_from_point(point, history)
    return float(eval_f_star(datum, label.x, label.v))
