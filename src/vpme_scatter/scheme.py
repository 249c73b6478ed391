"""Fixed-point iteration on the electric field.

The solution is f(t, x, v) = f*(label), the label being the free-flight state
its characteristic reaches at the horizon; transported_datum reads f this way
on the (x, v) mesh of each time slice.  Each sweep integrates out the velocity
(composite Simpson) and re-solves the split Poisson problem slice by slice;
the field history of a sweep keeps the potentials it solved, so the run's
final history carries the slices that diagnostics.certify reads.  Convergence
is tracked in the exponentially weighted sup norm, whose successive deltas
contract with factor 1/2 in the theorem regime.

Past a history's quiet time every characteristic is free flight,
f(t, x, v) = f*(x - v t, v), so the Simpson sum of a slice there is a closed
finite sum over the Simpson nodes that needs no characteristics.  A push
transports only the slices before the quiet time and takes every other row
from that sum; the first sweep runs on the zero field, whose quiet time is the
start, so it transports nothing.

A reflection-symmetric datum, f*(-x, -v) = f*(x, v) (the gaussian-cosine
family; tables are not assumed to be), has a field odd in x, so the flow
commutes with R(x, v) = (-x, -v) and f(t) o R = f(t) on every slice.  On the
mirror-symmetric velocity lattice of velocity_grid a push then transports only
the rows v >= 0 of a slice, (nv/2 + 1) nx points, and reads each row -v_k from
row v_k at the mirrored x nodes.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .asymptotic import (
    AsymptoticDatum,
    ValidationReport,
    default_vmax,
    eval_f_star,
    h_limit,
    validate_class_membership,
)
from .characteristics import DEFAULT_SUBSTEPS, FieldHistory, nystrom_steps, transport_to_horizon
from .errors import DomainError, ParameterError, SolverDivergenceError
from .poisson import NEWTON_TOL, SpatialGrid, make_field_slice

MAX_ITERATIONS = 30
FIXED_POINT_RTOL = 1e-9
# Phase points transported together: small enough that a block's working
# arrays stay in cache (the field kernel is memory-bound on whole meshes of
# 100k points, and blocks of 32,768 already cost more per point than blocks
# of 16,384), large enough that per-call overhead stays small.
TRANSPORT_BLOCK = 16384


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


@dataclass(frozen=True)
class SweepStats:
    """What one sweep did and cost.

    quiet_time is that of the field the density was pushed on; transported
    slices went through the characteristics and reused ones were read from the
    free-streaming sum; mesh_points is the number of phase points each
    transported slice carries ((nv/2 + 1) nx for a reflection-symmetric datum,
    (nv + 1) nx otherwise); sampled_points counts the field samples of the
    transport (three per Nystrom step per transported point); push_s and
    update_s are the wall times of the density push and the field update.
    """

    quiet_time: float
    transported: int
    reused: int
    mesh_points: int
    sampled_points: int
    push_s: float
    update_s: float


@dataclass
class SchemeResult:
    """Trace of one fixed-point run: resolved window, norms, deltas, ratios, sweeps, final histories."""

    horizon: float
    vmax: float
    norms: list[float] = field(default_factory=list)
    deltas: list[float] = field(default_factory=list)
    ratios: list[float] = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    tolerance: float = 0.0
    sweeps: list[SweepStats] = field(default_factory=list)
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


def velocity_grid(vmax: float, nv: int) -> tuple[np.ndarray, np.ndarray]:
    """Velocity nodes vmax k / (nv/2), k = -nv/2 .. nv/2, and their composite Simpson weights.

    The nodes are exact mirror images, v[::-1] == -v, with v[0] = -vmax and
    v[-1] = vmax; np.linspace(-vmax, vmax, nv + 1) does not guarantee the
    mirror symmetry, which the reflection of push_density needs.
    """
    w = simpson_weights(nv, 2.0 * vmax / nv)
    m = nv // 2
    return vmax * (np.arange(-m, m + 1) / m), w


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
    substeps.  The mesh is built once and transported, and f* read at its
    labels, in equal blocks of at most TRANSPORT_BLOCK points; every operation
    on the way is per point, so a slice is bit-identical to one whole-mesh
    transport.  Each slice has shape (v.size, nx).
    """
    x = history.grid.nodes
    X0, V0 = (a.ravel() for a in np.meshgrid(x, v))
    step = history.dt / substeps
    T = history.horizon
    size = math.ceil(X0.size / math.ceil(X0.size / TRANSPORT_BLOCK))
    for t in times:
        f = np.empty(X0.size)
        for lo in range(0, X0.size, size):
            block = slice(lo, lo + size)
            XT, VT = transport_to_horizon(history, float(t), X0[block], V0[block], step)
            f[block] = eval_f_star(datum, XT - T * VT, VT)
        yield f.reshape(v.size, x.size)


def _transported_slices(history: FieldHistory) -> int:
    """Number of leading slices push_density transports: those before the history's quiet time."""
    return int(np.searchsorted(history.times, history.quiet_time()))


def _transported_velocities(datum: AsymptoticDatum, v: np.ndarray) -> np.ndarray:
    """Velocity rows a push transports: v >= 0 of a reflection-symmetric datum, else all of v."""
    return v[v.size // 2 :] if datum.reflection_symmetric else v


def _transported_rows(
    datum: AsymptoticDatum,
    history: FieldHistory,
    times,
    v: np.ndarray,
    w: np.ndarray,
    substeps: int = DEFAULT_SUBSTEPS,
) -> np.ndarray:
    """sum_k w_k f(t_i, x_j, v_k) of transported_datum on every (t_i, x_j).

    Only the _transported_velocities rows go through the characteristics.  For
    a reflection-symmetric datum, on the mirror-symmetric v of velocity_grid,
    the rows v_{nv-k} = -v_k are then filled from row k at x index (-j) % nx
    before the Simpson sum w @ f is taken.
    """
    nx = history.grid.nx
    mirror = -np.arange(nx) % nx
    rho = np.empty((len(times), nx))
    for i, f in enumerate(
        transported_datum(datum, history, times, _transported_velocities(datum, v), substeps)
    ):
        if f.shape[0] < v.size:
            f = np.vstack([f[:0:-1, mirror], f])
        rho[i] = w @ f
    return rho


def _free_streaming_rows(
    datum: AsymptoticDatum, times, x: np.ndarray, v: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """sum_k w_k f*(x_j - t_i v_k, v_k) on every (t_i, x_j): the density of free flight.

    For the gaussian-cosine family, f* = h(v) (1 + cos 2 pi x), the sum is
    sum_k w_k h(v_k) (1 + cos 2 pi x cos 2 pi t v_k + sin 2 pi x sin 2 pi t v_k),
    two velocity sums per time.  A table is read at the free-flight labels.
    Each row is computed on its own, so it does not depend on the other times.
    """
    rho = np.empty((len(times), x.size))
    if datum.family == "gaussian-cosine":
        wh = w * h_limit(datum, v)
        mean = wh.sum()
        cx, sx = np.cos(2.0 * np.pi * x), np.sin(2.0 * np.pi * x)
        for i, t in enumerate(times):
            phase = (2.0 * np.pi * t) * v
            rho[i] = mean + (wh @ np.cos(phase)) * cx + (wh @ np.sin(phase)) * sx
    else:
        for i, t in enumerate(times):
            rho[i] = w @ eval_f_star(datum, x[None, :] - t * v[:, None], v[:, None])
    return rho


def push_density(
    datum: AsymptoticDatum,
    history: FieldHistory,
    vmax: float,
    nv: int,
    substeps: int = DEFAULT_SUBSTEPS,
) -> DensityHistory:
    """Density of the transported datum on every (time, space) node.

    rho(t_i, x_j) = sum_k w_k f(t_i, x_j, v_k), the composite Simpson sum over
    the truncated velocity grid (velocity_grid): of each transported_datum
    slice before the history's quiet time (_transported_rows), and of the
    free-streaming datum f*(x - v t, v) at or past it, where every
    characteristic is free flight (_free_streaming_rows).

    For a reflection-symmetric datum only the rows v >= 0 of a slice are
    transported and the rows v < 0 are read by reflection.  That is exact only
    when the history's field is odd in x, E(t, -x) = -E(t, x); every iterate of
    run_iteration on such a datum is, to solver round-off.
    """
    v, w = velocity_grid(vmax, nv)
    times = history.times
    n = _transported_slices(history)
    rho = np.empty((times.size, history.grid.nx))
    rho[:n] = _transported_rows(datum, history, times[:n], v, w, substeps)
    rho[n:] = _free_streaming_rows(datum, times[n:], history.grid.nodes, v, w)
    np.maximum(rho, 0.0, out=rho)  # clip negative round-off from quadrature
    mass = rho.mean(axis=1)
    return DensityHistory(times=times, rho=rho, mass=mass)


def _sampled_points(history: FieldHistory, n: int, mesh: int, substeps: int) -> int:
    """Field samples taken by push_density's transport of the first n slices, mesh points each."""
    tq = history.quiet_time()
    step = history.dt / substeps
    steps = sum(nystrom_steps(tq - float(t), step) for t in history.times[:n])
    return 3 * steps * mesh


def field_update(
    density: DensityHistory, grid: SpatialGrid, newton_tol: float = NEWTON_TOL
) -> FieldHistory:
    """Solve the split Poisson problem on every slice and assemble the new field.

    The history keeps each slice's Ubar and Utilde beside the field.
    """
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

    Each push transports only the slices before its field's quiet time and
    reads the others from the free-streaming sum (push_density), so the first
    sweep, on the zero field, transports none; for a reflection-symmetric
    datum it transports only the rows v >= 0 of a slice.  Every field update
    still solves all slices.  What each sweep did and cost is recorded in
    result.sweeps.
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
    v, _ = velocity_grid(vmax, settings.nv)
    mesh = _transported_velocities(datum, v).size * settings.nx
    density = None
    tol = None
    for n in range(1, settings.max_iterations + 1):
        start = time.perf_counter()
        density = push_density(datum, history, vmax, settings.nv, settings.ode_substeps)
        pushed = time.perf_counter()
        new_history = field_update(density, grid, newton_tol=settings.newton_tol)
        updated = time.perf_counter()
        transported = _transported_slices(history)
        result.sweeps.append(
            SweepStats(
                quiet_time=history.quiet_time(),
                transported=transported,
                reused=times.size - transported,
                mesh_points=mesh,
                sampled_points=_sampled_points(history, transported, mesh, settings.ode_substeps),
                push_s=pushed - start,
                update_s=updated - pushed,
            )
        )
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
