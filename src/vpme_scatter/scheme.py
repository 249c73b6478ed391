"""Fixed-point iteration on the electric field.

The solution is f(t, x, v) = f*(label), the label being the free-flight state
its characteristic reaches at the horizon; transported_datum reads f this way
on the (x, v) mesh of each time slice.  Each sweep integrates out the velocity
(composite Simpson) and re-solves the split Poisson problem on all slices as
one stack; the field history of a sweep keeps the potentials it solved, so
the run's final history carries the slices that diagnostics.certify reads.
Convergence is tracked in the exponentially weighted sup norm, whose
successive deltas contract with factor 1/2 in the theorem regime.

Past a history's quiet time every characteristic is free flight,
f(t, x, v) = f*(x - v t, v), so the Simpson sum of a slice there is a closed
finite sum over the Simpson nodes that needs no characteristics.  A push
transports only the slices before the quiet time and takes every other row
from that sum; the first sweep runs on the zero field, whose quiet time is the
start, so it transports nothing.

A reflection-symmetric datum, f*(-x, -v) = f*(x, v) (the gaussian-cosine
family; tables are not assumed to be), has a field odd in x, so the flow
commutes with R(x, v) = (-x, -v) and f(t) o R = f(t) on every slice.
transported_datum builds its mesh on velocity_grid's mirror lattice, so it
transports only the rows v >= 0 of such a slice, (nv/2 + 1) nx points, and
reads each row -v_k from row v_k at the mirrored x nodes; the density push
and the weak gaps get whole slices either way.

The labels of consecutive slices compose, l_i = l_{i+1} o Phi_{t_i -> t_{i+1}},
as in characteristic-mapping methods (Yin, Mercier, Yadav, Schneider and
Nave, J. Comput. Phys. 424, 2021).  A push walks the slices before the quiet
time backward and keeps the label deviation D = l - (x - v t, v) of the slice
after on the mesh.  A slice may be transported across one slice only and read
at the next slice's labels through D; the others, and always the last slice
before the quiet time, are transported to the quiet time on their own.

The sweeps are inexact, as in inexact Newton methods (Dembo, Eisenstat and
Steihaug, SIAM J. Numer. Anal. 19, 1982): sweep n gives its push the field
tolerance tau_n = FORCING delta_{n-1}, delta_{n-1} the previous sweep's
weighted delta (0 for the first sweep).  A slice at t is composed only when
the composition errors chained since the last slice transported on its own
stay strictly below tau_n e^{-a t}, so a push given no tolerance is exact
transport.  A label error moves E(t) by about as much, and the weighted norm
weighs slice t by e^{a t}, so a sweep moves the weighted field by at most
about tau_n, a small fraction of what the iteration can still resolve; the
convergence test compares real successive iterates, so a converged run is
within O(fixed_point_tol) of the same fixed point.  On the theorem-regime
data nearly every slice composes from sweep 2 on, so a sweep costs O(n)
Nystrom steps in place of O(n^2).

A slice refused by that test is transported to the quiet time.  Where the
refusal was expected, the slice is stepped with the next expected slices of
the walk on one lattice, up to SHARED_POINTS phase points, and their labels
are held until the walk reaches them: a Nystrom step costs a fixed dispatch
of about 50 us beside its work per point, so meshes of a few thousand points
pay much of their cost in overhead alone, and the late sweeps of a field
loud to the horizon refuse nearly every slice.  A push with no tolerance
expects every refusal.  Otherwise run_iteration foresees them from the
previous push, which recorded each slice's single-slice composition
estimate: a slice is expected to be refused where that push transported it
to the quiet time, or where its estimate there already reaches this push's
budget tau_n e^{-a t}, since the budget falls faster from sweep to sweep
than the estimates do.  The admission test is the same as without the
grouping, but a held slice's labels are its own transport's only to
round-off, and its label deviation feeds the next slice's test, so a
decision at the edge of its bound could flip (none did on any benchmark
catalog entry); a held slice that composes after all is discarded, and
counted.
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
from .characteristics import (
    SUBSTEPS,
    FieldHistory,
    nystrom_steps,
    transport_to,
    transport_to_horizon,
)
from .errors import DomainError, ParameterError, SolverDivergenceError
from .poisson import SpatialGrid, make_field_slice

MAX_ITERATIONS = 30
FIXED_POINT_RTOL = 1e-9
# Forcing term: each sweep's push may move the weighted field by FORCING times
# the previous sweep's weighted delta.  3e-3 keeps every lingering catalog
# entry at its strict sweep count; 1e-2 costs some of them a sweep.
FORCING = 3e-3
# Phase points transported together: small enough that a block's working
# arrays stay in cache (the field kernel is memory-bound on whole meshes of
# 100k points, and blocks of 32,768 already cost more per point than blocks
# of 16,384), large enough that per-call overhead stays small.
TRANSPORT_BLOCK = 16384
# Phase points of the slices stepped together on one Nystrom lattice: two
# 4,160-point table slices, or three 2,112-point lingering slices.  A step
# costs about 50 us of fixed dispatch beside about 9 ns per point and sample,
# so a lone table slice paid a third of its cost in overhead.  Table triples
# (12,480) ran no faster than pairs, and groups of up to 16,384 points ran no
# faster on lingering and raised the benchmark's peak resident memory by
# 2.1 MB against 0.7 MB, since every temporary of a step grows with the group.
SHARED_POINTS = 8320


@dataclass(frozen=True)
class DensityHistory:
    """Time x space samples of the spatial density with per-slice mass, and what the push did.

    composed marks the slices whose labels push_density composed from the next
    slice's and alone those it transported to the quiet time instead; shared
    marks the slices of alone that were stepped on one Nystrom lattice with
    others, and discarded those of composed that had been transported ahead
    with others; all four are none when left None.  errors holds each slice's
    single-slice composition estimate (SliceTransport.error), 0 where the
    push made none or when left None, and spent the largest share of the
    composition budget a composed slice's chain reached (SliceTransport.spent).
    sampled_points counts the field samples of the push, a discarded
    transport's included.
    """

    times: np.ndarray
    rho: np.ndarray
    mass: np.ndarray
    composed: np.ndarray | None = None
    alone: np.ndarray | None = None
    shared: np.ndarray | None = None
    discarded: np.ndarray | None = None
    errors: np.ndarray | None = None
    spent: float = 0.0
    sampled_points: int = 0

    def __post_init__(self):
        for name in ("composed", "alone", "shared", "discarded"):
            if getattr(self, name) is None:
                object.__setattr__(self, name, np.zeros(np.size(self.times), dtype=bool))
            arr = np.asarray(getattr(self, name), dtype=bool)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.errors is None:
            object.__setattr__(self, "errors", np.zeros(np.size(self.times)))
        for name in ("times", "rho", "mass", "errors"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class SweepStats:
    """What one sweep did and cost.

    quiet_time is that of the field the density was pushed on; transported
    slices went through the characteristics and reused ones were read from the
    free-streaming sum; composed counts the transported slices whose labels
    came from the next slice's (transported one slice only); tolerance is the
    one field tolerance they were composed within (FORCING times the previous
    sweep's weighted delta; 0, so none, in the first sweep); spent is the
    largest share of it that the chained error estimates of a composed slice
    reached, (chain + error) / (tolerance e^{-a t}), below 1 by the admission
    test and 0 when none composed; shared counts
    the slices transported to the quiet time on one Nystrom lattice with
    other slices, and discarded the slices transported ahead with others that
    composed after all; mesh_points is the number of phase points each
    transported slice carries ((nv/2 + 1) nx for a reflection-symmetric
    datum, (nv + 1) nx otherwise); sampled_points counts the field samples of
    the transport (three per Nystrom step taken per transported point),
    discarded transports included; newton_steps sums the Newton steps
    (Jacobian solves) of the field update over its slices, newton_residual is
    the worst slice's final max-norm residual and newton_at_floor counts the
    slices accepted at the round-off floor above poisson.NEWTON_TOL; push_s
    and update_s are the wall times of the density push and the field update.
    """

    quiet_time: float
    transported: int
    reused: int
    composed: int
    tolerance: float
    spent: float
    shared: int
    discarded: int
    mesh_points: int
    sampled_points: int
    newton_steps: int
    newton_residual: float
    newton_at_floor: int
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
    mirror symmetry, which the reflection of transported_datum needs.
    """
    w = simpson_weights(nv, 2.0 * vmax / nv)
    m = nv // 2
    return vmax * (np.arange(-m, m + 1) / m), w


def _row_blocks(rows: int, nx: int) -> list[slice]:
    """Equal blocks of whole velocity rows, at most TRANSPORT_BLOCK points each (one row if nx is more)."""
    size = max(1, TRANSPORT_BLOCK // nx)
    size = math.ceil(rows / math.ceil(rows / size))
    return [slice(lo, lo + size) for lo in range(0, rows, size)]


def _interpolation_ratios(history: FieldHistory) -> np.ndarray:
    """Per time node i up to the quiet node q, the relative fourth-order weight of the field's high modes.

    max_{i<=j<=q} sum_m |E_j^(m)| (pi m / nx)^4 / max_{i<=j<=q} sum_m |E_j^(m)|,
    with E_j^(m) the x-modes of slice j.  Times a deviation's size, it
    estimates how far the trigonometric interpolant of the deviation on the
    mesh is from the deviation itself, which the cubic field interpolant
    shapes.  Numerator and denominator are maxima over the slices, not a
    maximum of per-slice ratios: the round-off modes of slices near the quiet
    time would dominate those.
    """
    q = min(int(np.searchsorted(history.times, history.quiet_time())), history.times.size - 1)
    modes = np.abs(np.fft.rfft(history.E[: q + 1], axis=1))
    high = modes @ (np.pi * np.arange(modes.shape[1]) / history.grid.nx) ** 4
    high = np.maximum.accumulate(high[::-1])[::-1]
    total = np.maximum.accumulate(modes.sum(axis=1)[::-1])[::-1]
    return np.divide(high, total, out=np.zeros_like(high), where=total > 0.0)


def _composition_error(
    D: np.ndarray, v: np.ndarray, span: float, field_max: float, interpolation: float
) -> float:
    """Estimated error of labels composed across a span from the next slice's deviation D.

    D, shape (2, v.size, nx), is the next slice's label deviation on the mesh.
    Composition reads it at (x + v span, v) where the characteristic reaches
    (x + v span + dX, v + dV), with |dV| <= span max|E| and |dX| <= span^2 / 2
    max|E|: the displacement term bounds that by D's finite-difference slopes.
    The interpolation term is max|D| times _interpolation_ratios.
    """
    def steepest(d):
        return float(np.abs(d, out=d).max(initial=0.0))

    nx = D.shape[-1]
    slope_x = steepest(D[..., 0] - D[..., -1])
    slope_v = 0.0
    for rows in _row_blocks(D.shape[1], nx):  # block by block: no mesh-sized temporaries
        d = D[:, rows.start : rows.stop + 1]  # one row into the next block
        slope_v = max(slope_v, steepest(np.diff(d, axis=1)))
        slope_x = max(slope_x, steepest(np.diff(d, axis=2)))
    slope_v /= float(np.min(np.abs(np.diff(v)), initial=np.inf))
    slope_x *= nx
    displacement = span * field_max * (slope_v + 0.5 * span * slope_x)
    return displacement + max(float(D.max()), -float(D.min())) * interpolation


@dataclass(frozen=True)
class SliceTransport:
    """How transported_datum got the labels of one slice, and the field samples that cost.

    composed: read through the next slice's labels after one slice of steps;
    shared: otherwise carried to the quiet time on one Nystrom lattice with
    other slices; discarded: carried ahead with others, then composed after
    all; error: the slice's own _composition_error estimate, 0 where the walk
    made none (the first slice, a slice after a later one); spent: for a
    composed slice, the share of its budget tolerance e^{-a t} that the
    chained estimates reached, else 0; sampled: the field samples taken for
    this slice, those of a discarded transport included.
    """

    composed: bool
    shared: bool
    discarded: bool
    error: float
    spent: float
    sampled: int


def transported_datum(
    datum: AsymptoticDatum,
    history: FieldHistory,
    times,
    vmax: float,
    nv: int,
    tolerance: float = 0.0,
    expect_alone=None,
):
    """Yield (how, f), f the transported datum on the velocity_grid(vmax, nv) x grid mesh, for each t in times.

    f(t) = f* o l_t, where the label l_t(x, v) = (X(T) - T V(T), V(T)) is the
    horizon state of the characteristic through (x, v) at t, carried with
    Nystrom step history.dt / SUBSTEPS.  Labels compose: l_t = l_s o Phi_{t->s}
    for s > t.  So when times are walked backward (as push_density walks
    them), a slice may be composed from the slice yielded before it, at s:
    the mesh is transported to s only (characteristics.transport_to), and its
    labels are (X(s) - s V(s), V(s)) + D_s(x + v (s - t), v), where
    D_s = l_s - (x - v s, v) is the label deviation of the slice at s on the
    mesh, shifted along x in each velocity row by an exact spectral shift.

    A slice is composed when the chain of _composition_error estimates since
    the last slice transported on its own, this one's included, is strictly
    below tolerance e^{-a t} (a = datum.klass.a).  A label error moves the
    field at t by about as much, and the weighted norm weighs t by e^{a t},
    so the composed slices move the weighted field by at most about
    tolerance; with the default 0 no slice is composed.  The first slice, a
    slice after a later one, and every refused slice are transported to the
    horizon (characteristics.transport_to_horizon), which ends the chain.

    A slice at a time node of the history is expected to be refused when the
    tolerance is not positive, so that no slice can compose, or when
    expect_alone (one flag per time, or None; run_iteration foresees it from
    the previous push) marks it.  A refused slice that
    was expected is transported to the horizon with the next expected slices
    of the walk, as many as fit in SHARED_POINTS phase points (so only a mesh
    of at most SHARED_POINTS / 2 points that is one block is grouped), on the
    step lattice of the earliest of them, and the labels of the others are
    held until the walk reaches them.  The admission test of every slice is
    unchanged: a held slice that composes after all is composed, and its held
    labels are discarded.  A member of a group has the labels of its own
    transport to round-off, the earliest one bit for bit; the D a held slice
    leaves for the next test differs by that round-off, so a decision at the
    edge of its bound could differ from that of a transport alone.  how is
    the slice's SliceTransport, which also records the slice's own
    composition estimate and, if it composed, the share of its budget spent.

    Only the _transported_velocities rows go through the characteristics.
    For a reflection-symmetric datum those are the rows v >= 0 of the mirror
    lattice, and each row v_{nv-k} = -v_k is filled from row k at x index
    (-j) % nx.  That reflection is exact only when the history's field is
    odd in x, E(t, -x) = -E(t, x); every iterate of run_iteration on such a
    datum is, to solver round-off.

    The transported rows go through equal blocks of whole velocity rows
    (_row_blocks); every operation on the way is per point or per row, so
    they are bit-identical to one whole-mesh computation.  Each f has shape
    (nv + 1, nx) and is the same array: a slice is valid until the next one
    is yielded.
    """
    v, _ = velocity_grid(vmax, nv)
    x = history.grid.nodes
    nx = x.size
    step = history.dt / SUBSTEPS
    T = history.horizon
    quiet = history.quiet_time()
    times = np.asarray(times, dtype=float)
    f = np.empty((v.size, nx))
    moving = _transported_velocities(datum, v)
    half = v.size - moving.size
    g = f[half:]  # the transported rows
    mirror = -np.arange(nx) % nx
    D = np.empty((2, moving.size, nx))
    blocks = _row_blocks(moving.size, nx)
    interpolation = _interpolation_ratios(history)
    field_max = np.max(np.abs(history.E), axis=1)
    modes = np.arange(nx // 2 + 1)
    mesh = moving.size * nx
    # The slices expected to be refused.  Only time nodes, which lie on the
    # step lattice of any earlier node, may share one.
    node = np.searchsorted(history.times, times).clip(max=history.times.size - 1)
    expected = history.times[node] == times
    if tolerance > 0.0:
        expected &= expect_alone if expect_alone is not None else False
    members = max(1, SHARED_POINTS // mesh) if len(blocks) == 1 else 1  # held labels are one block
    held = {}  # walk index -> (labels, their field samples) of a slice transported ahead

    def samples(t_from, t_to):
        """Field samples of the mesh carried from t_from to t_to: three per point and step before the quiet time."""
        return 3 * mesh * nystrom_steps(max(min(quiet, t_to) - t_from, 0.0), step)

    later = None
    chain = 0.0
    for k, t in enumerate(map(float, times)):
        composed = False
        error = 0.0
        if later is not None and t < later:
            i = max(int(np.searchsorted(history.times, t, side="right")) - 1, 0)
            j = min(int(np.searchsorted(history.times, later)), history.times.size - 1)
            error = _composition_error(
                D, moving, later - t, float(field_max[i : j + 1].max()),
                float(interpolation[min(i, interpolation.size - 1)]),
            )
            budget = tolerance * math.exp(-datum.klass.a * t)
            composed = chain + error < budget
        chain = chain + error if composed else 0.0
        labels, ahead = held.pop(k, (None, 0))
        if composed:
            spent = chain / budget
            how = SliceTransport(True, False, labels is not None, error, spent, ahead + samples(t, later))
        elif labels is not None:
            how = SliceTransport(False, True, False, error, 0.0, ahead)
        else:
            group = [k]
            if expected[k]:
                group += list(np.flatnonzero(expected[k + 1 :])[: members - 1] + k + 1)
            group.sort(key=times.__getitem__)  # ascending start times
            how = SliceTransport(False, len(group) > 1, False, error, 0.0, samples(t, T))
        for rows in blocks:
            X0, V0 = np.tile(x, moving[rows].size), np.repeat(moving[rows], nx)
            if composed:
                X, V = transport_to(history, t, later, X0, V0, step)
                phase = np.exp((2j * np.pi * (later - t)) * np.outer(moving[rows], modes))
                shifted = np.fft.irfft(np.fft.rfft(D[:, rows]) * phase, n=nx)
                LX = X - later * V + shifted[0].ravel()
                V = V + shifted[1].ravel()
            elif labels is not None:
                LX, V = labels  # a grouped mesh is one block
            else:
                shape = (len(group), X0.size)
                LX, V = transport_to_horizon(
                    history, times[group], np.broadcast_to(X0, shape), np.broadcast_to(V0, shape), step
                )
                LX -= T * V
                for m, j in enumerate(group):
                    if j != k:
                        held[j] = (LX[m], V[m]), samples(times[j], T)
                LX, V = LX[group.index(k)], V[group.index(k)]
            g[rows] = eval_f_star(datum, LX, V).reshape(-1, nx)
            D[0, rows] = (LX - (X0 - t * V0)).reshape(-1, nx)
            D[1, rows] = (V - V0).reshape(-1, nx)
        if half:
            # mirror is in range, so "clip" reads what "raise" would, without its buffered copy.
            np.take(f[:half:-1], mirror, axis=1, out=f[:half], mode="clip")
        later = t
        yield how, f


def _transported_slices(history: FieldHistory) -> int:
    """Number of leading slices push_density transports: those before the history's quiet time."""
    return int(np.searchsorted(history.times, history.quiet_time()))


def _transported_velocities(datum: AsymptoticDatum, v: np.ndarray) -> np.ndarray:
    """Rows of the velocity_grid lattice v that transported_datum transports; it reads the others by reflection.

    v >= 0 for a reflection-symmetric datum, all of v otherwise.
    """
    return v[v.size // 2 :] if datum.reflection_symmetric else v


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
    tolerance: float = 0.0,
    expect_alone=None,
) -> DensityHistory:
    """Density of the transported datum on every (time, space) node.

    rho(t_i, x_j) = sum_k w_k f(t_i, x_j, v_k), the composite Simpson sum over
    the truncated velocity grid (velocity_grid): of each transported_datum
    slice before the history's quiet time, and of the free-streaming datum
    f*(x - v t, v) at or past it, where every characteristic is free flight
    (_free_streaming_rows).

    The slices before the quiet time are walked backward from the last one,
    which is transported to the quiet time.  Each earlier slice is transported
    one slice only, to the next slice, and its labels composed from that
    slice's label deviation, wherever the estimated errors chained since the
    last slice transported on its own stay strictly below tolerance e^{-a t},
    so that the weighted field moves by at most about tolerance; the others
    are transported to the quiet time on their own (transported_datum has
    the composition and its admission test).  With the default tolerance 0
    every slice is transported on its own.  The slices expected to be
    transported on their own, every slice with no tolerance and otherwise
    those of expect_alone (one flag per history slice; run_iteration's
    foresight), are carried several at a time on one Nystrom lattice; that
    changes their density by round-off, and which slices compose only where
    a test sits at the edge of its bound (never on the benchmark's
    catalogs).  The result records which slices were composed and which
    transported to the quiet time, which of those shared a lattice, which
    composed slices had been transported ahead, each slice's single-slice
    composition estimate (errors), the largest share of a budget spent, and
    the push's field samples.  For a reflection-symmetric datum
    transported_datum transports only the rows v >= 0 of a slice.
    """
    v, w = velocity_grid(vmax, nv)
    times = history.times
    n = _transported_slices(history)
    rho = np.empty((times.size, history.grid.nx))
    composed, shared, discarded = np.zeros((3, times.size), dtype=bool)
    errors = np.zeros(times.size)
    expected = None if expect_alone is None else np.asarray(expect_alone, dtype=bool)[:n][::-1]
    slices = transported_datum(datum, history, times[:n][::-1], vmax, nv, tolerance, expected)
    sampled, spent = 0, 0.0
    for i, (how, f) in zip(range(n - 1, -1, -1), slices):
        composed[i], shared[i], discarded[i] = how.composed, how.shared, how.discarded
        errors[i] = how.error
        sampled += how.sampled
        spent = max(spent, how.spent)
        rho[i] = w @ f
    rho[n:] = _free_streaming_rows(datum, times[n:], history.grid.nodes, v, w)
    np.maximum(rho, 0.0, out=rho)  # clip negative round-off from quadrature
    mass = rho.mean(axis=1)
    alone = (np.arange(times.size) < n) & ~composed
    return DensityHistory(times, rho, mass, composed, alone, shared, discarded, errors, spent, sampled)


def field_update(density: DensityHistory, grid: SpatialGrid) -> FieldHistory:
    """Solve the split Poisson problem on every slice, as one stack, and assemble the new field.

    The history keeps the slices' Ubar and Utilde beside the field, and the
    NewtonReport of the solve.  An error of the solve names its slice.
    """
    try:
        solved = make_field_slice(density.rho, grid)
    except (DomainError, SolverDivergenceError) as exc:
        i = exc.index
        exc.args = (f"slice {i} (t={density.times[i]:g}): {exc}",)
        raise
    return FieldHistory(
        times=density.times,
        grid=grid,
        Ebar=solved.Ebar,
        Etilde=solved.Etilde,
        Ubar=solved.Ubar,
        Utilde=solved.Utilde,
        newton=solved.newton,
    )


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
    datum it transports only the rows v >= 0 of a slice.  Sweep n lets its
    push compose a slice's labels from the next slice's within the field
    tolerance FORCING delta_{n-1}, delta_{n-1} the previous sweep's weighted
    delta; the first sweep, with no delta yet, composes nothing.  That moves
    the weighted field by at most about FORCING delta_{n-1}, far below what
    the sweep itself changes until the last sweeps, and the convergence test
    compares the actual iterates, so a converged run stays within
    O(fixed_point_tol) of the strict fixed point.  Each push after the first
    is told to expect a refusal where the previous push transported the slice
    to the quiet time (DensityHistory.alone) or recorded an estimate
    (DensityHistory.errors) that already reaches the new budget, tolerance
    e^{-a t}, and it steps the expected slices it refuses together on one
    lattice; the second push expects none, since the first walked no slice.
    Every field update solves all slices, as one stack (field_update), so a
    slice whose density repeats the previous sweep's costs only its share of
    that one solve.
    What each sweep did and cost, Newton steps and residuals included, is
    recorded in result.sweeps.
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
        tolerance = FORCING * result.deltas[-1] if result.deltas else 0.0
        expected = None
        if density is not None:  # what the previous push refused, or estimated past this budget
            expected = density.alone | (density.errors >= tolerance * np.exp(-klass.a * times))
        start = time.perf_counter()
        density = push_density(datum, history, vmax, settings.nv, tolerance, expected)
        pushed = time.perf_counter()
        new_history = field_update(density, grid)
        updated = time.perf_counter()
        transported = _transported_slices(history)
        newton = new_history.newton
        result.sweeps.append(
            SweepStats(
                quiet_time=history.quiet_time(),
                transported=transported,
                reused=times.size - transported,
                composed=int(density.composed.sum()),
                tolerance=tolerance,
                spent=density.spent,
                shared=int(density.shared.sum()),
                discarded=int(density.discarded.sum()),
                mesh_points=mesh,
                sampled_points=density.sampled_points,
                newton_steps=int(newton.steps.sum()),
                newton_residual=float(newton.residual.max()),
                newton_at_floor=int(newton.at_floor.sum()),
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

