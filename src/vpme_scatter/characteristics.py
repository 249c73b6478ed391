"""Backward characteristic flow pinned by conditions at the horizon.

Trajectories solve dX/dt = V, dV/dt = E(t, X) with the free-flight state
(x + vT, v) imposed at the finite horizon T, which stands in for t -> infinity;
the field is treated as exactly zero past T.  Positions are kept unreduced
during integration (the label formula X(T) - T V(T) needs the winding) and
reduced mod 1 only at field sampling and output.

Field sampling is the solver's inner loop.  Each FieldHistory stores, beside
E, the power-basis coefficients of the four-point periodic cubic on every cell
of every time node, built once when the history is made, with one wrap cell
(cell n repeats cell 0).  A sample blends the two neighbouring coefficient
rows linearly in time (the coefficients are linear in the nodal values, so
this is the interpolant of the blended row) and evaluates it by one gather
per coefficient and a Horner step in the cell offset.  The position is
reduced once, x - floor(x), which gives the same bits as np.mod(x, 1.0)
without its remainder; the reduced position lies in [0, 1], and the cell of
x = 1 (reached only by round-off of a tiny negative position) is the wrap
cell, so the cell index needs no modulo and every gather stays bounds-checked.

Integration is the fixed-step order-4 Nystrom method for X'' = E(t, X)
(Hairer, Norsett and Wanner, Solving ODEs I, II.14), which needs three field
samples per step where RK4 needs four, vectorized over batches of phase
points.  Callers keep the batches cache-sized (scheme.transported_datum
transports the phase mesh in blocks); every operation is per point, so the
blocking does not change a bit of the result.  Past the history's quiet time
(where the stored field drops below a negligible impulse threshold) the flow
is advanced in closed form as free transport.

transport_to carries a phase state to any later time, and
transport_to_horizon to the horizon, which is what defines its label.  Both
also carry a group of states with ascending start times on one lattice of
steps, that of the earliest start, each member joining at its own start, so
that a few small meshes are stepped as one array; one start is the one-member
group.  The mesh transport of scheme.transported_datum takes a state across
one time slice wherever it composes a slice's labels from those of the next
slice, and a group of refused slices to the horizon.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, OutOfRangeError, ParameterError
from .poisson import NewtonReport, SpatialGrid

# Nystrom steps per time slice.  FieldHistory.sample is linear in t between
# time nodes, so the time grid, not this count, sets how well the flow is
# resolved.
SUBSTEPS = 4


def _cubic_coefficients(E: np.ndarray) -> np.ndarray:
    """Power-basis coefficients of the four-point periodic cubic on every cell.

    For nodal values y[j-1], y[j], y[j+1], y[j+2] the interpolant on cell j is
    c0 + c1 th + c2 th^2 + c3 th^3 with th = n x - j in [0, 1).  Returns shape
    (rows, 4, n + 1) with c0..c3 along the middle axis; cell n is the wrap
    cell, a copy of cell 0.
    """
    ym1 = np.roll(E, 1, axis=-1)
    y1 = np.roll(E, -1, axis=-1)
    y2 = np.roll(E, -2, axis=-1)
    n = E.shape[-1]
    coef = np.empty(E.shape[:-1] + (4, n + 1))
    coef[..., 0, :n] = E
    coef[..., 1, :n] = -ym1 / 3.0 - E / 2.0 + y1 - y2 / 6.0
    coef[..., 2, :n] = ym1 / 2.0 - E + y1 / 2.0
    coef[..., 3, :n] = (y2 - ym1) / 6.0 + (E - y1) / 2.0
    coef[..., n] = coef[..., 0]
    return coef


def _eval_cubic(coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The periodic cubic with (4, n + 1) cell coefficients at unreduced positions x.

    x is reduced to [0, 1] before n x is formed, so the cell index lies in
    [0, n] and is gathered without a modulo (see the module docstring).
    """
    n = coef.shape[-1] - 1
    th = x - np.floor(x)
    th *= n
    j = np.floor(th)
    th -= j  # cell offset in [0, 1)
    j = j.astype(np.intp)
    y = coef[3].take(j)
    y *= th
    y += coef[2].take(j)
    y *= th
    y += coef[1].take(j)
    y *= th
    y += coef[0].take(j)
    return y


@dataclass(frozen=True)
class FieldHistory:
    """Time x space samples of the split electric field for one scheme iterate.

    Derived on construction, read-only: E = Ebar + Etilde, which must be
    finite, coef, the (times, 4, nx + 1) cubic cell coefficients of E that
    sample evaluates, the floats t0, horizon and dt, and quiet_time(),
    which every transport of a block asks for.  A
    history that scheme.field_update builds from its stacked solve also keeps
    the solved potentials Ubar and Utilde, read-only, so a converged run can
    be certified without solving a slice again, and the solve's NewtonReport;
    a history built from the field alone (zero, or a run's fields.csv) has
    None there.
    """

    times: np.ndarray
    grid: SpatialGrid
    Ebar: np.ndarray
    Etilde: np.ndarray
    Ubar: np.ndarray | None = None
    Utilde: np.ndarray | None = None
    newton: NewtonReport | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        if times.ndim != 1 or times.size < 2:
            raise ParameterError("time grid needs at least two nodes")
        dt = np.diff(times)
        if not np.allclose(dt, dt[0], rtol=1e-9, atol=1e-12):
            raise ParameterError("time grid must be uniform")
        for name in ("Ebar", "Etilde", "Ubar", "Utilde"):
            if getattr(self, name) is None and name in ("Ubar", "Utilde"):
                continue  # a history of the field alone
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (times.size, self.grid.nx):
                raise ParameterError(f"{name} shape {arr.shape} does not match grids")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "E", self.Ebar + self.Etilde)
        self.E.setflags(write=False)
        finite = np.isfinite(self.E).all(axis=1)
        if not finite.all():
            t = times[np.argmin(finite)]
            raise ParameterError(f"non-finite field at t={t:g}")
        object.__setattr__(self, "t0", float(times[0]))
        object.__setattr__(self, "horizon", float(times[-1]))
        object.__setattr__(self, "dt", float(times[1] - times[0]))
        object.__setattr__(self, "coef", _cubic_coefficients(self.E))
        self.coef.setflags(write=False)
        span = max(1.0, self.horizon - self.t0)
        sup = np.max(np.abs(self.E), axis=1)
        loud = np.nonzero(sup > max(1e-14 / span, 1e-8 * float(np.max(sup))))[0]
        quiet = self.times[min(loud[-1] + 1, times.size - 1)] if loud.size else self.t0
        object.__setattr__(self, "_quiet_time", float(quiet))

    @classmethod
    def zero(cls, times: np.ndarray, grid: SpatialGrid) -> "FieldHistory":
        z = np.zeros((np.asarray(times).size, grid.nx))
        return cls(times=times, grid=grid, Ebar=z, Etilde=z.copy())

    def quiet_time(self) -> float:
        """Earliest grid time after which every slice stays below the quiet threshold.

        The threshold, max(1e-14 / span, 1e-8 peak), keeps the neglected
        velocity impulse below 1e-14 over the remaining span and sits eight
        decades under the peak amplitude, so it also clears the round-off
        floor (~1e-15) the Poisson solves leave at long times.  It is found
        once, when the history is made.
        """
        return self._quiet_time

    def sample(self, t: float, x: np.ndarray) -> np.ndarray:
        """E(t, x): cubic periodic interpolation in x, linear in t; zero past the horizon.

        The cell coefficients of the two time nodes around t are blended
        linearly in time and evaluated at x, which may be unreduced.  At the
        horizon itself the last node is used; strictly past it the field is
        zero.
        """
        x = np.asarray(x, dtype=float)
        if t < self.t0 - 1e-12:
            raise OutOfRangeError(f"time {t} precedes the history start {self.t0}")
        if t >= self.horizon:
            if t == self.horizon:
                return _eval_cubic(self.coef[-1], x)
            return np.zeros_like(x)
        s = (t - self.t0) / self.dt
        i = max(0, min(int(np.floor(s)), self.times.size - 2))
        th = s - i
        return _eval_cubic((1.0 - th) * self.coef[i] + th * self.coef[i + 1], x)


def nystrom_steps(span: float, step: float) -> int:
    """Number of fixed steps _nystrom_span takes over a span of the given length."""
    if span == 0.0:
        return 0
    return max(1, int(math.ceil(abs(span) / step - 1e-12)))


def _nystrom_span(field, t_from: float, t_to: float, X, V, step: float):
    """Advance (X, V) from t_from to t_to with the fixed-step Nystrom method; either direction."""
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(V))):
        raise IntegrationError(f"non-finite phase state at t={t_from:g}")
    if t_to == t_from:
        return X, V
    nsteps = nystrom_steps(t_to - t_from, step)
    X, V = _nystrom_steps(field, t_from, t_to, nsteps, X[None], V[None], [0])
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(V))):
        raise IntegrationError(f"non-finite state integrating from t={t_from:g} to t={t_to:g}")
    return X[0], V[0]


def _nystrom_steps(field, t_from: float, t_to: float, nsteps: int, X, V, joins):
    """The nsteps equal Nystrom steps from t_from to t_to of the state rows X, V, shape (k, ...).

    Row m joins at step joins[m] (ascending, joins[0] = 0) and takes the
    steps from there on; the rows are stepped as one array.  Per step, with
    X'' = E(t, X):
        k1 = E(t, X)
        k2 = E(t + dt/2, X + dt/2 V + dt^2/8 k1)
        k3 = E(t + dt, X + dt V + dt^2/2 k2)
        X += dt V + dt^2/6 (k1 + 2 k2)
        V += dt/6 (k1 + 4 k2 + k3)
    """
    span = t_to - t_from
    X0, V0 = X, V
    joined = bisect.bisect_right(joins, 0)
    X, V = X0[:joined], V0[:joined]
    # Step endpoints are computed from t_from/t_to directly (never by
    # accumulation): round-off drift past the horizon would sample the
    # hard-zeroed field and poison the last step.
    for i in range(nsteps):
        if joined < len(joins) and joins[joined] == i:
            rows = bisect.bisect_right(joins, i)
            X, V = np.concatenate((X, X0[joined:rows])), np.concatenate((V, V0[joined:rows]))
            joined = rows
        t = t_from + span * (i / nsteps)
        t_next = t_to if i == nsteps - 1 else t_from + span * ((i + 1) / nsteps)
        dt = t_next - t
        k1 = field.sample(t, X)
        k2 = field.sample(0.5 * (t + t_next), X + (0.5 * dt) * V + (dt * dt / 8.0) * k1)
        X = X + dt * V
        k3 = field.sample(t_next, X + (0.5 * dt * dt) * k2)
        k12 = k1 + 2.0 * k2
        X += (dt * dt / 6.0) * k12
        V = V + (dt / 6.0) * (k12 + 2.0 * k2 + k3)
    return X, V


def transport_to(field, t, t_to: float, X, V, step: float):
    """Forward map from phase states at their start times to the later time t_to.

    t is one start time, with states X, V of any shape, or an ascending array
    of k start times with states of shape (k, ...), one row per member.
    Nystrom steps carry the states up to the quiet time, closed-form free
    flight beyond it.  The members share one lattice of steps, that from the
    earliest start: each joins at the lattice point of its own start and is
    carried from there with the others.  A start must lie on that lattice to
    within 1e-9 of a step (the time nodes of a history do, for a step of
    history.dt / SUBSTEPS); a member then takes the steps of its own
    transport, at times equal to round-off, and the earliest member, so a
    single start, takes exactly its own.  A member starting at or past the
    quiet time flies free from its start.  X may be unreduced; it stays
    unreduced.  A t_to one time slice after t is one slice of
    scheme.transported_datum's label composition.
    """
    starts = np.asarray(t, dtype=float)
    single = starts.ndim == 0
    starts = starts.reshape(-1)
    X, V = np.asarray(X, dtype=float), np.asarray(V, dtype=float)
    if single:
        X, V = X[None], V[None]
    if X.shape != V.shape or X.shape[:1] != starts.shape or np.any(np.diff(starts) < 0.0):
        raise ParameterError("transport needs ascending start times with one state row each")
    if starts[-1] > t_to:
        raise ParameterError(f"transport runs forward: start t={starts[-1]:g} is past t={t_to:g}")
    t0 = float(starts[0])
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(V))):
        raise IntegrationError(f"non-finite phase state at t={t0:g}")
    tq = min(max(field.quiet_time(), t0), t_to)
    nsteps = nystrom_steps(tq - t0, step)
    k = int(np.count_nonzero(starts < tq))  # the members that step: a leading run
    joins = [nsteps - nystrom_steps(tq - s, step) for s in starts[:k]]
    for s, i in zip(starts[:k], joins):
        if not abs(t0 + (tq - t0) * (i / nsteps) - s) <= 1e-9 * step:
            raise ParameterError(f"start t={s:g} is off the step lattice of t={t0:g}")
    Xs, Vs = _nystrom_steps(field, t0, tq, nsteps, X[:k], V[:k], joins)
    if not (np.all(np.isfinite(Xs)) and np.all(np.isfinite(Vs))):
        raise IntegrationError(f"non-finite state integrating from t={t0:g} to t={tq:g}")
    if k < starts.size:
        Xs, Vs = np.concatenate((Xs, X[k:])), np.concatenate((Vs, V[k:]))
    Xs = Xs + Vs * (t_to - np.maximum(starts, tq)).reshape((-1,) + (1,) * (X.ndim - 1))
    return (Xs[0], Vs[0]) if single else (Xs, Vs)


def transport_to_horizon(field, t, X, V, step: float):
    """Forward map from phase states at their start times (one, or an ascending array) to the horizon."""
    return transport_to(field, t, field.horizon, X, V, step)
