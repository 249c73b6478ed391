"""Backward characteristic flow pinned by conditions at the horizon.

Trajectories solve dX/dt = V, dV/dt = E(t, X) with the free-flight state
(x + vT, v) imposed at the finite horizon T, which stands in for t -> infinity;
the field is treated as exactly zero past T.  Positions are kept unreduced
during integration (the label formula X(T) - T V(T) needs the winding) and
reduced mod 1 only at field sampling and output.

Field sampling is the solver's inner loop.  Each FieldHistory stores, beside
E, the power-basis coefficients of the four-point periodic cubic on every cell
of every time node, built once when the history is made.  A sample blends the
two neighbouring coefficient rows linearly in time (the coefficients are
linear in the nodal values, so this is the interpolant of the blended row) and
evaluates it by one gather per coefficient and a Horner step in the cell
offset.

Integration is fixed-step RK4, vectorized over batches of phase points.  Past
the history's quiet time (where the stored field drops below a negligible
impulse threshold) the flow is advanced in closed form as free transport.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, OutOfRangeError, ParameterError
from .poisson import FieldSlice, SpatialGrid

DEFAULT_SUBSTEPS = 4


@dataclass(frozen=True)
class PhaseLabel:
    """Asymptotic label (x, v): the limits of X - Vt and V as t -> infinity."""

    x: float
    v: float

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x) % 1.0)


@dataclass(frozen=True)
class PhasePoint:
    """Phase coordinates (x, v) at a concrete time t."""

    t: float
    x: float
    v: float

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x) % 1.0)


def _cubic_coefficients(E: np.ndarray) -> np.ndarray:
    """Power-basis coefficients of the four-point periodic cubic on every cell.

    For nodal values y[j-1], y[j], y[j+1], y[j+2] the interpolant on cell j is
    c0 + c1 th + c2 th^2 + c3 th^3 with th = n x - j in [0, 1).  Returns shape
    (rows, 4, n) with c0..c3 along the middle axis.
    """
    ym1 = np.roll(E, 1, axis=-1)
    y1 = np.roll(E, -1, axis=-1)
    y2 = np.roll(E, -2, axis=-1)
    coef = np.empty(E.shape[:-1] + (4, E.shape[-1]))
    coef[..., 0, :] = E
    coef[..., 1, :] = -ym1 / 3.0 - E / 2.0 + y1 - y2 / 6.0
    coef[..., 2, :] = ym1 / 2.0 - E + y1 / 2.0
    coef[..., 3, :] = (y2 - ym1) / 6.0 + (E - y1) / 2.0
    return coef


def _eval_cubic(coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The periodic cubic with (4, n) cell coefficients at unreduced positions x.

    Forming n x before reducing adds round-off of the order of n ulp(x), which
    is the uncertainty an unreduced position already carries.
    """
    n = coef.shape[-1]
    th = x * n
    j = np.floor(th)
    th -= j  # cell offset in [0, 1)
    j = j.astype(np.intp)
    j %= n
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

    Derived on construction, read-only: E = Ebar + Etilde, and coef, the
    (times, 4, nx) cubic cell coefficients of E that sample evaluates.
    """

    times: np.ndarray
    grid: SpatialGrid
    Ebar: np.ndarray
    Etilde: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        if times.ndim != 1 or times.size < 2:
            raise ParameterError("time grid needs at least two nodes")
        dt = np.diff(times)
        if not np.allclose(dt, dt[0], rtol=1e-9, atol=1e-12):
            raise ParameterError("time grid must be uniform")
        for name in ("Ebar", "Etilde"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (times.size, self.grid.nx):
                raise ParameterError(f"{name} shape {arr.shape} does not match grids")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "E", self.Ebar + self.Etilde)
        self.E.setflags(write=False)
        object.__setattr__(self, "coef", _cubic_coefficients(self.E))
        self.coef.setflags(write=False)

    @classmethod
    def zero(cls, times: np.ndarray, grid: SpatialGrid) -> "FieldHistory":
        z = np.zeros((np.asarray(times).size, grid.nx))
        return cls(times=times, grid=grid, Ebar=z, Etilde=z.copy())

    @classmethod
    def from_slices(cls, times, grid, slices: list[FieldSlice]) -> "FieldHistory":
        return cls(
            times=times,
            grid=grid,
            Ebar=np.vstack([s.Ebar for s in slices]),
            Etilde=np.vstack([s.Etilde for s in slices]),
        )

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def quiet_time(self, threshold: float | None = None) -> float:
        """Earliest grid time after which every slice stays below the threshold.

        The default threshold keeps the neglected velocity impulse below 1e-14
        over the remaining span and sits eight decades under the peak
        amplitude, so it also clears the round-off floor (~1e-15) the Poisson
        solves leave at long times.
        """
        if threshold is None:
            span = max(1.0, self.horizon - self.t0)
            peak = float(np.max(np.abs(self.E))) if self.E.size else 0.0
            threshold = max(1e-14 / span, 1e-8 * peak)
        sup = np.max(np.abs(self.E), axis=1)
        loud = np.nonzero(sup > threshold)[0]
        if loud.size == 0:
            return self.t0
        idx = min(loud[-1] + 1, self.times.size - 1)
        return float(self.times[idx])

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


def _rk4_span(field, t_from: float, t_to: float, X, V, step: float):
    """Advance (X, V) from t_from to t_to with fixed-step RK4; either direction."""
    span = t_to - t_from
    if span == 0.0:
        return X, V
    nsteps = max(1, int(math.ceil(abs(span) / step - 1e-12)))
    # Step endpoints are computed from t_from/t_to directly (never by
    # accumulation): round-off drift past the horizon would sample the
    # hard-zeroed field and poison the last step.
    for i in range(nsteps):
        t = t_from + span * (i / nsteps)
        t_next = t_to if i == nsteps - 1 else t_from + span * ((i + 1) / nsteps)
        dt = t_next - t
        t_mid = 0.5 * (t + t_next)
        # Classical RK4 written for X'' = E(t, X) (Nystrom form): the
        # position stages are X + c dt V + dt^2 (...) E, so fewer array passes.
        k1 = field.sample(t, X)
        X_half = X + 0.5 * dt * V
        k2 = field.sample(t_mid, X_half)
        k3 = field.sample(t_mid, X_half + (0.25 * dt * dt) * k1)
        X = X + dt * V
        k4 = field.sample(t_next, X + (0.5 * dt * dt) * k2)
        k23 = k2 + k3
        k123 = k1 + k23
        X += (dt * dt / 6.0) * k123
        V = V + (dt / 6.0) * (k123 + k23 + k4)
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(V))):
        raise IntegrationError("non-finite state during trajectory integration")
    return X, V


def transport_to_horizon(field, t: float, X, V, step: float):
    """Forward map from phase state (X, V) at time t to the horizon.

    RK4 up to the quiet time, closed-form free flight beyond it.  X may be
    unreduced; it stays unreduced.
    """
    T = field.horizon
    tq = min(max(field.quiet_time(), t), T)
    X, V = _rk4_span(field, t, tq, X, V, step)
    return X + V * (T - tq), V


def transport_from_horizon(field, t: float, X, V, step: float):
    """Backward map from the horizon state (X, V) to time t."""
    T = field.horizon
    tq = min(max(field.quiet_time(), t), T)
    X = X - V * (T - tq)
    return _rk4_span(field, tq, t, X, V, step)


def _check_time(field, t: float):
    if t < field.t0 - 1e-12 or t > field.horizon + 1e-12:
        raise OutOfRangeError(
            f"time {t} outside the history span [{field.t0}, {field.horizon}]"
        )


def sample_field(history: FieldHistory, t: float, x) -> float | np.ndarray:
    """E(t, x) from a stored history; scalar in, scalar out."""
    val = history.sample(t, np.asarray(x, dtype=float))
    return float(val) if np.ndim(x) == 0 else val


def flow_from_label(
    label: PhaseLabel, history: FieldHistory, t: float, substeps: int = DEFAULT_SUBSTEPS
) -> PhasePoint:
    """(X(t), V(t)) of the trajectory with asymptotic label (x, v)."""
    _check_time(history, t)
    step = history.dt / substeps
    X0 = label.x + label.v * history.horizon
    X, V = transport_from_horizon(
        history, t, np.asarray([X0]), np.asarray([label.v]), step
    )
    return PhasePoint(t=t, x=float(X[0]), v=float(V[0]))


def label_from_point(
    point: PhasePoint, history: FieldHistory, substeps: int = DEFAULT_SUBSTEPS
) -> PhaseLabel:
    """Asymptotic label of the trajectory through (x, v) at time t (the inverse flow)."""
    _check_time(history, point.t)
    step = history.dt / substeps
    X, V = transport_to_horizon(
        history, point.t, np.asarray([point.x]), np.asarray([point.v]), step
    )
    return PhaseLabel(x=float(X[0] - history.horizon * V[0]), v=float(V[0]))

