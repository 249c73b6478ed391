"""The scattering map on single phase points: labels, flows and reconstructed values.

The package transports whole phase meshes (scheme.transported_datum); these
pointwise maps are built from the same flow (characteristics._nystrom_steps
and the history's quiet time) for the tests that check the flow itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from vpme_scatter.asymptotic import AsymptoticDatum, eval_f_star
from vpme_scatter.characteristics import (
    SUBSTEPS,
    FieldHistory,
    _nystrom_steps,
    nystrom_steps,
    transport_to_horizon,
)
from vpme_scatter.errors import IntegrationError, OutOfRangeError


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


def nystrom_span(field, t_from: float, t_to: float, X, V, step: float):
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


def transport_from_horizon(field, t: float, X, V, step: float):
    """Backward map from the horizon state (X, V) to time t."""
    T = field.horizon
    tq = min(max(field.quiet_time(), t), T)
    X = X - V * (T - tq)
    return nystrom_span(field, tq, t, X, V, step)


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
    label: PhaseLabel, history: FieldHistory, t: float, substeps: int = SUBSTEPS
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
    point: PhasePoint, history: FieldHistory, substeps: int = SUBSTEPS
) -> PhaseLabel:
    """Asymptotic label of the trajectory through (x, v) at time t (the inverse flow)."""
    _check_time(history, point.t)
    step = history.dt / substeps
    X, V = transport_to_horizon(
        history, point.t, np.asarray([point.x]), np.asarray([point.v]), step
    )
    return PhaseLabel(x=float(X[0] - history.horizon * V[0]), v=float(V[0]))


def reconstruct_f(datum: AsymptoticDatum, history: FieldHistory, point: PhasePoint) -> float:
    """f(t, x, v) = f* at the asymptotic label of the trajectory through the point."""
    label = label_from_point(point, history)
    return float(eval_f_star(datum, label.x, label.v))
