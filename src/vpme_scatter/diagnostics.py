"""Quantitative checks on converged runs.

Covers the exponential decay envelope of the field, weak convergence of the
transported datum to its spatial average, the spatial Lipschitz constant of
the field, and the weak-instability construction (weak gaps shrink while a
pointwise probe gap does not).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .asymptotic import (
    AsymptoticDatum,
    ClassParameters,
    eval_f_star,
    h_limit,
    make_gaussian_cosine_datum,
    validate_class_membership,
)
from .characteristics import DEFAULT_SUBSTEPS, FieldHistory, transport_to_horizon
from .errors import ParameterError
from .scheme import RunSettings, SchemeResult, run_iteration, simpson_weights

DECAY_FLOOR = 1e-14


@dataclass(frozen=True)
class DecayReport:
    """Least-squares exponential fit of the field envelope and the 16 a1 check."""

    prefactor: float
    rate: float
    r_squared: float
    residuals: np.ndarray
    envelope_pass: bool
    degenerate: bool
    fitted_nodes: int


@dataclass(frozen=True)
class WeakConvergenceReport:
    """Gaps |<phi, f(t)> - <phi, h>| per test function and time."""

    entries: list  # (test id, time, gap)

    def gaps_for(self, test_id: str) -> list[tuple[float, float]]:
        return [(t, g) for (i, t, g) in self.entries if i == test_id]

    def final_gaps(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for i, t, g in self.entries:
            out[i] = g  # entries are time-ordered per test id
        return out


@dataclass
class InstabilityReport:
    """Coexistence of weak relaxation and a persistent pointwise gap."""

    member: bool
    weak_report: WeakConvergenceReport | None = None
    probe_velocity: float = 0.0
    probe_gap: float = 0.0
    probe_reference: float = 0.0
    scheme: SchemeResult | None = None
    narrative: str = (
        "The time-reversed construction (initial data weakly close to the "
        "homogeneous profile that later departs from it) is reported, not "
        "simulated: the flow here is built on [t0, T] only."
    )


def decay_fit(history: FieldHistory, klass: ClassParameters) -> DecayReport:
    """Fit log sup_x |E(t)| by a line over the nodes above the noise floor.

    Also checks the theorem envelope sup_x |E(t)| <= 16 a1 e^{-a t} at every
    node.  A field that is numerically zero everywhere yields a degenerate
    report with no fit.
    """
    sup = np.max(np.abs(history.E), axis=1)
    envelope = 16.0 * klass.a1 * np.exp(-klass.a * history.times)
    envelope_pass = bool(np.all(sup <= envelope * (1.0 + 1e-9)))
    mask = sup > DECAY_FLOOR
    if int(mask.sum()) < 3:
        return DecayReport(
            prefactor=0.0,
            rate=float("nan"),
            r_squared=float("nan"),
            residuals=np.array([]),
            envelope_pass=envelope_pass,
            degenerate=True,
            fitted_nodes=int(mask.sum()),
        )
    t = history.times[mask]
    y = np.log(sup[mask])
    A = np.vstack([t, np.ones_like(t)]).T
    coef, _, _, _ = np.linalg.lstsq(A, y, rcond=None)
    fit = A @ coef
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return DecayReport(
        prefactor=math.exp(coef[1]),
        rate=-float(coef[0]),
        r_squared=r2,
        residuals=y - fit,
        envelope_pass=envelope_pass,
        degenerate=False,
        fitted_nodes=int(mask.sum()),
    )


def default_test_set(vmax: float) -> dict[str, callable]:
    """Low-mode test functions restricted to |v| <= vmax (cut off by the grid)."""
    return {
        "one": lambda x, v: np.ones_like(x),
        "cos2pix": lambda x, v: np.cos(2.0 * np.pi * x),
        "sin2pix": lambda x, v: np.sin(2.0 * np.pi * x),
        "cos2pix_gauss": lambda x, v: np.cos(2.0 * np.pi * x) * np.exp(-(v**2)),
        "v_gauss": lambda x, v: v * np.exp(-(v**2)),
    }


def weak_convergence_gap(
    datum: AsymptoticDatum,
    history: FieldHistory,
    times,
    testset: dict[str, callable] | None = None,
    vmax: float = 8.0,
    nv: int = 256,
    substeps: int = DEFAULT_SUBSTEPS,
) -> WeakConvergenceReport:
    """Phase-space quadrature of the transported datum against each test function.

    The gap compares <phi, f(t)> with <phi, h>, h the spatial average of the
    datum; x uses the trapezoid rule on the periodic grid, v composite Simpson
    on [-vmax, vmax].
    """
    if testset is None:
        testset = default_test_set(vmax)
    grid = history.grid
    x = grid.nodes
    v = np.linspace(-vmax, vmax, nv + 1)
    wv = simpson_weights(nv, v[1] - v[0])
    X0, V0 = np.meshgrid(x, v)
    hv = np.asarray(h_limit(datum, v), dtype=float)
    step = history.dt / substeps
    T = history.horizon
    entries = []
    for t in times:
        XT, VT = transport_to_horizon(history, float(t), X0.ravel(), V0.ravel(), step)
        fvals = eval_f_star(datum, XT - T * VT, VT).reshape(nv + 1, grid.nx)
        for tid, phi in testset.items():
            pv = phi(X0, V0)
            lhs = float(np.sum(pv * fvals * wv[:, None])) / grid.nx
            rhs = float(np.sum(np.mean(pv, axis=1) * hv * wv))
            entries.append((tid, float(t), abs(lhs - rhs)))
    return WeakConvergenceReport(entries=entries)


def lipschitz_estimate(history: FieldHistory) -> float:
    """Largest adjacent-node difference quotient of E in x over all time nodes."""
    diffs = np.abs(np.roll(history.E, -1, axis=1) - history.E)
    return float(np.max(diffs)) * history.grid.nx


def instability_report(
    mu_amplitude: float,
    mu_sigma: float,
    klass: ClassParameters,
    settings: RunSettings,
    probe_velocity: float = 0.0,
    gap_times: list[float] | None = None,
) -> InstabilityReport:
    """Run the scheme for f* = mu(v)(1 + cos 2 pi x) and probe both convergence modes.

    mu is the Gaussian mu(v) = mu_amplitude * g_sigma(v); it must satisfy the
    halved velocity-tail bound |mu| <= a2 / (2 (1 + v^4)), which the doubled
    profile then meets.  Weak gaps against h = mu should shrink with time
    while the pointwise gap sup_x |f(t, x, v*) - mu(v*)| stays bounded below:
    the cosine never relaxes pointwise.
    """
    if mu_amplitude <= 0.0 or mu_sigma <= 0.0:
        raise ParameterError("mu amplitude and width must be positive")
    datum = make_gaussian_cosine_datum(mu_amplitude, mu_sigma, klass)
    membership = validate_class_membership(datum)
    if not membership.pointwise_tail:
        raise ParameterError("mu violates the velocity-tail bound a2 / (2 (1 + v^4))")
    result = run_iteration(datum, settings, membership)
    history = result.field_history

    if gap_times is None:
        idx = np.unique(np.linspace(0, history.times.size - 1, 6).astype(int))
        gap_times = [float(history.times[i]) for i in idx]
    weak = weak_convergence_gap(
        datum,
        history,
        gap_times,
        vmax=result.vmax,
        nv=min(settings.nv, 512),
        substeps=settings.ode_substeps,
    )

    # Pointwise probe at the horizon: f(T, x, v*) against mu(v*).
    T = history.horizon
    xg = history.grid.nodes
    XT, VT = transport_to_horizon(
        history,
        T,
        xg,
        np.full_like(xg, probe_velocity),
        history.dt / settings.ode_substeps,
    )
    fvals = eval_f_star(datum, XT - T * VT, VT)
    mu_probe = float(h_limit(datum, np.asarray([probe_velocity]))[0])
    probe_gap = float(np.max(np.abs(fvals - mu_probe)))

    return InstabilityReport(
        member=membership.member,
        weak_report=weak,
        probe_velocity=probe_velocity,
        probe_gap=probe_gap,
        probe_reference=mu_probe,
        scheme=result,
    )
