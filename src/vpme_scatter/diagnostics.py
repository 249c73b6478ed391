"""Quantitative checks on converged runs.

Covers the exponential decay envelope of the field, the certificate of the
paper's guarantees, weak convergence of the transported datum to its spatial
average, the spatial Lipschitz constant of the field, and the weak-instability
construction (weak gaps shrink while the L2 gap does not).

certify is the one check of the guarantees: it reads the run's own arrays
(norm trace, density, and the potentials the last field update solved) and
solves nothing again.  The weak gaps and the L2 gap ||f(t) - h|| are
quadratures of the same whole slices of scheme.transported_datum, as the
density is; for a reflection-symmetric datum that transports only the rows
v >= 0 of each slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# eval_f_star and transport_to_horizon stay bound here for perfbench/tracing.py.
from .asymptotic import (
    AsymptoticDatum,
    ClassParameters,
    _distinct,
    datum_mass,
    eval_f_star,
    h_limit,
    make_gaussian_cosine_datum,
    validate_class_membership,
)
from .characteristics import FieldHistory, transport_to_horizon
from .errors import ParameterError
from .poisson import BoundsReport, verify_potential_bounds
from .scheme import (
    RunSettings,
    SchemeResult,
    run_iteration,
    transported_datum,
    velocity_grid,
)

DECAY_FLOOR = 1e-14
# Tolerances of the certificate's two conservation checks.
BOLTZMANN_TOL = 1e-8
MASS_TOL = 1e-6


@dataclass(frozen=True)
class DecayReport:
    """Least-squares exponential fit of the field envelope and the 16 a1 check.

    fit_start and fit_end are the first and last fitted times (NaN with no
    fit): prefactor and rate describe the field over that window only.
    """

    prefactor: float
    rate: float
    r_squared: float
    residuals: np.ndarray
    envelope_pass: bool
    degenerate: bool
    fitted_nodes: int
    fit_start: float
    fit_end: float


@dataclass(frozen=True)
class Certificate:
    """The paper's guarantees on one run: worst measured values and the envelope flag.

    contraction is the worst ratio of successive weighted deltas (None before
    a second sweep), weighted_norm the worst weighted field norm, norm_bound
    16 a1; bounds holds the worst Utilde norms over all slices, boltzmann the
    worst |mean e^{Ubar+Utilde} - 1| and mass_drift the worst |mass - datum
    mass| over the slices.
    """

    envelope_pass: bool
    contraction: float | None
    weighted_norm: float
    norm_bound: float
    bounds: BoundsReport
    boltzmann: float
    mass_drift: float

    @property
    def contraction_ok(self) -> bool:
        return self.contraction is None or self.contraction <= 0.5

    @property
    def norm_ok(self) -> bool:
        return self.weighted_norm <= self.norm_bound

    def guarantees(self) -> list[tuple[str, bool, float | None]]:
        """(guarantee, holds, worst measured value) in report order."""
        b = self.bounds
        return [
            ("envelope 16 a1 e^{-at}", self.envelope_pass, None),
            ("contraction ratio <= 1/2", self.contraction_ok, self.contraction),
            (f"weighted norm <= 16 a1 = {self.norm_bound!r}", self.norm_ok, self.weighted_norm),
            ("|Utilde| <= 3", b.utilde_ok, b.utilde_inf),
            ("|d_x Utilde| <= 2", b.dutilde_ok, b.dutilde_inf),
            ("|d_xx Utilde| <= 3", b.d2utilde_ok, b.d2utilde_inf),
            (
                f"|mean e^(Ubar+Utilde) - 1| <= {BOLTZMANN_TOL!r}",
                self.boltzmann <= BOLTZMANN_TOL,
                self.boltzmann,
            ),
            (f"mass drift <= {MASS_TOL!r}", self.mass_drift <= MASS_TOL, self.mass_drift),
        ]

    @property
    def failures(self) -> list[str]:
        return [name for name, holds, _ in self.guarantees() if not holds]

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class WeakConvergenceReport:
    """Weak gaps |<phi, f(t)> - <phi, h>| per test function and time.

    l2_gaps holds the L2 gap ||f(t) - h|| of the same slices, per time.
    """

    entries: list  # (test id, time, gap)
    l2_gaps: list  # (time, L2 gap)

    def gaps_for(self, test_id: str) -> list[tuple[float, float]]:
        return [(t, g) for (i, t, g) in self.entries if i == test_id]

    def final_gaps(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for i, t, g in self.entries:
            out[i] = g  # entries are time-ordered per test id
        return out


@dataclass
class InstabilityReport:
    """Coexistence of weak relaxation and a persistent L2 gap.

    The weak gaps and the L2 gaps ||f(t) - h|| are both in weak_report, at
    the same times.
    """

    member: bool
    weak_report: WeakConvergenceReport | None = None
    scheme: SchemeResult | None = None
    narrative: str = (
        "The time-reversed construction (initial data weakly close to the "
        "homogeneous profile that later departs from it) is reported, not "
        "simulated: the flow here is built on [t0, T] only."
    )


def decay_fit(history: FieldHistory, klass: ClassParameters) -> DecayReport:
    """Fit log sup_x |E(t)| by a line over the nodes above the noise floor.

    The report names the fitted window, from the first to the last such node.
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
            fit_start=float("nan"),
            fit_end=float("nan"),
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
        fit_start=float(t[0]),
        fit_end=float(t[-1]),
    )


def certify(result: SchemeResult, datum: AsymptoticDatum, decay: DecayReport) -> Certificate:
    """Certificate of a finished run, read from its own arrays without a solve.

    The Utilde bounds and the Boltzmann integral come from the potentials the
    last field update kept on result.field_history, mass drift from the last
    density against datum_mass, the envelope flag from decay (the run's own
    decay_fit), contraction and the norm bound 16 a1 from the norm trace.
    """
    history = result.field_history
    if history.Ubar is None:
        raise ParameterError("certify needs a run whose field history keeps its potentials")
    boltzmann = np.abs(np.mean(np.exp(history.Ubar + history.Utilde), axis=1) - 1.0)
    mass = result.density_history.mass
    return Certificate(
        envelope_pass=decay.envelope_pass,
        contraction=float(np.max(result.ratios)) if result.ratios else None,
        weighted_norm=float(np.max(result.norms)),
        norm_bound=16.0 * datum.klass.a1,
        bounds=verify_potential_bounds(history),
        boltzmann=float(np.max(boltzmann)),
        mass_drift=float(np.max(np.abs(mass - datum_mass(datum)))),
    )


def default_test_set() -> dict[str, callable]:
    """Low-mode test functions, cut off at the quadrature's |v| <= vmax."""
    return {
        "one": lambda x, v: np.ones_like(x),
        "cos2pix": lambda x, v: np.cos(2.0 * np.pi * x),
        "sin2pix": lambda x, v: np.sin(2.0 * np.pi * x),
        "cos2pix_gauss": lambda x, v: np.cos(2.0 * np.pi * x) * np.exp(-(v**2)),
        "v_gauss": lambda x, v: v * np.exp(-(v**2)),
    }


def weak_convergence_gap(
    datum: AsymptoticDatum, history: FieldHistory, times, vmax: float = 8.0, nv: int = 256
) -> WeakConvergenceReport:
    """Gaps |<phi, f(t)> - <phi, h>| of the default test functions at each time.

    f(t) is the transported_datum slice and h the spatial average of the
    datum; x uses the trapezoid rule on the periodic grid, v composite Simpson
    on the velocity_grid of [-vmax, vmax].  Each phi and its <phi, h> are
    evaluated once on the mesh.  The same slice gives the L2 gap
    ||f(t) - h|| = sqrt(sum_k w_k mean_x (f - h)^2).  The flow conserves the
    integral of f^2 and <f(t), h> tends to ||h||^2, so the L2 gap tends to
    ||f* - h||, which is also its value under free flight.  It does not relax
    as the weak gaps do, and a slice transported wrongly anywhere on the mesh
    moves it.
    """
    nx = history.grid.nx
    v, wv = velocity_grid(vmax, nv)
    X, V = np.meshgrid(history.grid.nodes, v)
    hv = np.asarray(h_limit(datum, v), dtype=float)
    tests = []
    for tid, phi in default_test_set().items():
        pv = phi(X, V)
        tests.append((tid, pv, float(np.sum(np.mean(pv, axis=1) * hv * wv))))
    entries, l2_gaps = [], []
    for t, (_, f) in zip(times, transported_datum(datum, history, times, vmax, nv)):
        for tid, pv, rhs in tests:
            lhs = float(np.sum(pv * f * wv[:, None])) / nx
            entries.append((tid, float(t), abs(lhs - rhs)))
        square = np.mean((f - hv[:, None]) ** 2, axis=1)
        l2_gaps.append((float(t), math.sqrt(float(wv @ square))))
    return WeakConvergenceReport(entries=entries, l2_gaps=l2_gaps)


def weak_gap_sampling(history: FieldHistory, nv: int) -> tuple[list[float], int]:
    """Report times and velocity count of a run's weak gaps: six times spread over the history, nv capped at 512."""
    idx = _distinct(np.linspace(0, history.times.size - 1, 6).astype(int))
    return [float(history.times[i]) for i in idx], min(nv, 512)


def lipschitz_estimate(history: FieldHistory) -> float:
    """Largest adjacent-node difference quotient of E in x over all time nodes."""
    diffs = np.abs(np.roll(history.E, -1, axis=1) - history.E)
    return float(np.max(diffs)) * history.grid.nx


def instability_report(
    mu_amplitude: float,
    mu_sigma: float,
    klass: ClassParameters,
    settings: RunSettings,
) -> InstabilityReport:
    """Run the scheme for f* = mu(v)(1 + cos 2 pi x) and measure both convergence modes.

    mu is the Gaussian mu(v) = mu_amplitude * g_sigma(v); it must satisfy the
    halved velocity-tail bound |mu| <= a2 / (2 (1 + v^4)), which the doubled
    profile then meets.  At six times spread over the history, the weak gaps
    against h = mu should shrink with time, while the L2 gap ||f(t) - mu|| on
    the same transported slices stays near ||f* - mu||: the cosine mixes in
    phase space but never relaxes in norm.
    """
    if mu_amplitude <= 0.0 or mu_sigma <= 0.0:
        raise ParameterError("mu amplitude and width must be positive")
    datum = make_gaussian_cosine_datum(mu_amplitude, mu_sigma, klass)
    membership = validate_class_membership(datum)
    if not membership.pointwise_tail:
        raise ParameterError("mu violates the velocity-tail bound a2 / (2 (1 + v^4))")
    result = run_iteration(datum, settings, membership)
    history = result.field_history

    times, nv = weak_gap_sampling(history, settings.nv)
    weak = weak_convergence_gap(datum, history, times, vmax=result.vmax, nv=nv)
    return InstabilityReport(member=membership.member, weak_report=weak, scheme=result)
