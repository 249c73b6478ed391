"""Acceptance suite: the nine headline guarantees, one printed verdict each.

Each test prints a single ``[criterion N] PASS/FAIL`` line with the measured
quantity next to its bound.  Criterion 3 is marked as a strict expected
failure: its stated tolerance is below the genuine second-order response of
the nonlinear problem, so no consistent solver can meet it (the companion
test pins the attainable version).
"""

import math
import time

import numpy as np
import pytest

from vpme_scatter.asymptotic import datum_mass, make_gaussian_cosine_datum
from vpme_scatter.characteristics import (
    FieldHistory,
    transport_from_horizon,
    transport_to_horizon,
)
from vpme_scatter.diagnostics import decay_fit, weak_convergence_gap
from vpme_scatter.poisson import (
    E6,
    SpatialGrid,
    make_field_slice,
    solve_linear,
    solve_nonlinear,
    stability_ratio,
    verify_potential_bounds,
)
from vpme_scatter.scheme import field_update, push_density, weighted_norm

from conftest import (
    EXPLORATORY_KLASS,
    RUN_SECONDS,
    THEOREM_KLASS,
    UniformDecayField,
)


def _verdict(n: int, ok: bool, detail: str):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_homogeneous_state():
    """rho = m gives a zero field and the constant Boltzmann correction m/12."""
    start = time.perf_counter()
    grid = SpatialGrid(128)
    worst_E = 0.0
    worst_U = 0.0
    for m in (0.1, 1.0):
        s = make_field_slice(np.full(grid.nx, m), grid)
        worst_E = max(worst_E, float(np.max(np.abs(s.E))))
        worst_U = max(worst_U, float(np.max(np.abs(s.Utilde - m / 12.0))))
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        worst_E <= 1e-10 and worst_U <= 1e-10 and elapsed < 1.0,
        f"sup|E| = {worst_E:.3e} <= 1e-10, sup|Utilde - m/12| = {worst_U:.3e} <= 1e-10, "
        f"{elapsed:.2f} s < 1 s",
    )


def test_criterion_2_first_iterate_oracle():
    """Zero-field density and linear field match their closed forms at Nx=256, Nv=512."""
    start = time.perf_counter()
    c, sigma = 0.05, 1.0
    datum = make_gaussian_cosine_datum(c, sigma, EXPLORATORY_KLASS)
    grid = SpatialGrid(256)
    times = np.linspace(0.7, 3.0, 21)
    dens = push_density(datum, FieldHistory.zero(times, grid), vmax=8.0, nv=512)
    hist = field_update(dens, grid)
    x = grid.nodes
    damp = np.exp(-2 * math.pi**2 * sigma**2 * times**2)
    rho_exact = c * (1.0 + np.cos(2 * np.pi * x)[None, :] * damp[:, None])
    E_exact = (c / (2 * math.pi)) * np.sin(2 * np.pi * x)[None, :] * damp[:, None]
    err_rho = float(np.max(np.abs(dens.rho - rho_exact)))
    err_E = float(np.max(np.abs(hist.Ebar - E_exact)))
    elapsed = time.perf_counter() - start
    _verdict(
        2,
        err_rho <= 1e-6 and err_E <= 1e-6 and elapsed < 30.0,
        f"max|rho - oracle| = {err_rho:.3e} <= 1e-6, max|Ebar - oracle| = {err_E:.3e} "
        f"<= 1e-6, {elapsed:.1f} s < 30 s",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "The 1e-9 tolerance sits below the true second-order response: for "
        "Ubar = eps cos(2 pi x) with eps = 1e-4 the exact solution carries a "
        "constant shift -(eps^2/4)(4 pi^2/(1+4 pi^2))^2 ~ -2.38e-9 that the "
        "first-order formula omits, so every consistent solver differs from "
        "it by ~2.4e-9.  The attainable version is pinned in "
        "test_criterion_3_linearization_attainable."
    ),
)
def test_criterion_3_nonlinear_poisson_linearization():
    """Newton's solution against the first-order formula at the stated tolerance."""
    grid = SpatialGrid(512)
    eps = 1e-4
    Ubar = eps * np.cos(2 * np.pi * grid.nodes)
    Utilde, _ = solve_nonlinear(Ubar, grid)
    oracle = -eps * np.cos(2 * np.pi * grid.nodes) / (1.0 + 4.0 * np.pi**2)
    err = float(np.max(np.abs(Utilde - oracle)))
    second_order = (eps**2 / 4.0) * (4 * np.pi**2 / (1 + 4 * np.pi**2)) ** 2
    _verdict(
        3,
        err <= 1e-9,
        f"max|Utilde - first-order formula| = {err:.3e} > 1e-9; the defect is the "
        f"genuine second-order mean response {second_order:.3e} of the exact "
        f"solution, not a solver error",
    )


def test_criterion_3_linearization_attainable():
    """The achievable form: first-order match after removing the mean, fast Newton."""
    grid = SpatialGrid(512)
    eps = 1e-4
    Ubar = eps * np.cos(2 * np.pi * grid.nodes)
    Utilde, _ = solve_nonlinear(Ubar, grid, tol=1e-10, max_iter=10)
    oracle = -eps * np.cos(2 * np.pi * grid.nodes) / (1.0 + 4.0 * np.pi**2)
    osc_err = float(np.max(np.abs((Utilde - np.mean(Utilde)) - oracle)))
    h = grid.h
    lap = (np.roll(Utilde, -1) - 2 * Utilde + np.roll(Utilde, 1)) / h**2
    res = float(np.max(np.abs(lap - (np.exp(Ubar + Utilde) - 1.0))))
    _verdict(
        3,
        osc_err <= 1e-9 and res <= 1e-10,
        f"mean-free max|Utilde - first-order formula| = {osc_err:.3e} <= 1e-9, "
        f"Newton residual {res:.3e} <= 1e-10 within 10 steps",
    )


def test_criterion_4_stability_bound():
    """Randomized stability ratios below e^6; linearized ratio at 2 pi/(1+4 pi^2)."""
    grid = SpatialGrid(64)
    rng = np.random.default_rng(20260823)
    worst = 0.0
    violations = 0
    for _ in range(100):
        x = grid.nodes
        rho1 = rng.uniform(0.2, 1.5) * np.ones(grid.nx)
        rho2 = rng.uniform(0.2, 1.5) * np.ones(grid.nx)
        for k in (1, 2, 3):
            rho1 = rho1 * (1.0 + rng.uniform(-0.25, 0.25) * np.cos(2 * np.pi * k * x + rng.uniform(0, 2 * np.pi)))
            rho2 = rho2 * (1.0 + rng.uniform(-0.25, 0.25) * np.cos(2 * np.pi * k * x + rng.uniform(0, 2 * np.pi)))
        U1, _ = solve_linear(rho1, grid)
        U2, _ = solve_linear(rho2, grid)
        r = stability_ratio(U1, U2, grid)
        worst = max(worst, r)
        if r > E6:
            violations += 1
    eps = 1e-4
    fine = SpatialGrid(256)
    lin = stability_ratio(
        eps * np.cos(2 * np.pi * fine.nodes), np.zeros(fine.nx), fine
    )
    target = 2 * math.pi / (1 + 4 * math.pi**2)
    lin_ok = abs(lin - target) <= 0.02 * target
    _verdict(
        4,
        violations == 0 and lin_ok,
        f"max ratio {worst:.3f} <= e^6 = {E6:.2f} over 100 pairs ({violations} "
        f"violations); linearized ratio {lin:.5f} within 2% of {target:.5f}",
    )


def test_criterion_5_potential_bounds(exploratory_run, theorem_run):
    """||Utilde|| <= 3, ||dUtilde|| <= 2, ||d2Utilde|| <= 3 on every slice of both runs."""
    worst = {"utilde_inf": 0.0, "dutilde_inf": 0.0, "d2utilde_inf": 0.0}
    all_ok = True
    for run in (exploratory_run, theorem_run):
        dens = run.density_history
        grid = run.field_history.grid
        for i in range(dens.times.size):
            report = verify_potential_bounds(make_field_slice(dens.rho[i], grid))
            all_ok = all_ok and report.all_ok
            for key in worst:
                worst[key] = max(worst[key], getattr(report, key))
    _verdict(
        5,
        all_ok,
        f"max over all slices of both runs: |Utilde| = {worst['utilde_inf']:.3e} <= 3, "
        f"|dUtilde| = {worst['dutilde_inf']:.3e} <= 2, "
        f"|d2Utilde| = {worst['d2utilde_inf']:.3e} <= 3",
    )


def test_criterion_6_contraction(exploratory_run, theorem_run):
    """Theorem-regime ratios <= 1/2 and norms <= 16 a1; exploratory convergence."""
    t_ratios_ok = all(r <= 0.5 for r in theorem_run.ratios)
    bound = 16.0 * THEOREM_KLASS.a1
    t_norms_ok = all(n <= bound for n in theorem_run.norms)
    e_ok = exploratory_run.converged and exploratory_run.deltas[-1] <= 1e-9
    e_iters_ok = exploratory_run.iterations <= 30
    elapsed = RUN_SECONDS["exploratory"] + RUN_SECONDS["theorem"]
    _verdict(
        6,
        t_ratios_ok and t_norms_ok and e_ok and e_iters_ok and elapsed < 600.0,
        f"theorem ratios {['%.2e' % r for r in theorem_run.ratios]} all <= 0.5, "
        f"norms <= 16 a1 = {bound:.1f}; exploratory delta "
        f"{exploratory_run.deltas[-1]:.2e} <= 1e-9 in "
        f"{exploratory_run.iterations} <= 30 iterations; both runs took "
        f"{elapsed:.0f} s < 600 s",
    )


def test_criterion_7_flow_roundtrips(exploratory_run, exploratory_settings):
    """Label/point composition on a 32x32 probe grid; RK4 order on the uniform oracle."""
    hist = exploratory_run.field_history
    xs = np.arange(32) / 32.0
    vs = np.linspace(-4.0, 4.0, 32)
    X0, V0 = np.meshgrid(xs, vs)
    step = hist.dt / exploratory_settings.ode_substeps
    XT, VT = transport_to_horizon(hist, hist.t0, X0.ravel(), V0.ravel(), step)
    Xb, Vb = transport_from_horizon(hist, hist.t0, XT, VT, step)
    roundtrip = max(
        float(np.max(np.abs(Xb - X0.ravel()))), float(np.max(np.abs(Vb - V0.ravel())))
    )

    fld = UniformDecayField(rate=2.0, amplitude=0.5, t_start=0.0, horizon=2.0)
    errs = []
    for s in (0.02, 0.01):
        X, V = transport_from_horizon(
            fld, 0.3, np.array([0.1 + 0.7 * 2.0]), np.array([0.7]), s
        )
        Xe, Ve = fld.exact_state(0.3, 0.1, 0.7)
        errs.append(abs(float(X[0]) - Xe) + abs(float(V[0]) - Ve))
    ratio = errs[0] / errs[1]
    _verdict(
        7,
        roundtrip <= 1e-6 and 13.0 <= ratio <= 19.0,
        f"max roundtrip error {roundtrip:.3e} <= 1e-6 on the 32x32 probe grid; "
        f"step-halving error ratio {ratio:.2f} in [13, 19]",
    )


def test_criterion_8_conservation(
    exploratory_run, theorem_run, exploratory_datum, theorem_datum
):
    """Mass constant per slice and across iterations; unit Boltzmann integral."""
    worst_mass = 0.0
    worst_boltz = 0.0
    for run, datum in ((exploratory_run, exploratory_datum), (theorem_run, theorem_datum)):
        dens = run.density_history
        c = datum_mass(datum)
        worst_mass = max(worst_mass, float(np.max(np.abs(dens.mass - c))))
        grid = run.field_history.grid
        for i in range(dens.times.size):
            s = make_field_slice(dens.rho[i], grid)
            worst_boltz = max(
                worst_boltz, abs(float(np.mean(np.exp(s.Ubar + s.Utilde))) - 1.0)
            )
    # Across iterations: the first iterate (zero field) must carry the same mass.
    grid = exploratory_run.field_history.grid
    first = push_density(
        exploratory_datum, FieldHistory.zero(exploratory_run.field_history.times, grid),
        vmax=8.0, nv=256,
    )
    worst_mass = max(
        worst_mass, float(np.max(np.abs(first.mass - datum_mass(exploratory_datum))))
    )
    _verdict(
        8,
        worst_mass <= 1e-6 and worst_boltz <= 1e-8,
        f"max mass drift {worst_mass:.3e} <= 1e-6 across slices and iterations; "
        f"max |mean(e^(Ubar+Utilde)) - 1| = {worst_boltz:.3e} <= 1e-8 per slice",
    )


def test_criterion_9_damping_diagnostics(
    exploratory_run, exploratory_datum, instability
):
    """Positive fitted decay rate with good fit; weak gaps small; probe gap persists."""
    hist = exploratory_run.field_history
    decay = decay_fit(hist, EXPLORATORY_KLASS)
    fit_ok = (not decay.degenerate) and decay.rate > 0.0 and decay.r_squared >= 0.99

    weak = weak_convergence_gap(
        exploratory_datum, hist, [hist.horizon], vmax=8.0, nv=256
    )
    final_gaps = weak.final_gaps()
    weak_ok = all(g < 1e-3 for g in final_gaps.values())

    g0 = 0.05 / math.sqrt(2.0 * math.pi)
    probe_ok = instability.probe_gap > 0.5 * g0
    _verdict(
        9,
        fit_ok and weak_ok and probe_ok,
        f"fitted rate {decay.rate:.3f} > 0 with R^2 = {decay.r_squared:.4f} >= 0.99; "
        f"max weak gap at the horizon {max(final_gaps.values()):.3e} < 1e-3; "
        f"instability probe gap {instability.probe_gap:.4f} > "
        f"{0.5 * g0:.4f} = 0.5 c g_sigma(0)",
    )
