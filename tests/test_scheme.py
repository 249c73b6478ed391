"""Fixed-point iteration: quadrature, density push, norms, convergence."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from vpme_scatter.asymptotic import (
    datum_mass,
    eval_f_star,
    fourier_f_star,
    make_gaussian_cosine_datum,
    make_tabulated_datum,
)
from vpme_scatter.characteristics import FieldHistory, PhasePoint
from vpme_scatter import scheme
from vpme_scatter.errors import DomainError, ParameterError, SolverDivergenceError
from vpme_scatter.poisson import (
    FieldSlice,
    SpatialGrid,
    make_field_slice,
    solve_linear,
    solve_nonlinear,
    spectral_derivative,
)
from vpme_scatter.scheme import (
    DensityHistory,
    RunSettings,
    default_horizon,
    field_update,
    push_density,
    reconstruct_f,
    run_iteration,
    simpson_weights,
    weighted_norm,
    weighted_norm_array,
)

from conftest import EXPLORATORY_KLASS, THEOREM_KLASS


class TestSimpsonWeights:
    def test_sum_equals_span(self):
        w = simpson_weights(10, 0.25)
        assert np.sum(w) == pytest.approx(10 * 0.25)

    def test_exact_for_cubics(self):
        n, h = 8, 0.5
        x = np.arange(n + 1) * h
        w = simpson_weights(n, h)
        exact = (x[-1] ** 4) / 4.0
        assert float(w @ x**3) == pytest.approx(exact, rel=1e-14)

    def test_rejects_odd_interval_count(self):
        with pytest.raises(ParameterError):
            simpson_weights(7, 0.1)


class TestWeightedNorm:
    def test_double_rate_oracle(self):
        # F(t) = e^{-2at}: sup of e^{at} e^{-2at} over t >= t0 is e^{-a t0}.
        a, t0 = 1.3, 0.4
        times = np.linspace(t0, 6.0, 400)
        vals = np.exp(-2 * a * times)[:, None] * np.ones((1, 8))
        assert weighted_norm_array(times, vals, a, t0) == pytest.approx(
            math.exp(-a * t0), rel=1e-12
        )

    def test_exact_cancellation_oracle(self):
        a, t0 = 2.0, 0.0
        times = np.linspace(t0, 5.0, 200)
        vals = np.exp(-a * times)[:, None] * np.ones((1, 4))
        assert weighted_norm_array(times, vals, a, t0) == pytest.approx(1.0, rel=1e-12)

    def test_nodes_before_t0_ignored(self):
        times = np.linspace(0.0, 1.0, 11)
        vals = np.zeros((11, 4))
        vals[0] = 100.0  # before t0, must not count
        vals[-1] = 1.0
        assert weighted_norm_array(times, vals, 1.0, 0.5) == pytest.approx(math.e)

    @given(scale=st.floats(0.1, 50.0, allow_nan=False))
    @hyp_settings(max_examples=30, deadline=None)
    def test_homogeneity(self, scale):
        rng = np.random.default_rng(2)
        times = np.linspace(0.0, 2.0, 21)
        vals = rng.normal(size=(21, 8))
        base = weighted_norm_array(times, vals, 1.5, 0.0)
        assert weighted_norm_array(times, scale * vals, 1.5, 0.0) == pytest.approx(
            scale * base, rel=1e-12
        )


class TestDensityPush:
    def test_free_transport_oracle(self):
        # Zero field: rho_1(t, x) = c (1 + cos(2 pi x) e^{-2 pi^2 sigma^2 t^2}).
        c, sigma = 0.05, 1.0
        datum = make_gaussian_cosine_datum(c, sigma, EXPLORATORY_KLASS)
        grid = SpatialGrid(64)
        times = np.linspace(0.7, 3.0, 24)
        hist = FieldHistory.zero(times, grid)
        dens = push_density(datum, hist, vmax=8.0, nv=128)
        x = grid.nodes
        for i, t in enumerate(times):
            expected = c * (
                1.0 + np.cos(2 * np.pi * x) * math.exp(-2 * math.pi**2 * sigma**2 * t**2)
            )
            np.testing.assert_allclose(dens.rho[i], expected, atol=1e-8)

    @pytest.mark.parametrize(
        "sigma, nv, vmax", [(1.0, 256, 8.0), (0.35, 128, 3.11)], ids=["sigma1", "sigma035"]
    )
    def test_free_streaming_fourier_oracle(self, sigma, nv, vmax):
        # Zero field: f(t, x, v) = f*(x - v t, v), so the density's mode k is
        # fhat*(k, 2 pi k t).  The grids resolve the phase mixing up to T = 3
        # (nv=64 at sigma=0.35 aliases it: a 3.8e-6 error there).
        datum = make_gaussian_cosine_datum(0.05, sigma, EXPLORATORY_KLASS)
        grid = SpatialGrid(64)
        times = np.linspace(0.7, 3.0, 24)
        dens = push_density(datum, FieldHistory.zero(times, grid), vmax=vmax, nv=nv)
        x = grid.nodes
        expected = np.array(
            [
                sum(
                    fourier_f_star(datum, k, 2 * math.pi * k * t)
                    * np.exp(2j * math.pi * k * x)
                    for k in (-1, 0, 1)
                ).real
                for t in times
            ]
        )
        err = np.max(np.abs(dens.rho - expected)) / np.max(np.abs(expected))
        assert err <= 1e-13

    def test_first_field_oracle(self):
        # The linear field of rho_1 is (c / 2 pi) sin(2 pi x) e^{-2 pi^2 sigma^2 t^2}.
        c, sigma = 0.05, 1.0
        datum = make_gaussian_cosine_datum(c, sigma, EXPLORATORY_KLASS)
        grid = SpatialGrid(64)
        times = np.linspace(0.7, 1.5, 6)
        dens = push_density(datum, FieldHistory.zero(times, grid), vmax=8.0, nv=128)
        hist = field_update(dens, grid)
        x = grid.nodes
        for i, t in enumerate(times):
            expected = (
                (c / (2 * math.pi))
                * np.sin(2 * np.pi * x)
                * math.exp(-2 * math.pi**2 * sigma**2 * t**2)
            )
            np.testing.assert_allclose(hist.Ebar[i], expected, atol=1e-8)

    def test_mass_conserved_across_slices(self, exploratory_run, exploratory_datum):
        dens = exploratory_run.density_history
        c = datum_mass(exploratory_datum)
        assert np.max(np.abs(dens.mass - c)) < 1e-6
        assert np.max(dens.mass) - np.min(dens.mass) < 1e-9

    def test_density_nonnegative(self, exploratory_run):
        assert np.min(exploratory_run.density_history.rho) >= 0.0

    def test_field_update_reports_failing_slice(self):
        grid = SpatialGrid(16)
        rho = np.full((3, 16), 0.5)
        rho[1, 4] = -0.1
        dens = DensityHistory(
            times=np.linspace(0, 1, 3), rho=rho, mass=rho.mean(axis=1)
        )
        with pytest.raises(DomainError, match="slice 1"):
            field_update(dens, grid)

    def test_field_update_keeps_divergence_residual(self, monkeypatch):
        def one_newton_step(rho, grid, newton_tol):
            Ubar, Ebar = solve_linear(rho, grid)
            Utilde, Etilde = solve_nonlinear(Ubar, grid, tol=newton_tol, max_iter=1)
            return FieldSlice(Ubar=Ubar, Utilde=Utilde, Ebar=Ebar, Etilde=Etilde)

        monkeypatch.setattr(scheme, "make_field_slice", one_newton_step)
        grid = SpatialGrid(16)
        rho = np.full((2, 16), 0.5)
        dens = DensityHistory(times=np.array([0.0, 1.0]), rho=rho, mass=rho.mean(axis=1))
        with pytest.raises(SolverDivergenceError, match=r"^slice 0 \(t=0\): Newton") as info:
            field_update(dens, grid)
        assert info.value.residual > 1e-10

    def test_field_update_leaves_foreign_errors_alone(self, monkeypatch):
        def broken(rho, grid, newton_tol):
            raise ZeroDivisionError("boom")

        monkeypatch.setattr(scheme, "make_field_slice", broken)
        grid = SpatialGrid(16)
        rho = np.full((2, 16), 0.5)
        dens = DensityHistory(times=np.array([0.0, 1.0]), rho=rho, mass=rho.mean(axis=1))
        with pytest.raises(ZeroDivisionError, match="^boom$"):
            field_update(dens, grid)


class TestRunIteration:
    def test_requires_exploratory_flag_outside_regime(self, exploratory_datum):
        with pytest.raises(ParameterError):
            run_iteration(
                exploratory_datum, RunSettings(nx=16, nv=16, nt=4, horizon=1.5)
            )

    def test_warns_in_exploratory_mode(self, exploratory_datum):
        settings = RunSettings(
            nx=16, nv=32, nt=8, vmax=6.0, horizon=1.5, exploratory=True, max_iterations=1
        )
        with pytest.warns(UserWarning, match="theorem regime"):
            run_iteration(exploratory_datum, settings)

    def test_default_horizon_truncation(self):
        for klass in (EXPLORATORY_KLASS, THEOREM_KLASS):
            T = default_horizon(klass)
            assert (16.0 * klass.a1 / klass.a) * math.exp(-klass.a * T) <= 1e-10
            assert T > klass.t0

    def test_exploratory_converges(self, exploratory_run):
        assert exploratory_run.converged
        assert exploratory_run.iterations <= 30
        assert exploratory_run.deltas[-1] <= exploratory_run.tolerance

    def test_theorem_regime_converges(self, theorem_run):
        assert theorem_run.converged
        assert all(r <= 0.5 for r in theorem_run.ratios)

    def test_norm_trace_shapes(self, exploratory_run):
        r = exploratory_run
        assert len(r.norms) == len(r.deltas) == r.iterations
        assert len(r.ratios) == max(0, r.iterations - 1)

    def test_fixed_point_residual_mean_free(self, exploratory_run, exploratory_datum):
        # At the fixed point, dE/dx + (e^{Ubar+Utilde} - 1) - (rho - m) vanishes
        # up to its spatial mean (the zero mode is fixed by the unit-background
        # convention, so only the mean-free part is an identity).
        dens = exploratory_run.density_history
        grid = exploratory_run.field_history.grid
        worst = 0.0
        for i in range(0, dens.times.size, 20):
            s = make_field_slice(dens.rho[i], grid)
            res = (
                spectral_derivative(s.E)
                + (np.exp(s.Ubar + s.Utilde) - 1.0)
                - (dens.rho[i] - dens.mass[i])
            )
            worst = max(worst, float(np.max(np.abs(res - np.mean(res)))))
        assert worst < 1e-6


class TestReconstruction:
    def test_zero_field_value(self):
        datum = make_gaussian_cosine_datum(0.05, 1.0, EXPLORATORY_KLASS)
        grid = SpatialGrid(32)
        hist = FieldHistory.zero(np.linspace(0.0, 2.0, 21), grid)
        t, x, v = 0.9, 0.37, 1.1
        got = reconstruct_f(datum, hist, PhasePoint(t=t, x=x, v=v))
        expected = float(eval_f_star(datum, x - v * t, v))
        assert got == pytest.approx(expected, rel=1e-9)

    def test_converged_run_matches_datum_scale(self, exploratory_run, exploratory_datum):
        hist = exploratory_run.field_history
        val = reconstruct_f(
            exploratory_datum, hist, PhasePoint(t=hist.t0, x=0.25, v=0.5)
        )
        peak = 2.0 * 0.05 / math.sqrt(2 * math.pi)
        assert 0.0 <= val <= peak * (1.0 + 1e-9)


class TestImplicitVelocityWindow:
    def test_table_with_implicit_vmax_converges(self):
        # The window follows the table's support rather than its edge, so the
        # labels of later sweeps stay inside [-8, 8].
        x = np.arange(32) / 32.0
        v = np.linspace(-8.0, 8.0, 129)
        g = np.exp(-(v**2) / 2.0) / math.sqrt(2.0 * math.pi)
        vals = np.outer(1.0 + 0.2 * np.cos(2.0 * np.pi * x), g)
        datum = make_tabulated_datum(x, v, vals, EXPLORATORY_KLASS)
        settings = RunSettings(nx=32, nv=32, nt=10, horizon=3.0, exploratory=True)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            result = run_iteration(datum, settings)
        assert result.converged
        assert result.vmax < 8.0
        assert result.horizon == 3.0
