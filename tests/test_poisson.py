"""Split Poisson solves: kernel, spectral linear step, Newton nonlinear step."""

import math

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st
from scipy.integrate import quad

from vpme_scatter.errors import (
    DegenerateRatioError,
    DomainError,
    ParameterError,
    SolverDivergenceError,
)
from vpme_scatter.poisson import (
    E6,
    NEWTON_TOL,
    SpatialGrid,
    _linearized,
    kernel_eval,
    make_field_slice,
    solve_cyclic_tridiagonal,
    solve_linear,
    solve_nonlinear,
    spectral_derivative,
    stability_ratio,
    verify_potential_bounds,
)


class TestKernel:
    def test_values_on_fundamental_domain(self):
        W, Wp = kernel_eval(0.0)
        assert W == 0.0 and Wp == -0.5
        W, Wp = kernel_eval(0.5)
        assert W == pytest.approx(-0.125)
        assert Wp == pytest.approx(0.0)

    def test_mean_is_minus_one_twelfth(self):
        val, _ = quad(lambda x: kernel_eval(x)[0], 0.0, 1.0)
        assert val == pytest.approx(-1.0 / 12.0, abs=1e-12)

    def test_periodic_extension(self):
        x = np.linspace(0, 1, 17, endpoint=False)
        W0, Wp0 = kernel_eval(x)
        W1, Wp1 = kernel_eval(x + 2.0)
        np.testing.assert_allclose(W0, W1, atol=1e-15)
        np.testing.assert_allclose(Wp0, Wp1, atol=1e-15)

    def test_sharp_bounds(self):
        x = np.linspace(0, 1, 100001, endpoint=False)
        W, Wp = kernel_eval(x)
        assert np.max(np.abs(W)) == pytest.approx(1.0 / 8.0)
        assert np.max(np.abs(Wp)) == pytest.approx(0.5)


class TestSpectralDerivative:
    def test_trig_exact(self):
        grid = SpatialGrid(64)
        u = np.sin(2 * np.pi * grid.nodes) + 0.3 * np.cos(6 * np.pi * grid.nodes)
        du = 2 * np.pi * np.cos(2 * np.pi * grid.nodes) - 1.8 * np.pi * np.sin(
            6 * np.pi * grid.nodes
        )
        np.testing.assert_allclose(spectral_derivative(u), du, atol=1e-11)

    def test_constant_maps_to_zero(self):
        np.testing.assert_allclose(spectral_derivative(np.full(32, 1.7)), 0.0, atol=1e-14)


class TestLinearSolve:
    def test_grid_validation(self):
        with pytest.raises(ParameterError):
            SpatialGrid(7)
        with pytest.raises(ParameterError):
            SpatialGrid(4)

    def test_constant_density(self):
        grid = SpatialGrid(64)
        for m in (0.1, 1.0):
            Ubar, Ebar = solve_linear(np.full(64, m), grid)
            np.testing.assert_allclose(Ubar, -m / 12.0, atol=1e-14)
            np.testing.assert_allclose(Ebar, 0.0, atol=1e-14)

    def test_single_harmonic_oracle(self):
        grid = SpatialGrid(128)
        x = grid.nodes
        rho = 1.0 + np.cos(2 * np.pi * x)
        Ubar, Ebar = solve_linear(rho, grid)
        np.testing.assert_allclose(
            Ubar, -1.0 / 12.0 + np.cos(2 * np.pi * x) / (2 * np.pi) ** 2, atol=1e-13
        )
        np.testing.assert_allclose(Ebar, np.sin(2 * np.pi * x) / (2 * np.pi), atol=1e-13)

    def test_matches_direct_convolution(self):
        # Independent oracle: Ubar(x) = integral of W(x - y) rho(y) dy by
        # trapezoid quadrature on a fine auxiliary grid.
        grid = SpatialGrid(32)
        rng = np.random.default_rng(11)
        rho = 0.5 + 0.2 * np.cos(2 * np.pi * grid.nodes) + 0.1 * np.sin(4 * np.pi * grid.nodes)
        Ubar, _ = solve_linear(rho, grid)
        yfine = np.arange(32) / 32.0

        def rho_at(y):
            return 0.5 + 0.2 * np.cos(2 * np.pi * y) + 0.1 * np.sin(4 * np.pi * y)

        for j in (0, 7, 19):
            x = grid.nodes[j]
            val, _ = quad(
                lambda y: kernel_eval(x - y)[0] * rho_at(y), 0.0, 1.0, limit=200
            )
            assert Ubar[j] == pytest.approx(val, abs=1e-9)

    def test_rejects_negative_density(self):
        grid = SpatialGrid(16)
        rho = np.full(16, 0.1)
        rho[3] = -1e-3
        with pytest.raises(DomainError):
            solve_linear(rho, grid)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ParameterError):
            solve_linear(np.ones(16), SpatialGrid(32))


class TestCyclicTridiagonal:
    @staticmethod
    def _dense(sub, diag, sup, ul, lr):
        n = diag.size
        A = np.diag(diag)
        for i in range(1, n):
            A[i, i - 1] = sub[i]
            A[i - 1, i] = sup[i - 1]
        A[0, -1] = ul
        A[-1, 0] = lr
        return A

    def test_against_dense_solver(self):
        rng = np.random.default_rng(5)
        # Sizes above 64 reduce down to the sequential base case; 65, 127,
        # 130, 257 and 1031 meet an odd size on some level and are padded.
        for n in (8, 33, 128, 65, 127, 130, 257, 1031):
            sub = rng.normal(size=n)
            sup = rng.normal(size=n)
            diag = 6.0 + rng.normal(size=n)  # diagonally dominant
            ul, lr = rng.normal(), rng.normal()
            rhs = rng.normal(size=n)
            A = self._dense(sub, diag, sup, ul, lr)
            expected = np.linalg.solve(A, rhs)
            got = solve_cyclic_tridiagonal(sub, diag, sup, ul, lr, rhs)
            np.testing.assert_allclose(got, expected, atol=1e-10)

    @given(seed=st.integers(0, 10_000))
    @hyp_settings(max_examples=40, deadline=None)
    def test_residual_small_for_random_dominant_systems(self, seed):
        rng = np.random.default_rng(seed)
        n = 24
        sub = rng.uniform(-1, 1, n)
        sup = rng.uniform(-1, 1, n)
        diag = -4.0 - rng.uniform(0, 1, n)
        ul, lr = rng.uniform(-1, 1), rng.uniform(-1, 1)
        rhs = rng.uniform(-1, 1, n)
        x = solve_cyclic_tridiagonal(sub, diag, sup, ul, lr, rhs)
        A = self._dense(sub, diag, sup, ul, lr)
        assert np.max(np.abs(A @ x - rhs)) < 1e-10

    @staticmethod
    def _thomas_loop(sub, diag, sup, rhs):
        # The sequential Thomas sweep, element by element on numpy scalars.
        n = diag.size
        c = np.empty(n)
        d = np.empty(n)
        c[0] = sup[0] / diag[0]
        d[0] = rhs[0] / diag[0]
        for i in range(1, n):
            denom = diag[i] - sub[i] * c[i - 1]
            c[i] = sup[i] / denom if i < n - 1 else 0.0
            d[i] = (rhs[i] - sub[i] * d[i - 1]) / denom
        x = np.empty(n)
        x[-1] = d[-1]
        for i in range(n - 2, -1, -1):
            x[i] = d[i] - c[i] * x[i + 1]
        return x

    def _loop_reference(self, sub, diag, sup, ul, lr, rhs):
        # Sherman-Morrison with two separate Thomas solves.
        gamma = -diag[0]
        d = diag.copy()
        d[0] -= gamma
        d[-1] -= ul * lr / gamma
        u = np.zeros(diag.size)
        u[0] = gamma
        u[-1] = lr
        x = self._thomas_loop(sub, d, sup, rhs)
        z = self._thomas_loop(sub, d, sup, u)
        return x - (x[0] + ul * x[-1] / gamma) / (1.0 + z[0] + ul * z[-1] / gamma) * z

    @pytest.mark.parametrize("nx", [64, 256, 1024, 2048])
    def test_matches_sequential_loop_on_newton_jacobians(self, nx):
        rng = np.random.default_rng(nx)
        inv_h2 = float(nx) ** 2
        sub = np.full(nx, inv_h2)
        sup = np.full(nx, inv_h2)
        diag = -2.0 * inv_h2 - np.exp(rng.normal(size=nx))
        rhs = rng.normal(size=nx)
        want = self._loop_reference(sub, diag, sup, inv_h2, inv_h2, rhs)
        got = solve_cyclic_tridiagonal(sub, diag, sup, inv_h2, inv_h2, rhs)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


class TestNonlinearSolve:
    def test_constant_case(self):
        grid = SpatialGrid(64)
        for m in (0.1, 1.0):
            Utilde, Etilde, _ = solve_nonlinear(np.full(64, -m / 12.0), grid)
            np.testing.assert_allclose(Utilde, m / 12.0, atol=1e-10)
            np.testing.assert_allclose(Etilde, 0.0, atol=1e-10)

    def test_boltzmann_factor_has_unit_mean(self):
        grid = SpatialGrid(128)
        rho = 0.3 * (1.0 + np.cos(2 * np.pi * grid.nodes))
        s = make_field_slice(rho, grid)
        assert float(np.mean(np.exp(s.Ubar + s.Utilde))) == pytest.approx(1.0, abs=1e-10)

    def test_discrete_equation_residual(self):
        grid = SpatialGrid(128)
        h = grid.h
        rho = 1.0 + 0.4 * np.sin(2 * np.pi * grid.nodes)
        s = make_field_slice(rho, grid)
        lap = (np.roll(s.Utilde, -1) - 2 * s.Utilde + np.roll(s.Utilde, 1)) / h**2
        res = lap - (np.exp(s.Ubar + s.Utilde) - 1.0)
        assert np.max(np.abs(res)) <= 1e-10

    def test_linearized_oracle_up_to_second_order(self):
        # For Ubar = eps cos(2 pi x), the first-order solution is
        # -eps cos(2 pi x)/(1 + 4 pi^2); the exact solution also carries a
        # second-order mean shift, so the comparison tolerance is O(eps^2).
        grid = SpatialGrid(256)
        eps = 1e-5
        Ubar = eps * np.cos(2 * np.pi * grid.nodes)
        Utilde, _, _ = solve_nonlinear(Ubar, grid)
        oracle = -eps * np.cos(2 * np.pi * grid.nodes) / (1.0 + 4.0 * np.pi**2)
        assert np.max(np.abs(Utilde - oracle)) < 5.0 * eps**2

    def test_rejects_nonfinite_input(self):
        grid = SpatialGrid(16)
        bad = np.zeros(16)
        bad[2] = np.inf
        with pytest.raises(DomainError):
            solve_nonlinear(bad, grid)

    def test_iteration_limit_above_tol_raises(self):
        grid = SpatialGrid(64)
        Ubar = 0.5 * np.cos(2 * np.pi * grid.nodes)
        with pytest.raises(SolverDivergenceError) as info:
            solve_nonlinear(Ubar, grid, max_iter=1)
        assert info.value.residual > 1e-10

    def test_grid_refinement_convergence(self):
        # The central-difference solution converges at second order toward
        # a fine-grid reference on the shared coarse nodes.
        def solved(nx):
            grid = SpatialGrid(nx)
            Ubar = 0.5 * np.cos(2 * np.pi * grid.nodes)
            return solve_nonlinear(Ubar, grid)[0]

        ref = solved(1024)
        err64 = np.max(np.abs(solved(64) - ref[::16]))
        err128 = np.max(np.abs(solved(128) - ref[::8]))
        assert err64 / err128 == pytest.approx(4.0, rel=0.2)


class TestBoundsAndStability:
    def test_potential_bounds_for_moderate_density(self):
        grid = SpatialGrid(128)
        rho = 1.0 + 0.9 * np.cos(2 * np.pi * grid.nodes)
        report = verify_potential_bounds(make_field_slice(rho, grid))
        assert report.all_ok
        assert report.utilde_inf <= 3.0
        assert report.dutilde_inf <= 2.0
        assert report.d2utilde_inf <= 3.0

    def test_stability_ratio_linearized_value(self):
        grid = SpatialGrid(256)
        eps = 1e-4
        U1 = eps * np.cos(2 * np.pi * grid.nodes)
        U2 = np.zeros(256)
        ratio = stability_ratio(U1, U2, grid)
        assert ratio == pytest.approx(2 * np.pi / (1 + 4 * np.pi**2), rel=0.02)

    def test_stability_ratio_below_e6(self):
        grid = SpatialGrid(64)
        rng = np.random.default_rng(7)
        for _ in range(10):
            c1 = rng.uniform(-0.5, 0.5, 3)
            c2 = rng.uniform(-0.5, 0.5, 3)
            x = grid.nodes
            U1 = c1[0] / 12 + c1[1] * np.cos(2 * np.pi * x) + c1[2] * np.sin(4 * np.pi * x)
            U2 = c2[0] / 12 + c2[1] * np.cos(2 * np.pi * x) + c2[2] * np.sin(4 * np.pi * x)
            assert stability_ratio(U1, U2, grid) <= E6

    def test_stability_ratio_at_fine_grid(self):
        # At nx=2048 the 1e-10 residual target lies below the round-off floor
        # of the 1/h^2 operator; the line search stalls just above it and the
        # iterate is accepted at that floor.
        grid = SpatialGrid(2048)
        rng = np.random.default_rng(0)
        x = grid.nodes

        def density():
            rho = rng.uniform(0.2, 1.5) * np.ones(grid.nx)
            for k in (1, 2, 3):
                rho = rho * (1.0 + rng.uniform(-0.25, 0.25) * np.cos(2 * np.pi * k * x + rng.uniform(0, 2 * np.pi)))
            return rho

        U1, _ = solve_linear(density(), grid)
        U2, _ = solve_linear(density(), grid)
        assert stability_ratio(U1, U2, grid) <= E6

    def test_identical_inputs_raise(self):
        grid = SpatialGrid(16)
        U = np.zeros(16)
        with pytest.raises(DegenerateRatioError):
            stability_ratio(U, U.copy(), grid)


def _densities(nx, amplitudes, seed=0):
    """One density row per amplitude: a random level times three random harmonics of that amplitude."""
    rng = np.random.default_rng(seed)
    x = np.arange(nx) / nx
    rows = []
    for amp in amplitudes:
        rho = rng.uniform(0.2, 1.5) * np.ones(nx)
        for k in (1, 2, 3):
            rho = rho * (1.0 + amp * rng.uniform(-1, 1) * np.cos(2 * np.pi * k * x + rng.uniform(0, 2 * np.pi)))
        rows.append(rho)
    return np.array(rows)


class TestStacks:
    """A stack of slices, shape (k, nx), gives every row the bits of its own one-slice solve."""

    @pytest.mark.parametrize("nx", [16, 64, 256, 1024])
    def test_stacked_solves_equal_per_row_solves(self, nx):
        grid = SpatialGrid(nx)
        rho = _densities(nx, [0.0, 1e-6, 0.05, 0.25, 0.25], seed=nx)
        Ubar, Ebar = solve_linear(rho, grid)
        Utilde, Etilde, report = solve_nonlinear(Ubar, grid)
        stack = make_field_slice(rho, grid)
        for i, r in enumerate(rho):
            Ub, Eb = solve_linear(r, grid)
            assert np.array_equal(Ubar[i], Ub) and np.array_equal(Ebar[i], Eb)
            Ut, Et, one = solve_nonlinear(Ub, grid)
            assert np.array_equal(Utilde[i], Ut) and np.array_equal(Etilde[i], Et)
            assert one.steps.shape == () and one.steps == report.steps[i]
            assert one.residual == report.residual[i] and one.at_floor == report.at_floor[i]
            s = make_field_slice(r, grid)
            for name in ("Ubar", "Utilde", "Ebar", "Etilde"):
                assert np.array_equal(getattr(stack, name)[i], getattr(s, name))
        assert np.array_equal(stack.newton.steps, report.steps)

    def test_stacked_cyclic_tridiagonal_equals_per_row_solves(self):
        rng = np.random.default_rng(5)
        # The sizes of TestCyclicTridiagonal: 65, 127, 130, 257 and 1031 are
        # padded on some level of the reduction, 33 goes straight to Thomas.
        for n in (33, 65, 127, 130, 257, 1031):
            sub, sup, rhs = rng.normal(size=(3, 4, n))
            diag = 6.0 + rng.normal(size=(4, n))
            ul, lr = rng.normal(size=(2, 4))
            got = solve_cyclic_tridiagonal(sub, diag, sup, ul, lr, rhs)
            for i in range(4):
                one = solve_cyclic_tridiagonal(sub[i], diag[i], sup[i], ul[i], lr[i], rhs[i])
                assert np.array_equal(got[i], one)
            shared = solve_cyclic_tridiagonal(sub[0], diag[0], sup[0], ul[0], lr[0], rhs)
            for i in range(4):
                assert np.array_equal(shared[i], solve_cyclic_tridiagonal(sub[0], diag[0], sup[0], ul[0], lr[0], rhs[i]))

    def test_mixed_stack_of_converged_quiet_and_loud_rows(self):
        grid = SpatialGrid(128)
        x = grid.nodes
        Ubar = np.array(
            [
                np.zeros(128),  # Utilde = 0 solves it: converged at step 0
                1e-8 * np.cos(2 * np.pi * x),  # quiet
                0.8 * np.cos(2 * np.pi * x) + 0.3 * np.sin(6 * np.pi * x),  # loud
                np.full(128, -1.0 / 12.0),  # constant
                1e-8 * np.sin(4 * np.pi * x),  # quiet
            ]
        )
        Utilde, Etilde, report = solve_nonlinear(Ubar, grid)
        assert report.steps[0] == 0 and np.all(Utilde[0] == 0.0) and report.residual[0] == 0.0
        assert report.steps[1] < report.steps[2] and report.steps[4] < report.steps[2]
        assert np.all(report.residual <= NEWTON_TOL) and not report.at_floor.any()
        for i, row in enumerate(Ubar):
            Ut, Et, one = solve_nonlinear(row, grid)
            assert np.array_equal(Utilde[i], Ut) and np.array_equal(Etilde[i], Et)
            assert one.steps == report.steps[i] and one.residual == report.residual[i]

    def test_rows_accepted_at_the_floor_are_reported(self):
        # At nx=2048 some rows stall just above the 1e-10 tolerance, within the round-off floor.
        grid = SpatialGrid(2048)
        Ubar, _ = solve_linear(_densities(2048, [0.25] * 4, seed=3), grid)
        _, _, report = solve_nonlinear(Ubar, grid)
        assert report.at_floor.any()
        assert np.array_equal(report.at_floor, report.residual > NEWTON_TOL)

    def test_failing_row_is_named(self):
        grid = SpatialGrid(64)
        x = grid.nodes
        loud = 0.5 * np.cos(2 * np.pi * x)
        with pytest.raises(SolverDivergenceError) as alone:
            solve_nonlinear(loud, grid, max_iter=1)
        assert alone.value.index == 0
        with pytest.raises(SolverDivergenceError, match="^Newton failed") as info:
            solve_nonlinear(np.array([np.zeros(64), loud, np.zeros(64)]), grid, max_iter=1)
        assert info.value.index == 1
        assert info.value.residual == alone.value.residual

    def test_domain_errors_name_their_row(self):
        grid = SpatialGrid(16)
        rho = np.full((3, 16), 0.5)
        rho[2, 5] = -1e-3
        with pytest.raises(DomainError) as info:
            solve_linear(rho, grid)
        assert info.value.index == 2
        Ubar = np.zeros((3, 16))
        Ubar[1, 0] = np.nan
        with pytest.raises(DomainError) as info:
            solve_nonlinear(Ubar, grid)
        assert info.value.index == 1

    def test_rejects_stack_of_wrong_width(self):
        with pytest.raises(ParameterError):
            solve_linear(np.ones((2, 16)), SpatialGrid(32))
        with pytest.raises(ParameterError):
            solve_nonlinear(np.zeros((2, 2, 16)), SpatialGrid(16))

    def test_stability_ratio_equals_two_one_row_solves(self):
        grid = SpatialGrid(256)
        U1, U2 = solve_linear(_densities(256, [0.2, 0.3], seed=9), grid)[0]
        _, E1, _ = solve_nonlinear(U1, grid)
        _, E2, _ = solve_nonlinear(U2, grid)
        expected = float(np.max(np.abs(E1 - E2))) / float(np.max(np.abs(U1 - U2)))
        assert stability_ratio(U1, U2, grid) == expected


def _dense_difference(nx):
    """The periodic central-difference operator D_h as a dense nx x nx matrix."""
    eye = np.eye(nx)
    return (np.roll(eye, 1, axis=1) - 2.0 * eye + np.roll(eye, -1, axis=1)) * float(nx) ** 2


class TestDenseOracles:
    """The nonlinear solve against dense linear algebra that shares none of its code."""

    @pytest.mark.parametrize("nx", [16, 64])
    def test_linearized_start_solves_its_circulant_system(self, nx):
        # U0 solves (D_h - c) U0 = exp(Ubar) - 1, c the row mean of
        # exp(Ubar), to round-off: within cond(D_h - c) eps max|U0|.
        Ubar, _ = solve_linear(_densities(nx, [0.0, 1e-6, 0.25, 0.9], seed=nx), SpatialGrid(nx))
        U0 = _linearized(Ubar)
        D = _dense_difference(nx)
        for i, row in enumerate(Ubar):
            e = np.exp(row)
            A = D - e.mean() * np.eye(nx)
            want = np.linalg.solve(A, e - 1.0)
            bound = np.linalg.cond(A, np.inf) * np.finfo(float).eps * np.max(np.abs(want))
            assert np.max(np.abs(U0[i] - want)) <= bound

    @staticmethod
    def _dense_newton(Ubar):
        """Full Newton steps from Utilde = 0, each a dense solve with the Jacobian D_h - diag(exp(Ubar + U))."""
        D = _dense_difference(Ubar.size)
        U = np.zeros(Ubar.size)
        for _ in range(30):
            e = np.exp(Ubar + U)
            delta = np.linalg.solve(D - np.diag(e), D @ U - (e - 1.0))
            U = U - delta
            if np.max(np.abs(delta)) <= 1e-15:
                break
        return U

    @pytest.mark.parametrize(
        "amplitudes",
        [[0.25, 0.5, 0.9], [0.0, 1e-8, 1e-6], [0.9, 1e-6, 0.0, 0.25, 1e-8]],
        ids=["loud", "quiet", "mixed"],
    )
    def test_agrees_with_dense_jacobian_newton(self, amplitudes):
        # For two iterates with max-norm residuals r1, r2 of the difference
        # equation, F(U1) - F(U2) = J (U1 - U2), where -J = diag(exp(Ubar +
        # xi)) - D_h, xi between U1 and U2, is an M-matrix whose row sums are
        # at least m = min exp(Ubar + min(U1, U2)); so |U1 - U2| <= (r1 + r2) / m.
        # Each residual is evaluated to within the round-off floor
        # 4 eps max|U| nx^2 of the 1/h^2 operator, which the bound adds.
        nx = 64
        Ubar, _ = solve_linear(_densities(nx, amplitudes, seed=len(amplitudes)), SpatialGrid(nx))
        Utilde, _, _ = solve_nonlinear(Ubar, SpatialGrid(nx))
        D = _dense_difference(nx)
        for i, row in enumerate(Ubar):
            want = self._dense_newton(row)
            got = Utilde[i]
            r1, r2 = (float(np.max(np.abs(D @ U - (np.exp(row + U) - 1.0)))) for U in (got, want))
            floor = 4.0 * np.finfo(float).eps * max(np.max(np.abs(got)), np.max(np.abs(want))) * nx**2
            m = float(np.min(np.exp(row + np.minimum(got, want))))
            assert r1 <= NEWTON_TOL + floor
            assert np.max(np.abs(got - want)) <= (r1 + r2 + 2.0 * floor) / m

    @pytest.mark.parametrize("nx", [128, 1024])
    def test_theorem_regime_densities_converge_at_the_linearized_start(self, nx):
        # Densities of the size the theorem config solves (mass about 1e-6):
        # U0 misses the solution by terms of second order in Ubar, about
        # (1e-6 / 12)^2, far below the tolerance, so no Newton step is taken.
        rho = 1e-6 * _densities(nx, [0.0, 0.25, 0.9, 0.9], seed=nx)
        Ubar, _ = solve_linear(rho, SpatialGrid(nx))
        Utilde, _, report = solve_nonlinear(Ubar, SpatialGrid(nx))
        assert not report.steps.any()
        assert np.all(report.residual <= NEWTON_TOL) and not report.at_floor.any()
        assert np.array_equal(Utilde, _linearized(Ubar))
