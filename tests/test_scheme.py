"""Fixed-point iteration: quadrature, density push, norms, convergence."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from vpme_scatter.asymptotic import (
    datum_mass,
    default_vmax,
    eval_f_star,
    fourier_f_star,
    make_gaussian_cosine_datum,
    make_tabulated_datum,
)
from vpme_scatter.characteristics import SUBSTEPS, FieldHistory, nystrom_steps, transport_to_horizon
from vpme_scatter import diagnostics, scheme
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
    run_iteration,
    simpson_weights,
    velocity_grid,
    weighted_norm,
    weighted_norm_array,
)

from conftest import EXPLORATORY_KLASS, THEOREM_KLASS
from scattering_map import PhasePoint, reconstruct_f


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
        def one_newton_step(rho, grid):
            Ubar, Ebar = solve_linear(rho, grid)
            Utilde, Etilde = solve_nonlinear(Ubar, grid, max_iter=1)
            return FieldSlice(Ubar=Ubar, Utilde=Utilde, Ebar=Ebar, Etilde=Etilde)

        monkeypatch.setattr(scheme, "make_field_slice", one_newton_step)
        grid = SpatialGrid(16)
        rho = np.full((2, 16), 0.5)
        dens = DensityHistory(times=np.array([0.0, 1.0]), rho=rho, mass=rho.mean(axis=1))
        with pytest.raises(SolverDivergenceError, match=r"^slice 0 \(t=0\): Newton") as info:
            field_update(dens, grid)
        assert info.value.residual > 1e-10

    def test_field_update_keeps_solved_potentials(self):
        grid = SpatialGrid(16)
        x = grid.nodes
        rho = np.array([0.5 + 0.1 * np.cos(2 * np.pi * x), 0.5 + 0.2 * np.sin(2 * np.pi * x)])
        dens = DensityHistory(times=np.array([0.0, 1.0]), rho=rho, mass=rho.mean(axis=1))
        hist = field_update(dens, grid)
        for i in range(2):
            s = make_field_slice(rho[i], grid)
            for name in ("Ubar", "Utilde", "Ebar", "Etilde"):
                assert np.array_equal(getattr(hist, name)[i], getattr(s, name))
        assert not hist.Ubar.flags.writeable and not hist.Utilde.flags.writeable
        bare = FieldHistory(times=hist.times, grid=grid, Ebar=hist.Ebar, Etilde=hist.Etilde)
        assert bare.Ubar is None and bare.Utilde is None
        np.testing.assert_array_equal(bare.E, hist.E)

    def test_field_update_leaves_foreign_errors_alone(self, monkeypatch):
        def broken(rho, grid):
            raise ZeroDivisionError("boom")

        monkeypatch.setattr(scheme, "make_field_slice", broken)
        grid = SpatialGrid(16)
        rho = np.full((2, 16), 0.5)
        dens = DensityHistory(times=np.array([0.0, 1.0]), rho=rho, mass=rho.mean(axis=1))
        with pytest.raises(ZeroDivisionError, match="^boom$"):
            field_update(dens, grid)

    def test_sweep_newton_counters_are_the_per_slice_solves(self, exploratory_run):
        # The last sweep solved the final density; one-row solves of its
        # slices take the same steps to the same residuals.
        run = exploratory_run
        reports = [make_field_slice(rho, run.field_history.grid).newton for rho in run.density_history.rho]
        last = run.sweeps[-1]
        assert last.newton_steps == sum(int(r.steps) for r in reports) > 0
        assert last.newton_residual == max(float(r.residual) for r in reports)
        assert last.newton_at_floor == sum(bool(r.at_floor) for r in reports) == 0
        newton = run.field_history.newton
        assert [int(k) for k in newton.steps] == [int(r.steps) for r in reports]
        assert np.array_equal(newton.residual, [float(r.residual) for r in reports])


def _datum(family: str, sigma: float = 1.0):
    """The exploratory gaussian-cosine datum, or its bilinear table on a 32 x 161 grid."""
    datum = make_gaussian_cosine_datum(0.05, sigma, EXPLORATORY_KLASS)
    if family == "tabulated":
        xt = np.arange(32) / 32.0
        vt = np.linspace(-10.0, 10.0, 161)
        datum = make_tabulated_datum(
            xt, vt, eval_f_star(datum, xt[:, None], vt[None, :]), EXPLORATORY_KLASS
        )
    return datum


def _quieting_history() -> FieldHistory:
    """A field that falls below the quiet threshold inside the span.

    Slices before the quiet time take Nystrom steps, later ones free flight.
    """
    grid = SpatialGrid(64)
    times = np.linspace(0.7, 3.0, 24)
    decay = np.exp(-12.0 * (times - 0.7))
    E = 0.3 * np.sin(2 * np.pi * grid.nodes)[None, :] * decay[:, None]
    hist = FieldHistory(times=times, grid=grid, Ebar=E, Etilde=np.zeros_like(E))
    assert times[0] < hist.quiet_time() < times[-1]
    return hist


class TestTransportedDatum:
    @pytest.mark.parametrize("family", ["gaussian-cosine", "tabulated"])
    def test_blocks_equal_one_whole_mesh_transport(self, family):
        # 64 x 513 = 32,832 points: three equal blocks of 10,944.  The
        # gaussian-cosine datum is reflection-symmetric, so only its rows
        # v >= 0 are transported, in two blocks.
        datum = _datum(family)
        hist = _quieting_history()
        grid, times = hist.grid, hist.times
        v, _ = velocity_grid(6.0, 512)
        assert v.size * grid.nx > 2 * scheme.TRANSPORT_BLOCK
        half = v.size // 2 if datum.reflection_symmetric else 0
        mirror = -np.arange(grid.nx) % grid.nx
        X0, V0 = (a.ravel() for a in np.meshgrid(grid.nodes, v))
        T = hist.horizon
        for t, (how, f) in zip(times, scheme.transported_datum(datum, hist, times, 6.0, 512)):
            XT, VT = transport_to_horizon(hist, float(t), X0, V0, hist.dt / SUBSTEPS)
            whole = eval_f_star(datum, XT - T * VT, VT).reshape(v.size, grid.nx)
            # A mesh of more than SHARED_POINTS / 2 points is transported one slice at a time.
            assert not how.composed and not how.shared
            assert np.array_equal(f[half:], whole[half:])
            if half:
                # Rows v < 0 are the x-mirror of rows v > 0, and the odd field
                # makes them the whole-mesh transport to round-off.
                assert np.array_equal(f[:half], f[:half:-1][:, mirror])
                assert _relative_error(f[:half], whole[:half]) <= 1e-13


def _exact_labels(history, t: float, v):
    """Labels of the v x grid mesh at t, every characteristic carried to the horizon on its own."""
    X0, V0 = (a.ravel() for a in np.meshgrid(history.grid.nodes, v))
    XT, VT = transport_to_horizon(history, t, X0, V0, history.dt / SUBSTEPS)
    return XT - history.horizon * VT, VT


def _exact_slices(datum, history, times, vmax, nv):
    """transported_datum's (how, f), how unused, with f* read at _exact_labels on every row of the mesh."""
    v, _ = velocity_grid(vmax, nv)
    for t in times:
        yield False, eval_f_star(datum, *_exact_labels(history, float(t), v)).reshape(v.size, -1)


def _transported_rows(datum, history, vmax, nv) -> np.ndarray:
    """push_density's Simpson sums on every slice with each slice transported to the horizon on its own.

    Only the rows push_density transports go through the characteristics; for
    a reflection-symmetric datum the rows v < 0 are reflected from v > 0 as
    push_density reflects them.  No slice is composed and no closed-form row
    read.
    """
    v, w = velocity_grid(vmax, nv)
    moving = scheme._transported_velocities(datum, v)
    nx = history.grid.nx
    mirror = -np.arange(nx) % nx
    rows = []
    for t in history.times:
        f = eval_f_star(datum, *_exact_labels(history, float(t), moving))
        f = f.reshape(moving.size, nx)
        if moving.size < v.size:
            f = np.vstack([f[:0:-1, mirror], f])
        rows.append(w @ f)
    return np.array(rows)


def _full_mesh_rows(datum, history, vmax, nv) -> np.ndarray:
    """Simpson sums of f* at the _exact_labels of every row of the (nv + 1) x nx mesh of every slice."""
    _, w = velocity_grid(vmax, nv)
    return np.array([w @ f for _, f in _exact_slices(datum, history, history.times, vmax, nv)])


def _leading_starts(monkeypatch) -> list:
    """The earliest start of every transport_to_horizon call scheme makes from now on, appended as it calls."""
    starts = []
    transport = scheme.transport_to_horizon

    def recording(field, t, *rest):
        starts.append(float(np.min(t)))
        return transport(field, t, *rest)

    monkeypatch.setattr(scheme, "transport_to_horizon", recording)
    return starts


def _own_rows(density, rows: int, leaders) -> np.ndarray:
    """The first rows of density whose labels are their own transport's bit for bit.

    Those are the rows neither composed nor shared, and the earliest member of
    every shared lattice (leaders, from _leading_starts), which takes exactly
    its own steps; at least one such member is asked for wherever rows shared.
    """
    shared = density.shared[:rows]
    led = np.isin(density.times[:rows], leaders)
    assert not shared.any() or (shared & led).any()
    return ~density.composed[:rows] & (~shared | led)


def _assert_rows_match(pushed, density, exact, leaders=()):
    """Rows within 1e-13 of the exact rows (relative to them), bit-identical where _own_rows."""
    assert _relative_error(pushed, exact) <= 1e-13
    own = _own_rows(density, len(pushed), leaders)
    assert np.array_equal(pushed[own], exact[own])


def _assert_meshes(sizes, mesh):
    """Field samples of whole meshes: one mesh, or several stepped on one lattice within SHARED_POINTS."""
    assert mesh in sizes
    assert all(size % mesh == 0 and size <= max(mesh, scheme.SHARED_POINTS) for size in sizes)


def _run_without_reuse(datum, settings: RunSettings):
    """run_iteration's loop with every slice of every sweep transported; no stats."""
    klass = datum.klass
    grid = SpatialGrid(settings.nx)
    times = np.linspace(klass.t0, settings.horizon, settings.nt + 1)
    history = FieldHistory.zero(times, grid)
    norms, deltas = [], []
    tol = None
    for n in range(1, settings.max_iterations + 1):
        rho = _transported_rows(datum, history, settings.vmax, settings.nv)
        np.maximum(rho, 0.0, out=rho)
        density = DensityHistory(times=times, rho=rho, mass=rho.mean(axis=1))
        new_history = field_update(density, grid)
        norms.append(weighted_norm(new_history, klass.a, klass.t0))
        deltas.append(weighted_norm_array(times, new_history.E - history.E, klass.a, klass.t0))
        history = new_history
        if tol is None:
            tol = settings.fixed_point_tol * (1.0 + norms[0])
        if deltas[-1] <= tol:
            break
    return history, density, norms, deltas, n


def _relative_error(got, want) -> float:
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _swept(datum, settings: RunSettings, sweeps: int = 1):
    """(datum, history, vmax, nv) with the field history after the given number of sweeps."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        result = run_iteration(
            datum, replace(settings, max_iterations=sweeps, fixed_point_tol=0.0)
        )
    return datum, result.field_history, result.vmax, settings.nv


def _cli_table():
    """A table of the cli-tabulated benchmark's form on 64 x 129 nodes.

    c g_sigma(v) (1 + sum_k eps_k cos(2 pi k x + phi_k)), c = sigma = 1.
    """
    x = np.arange(64) / 64.0
    v = np.linspace(-8.0, 8.0, 129)
    fx = 1.0 + sum(
        eps * np.cos(2.0 * np.pi * k * x + phi)
        for k, (eps, phi) in enumerate(zip((0.15, 0.1, 0.2), (0.4, 2.1, 5.0)), start=1)
    )
    g = np.exp(-(v**2) / 2.0) / math.sqrt(2.0 * math.pi)
    return make_tabulated_datum(x, v, np.outer(fx, g), EXPLORATORY_KLASS)


# The field histories of the composition oracles, as (datum, history, vmax, nv).
_NX16 = RunSettings(nx=16, nv=256, nt=24, vmax=4.0, horizon=3.0, exploratory=True)
# The perfbench cli-tabulated grid: a one-block table mesh of 65 x 64 = 4,160 points.
_CLI_TABULATED = RunSettings(nx=64, nv=64, nt=20, vmax=6.0, horizon=3.0, exploratory=True)
_COMPOSITION_CASES = {
    # The perfbench theorem-certify grid and a draw of its datum.
    "theorem-certify": lambda: _swept(
        make_gaussian_cosine_datum(7.5e-7, 17.0, THEOREM_KLASS), RunSettings(nx=256, nv=512, nt=100)
    ),
    "exploratory": lambda: _swept(
        make_gaussian_cosine_datum(0.05, 1.0, EXPLORATORY_KLASS),
        RunSettings(nx=128, nv=256, nt=100, vmax=8.0, horizon=3.0, exploratory=True),
    ),
    "quieting": lambda: (_datum("gaussian-cosine"), _quieting_history(), 6.0, 64),
    # The history of test_run_iteration_equals_a_loop_without_reuse.
    "nx16": lambda: _swept(_datum("gaussian-cosine", sigma=0.5), _NX16),
    # The perfbench lingering grid: a field loud to the horizon.
    "lingering": lambda: _swept(
        make_gaussian_cosine_datum(1.0, 0.3, EXPLORATORY_KLASS),
        RunSettings(nx=64, nv=64, nt=30, horizon=3.0, exploratory=True),
    ),
    "table": lambda: _swept(_datum("tabulated", sigma=0.5), _NX16, sweeps=2),
    "cli-tabulated": lambda: _swept(_cli_table(), _CLI_TABULATED, sweeps=2),
}


class TestComposition:
    """push_density's composed labels and rows against every slice transported to the horizon on its own."""

    @pytest.mark.parametrize("case", ["theorem-certify", "exploratory"])
    def test_composed_labels_and_rows_match_a_full_transport(self, case, monkeypatch):
        datum, hist, vmax, nv = _COMPOSITION_CASES[case]()
        klass = datum.klass
        v, _ = velocity_grid(vmax, nv)
        moving = scheme._transported_velocities(datum, v)
        n = scheme._transported_slices(hist)
        tolerance = scheme.FORCING * weighted_norm(hist, klass.a, klass.t0)
        labels = []

        def recording(datum, x, v):
            labels.append((np.array(x), np.array(v)))
            return eval_f_star(datum, x, v)

        monkeypatch.setattr(scheme, "eval_f_star", recording)
        density = push_density(datum, hist, vmax, nv, tolerance)
        monkeypatch.undo()
        composed = density.composed[:n]
        assert composed.any() and not composed[-1]
        # On these fields the labels of a composed slice are within a few times
        # the round-off of a label itself, eps (1 + vmax T), of the labels of a
        # full transport.
        floor = np.finfo(float).eps * (1.0 + vmax * hist.horizon)
        blocks = len(scheme._row_blocks(moving.size, hist.grid.nx))
        for k, i in enumerate(range(n - 1, -1, -1)):  # the push walks backward
            if composed[i]:
                got = labels[k * blocks : (k + 1) * blocks]
                want = _exact_labels(hist, float(hist.times[i]), moving)
                for part, exact in zip(zip(*got), want):
                    assert np.max(np.abs(np.concatenate(part) - exact)) <= 16.0 * floor
        # Composed rows within 1e-13 of a full transport; every other row is bit-identical.
        exact = np.maximum(_transported_rows(datum, hist, vmax, nv)[:n], 0.0)
        _assert_rows_match(density.rho[:n], density, exact)

    @pytest.mark.parametrize("case", sorted(_COMPOSITION_CASES))
    def test_no_tolerance_composes_nothing(self, case, monkeypatch):
        # A push given no tolerance transports every slice to the quiet time,
        # several on one lattice where a mesh has at most SHARED_POINTS / 2 points.
        datum, hist, vmax, nv = _COMPOSITION_CASES[case]()
        n = scheme._transported_slices(hist)
        leaders = _leading_starts(monkeypatch)
        density = push_density(datum, hist, vmax, nv)
        assert not density.composed.any() and density.alone[:n].all()
        mesh = len(scheme._transported_velocities(datum, velocity_grid(vmax, nv)[0])) * hist.grid.nx
        assert density.shared.any() == (2 * mesh <= scheme.SHARED_POINTS)
        exact = np.maximum(_transported_rows(datum, hist, vmax, nv)[:n], 0.0)
        _assert_rows_match(density.rho[:n], density, exact, leaders)


class TestInexactSweeps:
    """Composition within a field tolerance: the weighted field moves by at most that much."""

    @pytest.mark.parametrize("case", ["lingering", "table", "quieting", "nx16"])
    def test_field_moves_within_the_tolerance(self, case, monkeypatch):
        datum, hist, vmax, nv = _COMPOSITION_CASES[case]()
        klass = datum.klass
        leaders = _leading_starts(monkeypatch)
        strict = push_density(datum, hist, vmax, nv)
        strict_own = _own_rows(strict, hist.times.size, list(leaders))
        zero = push_density(datum, hist, vmax, nv, 0.0)
        assert not strict.composed.any()  # no tolerance: every slice transported exactly
        assert np.array_equal(zero.rho, strict.rho) and np.array_equal(zero.composed, strict.composed)
        E = field_update(strict, hist.grid).E
        norm = weighted_norm(hist, klass.a, klass.t0)
        counts = []
        for forcing in (1e-5, 1e-3, scheme.FORCING, 1e-1):
            tolerance = forcing * norm
            density = push_density(datum, hist, vmax, nv, tolerance)
            moved = field_update(density, hist.grid).E - E
            assert weighted_norm_array(hist.times, moved, klass.a, klass.t0) <= tolerance
            # The rows not composed are the strict push's, bit-identical where
            # it transported the slice's own steps.
            assert not density.shared.any()  # nothing expected to be refused
            kept = ~density.composed
            assert _relative_error(density.rho[kept], strict.rho[kept]) <= 1e-13
            own = kept & strict_own
            assert np.array_equal(density.rho[own], strict.rho[own])
            counts.append(int(density.composed.sum()))
        assert counts == sorted(counts) and counts[-1] > 0

    def test_admission_follows_the_chained_budget(self, monkeypatch):
        # A slice composes when the errors chained since the last slice
        # transported on its own stay strictly below tolerance e^{-a t}.
        datum, hist, vmax, nv = _COMPOSITION_CASES["lingering"]()
        a = datum.klass.a
        errors = []
        estimate = scheme._composition_error

        def recording(*args):
            errors.append(estimate(*args))
            return errors[-1]

        monkeypatch.setattr(scheme, "_composition_error", recording)
        tolerance = scheme.FORCING * weighted_norm(hist, a, datum.klass.t0)
        density = push_density(datum, hist, vmax, nv, tolerance)
        n = scheme._transported_slices(hist)
        assert len(errors) == n - 1 and not density.composed[n - 1]
        chain, spent = 0.0, 0.0
        for i, error in zip(range(n - 2, -1, -1), errors):  # the push walks backward
            budget = tolerance * math.exp(-a * hist.times[i])
            admitted = chain + error < budget
            assert density.composed[i] == admitted
            assert density.errors[i] == error
            chain = chain + error if admitted else 0.0
            spent = max(spent, chain / budget)
        assert 0 < density.composed.sum() < n - 1
        # The errors of the walk are recorded, 0 where it made none; spent is the fullest budget.
        assert density.errors[n - 1] == 0.0 and not density.errors[n:].any()
        assert density.spent == spent and 0.0 < spent < 1.0

    def test_lingering_run_keeps_its_sweeps_and_fixed_point(self, monkeypatch):
        datum = make_gaussian_cosine_datum(1.0, 0.3, EXPLORATORY_KLASS)
        settings = RunSettings(nx=32, nv=64, nt=20, horizon=3.0, exploratory=True)
        forcing = scheme.FORCING
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            inexact = run_iteration(datum, settings)
            monkeypatch.setattr(scheme, "FORCING", 0.0)
            strict = run_iteration(datum, settings)
        assert inexact.converged and strict.converged
        assert inexact.iterations == strict.iterations
        assert [s.tolerance for s in inexact.sweeps] == [0.0] + [
            forcing * d for d in inexact.deltas[:-1]
        ]
        assert inexact.sweeps[1].composed > 0
        assert not any(s.composed for s in strict.sweeps)
        moved = inexact.field_history.E - strict.field_history.E
        a, t0 = datum.klass.a, datum.klass.t0
        assert weighted_norm_array(strict.field_history.times, moved, a, t0) <= strict.tolerance


def _next_push(datum, settings: RunSettings, sweeps: int):
    """(history, previous push's alone, tolerance) of sweep sweeps + 1 of run_iteration."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        result = run_iteration(datum, replace(settings, max_iterations=sweeps, fixed_point_tol=0.0))
    return result.field_history, result.density_history.alone, scheme.FORCING * result.deltas[-1]


_LINGERING = RunSettings(nx=64, nv=64, nt=30, horizon=3.0, exploratory=True)


class TestSharedLattice:
    """Refused slices stepped together on one Nystrom lattice: the same decisions, labels to round-off."""

    @pytest.mark.parametrize("case", ["lingering", "theorem-certify", "table"])
    def test_members_match_their_own_transport(self, case):
        datum, hist, vmax, nv = _COMPOSITION_CASES[case]()
        n = scheme._transported_slices(hist)
        v, _ = velocity_grid(vmax, nv)
        X0, V0 = (a.ravel() for a in np.meshgrid(hist.grid.nodes, v[:: nv // 16]))
        nodes = [0, n // 3, n // 2, n - 1, n]  # the last one at the quiet time flies free
        step = hist.dt / SUBSTEPS
        XT, VT = transport_to_horizon(
            hist, hist.times[nodes], np.tile(X0, (5, 1)), np.tile(V0, (5, 1)), step
        )
        floor = np.finfo(float).eps * (1.0 + vmax * hist.horizon)
        for m, i in enumerate(nodes):
            X, V = transport_to_horizon(hist, float(hist.times[i]), X0, V0, step)
            if m in (0, 4):
                assert np.array_equal(XT[m], X) and np.array_equal(VT[m], V)
            else:
                assert np.max(np.abs(XT[m] - X)) <= 8.0 * floor
                assert np.max(np.abs(VT[m] - V)) <= 8.0 * floor

    def test_a_mesh_of_several_blocks_is_not_grouped(self, monkeypatch):
        # Held labels are one block, so a mesh split into row blocks is
        # transported one slice at a time, bit for bit, however many fit.
        datum, hist, vmax, nv = _COMPOSITION_CASES["lingering"]()
        n = scheme._transported_slices(hist)
        exact = np.maximum(_transported_rows(datum, hist, vmax, nv)[:n], 0.0)
        grouped = push_density(datum, hist, vmax, nv)
        assert grouped.shared[:n].all()
        monkeypatch.setattr(scheme, "TRANSPORT_BLOCK", 8 * hist.grid.nx)
        assert len(scheme._row_blocks(nv // 2 + 1, hist.grid.nx)) > 1
        density = push_density(datum, hist, vmax, nv)
        assert not density.shared.any()
        assert np.array_equal(density.rho[:n], exact)

    def test_a_table_mesh_shares_lattices(self, monkeypatch):
        # Pairs of 4,160-point table slices fit SHARED_POINTS: a strict push
        # groups them, with the decisions and, to round-off, the rows of a
        # push that steps every slice alone.
        datum, hist, vmax, nv = _COMPOSITION_CASES["cli-tabulated"]()
        n = scheme._transported_slices(hist)
        mesh = (nv + 1) * hist.grid.nx
        assert mesh == 4160 and len(scheme._row_blocks(nv + 1, hist.grid.nx)) == 1
        leaders = _leading_starts(monkeypatch)
        strict = push_density(datum, hist, vmax, nv)
        leaders = list(leaders)
        assert strict.shared[:n].all() and len(leaders) == (n + 1) // 2
        monkeypatch.setattr(scheme, "SHARED_POINTS", mesh)  # one slice per lattice
        single = push_density(datum, hist, vmax, nv)
        assert not single.shared.any()
        assert np.array_equal(strict.composed, single.composed)
        assert np.array_equal(strict.alone, single.alone)
        assert _relative_error(strict.rho, single.rho) <= 1e-13
        own = _own_rows(strict, hist.times.size, leaders)
        assert own[:n].sum() == len(leaders)
        assert np.array_equal(strict.rho[own], single.rho[own])

    @pytest.mark.parametrize("case", ["lingering", "cli-tabulated"])
    def test_foresight_discards_nothing_late(self, case, monkeypatch):
        # Sweep n expects the slices sweep n - 1 transported alone, and those
        # whose estimate there already reached sweep n's budget.  On these
        # data nothing transported ahead composes after all from sweep 3 on,
        # and every sweep composes what a run that expects nothing composes.
        datum, settings = {
            "lingering": (make_gaussian_cosine_datum(1.0, 0.3, EXPLORATORY_KLASS), _LINGERING),
            "cli-tabulated": (_cli_table(), _CLI_TABULATED),
        }[case]
        push = scheme.push_density
        pushes = []

        def recording(*args):
            pushes.append((args[4], args[5], push(*args)))
            return pushes[-1][2]

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            monkeypatch.setattr(scheme, "push_density", recording)
            foresight = run_iteration(datum, settings)
            monkeypatch.setattr(scheme, "push_density", lambda *args: push(*args[:5]))
            blind = run_iteration(datum, settings)
        assert pushes[0][1] is None
        by_estimate = 0
        for (_, _, previous), (tolerance, expected, _) in zip(pushes, pushes[1:]):
            budget = tolerance * np.exp(-datum.klass.a * previous.times)
            assert np.array_equal(expected, previous.alone | (previous.errors >= budget))
            by_estimate += int((expected & ~previous.alone).sum())
        assert by_estimate > 0
        assert foresight.converged and foresight.iterations == blind.iterations
        assert [s.composed for s in foresight.sweeps] == [s.composed for s in blind.sweeps]
        assert not any(s.shared or s.discarded for s in blind.sweeps[1:])
        assert all(s.discarded == 0 for s in foresight.sweeps[2:])
        assert foresight.sweeps[-1].shared > 0
        assert foresight.sweeps[1].shared == 0  # sweep 1 walked no slice: nothing expected
        assert _relative_error(foresight.field_history.E, blind.field_history.E) <= 1e-12

    @pytest.mark.parametrize("sweeps", [1, 4])
    def test_expectations_change_only_the_cost(self, sweeps, monkeypatch):
        # Sweep 2 composes nearly every slice, sweep 5 few: whichever slices
        # are expected to be refused, the same slices compose and the density
        # moves by round-off; a slice transported ahead that composes is
        # counted in discarded and its samples in sampled_points.
        datum = make_gaussian_cosine_datum(1.0, 0.3, EXPLORATORY_KLASS)
        hist, previous, tolerance = _next_push(datum, _LINGERING, sweeps)
        n = scheme._transported_slices(hist)
        vmax = default_vmax(datum)
        mesh = (_LINGERING.nv // 2 + 1) * _LINGERING.nx
        sampled = []
        sample = FieldHistory.sample

        def counting(self, t, x):
            sampled.append(np.size(x))
            return sample(self, t, x)

        monkeypatch.setattr(FieldHistory, "sample", counting)
        pushes = {}
        for name, expected in (("none", None), ("previous", previous), ("every", np.ones(n, dtype=bool))):
            sampled.clear()
            pushes[name] = push_density(datum, hist, vmax, _LINGERING.nv, tolerance, expected)
            assert pushes[name].sampled_points == sum(sampled)
        none, every = pushes["none"], pushes["every"]
        assert 0 < none.composed.sum() < n - 1
        assert not none.shared.any() and not none.discarded.any()
        assert pushes["previous"].shared.any() == (sweeps > 1)
        assert not pushes["previous"].discarded.any()
        assert every.shared.any() and every.discarded.any()
        for density in pushes.values():
            assert np.array_equal(density.composed, none.composed)
            assert np.array_equal(density.alone, none.alone)
            assert not (density.shared & ~density.alone).any()
            assert not (density.discarded & ~density.composed).any()
            assert _relative_error(density.rho, none.rho) <= 1e-13
        quiet, step = hist.quiet_time(), hist.dt / SUBSTEPS
        ahead = sum(nystrom_steps(quiet - t, step) for t in hist.times[:n][every.discarded[:n]])
        assert every.sampled_points == none.sampled_points + 3 * mesh * ahead


class TestFreeStreamingRows:
    """The closed free-streaming sum against transport of the zero field."""

    @pytest.mark.parametrize("family", ["gaussian-cosine", "tabulated"])
    def test_closed_form_equals_a_full_transport_of_the_zero_field(self, family):
        datum = _datum(family)
        zero = FieldHistory.zero(np.linspace(0.7, 40.0, 33), SpatialGrid(64))
        v, w = velocity_grid(8.0, 256)
        closed = scheme._free_streaming_rows(datum, zero.times, zero.grid.nodes, v, w)
        assert _relative_error(closed, _transported_rows(datum, zero, 8.0, 256)) <= 1e-13


class TestVelocityGrid:
    @pytest.mark.parametrize("vmax", [0.7, 3.11, 4.0, 6.0, 8.0, 9.3])
    @pytest.mark.parametrize("nv", [2, 32, 64, 100, 256, 512])
    def test_nodes_are_exact_mirror_images(self, vmax, nv):
        v, w = velocity_grid(vmax, nv)
        assert v.size == nv + 1 and v[0] == -vmax and v[-1] == vmax
        assert np.array_equal(v, -v[::-1]) and v[nv // 2] == 0.0
        np.testing.assert_allclose(np.diff(v), 2.0 * vmax / nv, rtol=1e-13)
        assert np.array_equal(w, simpson_weights(nv, 2.0 * vmax / nv))

    def test_rejects_odd_interval_count(self):
        with pytest.raises(ParameterError):
            velocity_grid(4.0, 33)


class TestReflection:
    """push_density's rows against a full-mesh transport: reflected (symmetric datum) or not (table)."""

    @staticmethod
    def _converged_history() -> FieldHistory:
        datum = make_gaussian_cosine_datum(0.05, 1.0, EXPLORATORY_KLASS)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            result = run_iteration(datum, TestSymmetryOracles.SETTINGS)
        assert result.converged
        return result.field_history

    @pytest.mark.parametrize(
        "family, field, nv",
        [("gaussian-cosine", "quieting", 64), ("gaussian-cosine", "converged", 32),
         ("tabulated", "quieting", 64)],
    )
    def test_pushed_rows_equal_a_full_mesh_transport(self, family, field, nv, monkeypatch):
        datum = _datum(family)
        hist = _quieting_history() if field == "quieting" else self._converged_history()
        vmax = TestSymmetryOracles.SETTINGS.vmax
        n = int(np.searchsorted(hist.times, hist.quiet_time()))
        assert n > 0
        full = np.maximum(_full_mesh_rows(datum, hist, vmax, nv)[:n], 0.0)
        sizes = set()
        sample = FieldHistory.sample

        def counting(self, t, x):
            sizes.add(np.size(x))
            return sample(self, t, x)

        monkeypatch.setattr(FieldHistory, "sample", counting)
        leaders = _leading_starts(monkeypatch)
        density = push_density(datum, hist, vmax, nv)
        pushed = density.rho[:n]
        if datum.reflection_symmetric:
            _assert_meshes(sizes, (nv // 2 + 1) * hist.grid.nx)
            assert _relative_error(pushed, full) <= 1e-13
        else:
            _assert_meshes(sizes, (nv + 1) * hist.grid.nx)
            _assert_rows_match(pushed, density, full, leaders)


class TestWeakGapsHalfMesh:
    """weak_convergence_gap on the converged history of TestSymmetryOracles: half mesh or whole."""

    @staticmethod
    def _gaps(datum, hist, monkeypatch, reference=False):
        """(weak gaps, L2 gaps, sizes of the field samples); reference reads _exact_slices."""
        sizes = set()
        sample = FieldHistory.sample

        def counting(self, t, x):
            sizes.add(np.size(x))
            return sample(self, t, x)

        monkeypatch.setattr(FieldHistory, "sample", counting)
        if reference:
            monkeypatch.setattr(diagnostics, "transported_datum", _exact_slices)
        report = diagnostics.weak_convergence_gap(datum, hist, hist.times[::3], vmax=6.0, nv=32)
        monkeypatch.undo()
        return np.array([g for *_, g in report.entries]), np.array(report.l2_gaps), sizes

    def test_symmetric_datum_samples_the_half_mesh(self, monkeypatch):
        datum = _datum("gaussian-cosine")
        hist = TestReflection._converged_history()
        weak, l2, sizes = self._gaps(datum, hist, monkeypatch)
        _assert_meshes(sizes, (32 // 2 + 1) * hist.grid.nx)
        full_weak, full_l2, full_sizes = self._gaps(datum, hist, monkeypatch, reference=True)
        assert full_sizes == {(32 + 1) * hist.grid.nx}
        assert np.max(np.abs(weak - full_weak)) <= 1e-13 * datum_mass(datum)
        assert np.max(np.abs(l2 - full_l2)) <= 1e-13 * datum_mass(datum)

    def test_table_samples_the_whole_mesh(self, monkeypatch):
        datum = _datum("tabulated")
        hist = TestReflection._converged_history()
        weak, l2, sizes = self._gaps(datum, hist, monkeypatch)
        _assert_meshes(sizes, (32 + 1) * hist.grid.nx)
        full_weak, full_l2, _ = self._gaps(datum, hist, monkeypatch, reference=True)
        # The slices share lattices, so their labels are their own transport's to round-off.
        assert np.max(np.abs(weak - full_weak)) <= 1e-13 * datum_mass(datum)
        assert np.max(np.abs(l2 - full_l2)) <= 1e-13 * datum_mass(datum)


class TestSweepCounters:
    @pytest.mark.parametrize("family", ["gaussian-cosine", "tabulated"])
    def test_sampled_points_count_the_field_samples(self, family, monkeypatch):
        datum = _datum(family, sigma=0.5)
        settings = RunSettings(
            nx=16, nv=32, nt=12, vmax=4.0, horizon=3.0, exploratory=True,
            fixed_point_tol=0.0, max_iterations=3,
        )
        sampled = []
        sample = FieldHistory.sample

        def counting(self, t, x):
            sampled.append(np.size(x))
            return sample(self, t, x)

        monkeypatch.setattr(FieldHistory, "sample", counting)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            result = run_iteration(datum, settings)
        rows = settings.nv // 2 + 1 if datum.reflection_symmetric else settings.nv + 1
        assert all(s.mesh_points == rows * settings.nx for s in result.sweeps)
        _assert_meshes(set(sampled), rows * settings.nx)
        assert sum(s.sampled_points for s in result.sweeps) == sum(sampled) > 0


class TestFreeStreamingReuse:
    """Slices at or past the quiet time come from the free-streaming sum, the rest from transport."""

    @pytest.mark.parametrize("family", ["gaussian-cosine", "tabulated"])
    def test_push_density_with_free_rows_equals_full_push(self, family, monkeypatch):
        datum = _datum(family)
        hist = _quieting_history()
        n = int(np.searchsorted(hist.times, hist.quiet_time()))
        assert 0 < n < hist.times.size
        transported = _transported_rows(datum, hist, 6.0, 64)
        v, w = velocity_grid(6.0, 64)
        closed = scheme._free_streaming_rows(datum, hist.times, hist.grid.nodes, v, w)
        pushed = []
        transport = scheme.transported_datum

        def recording(datum, history, times, *rest):
            pushed.extend(times)
            return transport(datum, history, times, *rest)

        monkeypatch.setattr(scheme, "transported_datum", recording)
        leaders = _leading_starts(monkeypatch)
        density = push_density(datum, hist, 6.0, 64)
        rho = density.rho
        _assert_rows_match(rho[:n], density, np.maximum(transported[:n], 0.0), leaders)
        assert np.array_equal(rho[n:], np.maximum(closed[n:], 0.0))
        assert not density.composed[n:].any()
        assert pushed == list(hist.times[:n][::-1])  # walked backward from the quiet time
        # On the zero field every slice is free streaming.
        pushed.clear()
        zero = push_density(datum, FieldHistory.zero(hist.times, hist.grid), 6.0, 64).rho
        assert pushed == [] and np.array_equal(zero, np.maximum(closed, 0.0))

    # The free rows come from different (exact) algebra than a transport, so
    # the comparison is a bound, not bit equality.  At sigma = 0.5 the field
    # is 1e-2 of the density (at sigma = 1 it is 1e-5, and the density's
    # round-off alone reads 6e-11 relative to the field).  The gaussian-cosine
    # field falls below the quiet threshold at t = 2.1375, so ten of 25 slices
    # are read from the closed form; the bilinear table's field never falls
    # eight decades below its peak, so only its horizon slice is.  FORCING = 0
    # gives every push no tolerance, so no slice is composed.
    @pytest.mark.parametrize("family, reused", [("gaussian-cosine", 10), ("tabulated", 1)])
    def test_run_iteration_equals_a_loop_without_reuse(self, family, reused, monkeypatch):
        monkeypatch.setattr(scheme, "FORCING", 0.0)
        datum = _datum(family, sigma=0.5)
        settings = RunSettings(
            nx=16, nv=256, nt=24, vmax=4.0, horizon=3.0, exploratory=True,
            fixed_point_tol=0.0, max_iterations=3,
        )
        sampled = []
        sample = FieldHistory.sample

        def counting(self, t, x):
            sampled.append(np.size(x))
            return sample(self, t, x)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            monkeypatch.setattr(FieldHistory, "sample", counting)
            result = run_iteration(datum, settings)
            monkeypatch.undo()
            history, density, norms, deltas, iterations = _run_without_reuse(datum, settings)
        assert _relative_error(result.field_history.E, history.E) <= 1e-13
        assert _relative_error(result.density_history.rho, density.rho) <= 1e-13
        assert _relative_error(result.norms, norms) <= 1e-13
        assert _relative_error(result.deltas, deltas) <= 1e-13
        assert result.iterations == iterations == 3
        # Sweep 1 is free streaming; each later one transports the slices before its quiet time.
        stats = [(s.transported, s.reused) for s in result.sweeps]
        assert stats == [(0, 25)] + [(25 - reused, reused)] * 2
        assert result.sweeps[0].quiet_time == 0.7
        assert result.sweeps[0].sampled_points == 0
        assert sum(s.sampled_points for s in result.sweeps) == sum(sampled) > 0
        assert all(s.push_s > 0.0 and s.update_s > 0.0 for s in result.sweeps)


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
        # The potentials are the ones the last field update solved.
        dens = exploratory_run.density_history
        hist = exploratory_run.field_history
        worst = 0.0
        for i in range(0, dens.times.size, 20):
            res = (
                spectral_derivative(hist.E[i])
                + (np.exp(hist.Ubar[i] + hist.Utilde[i]) - 1.0)
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


class TestSymmetryOracles:
    """Exact symmetries of the converged field, independent of recorded fingerprints.

    The relative tolerance 1e-12 was fixed before measuring; both hold to
    about 5e-14 at nx=32, nv=32, nt=12.
    """

    SETTINGS = RunSettings(nx=32, nv=32, nt=12, vmax=6.0, horizon=3.0, exploratory=True)

    @classmethod
    def _field(cls, datum) -> np.ndarray:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            result = run_iteration(datum, cls.SETTINGS)
        assert result.converged
        return result.field_history.E

    def test_reflection_makes_the_field_odd(self):
        # f*(-x, -v) = f*(x, v) for the gaussian-cosine family, so E(t, -x) = -E(t, x).
        E = self._field(make_gaussian_cosine_datum(0.05, 1.0, EXPLORATORY_KLASS))
        reflected = E[:, (-np.arange(E.shape[1])) % E.shape[1]]
        assert np.max(np.abs(reflected + E)) <= 1e-12 * np.max(np.abs(E))

    def test_lattice_shift_rolls_the_field(self):
        # With nx equal to the table's x count, a table rolled by one x node
        # is the datum shifted by one grid node, so E rolls by one node.
        x = np.arange(32) / 32.0
        v = np.linspace(-8.0, 8.0, 129)
        g = np.exp(-(v**2) / 2.0) / math.sqrt(2.0 * math.pi)
        fx = (
            1.0
            + 0.2 * np.cos(2 * np.pi * x + 0.3)
            + 0.1 * np.cos(4 * np.pi * x + 1.1)
            + 0.05 * np.cos(6 * np.pi * x + 2.0)
        )
        vals = np.outer(fx, g)
        E0, E1 = (
            self._field(make_tabulated_datum(x, v, np.roll(vals, shift, axis=0), EXPLORATORY_KLASS))
            for shift in (0, 1)
        )
        assert np.max(np.abs(np.roll(E0, 1, axis=1) - E1)) <= 1e-12 * np.max(np.abs(E0))
