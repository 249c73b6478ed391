"""Characteristic flow: field sampling, Nystrom transport, horizon pinning."""

import math

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from vpme_scatter.characteristics import (
    SUBSTEPS,
    FieldHistory,
    _cubic_coefficients,
    _eval_cubic,
    nystrom_steps,
    transport_to,
    transport_to_horizon,
)
from vpme_scatter.errors import IntegrationError, OutOfRangeError, ParameterError
from vpme_scatter.poisson import SpatialGrid

from conftest import SineDecayField, UniformDecayField
from scattering_map import (
    PhaseLabel,
    PhasePoint,
    flow_from_label,
    label_from_point,
    nystrom_span,
    sample_field,
    transport_from_horizon,
)


def _cosine_history(nx=64, nt=80, t0=0.0, T=2.0, amp=0.3, rate=1.0):
    grid = SpatialGrid(nx)
    times = np.linspace(t0, T, nt + 1)
    E = amp * np.cos(2 * np.pi * grid.nodes)[None, :] * np.exp(-rate * times)[:, None]
    return FieldHistory(times=times, grid=grid, Ebar=E, Etilde=np.zeros_like(E))


def _interp(row, x):
    return _eval_cubic(_cubic_coefficients(np.asarray(row, dtype=float)), np.asarray(x))


def _eval_cubic_modulo(coef, x):
    """The cubic kernel on unpadded (4, n) cells, the index reduced by integer modulo."""
    n = coef.shape[-1]
    th = x * n
    j = np.floor(th)
    th = th - j
    j = j.astype(np.intp) % n
    return ((coef[3][j] * th + coef[2][j]) * th + coef[1][j]) * th + coef[0][j]


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# Unreduced positions where a reduction could go wrong: round-off to the
# period, negative zero, far windings, the largest position below 1.
EDGE_POSITIONS = [
    -1e-17, 1.0 - 1e-17, -2.3, 1e6 + 0.25, 0.0, -0.0, 1.0, -1.0, 50.999999999, 1.0 - 2.0**-53
]


def _lagrange_reference(row, x):
    """Four-point Lagrange cubic through the periodic nodes around each x, one point at a time."""
    n = len(row)
    out = []
    for xi in x:
        p = (xi % 1.0) * n
        j = min(math.floor(p), n - 1)
        th = p - j
        ys = [row[(j + k) % n] for k in (-1, 0, 1, 2)]
        weights = [
            -th * (th - 1) * (th - 2) / 6,
            (th + 1) * (th - 1) * (th - 2) / 2,
            -(th + 1) * th * (th - 2) / 2,
            (th + 1) * th * (th - 1) / 6,
        ]
        out.append(sum(w * y for w, y in zip(weights, ys)))
    return np.array(out)


class TestCubicInterpolation:
    def test_reproduces_nodes(self):
        rng = np.random.default_rng(0)
        row = rng.normal(size=32)
        x = np.arange(32) / 32.0
        np.testing.assert_allclose(_interp(row, x), row, atol=1e-13)

    def test_trig_accuracy_fourth_order(self):
        xq = np.random.default_rng(1).uniform(0, 1, 400)

        def err(n):
            row = np.cos(2 * np.pi * np.arange(n) / n)
            return np.max(np.abs(_interp(row, xq) - np.cos(2 * np.pi * xq)))

        assert err(128) / err(256) == pytest.approx(16.0, rel=0.3)

    @given(shift=st.integers(-4, 4), seed=st.integers(0, 1000))
    @hyp_settings(max_examples=40, deadline=None)
    def test_periodic_in_query(self, shift, seed):
        rng = np.random.default_rng(seed)
        row = rng.normal(size=16)
        x = rng.uniform(0, 1, 20)
        np.testing.assert_allclose(_interp(row, x), _interp(row, x + shift), atol=1e-12)

    @given(
        nx=st.sampled_from([8, 10, 64, 256]),
        seed=st.integers(0, 2**32 - 1),
        x=st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=40),
    )
    @hyp_settings(max_examples=60, deadline=None)
    def test_matches_lagrange_reference(self, nx, seed, x):
        row = np.random.default_rng(seed).normal(size=nx)
        x = np.array(x)
        np.testing.assert_allclose(
            _interp(row, x), _lagrange_reference(row, x), rtol=0, atol=1e-13 * np.max(np.abs(row))
        )

    @pytest.mark.parametrize("n", [8, 10, 48, 256])
    def test_float_cell_reduction_matches_integer_modulo(self, n):
        # The kernel reduces the position with x - floor(x), the same bits as
        # np.mod(x, 1.0), and reads the wrap cell where the reduction gives 1.
        rng = np.random.default_rng(n)
        coef = _cubic_coefficients(rng.normal(size=n))
        cells = coef[:, :n]
        assert np.array_equal(coef[:, n], coef[:, 0])
        x = np.concatenate([rng.uniform(-50, 50, 2000), rng.uniform(0, 1, 200), EDGE_POSITIONS])
        assert _same_bits(_eval_cubic(coef, x), _eval_cubic_modulo(cells, np.mod(x, 1.0)))
        for xi in EDGE_POSITIONS:  # 0-d input
            assert _same_bits(
                _eval_cubic(coef, np.asarray(xi)),
                _eval_cubic_modulo(cells, np.mod(np.asarray(xi), 1.0)),
            )


class TestFieldHistory:
    def test_validation(self):
        grid = SpatialGrid(16)
        with pytest.raises(ParameterError):
            FieldHistory(
                times=np.array([0.0, 0.1, 0.3]),  # non-uniform
                grid=grid,
                Ebar=np.zeros((3, 16)),
                Etilde=np.zeros((3, 16)),
            )
        with pytest.raises(ParameterError):
            FieldHistory(
                times=np.linspace(0, 1, 4),
                grid=grid,
                Ebar=np.zeros((3, 16)),  # wrong row count
                Etilde=np.zeros((4, 16)),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_refuses_a_nonfinite_field(self, bad):
        grid = SpatialGrid(16)
        Ebar = np.zeros((4, 16))
        Ebar[2, 5] = bad
        with pytest.raises(ParameterError, match=r"non-finite field at t=0\.5"):
            FieldHistory(
                times=np.linspace(0, 0.75, 4), grid=grid, Ebar=Ebar, Etilde=np.zeros((4, 16))
            )

    def test_sampling_matches_nodes_and_horizon(self):
        hist = _cosine_history()
        x = hist.grid.nodes
        for i in (0, 17, 80):
            np.testing.assert_allclose(
                hist.sample(float(hist.times[i]), x), hist.E[i], atol=1e-12
            )
        # Strictly past the horizon the field is exactly zero.
        np.testing.assert_allclose(hist.sample(hist.horizon + 1e-9, x), 0.0)

    def test_linear_in_time_between_nodes(self):
        hist = _cosine_history()
        t = 0.5 * (hist.times[3] + hist.times[4])
        expected = 0.5 * (hist.E[3] + hist.E[4])
        np.testing.assert_allclose(hist.sample(float(t), hist.grid.nodes), expected, atol=1e-12)

    def test_off_node_time_blends_node_interpolants(self):
        rng = np.random.default_rng(4)
        E = rng.normal(size=(9, 10))
        hist = FieldHistory(
            times=np.linspace(0.0, 2.0, 9), grid=SpatialGrid(10), Ebar=E, Etilde=np.zeros_like(E)
        )
        x = rng.uniform(-20, 20, 200)
        i, th = 3, 0.3
        t = float(hist.times[i] + th * hist.dt)
        expected = (1 - th) * _interp(hist.E[i], x) + th * _interp(hist.E[i + 1], x)
        np.testing.assert_allclose(hist.sample(t, x), expected, rtol=0, atol=1e-14)

    def test_before_start_raises(self):
        hist = _cosine_history(t0=0.5)
        with pytest.raises(OutOfRangeError):
            hist.sample(0.3, hist.grid.nodes)

    def test_quiet_time_zero_field(self):
        grid = SpatialGrid(16)
        hist = FieldHistory.zero(np.linspace(0, 2, 11), grid)
        assert hist.quiet_time() == 0.0

    def test_quiet_time_decaying_field(self):
        hist = _cosine_history(amp=1.0, rate=8.0, T=8.0, nt=160)
        tq = hist.quiet_time()
        # Default threshold is 1e-8 of the peak: crossing near t = ln(1e8)/8.
        assert 0.0 < tq < hist.horizon
        assert tq == pytest.approx(math.log(1e8) / 8.0, abs=0.2)

    def test_scalar_sampling_helper(self):
        hist = _cosine_history()
        val = sample_field(hist, 0.0, 0.0)
        assert isinstance(val, float)
        assert val == pytest.approx(0.3)


class TestUniformDecayOracle:
    def test_exact_state_against_scipy(self):
        fld = UniformDecayField(rate=1.7, amplitude=0.4, t_start=0.0, horizon=2.5)

        def ode(t, y):
            return [y[1], 0.4 * math.exp(-1.7 * t)]

        x0, v0 = 0.2, 0.9
        XT = x0 + v0 * fld.horizon
        sol = solve_ivp(
            ode, (fld.horizon, 0.6), [XT, v0], rtol=1e-11, atol=1e-12, dense_output=True
        )
        Xe, Ve = fld.exact_state(0.6, x0, v0)
        assert sol.y[0, -1] == pytest.approx(Xe, abs=1e-8)
        assert sol.y[1, -1] == pytest.approx(Ve, abs=1e-8)

    def test_step_matches_closed_form(self):
        fld = UniformDecayField(rate=2.0, amplitude=0.5, t_start=0.0, horizon=2.0)
        X, V = transport_from_horizon(
            fld, 0.3, np.array([0.1 + 0.7 * 2.0]), np.array([0.7]), 0.005
        )
        Xe, Ve = fld.exact_state(0.3, 0.1, 0.7)
        assert X[0] == pytest.approx(Xe, abs=1e-9)
        assert V[0] == pytest.approx(Ve, abs=1e-9)

    def test_step_fourth_order(self):
        fld = UniformDecayField(rate=2.0, amplitude=0.5, t_start=0.0, horizon=2.0)
        errs = []
        for step in (0.02, 0.01):
            X, V = transport_from_horizon(
                fld, 0.3, np.array([0.1 + 0.7 * 2.0]), np.array([0.7]), step
            )
            Xe, Ve = fld.exact_state(0.3, 0.1, 0.7)
            errs.append(abs(X[0] - Xe) + abs(V[0] - Ve))
        assert 13.0 <= errs[0] / errs[1] <= 19.0

    def test_nonfinite_state_raises(self):
        class Blowup:
            t0 = 0.0
            horizon = 1.0

            def sample(self, t, x):
                return np.full_like(x, np.inf)

        with pytest.raises(IntegrationError):
            nystrom_span(Blowup(), 0.0, 1.0, np.array([0.0]), np.array([0.0]), 0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("coordinate", ["X", "V"])
    def test_nonfinite_phase_state_is_refused_before_sampling(self, bad, coordinate):
        hist = _cosine_history()
        state = {"X": np.array([0.1, 0.2, 0.3]), "V": np.array([0.5, -0.5, 1.0])}
        state[coordinate][1] = bad
        with pytest.raises(IntegrationError, match=r"non-finite phase state at t=0\.25"):
            transport_to_horizon(hist, 0.25, state["X"], state["V"], hist.dt / 4)


class TestSineDecayOracle:
    """Transport order on a field that depends on x, against a tight ODE solve.

    UniformDecayField does not depend on x, so a wrong position-stage
    coefficient passes its tests; here it does not.
    """

    XS = np.array([0.1, 0.35, 0.8])
    VS = np.array([0.7, -0.4, 1.3])

    def test_step_fourth_order_on_x_dependent_field(self):
        fld = SineDecayField(amplitude=1.0, t_start=0.0, horizon=2.0)
        t, T = 0.3, fld.horizon
        ref = np.array(
            [
                solve_ivp(
                    fld.rhs, (T, t), [x + v * T, v], method="DOP853", rtol=1e-12, atol=1e-14
                ).y[:, -1]
                for x, v in zip(self.XS, self.VS)
            ]
        )
        errs = []
        for step in (0.02, 0.01):
            X, V = transport_from_horizon(fld, t, self.XS + self.VS * T, self.VS, step)
            errs.append(np.max(np.abs(X - ref[:, 0]) + np.abs(V - ref[:, 1])))
        assert 13.0 <= errs[0] / errs[1] <= 19.0


class TestTransportMaps:
    def test_free_flight_exact(self):
        grid = SpatialGrid(16)
        hist = FieldHistory.zero(np.linspace(0.5, 3.0, 26), grid)
        X = np.array([0.2, 0.8, 1.7])
        V = np.array([-1.0, 0.0, 2.5])
        XT, VT = transport_to_horizon(hist, 0.5, X, V, 0.01)
        np.testing.assert_allclose(XT, X + V * 2.5, atol=1e-12)
        np.testing.assert_allclose(VT, V, atol=1e-15)
        Xb, Vb = transport_from_horizon(hist, 0.5, XT, VT, 0.01)
        np.testing.assert_allclose(Xb, X, atol=1e-12)
        np.testing.assert_allclose(Vb, V, atol=1e-15)

    def test_roundtrip_under_cosine_field(self):
        hist = _cosine_history(nx=128, nt=160)
        rng = np.random.default_rng(9)
        X = rng.uniform(0, 1, 64)
        V = rng.uniform(-2, 2, 64)
        step = hist.dt / 4
        XT, VT = transport_to_horizon(hist, 0.0, X, V, step)
        Xb, Vb = transport_from_horizon(hist, 0.0, XT, VT, step)
        # Forward and backward steps are not exact inverses; the defect is a few
        # orders below the integration error of either leg.
        assert np.max(np.abs(Xb - X)) < 1e-10
        assert np.max(np.abs(Vb - V)) < 1e-10

    def test_label_point_inverse_zero_field(self):
        grid = SpatialGrid(16)
        hist = FieldHistory.zero(np.linspace(0.0, 2.0, 21), grid)
        pt = PhasePoint(t=0.7, x=0.3, v=1.4)
        lab = label_from_point(pt, hist)
        # Free flight: the label is (x - v t mod 1, v).
        assert lab.x == pytest.approx((0.3 - 1.4 * 0.7) % 1.0, abs=1e-12)
        assert lab.v == pytest.approx(1.4, abs=1e-14)
        back = flow_from_label(lab, hist, 0.7)
        assert back.x == pytest.approx(pt.x, abs=1e-12)
        assert back.v == pytest.approx(pt.v, abs=1e-14)

    def test_time_range_enforced(self):
        grid = SpatialGrid(16)
        hist = FieldHistory.zero(np.linspace(0.5, 2.0, 16), grid)
        with pytest.raises(OutOfRangeError):
            label_from_point(PhasePoint(t=0.2, x=0.0, v=0.0), hist)
        with pytest.raises(OutOfRangeError):
            flow_from_label(PhaseLabel(x=0.0, v=0.0), hist, 2.5)

    def test_phase_coordinates_reduce_mod_one(self):
        assert PhaseLabel(x=1.25, v=0.0).x == pytest.approx(0.25)
        assert PhasePoint(t=0.0, x=-0.25, v=0.0).x == pytest.approx(0.75)


class TestSharedLattice:
    """transport_to_horizon of several start times on the lattice of the earliest."""

    @staticmethod
    def _quieting():
        # The field falls eight decades below its peak inside the span.
        hist = _cosine_history(nt=40, rate=12.0)
        assert hist.t0 < hist.quiet_time() < hist.horizon
        return hist

    STATE = (np.array([0.1, 0.45, 0.8, -1.3]), np.array([0.7, -0.4, 1.3, 2.0]))

    @pytest.mark.parametrize("node", [0, 17, 31, 40])  # before the quiet time, at it, at the horizon
    def test_one_member_group_is_the_single_transport(self, node):
        # One start takes the Nystrom steps of its own span to the quiet
        # time, then flies free: the same bits as a state array of any shape.
        hist = self._quieting()
        t, step = float(hist.times[node]), hist.dt / 4
        X, V = self.STATE
        tq = max(hist.quiet_time(), t)
        XQ, VQ = nystrom_span(hist, t, tq, X, V, step)
        want = (XQ + VQ * (hist.horizon - tq), VQ)
        for got in (
            transport_to_horizon(hist, t, X, V, step),
            [a[0] for a in transport_to_horizon(hist, np.array([t]), X[None], V[None], step)],
        ):
            assert all(_same_bits(g, w) for g, w in zip(got, want))

    def test_members_past_the_quiet_time_fly_free_and_the_earliest_keeps_its_bits(self):
        hist = self._quieting()
        nodes = [3, 9, 31, 40]
        assert hist.quiet_time() == hist.times[31]
        starts, step = hist.times[nodes], hist.dt / 4
        X, V = self.STATE
        XT, VT = transport_to_horizon(hist, starts, np.tile(X, (4, 1)), np.tile(V, (4, 1)), step)
        for m, t in enumerate(starts):
            X1, V1 = transport_to_horizon(hist, float(t), X, V, step)
            if m == 1:  # joins the lattice of t_3 at t_9: its own labels to round-off
                assert np.max(np.abs(XT[m] - X1)) <= 1e-14 and np.max(np.abs(VT[m] - V1)) <= 1e-15
            else:
                assert _same_bits(XT[m], X1) and _same_bits(VT[m], V1)

    def test_starts_ascend_on_the_lattice_with_one_state_row_each(self):
        hist = self._quieting()
        step = hist.dt / 4
        X = np.zeros((2, 3))
        with pytest.raises(ParameterError, match="ascending"):
            transport_to_horizon(hist, hist.times[[5, 2]], X, X, step)
        with pytest.raises(ParameterError, match="ascending"):
            transport_to_horizon(hist, hist.times[[2, 5, 7]], X, X, step)
        with pytest.raises(ParameterError, match="off the step lattice"):
            transport_to_horizon(hist, np.array([hist.times[2], hist.times[5] + step / 2]), X, X, step)
        with pytest.raises(ParameterError, match="runs forward"):
            transport_to(hist, hist.times[[2, 5]], hist.times[4], X, X, step)


class TestNodeSpans:
    """A transport from time node i to node j takes SUBSTEPS (j - i) steps of dt / SUBSTEPS."""

    @pytest.mark.parametrize("nt", [114, 116, 200])
    def test_every_node_pair_takes_substeps_per_slice(self, nt):
        # On [0.7, 3] the linspace round-off in the nodes and in dt puts the
        # ratio of a long node span to the step more than 1e-12 past its
        # whole number at these nt; the count is still that whole number.
        hist = FieldHistory.zero(np.linspace(0.7, 3.0, nt + 1), SpatialGrid(8))
        step = hist.dt / SUBSTEPS
        for i in range(nt):
            spans = hist.times[i + 1 :] - hist.times[i]
            counts = [nystrom_steps(float(span), step) for span in spans]
            assert counts == [SUBSTEPS * k for k in range(1, nt + 1 - i)]

    def test_a_group_of_every_node_stays_on_the_lattice(self):
        # Every node of a 200-slice history, loud to the horizon, joins the
        # lattice of node 0 at its own step and keeps its own labels.
        hist = _cosine_history(nx=16, nt=200, t0=0.7, T=3.0)
        assert hist.quiet_time() == hist.horizon
        step = hist.dt / SUBSTEPS
        X, V = np.array([0.1, 0.6]), np.array([0.4, -1.1])
        shape = (hist.times.size, X.size)
        XT, VT = transport_to_horizon(hist, hist.times, np.broadcast_to(X, shape), np.broadcast_to(V, shape), step)
        for i in (0, 57, 113, 199, 200):
            X1, V1 = transport_to_horizon(hist, float(hist.times[i]), X, V, step)
            assert np.max(np.abs(XT[i] - X1)) <= 1e-13 and np.max(np.abs(VT[i] - V1)) <= 1e-13


@given(
    v=st.floats(-3, 3, allow_nan=False),
    x=st.floats(0, 1, exclude_max=True, allow_nan=False),
    t=st.floats(0.0, 2.0, allow_nan=False),
)
@hyp_settings(max_examples=40, deadline=None)
def test_free_flight_label_identity(v, x, t):
    grid = SpatialGrid(16)
    hist = FieldHistory.zero(np.linspace(0.0, 2.0, 21), grid)
    lab = label_from_point(PhasePoint(t=t, x=x, v=v), hist)
    # Distance on the circle: labels 0.0 and 1.0 are the same point.
    d = (lab.x - (x - v * t)) % 1.0
    assert min(d, 1.0 - d) <= 1e-9
    assert lab.v == pytest.approx(v, abs=1e-12)
