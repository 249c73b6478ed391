"""Asymptotic data: construction, evaluation, transforms, class membership."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import zeta

from vpme_scatter import asymptotic
from vpme_scatter.asymptotic import (
    AsymptoticDatum,
    ClassParameters,
    datum_mass,
    default_vmax,
    eval_f_star,
    fourier_f_star,
    h_limit,
    load_tabulated_grid,
    make_gaussian_cosine_datum,
    make_tabulated_datum,
    tabulated_fourier,
    validate_class_membership,
    velocity_cutoff,
    velocity_profile,
    zeta_upper_bound,
)
from vpme_scatter.errors import OutOfRangeError, ParameterError

from conftest import EXPLORATORY_KLASS, THEOREM_KLASS


class TestClassParameters:
    def test_rejects_bad_ranges(self):
        with pytest.raises(ParameterError):
            ClassParameters(a=1.0, a1=1.0, a2=1.0, alpha=1.5, t0=0.0)
        with pytest.raises(ParameterError):
            ClassParameters(a=-1.0, a1=1.0, a2=1.0, alpha=0.5, t0=0.0)
        with pytest.raises(ParameterError):
            ClassParameters(a=1.0, a1=1.0, a2=1.0, alpha=0.5, t0=-0.1)

    def test_series_bound_against_zeta(self):
        # zeta_upper_bound must dominate the true zeta value but stay close.
        for alpha in (0.3, 0.5, 0.8):
            true = float(zeta(1.0 + alpha))
            ub = zeta_upper_bound(alpha)
            assert true <= ub <= true + 1e-3

    def test_series_bound_flag(self):
        # zeta(1.5) ~ 2.612: a1 = 2.7 suffices, a1 = 2.5 does not.
        assert ClassParameters(a=2.0, a1=2.7, a2=0.1, alpha=0.5, t0=0.7).series_bound_holds
        assert not ClassParameters(a=2.0, a1=2.5, a2=0.1, alpha=0.5, t0=0.7).series_bound_holds

    def test_start_time_floor(self):
        k = EXPLORATORY_KLASS
        assert k.t0_floor == pytest.approx(math.log(8.0 * k.a1 * k.a2) / k.a)
        assert k.t0_admissible
        late = ClassParameters(a=2.0, a1=2.7, a2=0.1, alpha=0.5, t0=0.1)
        assert not late.t0_admissible
        # 8 a1 a2 < 1 puts the floor at zero.
        tiny = ClassParameters(a=45.0, a1=2.7, a2=0.01, alpha=0.5, t0=0.0)
        assert tiny.t0_floor == 0.0 and tiny.t0_admissible

    def test_contraction_regime_threshold(self):
        # a2 = 0.05 needs a >= sqrt((200*0.05 + 3)(e^6 + 1)) ~ 72.51.
        need = math.sqrt((200.0 * 0.05 + 3.0) * (math.e**6 + 1.0))
        assert need == pytest.approx(72.509, abs=0.001)
        assert ClassParameters(a=72.6, a1=2.7, a2=0.05, alpha=0.5, t0=0.0).theorem_regime
        assert not ClassParameters(a=72.4, a1=2.7, a2=0.05, alpha=0.5, t0=0.0).theorem_regime


class TestGaussianCosineFamily:
    def test_constructor_validation(self):
        with pytest.raises(ParameterError):
            make_gaussian_cosine_datum(0.0, 1.0, EXPLORATORY_KLASS)
        with pytest.raises(ParameterError):
            make_gaussian_cosine_datum(1.0, -1.0, EXPLORATORY_KLASS)

    def test_unit_mass_at_c1_sigma1(self):
        datum = make_gaussian_cosine_datum(1.0, 1.0, EXPLORATORY_KLASS)
        assert datum_mass(datum) == pytest.approx(1.0, abs=1e-12)

    def test_mass_equals_amplitude(self):
        datum = make_gaussian_cosine_datum(0.05, 1.0, EXPLORATORY_KLASS)
        assert datum_mass(datum) == pytest.approx(0.05, abs=1e-14)

    def test_pointwise_values(self):
        c, s = 0.05, 1.0
        datum = make_gaussian_cosine_datum(c, s, EXPLORATORY_KLASS)
        g0 = 1.0 / math.sqrt(2.0 * math.pi)
        assert float(eval_f_star(datum, 0.0, 0.0)) == pytest.approx(2.0 * c * g0)
        assert float(eval_f_star(datum, 0.5, 0.0)) == pytest.approx(0.0, abs=1e-16)

    def test_periodicity_in_x(self):
        datum = make_gaussian_cosine_datum(0.05, 1.0, EXPLORATORY_KLASS)
        x = np.linspace(-2.0, 2.0, 41)
        v = np.linspace(-3.0, 3.0, 41)
        np.testing.assert_allclose(
            eval_f_star(datum, x, v), eval_f_star(datum, x + 3.0, v), atol=1e-14
        )

    def test_fourier_against_quadrature(self):
        # Independent oracle: numerical integral of g_sigma(v) e^{-i eta v}.
        c, s = 0.3, 1.4
        datum = make_gaussian_cosine_datum(c, s, EXPLORATORY_KLASS)
        for k, eta in [(0, 0.0), (0, 1.3), (1, 0.5), (-1, 2.0)]:
            coeff = {0: 1.0, 1: 0.5, -1: 0.5}[k]

            def integrand(v):
                g = math.exp(-(v**2) / (2 * s**2)) / (s * math.sqrt(2 * math.pi))
                return g * math.cos(eta * v)

            expected = c * coeff * quad(integrand, -12 * s, 12 * s)[0]
            got = fourier_f_star(datum, k, eta)
            assert got.real == pytest.approx(expected, abs=1e-10)
            assert got.imag == pytest.approx(0.0, abs=1e-12)

    def test_fourier_vanishes_beyond_first_mode(self):
        datum = make_gaussian_cosine_datum(0.05, 1.0, EXPLORATORY_KLASS)
        for k in (2, -2, 3, 17):
            assert fourier_f_star(datum, k, 0.7) == 0.0

    def test_h_limit_integrates_to_mass(self):
        datum = make_gaussian_cosine_datum(0.05, 1.0, EXPLORATORY_KLASS)
        val, _ = quad(lambda v: float(h_limit(datum, np.asarray([v]))[0]), -12, 12)
        assert val == pytest.approx(datum_mass(datum), abs=1e-10)


def _eval_f_star_np_mod(datum, x, v):
    """eval_f_star with the position reduced by np.mod, as a reference."""
    x = np.mod(np.asarray(x, dtype=float), 1.0)
    v = np.asarray(v, dtype=float)
    if datum.family == "gaussian-cosine":
        g = asymptotic._gaussian(v, datum.sigma)
        return datum.amplitude * g * (1.0 + np.cos(2.0 * np.pi * x))
    return asymptotic._bilinear(datum, x, v)


def _bilinear_two_dimensional(datum, x, v):
    """asymptotic._bilinear's formula with the table wrapped per call and its corners read by 2-D indexing."""
    xn, vn, tab = datum.x_nodes, datum.v_nodes, datum.values
    xe = np.concatenate([xn, [xn[0] + 1.0]])
    te = np.vstack([tab, tab[:1]])
    ix = np.clip(np.searchsorted(xe, x, side="right") - 1, 0, xe.size - 2)
    iv = np.clip(np.searchsorted(vn, v, side="right") - 1, 0, vn.size - 2)
    tx = (x - xe[ix]) / (xe[ix + 1] - xe[ix])
    tv = (v - vn[iv]) / (vn[iv + 1] - vn[iv])
    return (
        te[ix, iv] * (1 - tx) * (1 - tv)
        + te[ix + 1, iv] * tx * (1 - tv)
        + te[ix, iv + 1] * (1 - tx) * tv
        + te[ix + 1, iv + 1] * tx * tv
    )


class TestPeriodicReduction:
    """x - floor(x) in eval_f_star gives the bits np.mod(x, 1.0) gives."""

    EDGE_POSITIONS = [-1e-17, 1.0 - 1e-17, -2.3, 1e6 + 0.25, 0.0, -0.0, 1.0, -1.0, -3.0]

    @pytest.mark.parametrize("family", ["gaussian-cosine", "tabulated"])
    def test_matches_np_mod_bit_for_bit(self, family):
        datum = make_gaussian_cosine_datum(0.05, 1.0, EXPLORATORY_KLASS)
        if family == "tabulated":
            x = np.arange(24) / 24.0
            v = np.linspace(-6.0, 6.0, 97)
            vals = eval_f_star(datum, x[:, None], v[None, :])
            datum = make_tabulated_datum(x, v, vals, EXPLORATORY_KLASS)
        rng = np.random.default_rng(8)
        x = np.concatenate([rng.uniform(-50.0, 50.0, 2000), self.EDGE_POSITIONS])
        v = rng.uniform(-5.0, 5.0, x.size)
        got, ref = eval_f_star(datum, x, v), _eval_f_star_np_mod(datum, x, v)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        for xi, vi in zip(self.EDGE_POSITIONS, v):  # 0-d input
            got, ref = eval_f_star(datum, np.asarray(xi), vi), _eval_f_star_np_mod(datum, xi, vi)
            assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()
        # The reduction itself, sign of zero included.
        assert (x - np.floor(x)).tobytes() == np.mod(x, 1.0).tobytes()


class TestTabulatedFamily:
    def _sampled(self, nx=48, nv=160, vmax=6.0):
        src = make_gaussian_cosine_datum(0.05, 1.0, EXPLORATORY_KLASS)
        x = np.arange(nx) / nx
        v = np.linspace(-vmax, vmax, nv)
        vals = eval_f_star(src, x[:, None], v[None, :] * np.ones((nx, 1)))
        return src, make_tabulated_datum(x, v, vals, EXPLORATORY_KLASS)

    def test_matches_source_between_nodes(self):
        src, tab = self._sampled()
        rng = np.random.default_rng(3)
        xq = rng.uniform(0, 1, 200)
        vq = rng.uniform(-5.5, 5.5, 200)
        np.testing.assert_allclose(
            eval_f_star(tab, xq, vq), eval_f_star(src, xq, vq), atol=3e-3
        )

    def test_wraps_periodically_in_x(self):
        _, tab = self._sampled()
        assert float(eval_f_star(tab, 0.999, 0.0)) == pytest.approx(
            float(eval_f_star(tab, -0.001, 0.0))
        )

    def test_velocity_out_of_range_raises(self):
        _, tab = self._sampled(vmax=6.0)
        with pytest.raises(OutOfRangeError):
            eval_f_star(tab, 0.1, 6.5)

    def test_flat_gather_equals_two_dimensional_indexing(self):
        # The corners gathered from the flat wrapped table, against the same
        # formula read from a 2-D table that is wrapped on every call.
        _, tab = self._sampled(nx=24, nv=97)
        xn, vn = tab.x_nodes, tab.v_nodes
        assert not tab.x_wrapped.flags.writeable and not tab.table_wrapped.flags.writeable
        rng = np.random.default_rng(11)
        x = np.concatenate([
            rng.uniform(0.0, 1.0, 3000),
            xn, xn, np.full(vn.size, xn[-1]),  # nodes
            rng.uniform(xn[-1], 1.0, 200), [1.0, 0.0, -0.0],  # the wrap cell, and its edges
            rng.uniform(0.0, 1.0, 4),  # at both v ends
        ])
        v = np.concatenate([
            rng.uniform(vn[0], vn[-1], 3000),
            np.resize(vn, xn.size), rng.uniform(vn[0], vn[-1], xn.size), vn,
            rng.uniform(vn[0], vn[-1], 203),
            [vn[0], vn[-1], vn[0], vn[-1]],
        ])
        got = asymptotic._bilinear(tab, x, v)
        want = _bilinear_two_dimensional(tab, x, v)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        # Broadcast rows and columns, as the free-streaming rows read the table.
        xs = (x[None, :400] - 0.3 * vn[:, None]) % 1.0
        got = asymptotic._bilinear(tab, xs, vn[:, None])
        want = _bilinear_two_dimensional(tab, xs, vn[:, None])
        assert got.tobytes() == want.tobytes()
        for vq in (vn[0] - 1e-12, vn[-1] + 1e-12, np.array([0.0, 7.0])):
            with pytest.raises(OutOfRangeError, match="^velocity query outside the tabulated grid$"):
                asymptotic._bilinear(tab, np.full(np.shape(vq), 0.5), vq)

    def test_constructor_validation(self):
        x = np.arange(8) / 8.0
        v = np.linspace(-1, 1, 5)
        vals = np.zeros((8, 5))
        with pytest.raises(ParameterError):
            make_tabulated_datum(x[::-1], v, vals, EXPLORATORY_KLASS)
        with pytest.raises(ParameterError):
            make_tabulated_datum(x + 0.5, v, vals, EXPLORATORY_KLASS)  # leaves [0,1)
        with pytest.raises(ParameterError):
            make_tabulated_datum(x, v, vals[:, :-1], EXPLORATORY_KLASS)

    def test_fourier_matches_analytic_family(self):
        src, tab = self._sampled(nx=64, nv=400, vmax=8.0)
        for k, eta in [(0, 0.0), (1, 0.5)]:
            got = fourier_f_star(tab, k, eta)
            ref = fourier_f_star(src, k, eta)
            assert abs(got - ref) < 1e-4

    def test_fourier_lattice_matches_pointwise_quadrature(self):
        # Reference: the trapezoid rule applied point by point, v first, then
        # x over the period closed by the wrap node x_first + 1.
        _, tab = self._sampled(nx=12, nv=41)
        ks = np.arange(-3, 4)
        etas = np.linspace(0.0, 5.0, 6)
        lattice = tabulated_fourier(tab, ks, etas)
        xe = np.append(tab.x_nodes, tab.x_nodes[0] + 1.0)
        for i, k in enumerate(ks):
            for j, eta in enumerate(etas):
                phase = np.outer(np.exp(-2j * np.pi * k * tab.x_nodes), np.exp(-1j * eta * tab.v_nodes))
                inner = np.trapezoid(tab.values * phase, tab.v_nodes, axis=1)
                ref = np.trapezoid(np.append(inner, inner[0]), xe)
                assert abs(lattice[i, j] - ref) <= 1e-15
                assert abs(fourier_f_star(tab, k, eta) - ref) <= 1e-15

    def test_csv_roundtrip(self, tmp_path):
        x = np.arange(6) / 6.0
        v = np.linspace(-2, 2, 5)
        vals = np.outer(1.0 + np.cos(2 * np.pi * x), np.exp(-(v**2)))
        lines = ["x,v,f"]
        for i in range(x.size):
            for j in range(v.size):
                lines.append(f"{x[i]:.17g},{v[j]:.17g},{vals[i, j]:.17g}")
        path = tmp_path / "grid.csv"
        path.write_text("\n".join(lines) + "\n")
        datum = load_tabulated_grid(path, EXPLORATORY_KLASS)
        assert datum.values.tobytes() == vals.tobytes()
        assert datum.x_nodes.tobytes() == x.tobytes() and datum.v_nodes.tobytes() == v.tobytes()

    def test_csv_any_row_and_column_order(self, tmp_path):
        # A repr-formatted table read in lattice order, and the same rows
        # shuffled, with permuted and extra columns, CRLF line endings and
        # comments: the same datum, bit for bit.
        rng = np.random.default_rng(5)
        x = np.arange(8) / 8.0
        v = np.linspace(-3.0, 3.0, 7)
        vals = rng.uniform(0.0, 1.0, (x.size, v.size)) * np.exp(-(v**2))
        rows = [(xi, vj, fij) for xi, row in zip(x.tolist(), vals.tolist()) for vj, fij in zip(v.tolist(), row)]
        ordered = tmp_path / "ordered.csv"
        ordered.write_text("x,v,f\n" + "".join(f"{a!r},{b!r},{c!r}\n" for a, b, c in rows))
        shuffled = tmp_path / "shuffled.csv"
        lines = [f"{b!r}, {c!r},{a!r},{k}.5 # row {k}\r\n" for k, (a, b, c) in enumerate(rows)]
        rng.shuffle(lines)
        lines.insert(len(lines) // 2, "# a comment line\r\n\r\n")
        shuffled.write_bytes(("# f* on the lattice\r\nv, f,x,w\r\n" + "".join(lines)).encode())
        want = load_tabulated_grid(ordered, EXPLORATORY_KLASS)
        assert want.values.tobytes() == vals.tobytes()
        got = load_tabulated_grid(shuffled, EXPLORATORY_KLASS)
        for name in ("x_nodes", "v_nodes", "values"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_csv_parses_as_genfromtxt(self, tmp_path):
        # The values numpy's C reader returns are those of the Python float
        # parser behind np.genfromtxt, for shortest-repr and %.17g digits.
        rng = np.random.default_rng(11)
        table = rng.standard_normal((200, 3)) * 10.0 ** rng.integers(-30, 30, (200, 3))
        for fmt in ("{!r}", "{:.17g}", "{:.6e}"):
            path = tmp_path / "table.csv"
            path.write_text("a,b,c\n" + "".join(",".join(fmt.format(q) for q in row) + "\n" for row in table.tolist()))
            want = np.genfromtxt(path, delimiter=",", names=True)
            got = asymptotic._read_csv_columns(path, ("c", "a", "b"))
            for name, column in zip("cab", got):
                assert column.tobytes() == np.ascontiguousarray(want[name]).tobytes()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x,v\n0.0,0.0\n", "missing column 'f'"),
            ("x,v,f,x\n0.0,0.0,1.0,0.0\n", "repeated column 'x'"),
            ("x,v,f\n0.0,0.0,1.0\n0.0,abc,1.0\n", "could not convert string 'abc' to float64 on line 3, column 2"),
            ("x,v,f\n0.0,0.0,1.0\n0.0,,1.0\n", "could not convert string '' to float64 on line 3, column 2"),
            ("x,v,f\n0.0,0.0,1.0\n0.0,1.0,nan\n", "non-finite value on line 3"),
            ("x,v,f\n0.0,0.0,1.0\n-inf,1.0,1.0\n", "non-finite value on line 3"),
            ("x,v,f\n0.0,0.0,1.0\n0.5,1.0\n", "number of columns changed from 3 to 2 on line 3"),
            # Lines are counted in the file, the header, comments and blank lines included.
            ("# t\nx,v,f\n\n0.0,a,1.0\n", "could not convert string 'a' to float64 on line 4, column 2"),
            ("x,v,f\n# t\n0.0,0.0,1.0\n0.5,1.0\n", "number of columns changed from 3 to 2 on line 4"),
            ("\nx,v,f # h\r\n0.0,0.0,1.0\r\n\r\n0.5,1.0,inf # c\r\n", "non-finite value on line 5"),
            ("x,v,f\n0.0,0.0\n0.5,1.0\n", "rows have 2 values, the header names 3"),
            ("x,v,f\n", "no data rows"),
            ("x,v,f\n# only a comment\n\n", "no data rows"),
            ("\n# nothing\n", "no header line"),
        ],
    )
    def test_csv_malformed_table_is_refused(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ParameterError, match=f"^{re.escape(str(path))}: .*{re.escape(message)}"):
            load_tabulated_grid(path, EXPLORATORY_KLASS)

    def test_csv_incomplete_lattice(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,v,f\n0.0,0.0,1.0\n0.0,1.0,1.0\n0.5,0.0,1.0\n")
        with pytest.raises(ParameterError):
            load_tabulated_grid(path, EXPLORATORY_KLASS)


class TestVelocityProfile:
    """velocity_profile: sup |f*| over the torus and a velocity band."""

    @pytest.mark.parametrize("family", ["gaussian-cosine", "tabulated"])
    def test_bounds_the_datum_on_every_band(self, family):
        datum = make_gaussian_cosine_datum(0.8, 0.7, EXPLORATORY_KLASS)
        xs = np.linspace(0.0, 1.0, 481)  # holds the table's x nodes
        if family == "tabulated":
            x, v = np.arange(24) / 24.0, np.linspace(-5.0, 5.0, 41)
            values = eval_f_star(datum, x[:, None], v[None, :]) * (1.0 + 0.3 * np.sin(2.0 * np.pi * 3.0 * x))[:, None]
            datum = make_tabulated_datum(x, v, values, EXPLORATORY_KLASS)
        rng = np.random.default_rng(5)
        lo = rng.uniform(-4.9, 4.9, 40)
        hi = np.minimum(lo + rng.uniform(0.0, 1.5, 40), 4.9)
        for a, b, sup in zip(lo, hi, velocity_profile(datum, lo, hi)):
            dense = float(np.max(np.abs(eval_f_star(datum, xs[:, None], np.linspace(a, b, 301)[None, :]))))
            assert dense <= sup * (1.0 + 1e-12)
            if family == "gaussian-cosine":
                assert sup == pytest.approx(dense, rel=1e-3)  # attained at the u of the band nearest 0
            else:
                # The bracketing nodes lie within one node spacing of the band.
                u = datum.v_nodes[(datum.v_nodes >= a - 0.25) & (datum.v_nodes <= b + 0.25)]
                assert sup == float(np.max(np.abs(eval_f_star(datum, xs[:, None], u[None, :]))))
        peak = velocity_profile(datum, -np.inf, np.inf)
        want = np.max(np.abs(datum.values)) if family == "tabulated" else 2.0 * 0.8 / (0.7 * math.sqrt(2.0 * math.pi))
        assert peak == pytest.approx(want, rel=1e-15)


class TestVelocityTruncation:
    def test_cutoff_controls_tail_integral(self):
        a2, tol = 0.1, 1e-10
        V = velocity_cutoff(a2, tol)
        # Substitute v = 1/u so the tiny tail integral is well conditioned.
        tail = 2.0 * quad(lambda u: a2 * u**2 / (1.0 + u**4), 0.0, 1.0 / V)[0]
        assert tail <= tol * (1.0 + 1e-6)

    def test_default_vmax_resolvable(self, exploratory_datum, theorem_datum):
        # The family-aware cutoff stays within a few widths of the Gaussian,
        # never at the (much larger) class-tail cutoff.
        for datum in (exploratory_datum, theorem_datum):
            vmax = default_vmax(datum)
            assert vmax <= datum.sigma * 10.0
            # Mass beyond the cutoff is negligible at the quadrature tolerance.
            lost = 2.0 * quad(
                lambda v: float(eval_f_star(datum, 0.0, np.asarray([v]))[0]),
                vmax,
                vmax + 20.0 * datum.sigma,
            )[0]
            assert lost < 1e-9


class TestClassMembership:
    def test_theorem_datum_admissible(self, theorem_datum):
        report = validate_class_membership(theorem_datum)
        assert report.member and report.admissible
        assert report.max_tail_product <= THEOREM_KLASS.a2
        assert report.max_envelope_excess <= 0.0

    def test_exploratory_datum_fails_envelope(self, exploratory_datum):
        report = validate_class_membership(exploratory_datum)
        assert not report.fourier_envelope
        assert not report.member
        assert report.nonnegative and report.pointwise_tail and report.series_bound

    def test_tail_violation_detected(self):
        fat = make_gaussian_cosine_datum(10.0, 1.0, EXPLORATORY_KLASS)
        report = validate_class_membership(fat)
        assert not report.pointwise_tail
        assert report.max_tail_product > EXPLORATORY_KLASS.a2

    def test_negative_tabulated_values_detected(self):
        x = np.arange(8) / 8.0
        v = np.linspace(-2, 2, 5)
        vals = np.full((8, 5), 1e-3)
        vals[3, 2] = -1e-3
        datum = make_tabulated_datum(x, v, vals, EXPLORATORY_KLASS)
        assert not validate_class_membership(datum).nonnegative

    def test_tabulated_lattice_check_runs(self):
        # Small admissible tabulated datum: the lattice sweep must agree with
        # the closed-form verdict for the same underlying profile.
        src = make_gaussian_cosine_datum(1e-6, 16.0, THEOREM_KLASS)
        x = np.arange(32) / 32.0
        v = np.linspace(-80, 80, 161)
        vals = eval_f_star(src, x[:, None], v[None, :] * np.ones((x.size, 1)))
        tab = make_tabulated_datum(x, v, vals, THEOREM_KLASS)
        report = validate_class_membership(tab)
        assert report.nonnegative and report.pointwise_tail


@given(
    x=st.floats(-10, 10, allow_nan=False),
    shift=st.integers(-5, 5),
    v=st.floats(-6, 6, allow_nan=False),
)
@hyp_settings(max_examples=60, deadline=None)
def test_f_star_periodic_and_nonnegative(x, shift, v):
    datum = make_gaussian_cosine_datum(0.05, 1.0, EXPLORATORY_KLASS)
    a = float(eval_f_star(datum, x, v))
    b = float(eval_f_star(datum, x + shift, v))
    assert a >= 0.0
    assert a == pytest.approx(b, abs=1e-12)


@given(eta=st.floats(-20, 20, allow_nan=False))
@hyp_settings(max_examples=40, deadline=None)
def test_fourier_dominated_by_zero_frequency(eta):
    datum = make_gaussian_cosine_datum(0.05, 1.0, EXPLORATORY_KLASS)
    assert abs(fourier_f_star(datum, 1, eta)) <= abs(fourier_f_star(datum, 0, 0.0))
