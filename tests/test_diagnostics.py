"""Diagnostics: decay fitting, weak homogenization, instability construction."""

import math

import numpy as np
import pytest

from dataclasses import replace

from vpme_scatter import poisson, scheme
from vpme_scatter.asymptotic import datum_mass, make_gaussian_cosine_datum
from vpme_scatter.characteristics import FieldHistory
from vpme_scatter.diagnostics import (
    certify,
    decay_fit,
    default_test_set,
    instability_report,
    lipschitz_estimate,
    weak_convergence_gap,
)
from vpme_scatter.errors import ParameterError
from vpme_scatter.poisson import SpatialGrid, make_field_slice, verify_potential_bounds
from vpme_scatter.scheme import RunSettings

from conftest import EXPLORATORY_KLASS, datum_l2_gap


def _synthetic_history(rate=2.0, amp=1.0, nx=32, nt=60, T=3.0):
    grid = SpatialGrid(nx)
    times = np.linspace(0.0, T, nt + 1)
    E = amp * np.sin(2 * np.pi * grid.nodes)[None, :] * np.exp(-rate * times)[:, None]
    return FieldHistory(times=times, grid=grid, Ebar=E, Etilde=np.zeros_like(E))


class TestDecayFit:
    def test_recovers_synthetic_rate(self):
        hist = _synthetic_history(rate=2.0, amp=1.0)
        report = decay_fit(hist, EXPLORATORY_KLASS)
        assert not report.degenerate
        assert report.rate == pytest.approx(2.0, rel=0.01)
        assert report.prefactor == pytest.approx(1.0, rel=0.01)
        assert report.r_squared > 0.999

    def test_degenerate_on_zero_field(self):
        grid = SpatialGrid(16)
        hist = FieldHistory.zero(np.linspace(0, 1, 11), grid)
        report = decay_fit(hist, EXPLORATORY_KLASS)
        assert report.degenerate
        assert math.isnan(report.rate)
        assert math.isnan(report.fit_start) and math.isnan(report.fit_end)

    def test_envelope_flag(self):
        # amp below 16 a1 passes; a field above the envelope at t=0 fails.
        ok = decay_fit(_synthetic_history(rate=3.0, amp=1.0), EXPLORATORY_KLASS)
        assert ok.envelope_pass
        big = decay_fit(_synthetic_history(rate=3.0, amp=100.0), EXPLORATORY_KLASS)
        assert not big.envelope_pass

    def test_noise_floor_nodes_excluded(self):
        hist = _synthetic_history(rate=6.0, amp=1.0, T=8.0, nt=200)
        report = decay_fit(hist, EXPLORATORY_KLASS)
        # sup drops below the floor near t = 32/6; later nodes must not be fit.
        assert report.fitted_nodes < hist.times.size
        assert report.rate == pytest.approx(6.0, rel=0.01)
        # The report names the window it fits: t = 0 up to the last node above the floor.
        above = hist.times[np.max(np.abs(hist.E), axis=1) > 1e-14]
        assert (report.fit_start, report.fit_end) == (0.0, float(above[-1]))
        assert report.fit_end < hist.horizon


class TestCertificate:
    @pytest.mark.parametrize("run_name", ["exploratory", "theorem"])
    def test_equals_per_slice_resolve(self, request, run_name):
        # The stored potentials are the solved slices, so the certificate is
        # bit for bit what solving every slice of the last density again gives.
        run = request.getfixturevalue(f"{run_name}_run")
        datum = request.getfixturevalue(f"{run_name}_datum")
        cert = request.getfixturevalue(f"{run_name}_certificate")
        hist = run.field_history
        worst = {"utilde_inf": 0.0, "dutilde_inf": 0.0, "d2utilde_inf": 0.0}
        boltzmann = 0.0
        for i, rho in enumerate(run.density_history.rho):
            s = make_field_slice(rho, hist.grid)
            assert np.array_equal(s.Ubar, hist.Ubar[i])
            assert np.array_equal(s.Utilde, hist.Utilde[i])
            report = verify_potential_bounds(s)
            for key in worst:
                worst[key] = max(worst[key], getattr(report, key))
            boltzmann = max(boltzmann, abs(float(np.mean(np.exp(s.Ubar + s.Utilde))) - 1.0))
        assert {key: getattr(cert.bounds, key) for key in worst} == worst
        assert cert.boltzmann == boltzmann
        mass = run.density_history.mass
        assert cert.mass_drift == float(np.max(np.abs(mass - datum_mass(datum))))
        assert cert.contraction == max(run.ratios)
        assert cert.weighted_norm == max(run.norms)
        assert cert.norm_bound == 16.0 * datum.klass.a1

    def test_solves_no_slice(self, monkeypatch, theorem_run, theorem_datum):
        calls = []

        def forbidden(*args, **kwargs):
            calls.append(args)
            raise AssertionError("certify solved a slice")

        for module, name in (
            (poisson, "make_field_slice"),
            (poisson, "solve_nonlinear"),
            (scheme, "make_field_slice"),
        ):
            monkeypatch.setattr(module, name, forbidden)
        decay = decay_fit(theorem_run.field_history, theorem_datum.klass)
        cert = certify(theorem_run, theorem_datum, decay)
        assert calls == []
        assert cert.passed and cert.failures == []

    def test_names_each_failing_guarantee(self, theorem_run, theorem_datum):
        decay = decay_fit(theorem_run.field_history, theorem_datum.klass)
        failing = certify(theorem_run, theorem_datum, replace(decay, envelope_pass=False))
        assert failing.failures == ["envelope 16 a1 e^{-at}"]
        assert not failing.passed
        names = [name for name, _, _ in failing.guarantees()]
        assert names[1:3] == ["contraction ratio <= 1/2", "weighted norm <= 16 a1 = 43.2"]

    def test_needs_the_solved_potentials(self, theorem_run, theorem_datum):
        hist = theorem_run.field_history
        bare = FieldHistory(times=hist.times, grid=hist.grid, Ebar=hist.Ebar, Etilde=hist.Etilde)
        decay = decay_fit(bare, theorem_datum.klass)
        with pytest.raises(ParameterError, match="potentials"):
            certify(replace(theorem_run, field_history=bare), theorem_datum, decay)


class TestWeakConvergence:
    def test_constant_test_function_sees_mass_only(self, exploratory_datum):
        grid = SpatialGrid(64)
        times = np.linspace(0.7, 3.0, 24)
        hist = FieldHistory.zero(times, grid)
        report = weak_convergence_gap(
            exploratory_datum, hist, [0.7, 3.0], vmax=8.0, nv=256
        )
        for t, gap in report.gaps_for("one"):
            assert gap < 1e-8

    def test_free_transport_gap_decays_like_gaussian(self, exploratory_datum):
        grid = SpatialGrid(64)
        times = np.linspace(0.7, 3.0, 24)
        hist = FieldHistory.zero(times, grid)
        t1, t2 = 0.8, 1.2
        report = weak_convergence_gap(
            exploratory_datum, hist, [t1, t2], vmax=8.0, nv=256
        )
        gaps = dict(report.gaps_for("cos2pix_gauss"))
        # The oscillatory integral decays like exp(-2 pi^2 sigma_eff^2 t^2);
        # for phi = cos(2 pi x) e^{-v^2} against g_1 the effective width is
        # sigma_eff^2 = 1/3 (the Gaussian product has variance 1/3 in v).
        predicted = math.exp(-2 * math.pi**2 * (t2**2 - t1**2) / 3.0)
        assert gaps[t2] / gaps[t1] == pytest.approx(predicted, rel=0.05)

    def test_l2_gap_of_free_flight_is_that_of_the_datum(self, exploratory_datum):
        # Free flight shears each velocity row along x, which keeps its x-mean
        # of (f - h)^2, so every L2 gap on the zero field is ||f* - h||.
        hist = FieldHistory.zero(np.linspace(0.7, 3.0, 24), SpatialGrid(64))
        report = weak_convergence_gap(exploratory_datum, hist, hist.times[::4], vmax=8.0, nv=256)
        norm = datum_l2_gap(exploratory_datum, 64, 8.0, 256)
        assert [t for t, _ in report.l2_gaps] == list(hist.times[::4])
        for _, gap in report.l2_gaps:
            assert abs(gap - norm) <= 1e-13 * norm

    def test_default_test_set_members(self):
        tests = default_test_set()
        assert set(tests) == {"one", "cos2pix", "sin2pix", "cos2pix_gauss", "v_gauss"}
        x = np.linspace(0, 1, 5)
        v = np.zeros(5)
        np.testing.assert_allclose(tests["one"](x, v), 1.0)
        np.testing.assert_allclose(tests["v_gauss"](x, v), 0.0)


class TestLipschitz:
    def test_sine_slope_oracle(self):
        grid = SpatialGrid(256)
        times = np.linspace(0, 1, 3)
        E = np.sin(2 * np.pi * grid.nodes)[None, :] * np.ones((3, 1))
        hist = FieldHistory(times=times, grid=grid, Ebar=E, Etilde=np.zeros_like(E))
        est = lipschitz_estimate(hist)
        assert est == pytest.approx(2 * math.pi, rel=0.01)


class TestInstability:
    def test_rejects_bad_mu(self, exploratory_settings):
        with pytest.raises(ParameterError):
            instability_report(-0.1, 1.0, EXPLORATORY_KLASS, exploratory_settings)
        with pytest.raises(ParameterError, match="tail"):
            instability_report(5.0, 1.0, EXPLORATORY_KLASS, exploratory_settings)

    def test_weak_gaps_shrink_but_l2_gap_persists(
        self, instability, exploratory_datum, exploratory_settings
    ):
        report = instability
        assert report.scheme.converged
        # Weak relaxation: the oscillatory gaps at the horizon are far below
        # their initial size.
        for tid in ("cos2pix", "cos2pix_gauss"):
            gaps = report.weak_report.gaps_for(tid)
            assert gaps[-1][1] < 1e-3
            assert gaps[-1][1] < gaps[0][1]
        # Persistence in norm: ||f(t) - mu|| on the same slices stays at
        # ||f* - mu||, which the flow conserves; the cosine never relaxes.
        l2_gaps = report.weak_report.l2_gaps
        assert [t for t, _ in l2_gaps] == [t for t, _ in report.weak_report.gaps_for("one")]
        s = exploratory_settings
        norm = datum_l2_gap(exploratory_datum, s.nx, s.vmax, s.nv)
        assert all(gap >= 0.99 * norm for _, gap in l2_gaps)

    def test_narrative_mentions_time_reversal(self, instability):
        assert "reversed" in instability.narrative
