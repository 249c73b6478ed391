"""Diagnostics: decay fitting, weak homogenization, instability construction."""

import math

import numpy as np
import pytest

from vpme_scatter.asymptotic import make_gaussian_cosine_datum
from vpme_scatter.characteristics import FieldHistory
from vpme_scatter.diagnostics import (
    decay_fit,
    default_test_set,
    instability_report,
    lipschitz_estimate,
    weak_convergence_gap,
)
from vpme_scatter.errors import ParameterError
from vpme_scatter.poisson import SpatialGrid
from vpme_scatter.scheme import RunSettings

from conftest import EXPLORATORY_KLASS


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

    def test_weak_gaps_shrink_but_probe_gap_persists(self, instability):
        report = instability
        assert report.scheme.converged
        # Weak relaxation: the oscillatory gaps at the horizon are far below
        # their initial size.
        for tid in ("cos2pix", "cos2pix_gauss"):
            gaps = report.weak_report.gaps_for(tid)
            assert gaps[-1][1] < 1e-3
            assert gaps[-1][1] < gaps[0][1]
        # Pointwise persistence: the cosine never relaxes along v = 0.
        g0 = 0.05 / math.sqrt(2 * math.pi)
        assert report.probe_reference == pytest.approx(g0, rel=1e-9)
        assert report.probe_gap > 0.5 * g0

    def test_narrative_mentions_time_reversal(self, instability):
        assert "reversed" in instability.narrative
