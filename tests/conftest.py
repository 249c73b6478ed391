"""Shared fixtures: the two reference runs reused across the suite.

Both runs use the gaussian-cosine family at Nx=128, Nv=256, Nt=100.  The
"theorem" run sits inside the guaranteed-contraction regime (large a, tiny
amplitude); the "exploratory" run uses order-one parameters where the field
is numerically visible and contraction is reported rather than guaranteed.
Each run's certificate is read from its own solved slices.
UniformDecayField, a field with closed-form trajectories, and SineDecayField,
a closed-form field that depends on x, serve the integrator tests;
datum_l2_gap is the value the L2 gaps of the weak-gap report tend to.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from vpme_scatter.asymptotic import (
    ClassParameters,
    eval_f_star,
    h_limit,
    make_gaussian_cosine_datum,
)
from vpme_scatter.diagnostics import certify, decay_fit, instability_report
from vpme_scatter.scheme import RunSettings, default_horizon, run_iteration, velocity_grid

# Order-one parameters: visible field, outside the contraction-guarantee regime.
EXPLORATORY_KLASS = ClassParameters(a=2.0, a1=2.7, a2=0.1, alpha=0.5, t0=0.7)
EXPLORATORY_AMPLITUDE = 0.05
EXPLORATORY_SIGMA = 1.0

# Contraction-guarantee regime: a = ceil(sqrt((200 a2 + 3)(e^6 + 1))) for a2 = 0.01,
# amplitude and width scaled so every class-membership bound passes.
THEOREM_KLASS = ClassParameters(a=45.0, a1=2.7, a2=0.01, alpha=0.5, t0=0.0)
THEOREM_AMPLITUDE = 1e-6
THEOREM_SIGMA = 16.0


@dataclass(frozen=True)
class UniformDecayField:
    """Synthetic spatially uniform field E(t) = amplitude * exp(-rate t).

    Exercises the integrator against the closed-form trajectory; exposes the
    same sampling surface as FieldHistory.
    """

    rate: float
    amplitude: float
    t_start: float
    horizon: float

    @property
    def t0(self) -> float:
        return self.t_start

    def quiet_time(self) -> float:
        return self.horizon

    def sample(self, t: float, x: np.ndarray) -> np.ndarray:
        if t > self.horizon:
            return np.zeros_like(np.asarray(x, dtype=float))
        return np.full_like(
            np.asarray(x, dtype=float), self.amplitude * math.exp(-self.rate * t)
        )

    def exact_state(self, t: float, x: float, v: float):
        """Closed-form (X, V) at time t for the horizon-pinned trajectory."""
        a, c, T = self.rate, self.amplitude, self.horizon
        eT = math.exp(-a * T)
        et = math.exp(-a * t)
        V = v + c * (eT - et) / a
        X = x + v * t - c * (T - t) * eT / a + c * (et - eT) / a**2
        return X, V


@dataclass(frozen=True)
class SineDecayField:
    """Synthetic field E(t, x) = amplitude e^{-t} sin(2 pi x), zero past the horizon.

    It depends on x, so the position stages of the transport step enter the
    trajectory; rhs is the first-order system for an ODE solver's reference.
    Exposes the same sampling surface as FieldHistory.
    """

    amplitude: float
    t_start: float
    horizon: float

    @property
    def t0(self) -> float:
        return self.t_start

    def quiet_time(self) -> float:
        return self.horizon

    def sample(self, t: float, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if t > self.horizon:
            return np.zeros_like(x)
        return self.amplitude * math.exp(-t) * np.sin(2.0 * np.pi * x)

    def rhs(self, t: float, y):
        """(X, V)' = (V, E(t, X))."""
        return [y[1], self.amplitude * math.exp(-t) * math.sin(2.0 * math.pi * y[0])]


def datum_l2_gap(datum, nx: int, vmax: float, nv: int) -> float:
    """||f* - h|| = sqrt(sum_k w_k mean_x (f* - h)^2) on the nx x velocity_grid mesh."""
    v, w = velocity_grid(vmax, nv)
    f = eval_f_star(datum, np.arange(nx)[None, :] / nx, v[:, None])
    return math.sqrt(float(w @ np.mean((f - h_limit(datum, v)[:, None]) ** 2, axis=1)))


# Wall-clock seconds of the shared reference runs, keyed by run name.
RUN_SECONDS: dict[str, float] = {}


@pytest.fixture(scope="session")
def exploratory_datum():
    return make_gaussian_cosine_datum(
        EXPLORATORY_AMPLITUDE, EXPLORATORY_SIGMA, EXPLORATORY_KLASS
    )


@pytest.fixture(scope="session")
def exploratory_settings():
    return RunSettings(nx=128, nv=256, nt=100, vmax=8.0, horizon=3.0, exploratory=True)


@pytest.fixture(scope="session")
def exploratory_run(exploratory_datum, exploratory_settings):
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        result = run_iteration(exploratory_datum, exploratory_settings)
    RUN_SECONDS["exploratory"] = time.perf_counter() - start
    return result


@pytest.fixture(scope="session")
def theorem_datum():
    return make_gaussian_cosine_datum(THEOREM_AMPLITUDE, THEOREM_SIGMA, THEOREM_KLASS)


@pytest.fixture(scope="session")
def theorem_settings():
    return RunSettings(
        nx=128, nv=256, nt=100, horizon=default_horizon(THEOREM_KLASS)
    )


@pytest.fixture(scope="session")
def theorem_run(theorem_datum, theorem_settings):
    start = time.perf_counter()
    result = run_iteration(theorem_datum, theorem_settings)
    RUN_SECONDS["theorem"] = time.perf_counter() - start
    return result


@pytest.fixture(scope="session")
def exploratory_certificate(exploratory_run, exploratory_datum):
    decay = decay_fit(exploratory_run.field_history, EXPLORATORY_KLASS)
    return certify(exploratory_run, exploratory_datum, decay)


@pytest.fixture(scope="session")
def theorem_certificate(theorem_run, theorem_datum):
    decay = decay_fit(theorem_run.field_history, THEOREM_KLASS)
    return certify(theorem_run, theorem_datum, decay)


@pytest.fixture(scope="session")
def instability(exploratory_settings):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return instability_report(
            EXPLORATORY_AMPLITUDE,
            EXPLORATORY_SIGMA,
            EXPLORATORY_KLASS,
            exploratory_settings,
        )
