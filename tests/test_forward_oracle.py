"""The run's field against an independent forward solve (forward_oracle) on a lingering-type grid.

Lingering-type: the perfbench lingering datum (amplitude 1, sigma 0.3, T = 3)
on a 32 x 15 grid, where a run's field stays loud to the horizon.  The
bounds are the measured gaps with a margin: they hold the scheme's error
where it is, and let it fall.
"""

import warnings

import numpy as np
import pytest

from vpme_scatter.asymptotic import make_gaussian_cosine_datum
from vpme_scatter.scheme import RunSettings, run_iteration

from conftest import EXPLORATORY_KLASS
from forward_oracle import forward_field, forward_gap


@pytest.fixture(scope="module")
def lingering_runs():
    """(datum, {nv: converged result}) at nx=32, nt=15 for nv 32 and 64."""
    datum = make_gaussian_cosine_datum(1.0, 0.3, EXPLORATORY_KLASS)
    runs = {}
    for nv in (32, 64):
        settings = RunSettings(nx=32, nv=nv, nt=15, horizon=3.0, exploratory=True)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            runs[nv] = run_iteration(datum, settings)
        assert runs[nv].converged
    return datum, runs


def test_gap_is_the_scheme_error(lingering_runs):
    # Measured: 9.98e-4 of max|E| (at t = 1.62; 4.0e-5 at the horizon),
    # the same to three digits for the oracle's nv 64, 128 or 256 and 120 or
    # 240 steps, so it is the run's error: the field is linear in t between
    # nodes, and the gap falls 4x, to 2.5e-4, at nt=30.
    datum, runs = lingering_runs
    run = runs[64]
    history = run.field_history
    E = forward_field(datum, history, run.vmax, 128, 240)
    gap = np.max(np.abs(E - history.E), axis=1) / np.max(np.abs(history.E))
    assert gap.max() <= 1.5e-3
    assert gap[-1] <= 1e-4
    coarse = forward_gap(datum, history, run.vmax, 64, 120)
    assert abs(coarse - gap.max()) <= 1e-3 * gap.max()


def test_gap_detects_recurrence(lingering_runs):
    # At nv=32 the Simpson sum in v recurs within the span (composite Simpson
    # aliases x-mode m from t = 1 / (2 m dv) on): the run converges, to a field
    # 0.72 of max|E| away from the forward solve.
    datum, runs = lingering_runs
    run = runs[32]
    assert forward_gap(datum, run.field_history, run.vmax, 128, 240) >= 0.5


def test_steps_must_land_on_the_time_nodes(lingering_runs):
    datum, runs = lingering_runs
    run = runs[64]
    with pytest.raises(ValueError, match="do not land"):
        forward_field(datum, run.field_history, run.vmax, 64, 100)
