"""Tests of the benchmark itself: seeded inputs, reporting, failure counting, tracing.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import warnings

import numpy as np
import pytest

import run
import tracing
import workloads
from vpme_scatter import asymptotic, config, scheme
from vpme_scatter.asymptotic import ClassParameters, make_gaussian_cosine_datum

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
MAP = json.loads((run.HERE / "metric_map.json").read_text())


def _input_bytes(name: str, seed: int, wd, jobs: int = 3) -> list[bytes]:
    shutil.rmtree(wd, ignore_errors=True)
    wd.mkdir(parents=True)
    workload = workloads.WORKLOADS[name](seed, wd)
    out = []
    for index in range(jobs):
        inp = workload.make_input(index)
        out.append(inp.config_path.read_bytes())
        out.extend(rho.tobytes() for pair in inp.pairs for rho in pair)
    out.extend(p.read_bytes() for p in sorted(wd.glob("*.csv")))
    return out


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_same_seed_same_inputs_other_seed_other_inputs(name, tmp_path):
    wd = tmp_path / "inputs"
    first = _input_bytes(name, 7, wd)
    again = _input_bytes(name, 7, wd)
    other = _input_bytes(name, 8, wd)
    assert first == again
    assert first != other


def test_theorem_inputs_are_admissible(tmp_path):
    workload = workloads.TheoremCertify(3, tmp_path)
    for index in range(4):
        inp = workload.make_input(index)
        datum = config.build_datum(config.parse_config(inp.config_path.read_text()))
        assert asymptotic.validate_class_membership(datum).admissible


def test_reference_covers_every_catalog_entry():
    reference = workloads.load_reference()
    for name, workload in (("lingering", workloads.Lingering), ("cli-tabulated", workloads.CliTabulated)):
        assert sorted(map(int, reference[name])) == list(range(workloads.CATALOG_SIZE))
        for entry in (0, workloads.CATALOG_SIZE - 1):
            assert reference[name][str(entry)]["params"] == workload.catalog_params(entry)


def test_reference_gate_rejects_a_perturbed_field(tmp_path):
    workload = workloads.Lingering(0, tmp_path)
    inp = workload.entry_input(5, 0)
    ref = workloads.load_reference()["lingering"]["5"]
    E = np.zeros((31, 64))
    rows = np.linspace(0, 30, 5).round().astype(int)
    E[np.ix_(rows, np.arange(0, 64, 8))] = np.reshape(ref["E"], (5, 8))
    assert workloads.check_reference("lingering", inp, E) == []
    E[rows[2], 8] *= 1.0 + 1e-6
    assert workloads.check_reference("lingering", inp, E)


def test_metric_map_matches_benchmark_json():
    assert set(MAP["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    # failed_frac and run_s are printed in the text summary only.
    assert set(MAP["end_to_end"]) - {"failed_frac", "run_s"} == {m["name"] for m in SPEC["end_to_end"]}
    assert set(MAP["workloads"]) == {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOAD_NAMES)
    assert set(MAP["text_only"]) == set(tracing.TEXT_ONLY)
    assert set(MAP["text_only"]).isdisjoint(MAP["per_layer"])


def _run(capsys, *extra) -> tuple[list[str], dict]:
    status = run.main(["--workload", "lingering", "--seed", "3", "--seconds", "0", *extra])
    assert status == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_every_end_to_end_metric_printed_with_its_unit(capsys):
    lines, result = _run(capsys, "--trace", "0")
    assert result["correct"] is True
    assert result["attempted"] == 1 and result["failed"] == 0
    text = "\n".join(lines[:-1])
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] > 0
        assert f"{metric['name']}" in text and f" {metric['unit']} (n=" in text
    assert "failed_frac" in text
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_injected_failure_is_counted(capsys, monkeypatch):
    def broken(inp):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(workloads.Lingering, "solve", staticmethod(broken))
    lines, result = _run(capsys, "--trace", "0")
    assert result["correct"] is False
    assert result["attempted"] == 1 and result["failed"] == 1
    frac = next(line for line in lines if "failed_frac" in line)
    assert frac.split()[1] == "1.0000"
    assert any("injected failure" in line for line in lines)


def test_traced_and_untraced_results_are_equal_on_a_tiny_grid():
    klass = ClassParameters(**workloads.EXPLORATORY_CLASS)
    datum = make_gaussian_cosine_datum(1.0, 0.3, klass)
    settings = scheme.RunSettings(nx=16, nv=16, nt=6, horizon=2.0, exploratory=True)
    originals = {attr: owner.__dict__[attr] for owner, attr, _, _ in tracing.LAYER_FUNCTIONS}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        plain = scheme.run_iteration(datum, settings)
        tracer = tracing.Tracer()
        with tracer.active("tiny"):
            traced = scheme.run_iteration(datum, settings)
    for owner, attr, _, _ in tracing.LAYER_FUNCTIONS:
        assert owner.__dict__[attr] is originals[attr]
    assert np.array_equal(plain.field_history.E, traced.field_history.E)
    assert np.array_equal(plain.density_history.rho, traced.density_history.rho)
    assert plain.iterations == traced.iterations

    js = tracing.JobSpans(tracer.spans, list(range(len(tracer.spans))))
    assert js.count("scheme.run_iteration") == 1
    assert js.count("scheme.push_density") == plain.iterations
    assert js.count("poisson.slice") == plain.iterations * 7
    assert js.count("characteristics.sample") % 4 == 0  # four field samples per RK4 step
    tridiag = [s for s in tracer.spans if s[0] == "poisson.tridiag"]
    assert tridiag and all(tracer.spans[s[3]][0] == "poisson.nonlinear" for s in tridiag)
    total = js.inclusive("scheme.run_iteration")
    assert 0 < js.self_time("characteristics.sample") < total
    assert 0 < js.coverage("scheme.run_iteration", "characteristics") < 1
