"""Configuration parsing and the command-line surface."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from vpme_scatter import asymptotic, cli, diagnostics, scheme
from vpme_scatter.cli import main, resolve_out_dir
from vpme_scatter.config import (
    RunConfig,
    build_datum,
    parse_config,
    serialize_config,
)
from vpme_scatter.errors import ConfigError
from vpme_scatter.scheme import RunSettings

MINIMAL = """
datum:
  family: gaussian-cosine
  amplitude: 0.05
  sigma: 1.0
class:
  a: 2.0
  a1: 2.7
  a2: 0.1
  alpha: 0.5
  t0: 0.7
"""

SMALL_RUN = """
datum:
  family: gaussian-cosine
  amplitude: 0.05
  sigma: 1.0
class:
  a: 2.0
  a1: 2.7
  a2: 0.1
  alpha: 0.5
  t0: 0.7
grid:
  nx: 32
  nv: 64
  nt: 30
  vmax: 6.0
  T: 1.5
run:
  mode: exploratory
"""


class TestParsing:
    def test_defaults_applied(self):
        cfg = parse_config(MINIMAL)
        assert cfg.settings.nx == RunSettings.nx
        assert cfg.settings.nv == RunSettings.nv
        assert cfg.settings.newton_tol == RunSettings.newton_tol
        assert cfg.mode == "theorem"
        assert cfg.settings.vmax is None and cfg.settings.horizon is None

    def test_missing_section(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("datum:\n  family: gaussian-cosine\n  amplitude: 1\n  sigma: 1\n")
        assert exc.value.key == "class"

    def test_missing_key_names_path(self):
        bad = MINIMAL.replace("  sigma: 1.0\n", "")
        with pytest.raises(ConfigError) as exc:
            parse_config(bad)
        assert exc.value.key == "datum.sigma"

    def test_type_errors(self):
        bad = MINIMAL + "grid:\n  nx: one-twenty-eight\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(bad)
        assert exc.value.key == "grid.nx"

    def test_odd_grid_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "grid:\n  nx: 33\n")

    def test_horizon_before_start_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + "grid:\n  T: 0.5\n")
        assert exc.value.key == "T"

    def test_unknown_family(self):
        bad = MINIMAL.replace("gaussian-cosine", "plasma-blob")
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_malformed_document(self):
        with pytest.raises(ConfigError):
            parse_config("datum: [unclosed")
        with pytest.raises(ConfigError):
            parse_config("- just\n- a\n- list\n")

    def test_roundtrip_identity(self):
        cfg = parse_config(SMALL_RUN)
        again = parse_config(serialize_config(cfg))
        assert again == cfg

    def test_build_datum(self):
        datum = build_datum(parse_config(MINIMAL))
        assert datum.family == "gaussian-cosine"
        assert datum.amplitude == 0.05


class TestOutputResolution:
    def test_explicit_override_wins(self):
        cfg = parse_config(MINIMAL)
        assert resolve_out_dir(cfg, "override") == Path("override")

    def test_env_root(self, monkeypatch):
        monkeypatch.setenv("VPME_OUT_ROOT", "/tmp/vpme-root")
        cfg = parse_config(MINIMAL)
        assert resolve_out_dir(cfg, None) == Path("/tmp/vpme-root") / "vpme-run"


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """One small CLI run shared by the end-to-end tests."""
    base = tmp_path_factory.mktemp("cli")
    cfg = base / "run.yaml"
    cfg.write_text(SMALL_RUN)
    out = base / "out"
    code = main(["run", str(cfg), "--out", str(out)])
    return cfg, out, code


class TestRunCommand:
    def test_exit_code_and_files(self, finished_run):
        _, out, code = finished_run
        assert code == 0
        for name in ("fields.csv", "density.csv", "norm_trace.csv", "summary.txt", "manifest.json"):
            assert (out / name).exists()

    def test_manifest_contents(self, finished_run):
        _, out, _ = finished_run
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["converged"] is True
        assert manifest["iterations"] >= 1
        assert manifest["final_delta"] < 1e-8
        assert set(manifest["phase_seconds"]) == {"validate", "iterate", "diagnostics", "emit"}
        # The embedded config reparses to the run's configuration.
        assert parse_config(manifest["config"]).settings.nx == 32

    def test_tables_parse_and_are_consistent(self, finished_run):
        _, out, _ = finished_run
        raw = np.genfromtxt(out / "fields.csv", delimiter=",", names=True)
        assert set(raw.dtype.names) == {"t", "x", "Ebar", "Etilde", "E"}
        np.testing.assert_allclose(raw["E"], raw["Ebar"] + raw["Etilde"], atol=1e-15)
        dens = np.genfromtxt(out / "density.csv", delimiter=",", names=True)
        assert np.all(dens["rho"] >= 0.0)

    def test_reruns_are_byte_identical(self, finished_run, tmp_path):
        cfg, out, _ = finished_run
        out2 = tmp_path / "again"
        assert main(["run", str(cfg), "--out", str(out2)]) == 0
        for name in ("fields.csv", "density.csv", "norm_trace.csv", "summary.txt"):
            assert (out / name).read_bytes() == (out2 / name).read_bytes()

    def test_validates_the_datum_once(self, finished_run, tmp_path, monkeypatch):
        calls = []

        def counting(datum):
            calls.append(datum)
            return asymptotic.validate_class_membership(datum)

        for module in (cli, scheme, diagnostics):
            monkeypatch.setattr(module, "validate_class_membership", counting)
        cfg, _, _ = finished_run
        assert main(["run", str(cfg), "--out", str(tmp_path / "once")]) == 0
        assert len(calls) == 1

    def test_theorem_mode_refuses_inadmissible_datum(self, finished_run, tmp_path, capsys):
        cfg, _, _ = finished_run
        code = main(["run", str(cfg), "--mode", "theorem", "--out", str(tmp_path / "x")])
        assert code == 1

    def test_missing_config_file(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.yaml")]) == 1


class TestOtherCommands:
    def test_validate_reports_and_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "v.yaml"
        cfg.write_text(MINIMAL)
        code = main(["validate", str(cfg)])
        out = capsys.readouterr().out
        assert code == 1  # order-one parameters fail the Fourier envelope
        assert "fourier_envelope: fail" in out
        assert "nonnegative: pass" in out

    def test_validate_passes_admissible_datum(self, tmp_path, capsys):
        cfg = tmp_path / "v.yaml"
        cfg.write_text(
            "datum:\n  family: gaussian-cosine\n  amplitude: 1e-6\n  sigma: 16.0\n"
            "class:\n  a: 45.0\n  a1: 2.7\n  a2: 0.01\n  alpha: 0.5\n  t0: 0.0\n"
        )
        assert main(["validate", str(cfg)]) == 0
        assert "theorem_regime: pass" in capsys.readouterr().out

    def test_decay_report(self, finished_run, capsys):
        _, out, _ = finished_run
        assert main(["decay-report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "fitted rate" in text
        assert "envelope" in text

    def test_decay_report_rejects_unfinished_dir(self, tmp_path):
        assert main(["decay-report", str(tmp_path)]) == 1

    def test_decay_report_rejects_inconsistent_fields(self, finished_run, tmp_path, capsys):
        _, out, _ = finished_run
        (tmp_path / "manifest.json").write_bytes((out / "manifest.json").read_bytes())
        lines = (out / "fields.csv").read_text().splitlines(keepends=True)
        head, e = lines[5].rsplit(",", 1)
        lines[5] = f"{head},{float(e) + 1.0!r}\n"
        (tmp_path / "fields.csv").write_text("".join(lines))
        assert main(["decay-report", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"{tmp_path / 'fields.csv'}: column E differs from Ebar + Etilde" in err

    def test_demo_instability(self, tmp_path, capsys):
        cfg = tmp_path / "demo.yaml"
        cfg.write_text(SMALL_RUN)
        out = tmp_path / "demo-out"
        code = main(["demo-instability", str(cfg), "--out", str(out)])
        assert code == 0
        text = (out / "instability.txt").read_text()
        assert "probe gap" in text
        assert "weak gap" in text

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("datum:\n  family: gaussian-cosine\n")
        assert main(["run", str(cfg)]) == 1
        assert "configuration error" in capsys.readouterr().err
