"""Configuration parsing and the command-line surface."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import vpme_scatter
from vpme_scatter import asymptotic, cli, diagnostics, scheme
from vpme_scatter.cli import main, resolve_out_dir
from vpme_scatter.config import (
    RunConfig,
    build_datum,
    parse_config,
    serialize_config,
)
from vpme_scatter.errors import ConfigError
from vpme_scatter.poisson import NEWTON_TOL
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
        assert cfg.settings.fixed_point_tol == RunSettings.fixed_point_tol
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
        assert exc.value.key == "grid.T"

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("grid", "vmax", ".nan"),
            ("grid", "T", ".inf"),
            ("grid", "vmax", "true"),
            ("grid", "nx", ".inf"),
            ("class", "a", ".nan"),
            ("class", "t0", ".nan"),
            ("datum", "amplitude", ".nan"),
            ("datum", "sigma", ".inf"),
            ("datum", "sigma", "-.inf"),
        ],
    )
    def test_non_finite_and_boolean_numbers_rejected(self, section, key, value):
        doc = yaml.safe_load(MINIMAL)
        doc.setdefault(section, {})[key] = yaml.safe_load(value)
        with pytest.raises(ConfigError) as exc:
            parse_config(yaml.safe_dump(doc))
        assert exc.value.key == f"{section}.{key}"

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("run", "out", ""),
            ("run", "mode", ""),
            ("run", "seed", ""),
            ("datum", "path", ""),
            ("datum", "sigma", ""),
            ("grid", "nx", ""),
            ("grid", "nx", '"128"'),
            ("grid", "vmax", '"6.0"'),
            ("class", "a", "'2.0'"),
            ("solver", "max_iterations", '"5"'),
            ("run", "seed", '"3"'),
        ],
    )
    def test_blank_keys_and_quoted_numbers_rejected(self, section, key, value):
        # A blank key is not the text "None", and a string is not a number.
        doc = yaml.safe_load(MINIMAL)
        if key == "path":
            doc["datum"] = {"family": "tabulated-grid"}
        doc.setdefault(section, {})[key] = yaml.safe_load(value)
        with pytest.raises(ConfigError) as exc:
            parse_config(yaml.safe_dump(doc))
        assert exc.value.key == f"{section}.{key}" and exc.value.key in str(exc.value)

    def test_exponent_without_a_point_is_a_number(self):
        # YAML 1.1 reads 1e-6 as a string; the parser reads it as YAML 1.2 does.
        cfg = parse_config(MINIMAL.replace("amplitude: 0.05", "amplitude: 5e-2") + "grid:\n  nx: 1E2\n")
        assert cfg.datum.amplitude == 0.05 and cfg.settings.nx == 100

    @pytest.mark.parametrize(
        "extra, key",
        [
            ("grid:\n  nV: 128\n", "grid.nV"),  # misspelt
            ("solver:\n  ode_substeps: 8\n", "solver.ode_substeps"),  # retired
            ("solver:\n  newton_tol: 1.0e-12\n", "solver.newton_tol"),  # retired
            ("solvr:\n  max_iterations: 5\n", "solvr"),  # unknown section
            ("run:\n  moed: exploratory\n", "run.moed"),
        ],
    )
    def test_unread_keys_refused(self, extra, key):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + extra)
        assert exc.value.key == key and key in str(exc.value)

    def test_keys_of_the_other_family_refused(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL.replace("  sigma: 1.0\n", "  sigma: 1.0\n  path: table.csv\n"))
        assert exc.value.key == "datum.path"

    def test_section_must_be_a_mapping(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + "grid: 128\n")
        assert exc.value.key == "grid"

    @pytest.mark.parametrize("name", ["exploratory.yaml", "theorem.yaml"])
    def test_shipped_configs_parse(self, name):
        path = Path(__file__).resolve().parent.parent / "configs" / name
        assert parse_config(path.read_text()).settings.nt == 100

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

    def test_sweep_stats_in_summary_and_manifest(self, finished_run):
        _, out, _ = finished_run
        manifest = json.loads((out / "manifest.json").read_text())
        sweeps = manifest["stats"]["sweeps"]
        assert len(sweeps) == manifest["iterations"]
        settings = parse_config(manifest["config"]).settings
        nodes = settings.nt + 1
        assert sweeps[0]["transported"] == 0 and sweeps[0]["reused"] == nodes
        # A gaussian-cosine datum is transported on the rows v >= 0 only, less
        # those read by free flight; at sigma 1 the 1e-10 tail lies past vmax 6,
        # so no row is.
        assert all(s["mesh_points"] == (settings.nv // 2 + 1 - s["free_rows"]) * settings.nx for s in sweeps)
        assert all(s["free_rows"] == 0 for s in sweeps)
        assert sweeps[0]["reach"] == 0.0 and all(s["reach"] > 0.0 for s in sweeps[1:])
        assert sweeps[0]["sampled_points"] == 0 and sweeps[0]["composed"] == 0
        assert all(s["transported"] + s["reused"] == nodes for s in sweeps)
        # The last slice before the quiet time is never composed.
        assert all(s["composed"] <= max(s["transported"] - 1, 0) for s in sweeps)
        # A composed slice's chain stays strictly inside its budget, and spends some of it.
        assert all((0.0 < s["spent"] < 1.0) == (s["composed"] > 0) for s in sweeps)
        assert all(s["spent"] == 0.0 for s in sweeps if s["composed"] == 0)
        assert all(s["push_s"] > 0.0 and s["update_s"] > 0.0 for s in sweeps)
        # Every slice ends within the tolerance.  Newton starts from the
        # linearized solve, which misses the mean shift mass/12 of Utilde by
        # its second-order term, about (mass/12)^2 / 2 = 9e-6 at this datum's
        # mass 0.05, far above the tolerance: so every slice here still takes
        # at least one step (a datum of mass 1e-6, as in theorem.yaml, takes none).
        assert all(s["newton_steps"] >= nodes and s["newton_at_floor"] == 0 for s in sweeps)
        assert all(s["newton_residual"] <= NEWTON_TOL for s in sweeps)
        summary = (out / "summary.txt").read_text().splitlines()
        for n, s in enumerate(sweeps, start=1):
            line = (
                f"  sweep {n}: quiet time {s['quiet_time']!r},"
                f" slices transported {s['transported']}, reused {s['reused']},"
                f" composed {s['composed']} within tolerance {s['tolerance']!r}"
                f" (spent {s['spent']!r}),"
                f" shared {s['shared']}, discarded {s['discarded']},"
                f" mesh points {s['mesh_points']} ({s['free_rows']} free rows, reach {s['reach']!r}),"
                f" sampled points {s['sampled_points']},"
                f" Newton steps {s['newton_steps']} (worst residual {s['newton_residual']!r},"
                f" {s['newton_at_floor']} at the round-off floor)"
            )
            assert line in summary

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

    def test_a_run_leaves_numpy_ma_unimported(self, finished_run, tmp_path):
        # numpy.ma, which np.unique imports, costs a process's first run about
        # 16 ms and 1.3 MB; nothing a run does needs it.  A fresh interpreter
        # sees the run's own imports.
        cfg, _, _ = finished_run
        script = (
            "import sys\n"
            "from vpme_scatter.cli import main\n"
            "assert 'numpy.ma' not in sys.modules\n"
            "status = main(['run', sys.argv[1], '--out', sys.argv[2]])\n"
            "sys.exit(status or ('numpy.ma' in sys.modules and 'the run imported numpy.ma'))\n"
        )
        src = str(Path(vpme_scatter.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", script, str(cfg), str(tmp_path / "fresh")], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr

    def test_theorem_mode_refuses_inadmissible_datum(self, finished_run, tmp_path, capsys):
        cfg, _, _ = finished_run
        code = main(["run", str(cfg), "--mode", "theorem", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "theorem-regime" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.yaml")]) == 1

    def test_certificate_in_summary_and_manifest(self, finished_run):
        _, out, _ = finished_run
        summary = (out / "summary.txt").read_text()
        section = summary[summary.index("certificate\n"):].splitlines()
        assert section[1] == "  envelope 16 a1 e^{-at}: pass"
        assert section[-1] == "  certificate: pass"
        cert = json.loads((out / "manifest.json").read_text())["certificate"]
        assert cert["passed"] is True and cert["failures"] == []
        assert set(cert["bounds"]) == {"utilde_inf", "dutilde_inf", "d2utilde_inf"}
        assert cert["norm_bound"] == 16.0 * 2.7

    def test_exploratory_mode_reports_a_failing_certificate(
        self, finished_run, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli, "decay_fit", _envelope_failing_decay_fit)
        cfg, _, _ = finished_run
        assert main(["run", str(cfg), "--out", str(tmp_path / "fail")]) == 0
        assert "certificate: fail" in capsys.readouterr().out
        cert = json.loads((tmp_path / "fail" / "manifest.json").read_text())["certificate"]
        assert cert["failures"] == ["envelope 16 a1 e^{-at}"]


def _envelope_failing_decay_fit(history, klass):
    return replace(diagnostics.decay_fit(history, klass), envelope_pass=False)


THEOREM_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "theorem.yaml"


class TestTheoremModeCertificate:
    def test_theorem_config_passes(self, tmp_path, capsys):
        assert main(["run", str(THEOREM_CONFIG), "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["certificate"]["passed"] is True
        assert manifest["contraction_pass"] is True
        assert capsys.readouterr().err == ""

    def test_failing_certificate_exits_1_and_names_the_guarantee(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli, "decay_fit", _envelope_failing_decay_fit)
        assert main(["run", str(THEOREM_CONFIG), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "certificate fails in theorem mode: envelope 16 a1 e^{-at}" in err
        # The tables are still written, and the manifest records the failure.
        for name in ("fields.csv", "density.csv", "norm_trace.csv", "summary.txt"):
            assert (tmp_path / name).is_file()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["certificate"]["passed"] is False
        assert manifest["envelope_pass"] is False


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
        # The window is printed beside the fit, in decay-report and in summary.txt.
        window = next(line for line in text.splitlines() if line.startswith("fitted window:"))
        assert window.startswith("fitted window: t in [")
        summary = (out / "summary.txt").read_text().splitlines()
        fit = summary[summary.index("decay fit") + 1]
        assert fit == "  " + window.removeprefix("fitted ")

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

    def test_decay_report_rejects_a_missing_column(self, finished_run, tmp_path, capsys):
        _, out, _ = finished_run
        (tmp_path / "manifest.json").write_bytes((out / "manifest.json").read_bytes())
        lines = (out / "fields.csv").read_text().splitlines()
        assert lines[0] == "t,x,Ebar,Etilde,E"
        cut = [",".join(line.split(",")[:3] + line.split(",")[4:]) for line in lines]
        (tmp_path / "fields.csv").write_text("\n".join(cut) + "\n")
        assert main(["decay-report", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path / 'fields.csv'}: missing column 'Etilde'\n"

    @pytest.mark.parametrize("edit", ["drop", "swap"])
    def test_decay_report_rejects_a_partial_lattice(self, finished_run, tmp_path, capsys, edit):
        # A row left out, or two rows of one time exchanged: the rows no
        # longer read as the (t, x) lattice the run wrote.
        _, out, _ = finished_run
        (tmp_path / "manifest.json").write_bytes((out / "manifest.json").read_bytes())
        lines = (out / "fields.csv").read_text().splitlines(keepends=True)
        if edit == "drop":
            del lines[7]
        else:
            lines[6], lines[7] = lines[7], lines[6]
        (tmp_path / "fields.csv").write_text("".join(lines))
        assert main(["decay-report", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'fields.csv'}: rows do not cover the (t, x) lattice")

    def test_decay_report_refuses_a_manifest_with_retired_keys(self, finished_run, tmp_path, capsys):
        # A run directory written while solver.newton_tol and solver.ode_substeps were settings.
        _, out, _ = finished_run
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["config"] = manifest["config"].replace(
            "solver:\n", "solver:\n  newton_tol: 1.0e-10\n  ode_substeps: 4\n"
        )
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        (tmp_path / "fields.csv").write_bytes((out / "fields.csv").read_bytes())
        assert main(["decay-report", str(tmp_path)]) == 1
        assert "unknown key solver.newton_tol" in capsys.readouterr().err

    def test_demo_instability(self, tmp_path, capsys):
        cfg = tmp_path / "demo.yaml"
        cfg.write_text(SMALL_RUN)
        out = tmp_path / "demo-out"
        code = main(["demo-instability", str(cfg), "--out", str(out)])
        assert code == 0
        text = (out / "instability.txt").read_text()
        assert "L2 gap ||f - mu|| t=" in text
        assert "weak gap" in text

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("datum:\n  family: gaussian-cosine\n")
        assert main(["run", str(cfg)]) == 1
        assert "configuration error" in capsys.readouterr().err
