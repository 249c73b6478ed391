"""Command dispatch and bit-stable serialization of run artifacts.

Subcommands: ``validate`` (class-membership report), ``run`` (full scheme plus
diagnostics), ``demo-instability`` (the weak-instability construction), and
``decay-report`` (re-fit the decay envelope of a finished run directory).

Exit codes: 0 success/convergence, 2 iteration cap without convergence,
1 any error.  All tables use full round-trip decimal precision with a fixed
column order, so identical configurations reproduce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotic import validate_class_membership
from .characteristics import FieldHistory
from .config import RunConfig, build_datum, parse_config, serialize_config
from .diagnostics import decay_fit, instability_report, lipschitz_estimate, weak_convergence_gap
from .errors import ConfigError
from .poisson import SpatialGrid
from .scheme import RunSettings, SchemeResult, run_iteration

OUT_ROOT_ENV = "VPME_OUT_ROOT"


@dataclass
class RunManifest:
    """Provenance and headline metrics of one run; written exactly once, last."""

    config: str
    version: str = __version__
    phase_seconds: dict = field(default_factory=dict)
    converged: bool = False
    iterations: int = 0
    final_delta: float = float("nan")
    final_norm: float = float("nan")
    decay_rate: float = float("nan")
    envelope_pass: bool = False
    contraction_pass: bool | None = None
    seed: int = 0


def _fmt(x: float) -> str:
    return repr(float(x))


def _settings(config: RunConfig) -> RunSettings:
    """The numerics of a configured run."""
    return config.settings


def resolve_out_dir(config: RunConfig, override: str | None) -> Path:
    if override:
        return Path(override)
    if config.out_dir:
        return Path(config.out_dir)
    root = os.environ.get(OUT_ROOT_ENV, ".")
    return Path(root) / "vpme-run"


def emit_outputs(result: SchemeResult, reports: dict, out_dir: Path) -> list[Path]:
    """Write the field/density tables, the norm trace, and the report summary."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    history = result.field_history
    dens = result.density_history
    x = history.grid.nodes

    path = out_dir / "fields.csv"
    with open(path, "w") as fh:
        fh.write("t,x,Ebar,Etilde,E\n")
        for i, t in enumerate(history.times):
            for j in range(x.size):
                fh.write(
                    f"{_fmt(t)},{_fmt(x[j])},{_fmt(history.Ebar[i, j])},"
                    f"{_fmt(history.Etilde[i, j])},{_fmt(history.E[i, j])}\n"
                )
    written.append(path)

    path = out_dir / "density.csv"
    with open(path, "w") as fh:
        fh.write("t,x,rho\n")
        for i, t in enumerate(dens.times):
            for j in range(x.size):
                fh.write(f"{_fmt(t)},{_fmt(x[j])},{_fmt(dens.rho[i, j])}\n")
    written.append(path)

    path = out_dir / "norm_trace.csv"
    with open(path, "w") as fh:
        fh.write("n,norm,delta,ratio\n")
        for n, (norm, delta) in enumerate(zip(result.norms, result.deltas), start=1):
            ratio = result.ratios[n - 2] if n >= 2 and n - 2 < len(result.ratios) else float("nan")
            fh.write(f"{n},{_fmt(norm)},{_fmt(delta)},{_fmt(ratio)}\n")
    written.append(path)

    path = out_dir / "summary.txt"
    with open(path, "w") as fh:
        fh.write(render_summary(result, reports))
    written.append(path)
    return written


def render_summary(result: SchemeResult, reports: dict) -> str:
    lines = []
    lines.append("fixed-point iteration")
    lines.append(f"  iterations: {result.iterations}")
    lines.append(f"  converged: {result.converged}")
    lines.append(f"  tolerance: {_fmt(result.tolerance)}")
    if result.deltas:
        lines.append(f"  final delta: {_fmt(result.deltas[-1])}")
    for n, r in enumerate(result.ratios, start=1):
        lines.append(f"  contraction ratio {n + 1}/{n}: {_fmt(r)}")
    decay = reports.get("decay")
    if decay is not None:
        lines.append("decay fit")
        if decay.degenerate:
            lines.append("  degenerate: field numerically zero (no fit)")
        else:
            lines.append(f"  rate: {_fmt(decay.rate)}")
            lines.append(f"  prefactor: {_fmt(decay.prefactor)}")
            lines.append(f"  r_squared: {_fmt(decay.r_squared)}")
        lines.append(f"  envelope 16*a1*exp(-a t): {'pass' if decay.envelope_pass else 'fail'}")
    weak = reports.get("weak")
    if weak is not None:
        lines.append("weak convergence gaps")
        for tid, t, gap in weak.entries:
            lines.append(f"  {tid} t={_fmt(t)}: {_fmt(gap)}")
    if "lipschitz" in reports:
        lines.append(f"lipschitz estimate: {_fmt(reports['lipschitz'])}")
    return "\n".join(lines) + "\n"


def write_manifest(manifest: RunManifest, out_dir: Path) -> Path:
    path = out_dir / "manifest.json"
    with open(path, "w") as fh:
        json.dump(asdict(manifest), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def run_command(config: RunConfig, out_dir: Path) -> int:
    """Validate, iterate, diagnose, and serialize one run.  Returns the exit status."""
    manifest = RunManifest(config=serialize_config(config), seed=config.seed)
    t_start = time.perf_counter()
    datum = build_datum(config)
    report = validate_class_membership(datum)
    manifest.phase_seconds["validate"] = time.perf_counter() - t_start
    if config.mode == "theorem" and not report.admissible:
        print(
            "datum fails class membership / theorem-regime conditions; "
            "refusing to run in theorem mode",
            file=sys.stderr,
        )
        return 1

    t_phase = time.perf_counter()
    result = run_iteration(datum, config.settings, report)
    manifest.phase_seconds["iterate"] = time.perf_counter() - t_phase

    t_phase = time.perf_counter()
    history = result.field_history
    decay = decay_fit(history, config.klass)
    idx = np.unique(np.linspace(0, history.times.size - 1, 6).astype(int))
    weak = weak_convergence_gap(
        datum,
        history,
        [float(history.times[i]) for i in idx],
        vmax=result.vmax,
        nv=min(config.settings.nv, 512),
        substeps=config.settings.ode_substeps,
    )
    lip = lipschitz_estimate(history)
    manifest.phase_seconds["diagnostics"] = time.perf_counter() - t_phase

    t_phase = time.perf_counter()
    emit_outputs(result, {"decay": decay, "weak": weak, "lipschitz": lip}, out_dir)
    manifest.phase_seconds["emit"] = time.perf_counter() - t_phase

    manifest.converged = result.converged
    manifest.iterations = result.iterations
    manifest.final_delta = result.deltas[-1] if result.deltas else float("nan")
    manifest.final_norm = result.norms[-1] if result.norms else float("nan")
    manifest.decay_rate = decay.rate
    manifest.envelope_pass = decay.envelope_pass
    if result.ratios:
        manifest.contraction_pass = all(r <= 0.5 for r in result.ratios)
    write_manifest(manifest, out_dir)

    print(f"run finished: converged={result.converged} iterations={result.iterations}")
    if manifest.contraction_pass is not None:
        print(f"contraction <= 0.5: {'pass' if manifest.contraction_pass else 'fail'}")
    return 0 if result.converged else 2


def validate_command(config: RunConfig) -> int:
    datum = build_datum(config)
    report = validate_class_membership(datum)
    for name in (
        "nonnegative",
        "pointwise_tail",
        "fourier_envelope",
        "series_bound",
        "t0_admissible",
        "theorem_regime",
    ):
        print(f"{name}: {'pass' if getattr(report, name) else 'fail'}")
    print(f"max |f*|(1+v^4): {_fmt(report.max_tail_product)}")
    print(f"max log envelope excess: {_fmt(report.max_envelope_excess)}")
    return 0 if report.member else 1


def demo_instability_command(config: RunConfig, out_dir: Path) -> int:
    if config.datum.family != "gaussian-cosine":
        print("demo-instability needs a gaussian-cosine mu specification", file=sys.stderr)
        return 1
    report = instability_report(
        config.datum.amplitude,
        config.datum.sigma,
        config.klass,
        config.settings,
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [
        f"class membership of mu(v)(1+cos 2 pi x): {'pass' if report.member else 'fail'}",
        f"pointwise probe gap at v={_fmt(report.probe_velocity)}: {_fmt(report.probe_gap)}",
        f"probe reference mu(v*): {_fmt(report.probe_reference)}",
    ]
    for tid, t, gap in report.weak_report.entries:
        lines.append(f"weak gap {tid} t={_fmt(t)}: {_fmt(gap)}")
    lines.append(report.narrative)
    text = "\n".join(lines) + "\n"
    (out_dir / "instability.txt").write_text(text)
    print(text, end="")
    return 0


def decay_report_command(run_dir: Path) -> int:
    manifest_path = run_dir / "manifest.json"
    fields_path = run_dir / "fields.csv"
    if not manifest_path.exists() or not fields_path.exists():
        print(f"{run_dir} is not a finished run directory", file=sys.stderr)
        return 1
    manifest = json.loads(manifest_path.read_text())
    config = parse_config(manifest["config"])
    raw = np.genfromtxt(fields_path, delimiter=",", names=True)
    times = np.unique(raw["t"])
    nx = raw.size // times.size
    E = raw["E"].reshape(times.size, nx)
    history = FieldHistory(
        times=times,
        grid=SpatialGrid(nx),
        Ebar=raw["Ebar"].reshape(times.size, nx),
        Etilde=raw["Etilde"].reshape(times.size, nx),
    )
    if not np.allclose(history.E, E):
        print(f"{fields_path}: column E differs from Ebar + Etilde", file=sys.stderr)
        return 1
    report = decay_fit(history, config.klass)
    if report.degenerate:
        print("degenerate: field numerically zero at every node")
    else:
        print(f"fitted rate: {_fmt(report.rate)}")
        print(f"fitted prefactor: {_fmt(report.prefactor)}")
        print(f"r_squared: {_fmt(report.r_squared)}")
    print(f"envelope 16*a1*exp(-a t): {'pass' if report.envelope_pass else 'fail'}")
    return 0


def _load_config(path: str, args) -> RunConfig:
    text = Path(path).read_text()
    config = parse_config(text)
    updates = {}
    if getattr(args, "mode", None):
        updates["settings"] = replace(config.settings, exploratory=args.mode == "exploratory")
    if getattr(args, "out", None):
        updates["out_dir"] = args.out
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    return replace(config, **updates)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="vpme-scatter",
        description="Backward Vlasov-Poisson (massless electrons) solver and verifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("validate", "run", "demo-instability"):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to the YAML configuration")
        p.add_argument("--mode", choices=["theorem", "exploratory"])
        p.add_argument("--out")
        p.add_argument("--seed", type=int)

    p = sub.add_parser("decay-report")
    p.add_argument("run_dir", help="directory of a finished run")

    args = parser.parse_args(argv)
    try:
        if args.command == "decay-report":
            return decay_report_command(Path(args.run_dir))
        config = _load_config(args.config, args)
        if args.command == "validate":
            return validate_command(config)
        out_dir = resolve_out_dir(config, args.out)
        if args.command == "run":
            return run_command(config, out_dir)
        return demo_instability_command(config, out_dir)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # any module error -> status 1 with diagnostic text
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
