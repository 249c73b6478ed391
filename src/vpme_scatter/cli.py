"""Command dispatch and bit-stable serialization of run artifacts.

Subcommands: ``validate`` (class-membership report), ``run`` (full scheme plus
diagnostics), ``demo-instability`` (the weak-instability construction), and
``decay-report`` (re-fit the decay envelope of a finished run directory).

``run`` appends the certificate of the paper's guarantees (diagnostics.certify)
to summary.txt and writes it under ``certificate`` in manifest.json; in theorem
mode a failing certificate is an error, in exploratory mode it is reported.
What each sweep did (its quiet time, slices transported and reused, slices
composed from the next slice's labels, the field tolerance they were
composed within and the largest share of it spent, phase points per
transported slice, the velocity rows read by free flight and the kick bound
that decided them, field points sampled)
goes to summary.txt and,
with the sweep's push and update wall times, under ``stats`` in
manifest.json; none of it goes into the tables, and no timing into
summary.txt.

Exit codes: 0 success/convergence, 2 iteration cap without convergence,
1 any error, including a failing certificate in theorem mode.  All tables use
full round-trip decimal precision with a fixed column order, so identical
configurations reproduce byte-identical files.
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
from .asymptotic import _distinct, _read_csv_columns, validate_class_membership
from .characteristics import FieldHistory
from .config import RunConfig, build_datum, parse_config, serialize_config
from .diagnostics import (
    certify,
    decay_fit,
    instability_report,
    lipschitz_estimate,
    weak_convergence_gap,
    weak_gap_sampling,
)
from .errors import ConfigError, ParameterError
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
    certificate: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)
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
    for n, sweep in enumerate(result.sweeps, start=1):
        lines.append(
            f"  sweep {n}: quiet time {_fmt(sweep.quiet_time)},"
            f" slices transported {sweep.transported}, reused {sweep.reused},"
            f" composed {sweep.composed} within tolerance {_fmt(sweep.tolerance)}"
            f" (spent {_fmt(sweep.spent)}),"
            f" shared {sweep.shared}, discarded {sweep.discarded},"
            f" mesh points {sweep.mesh_points} ({sweep.free_rows} free rows, reach {_fmt(sweep.reach)}),"
            f" sampled points {sweep.sampled_points},"
            f" Newton steps {sweep.newton_steps} (worst residual {_fmt(sweep.newton_residual)},"
            f" {sweep.newton_at_floor} at the round-off floor)"
        )
    decay = reports.get("decay")
    if decay is not None:
        lines.append("decay fit")
        if decay.degenerate:
            lines.append("  degenerate: field numerically zero (no fit)")
        else:
            lines.append(
                f"  window: t in [{_fmt(decay.fit_start)}, {_fmt(decay.fit_end)}]"
                f" ({decay.fitted_nodes} nodes)"
            )
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
    cert = reports.get("certificate")
    if cert is not None:
        lines.append("certificate")
        for name, holds, worst in cert.guarantees():
            value = "" if worst is None else f" (worst {_fmt(worst)})"
            lines.append(f"  {name}: {'pass' if holds else 'fail'}{value}")
        lines.append(f"  certificate: {'pass' if cert.passed else 'fail'}")
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

    t_phase = time.perf_counter()
    result = run_iteration(datum, config.settings, report)
    manifest.phase_seconds["iterate"] = time.perf_counter() - t_phase

    t_phase = time.perf_counter()
    history = result.field_history
    decay = decay_fit(history, config.klass)
    times, nv = weak_gap_sampling(history, config.settings.nv)
    weak = weak_convergence_gap(datum, history, times, vmax=result.vmax, nv=nv)
    lip = lipschitz_estimate(history)
    cert = certify(result, datum, decay)
    manifest.phase_seconds["diagnostics"] = time.perf_counter() - t_phase

    t_phase = time.perf_counter()
    reports = {"decay": decay, "weak": weak, "lipschitz": lip, "certificate": cert}
    emit_outputs(result, reports, out_dir)
    manifest.phase_seconds["emit"] = time.perf_counter() - t_phase

    manifest.converged = result.converged
    manifest.iterations = result.iterations
    manifest.final_delta = result.deltas[-1] if result.deltas else float("nan")
    manifest.final_norm = result.norms[-1] if result.norms else float("nan")
    manifest.decay_rate = decay.rate
    manifest.envelope_pass = decay.envelope_pass
    if cert.contraction is not None:
        manifest.contraction_pass = cert.contraction_ok
    manifest.certificate = {**asdict(cert), "passed": cert.passed, "failures": cert.failures}
    manifest.stats = {"sweeps": [asdict(sweep) for sweep in result.sweeps]}
    write_manifest(manifest, out_dir)

    print(f"run finished: converged={result.converged} iterations={result.iterations}")
    print(f"certificate: {'pass' if cert.passed else 'fail'}")
    if config.mode == "theorem" and not cert.passed:
        print(f"certificate fails in theorem mode: {'; '.join(cert.failures)}", file=sys.stderr)
        return 1
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
    lines = [f"class membership of mu(v)(1+cos 2 pi x): {'pass' if report.member else 'fail'}"]
    for t, gap in report.weak_report.l2_gaps:
        lines.append(f"L2 gap ||f - mu|| t={_fmt(t)}: {_fmt(gap)}")
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
    t, x, Ebar, Etilde, E = _read_csv_columns(fields_path, ("t", "x", "Ebar", "Etilde", "E"))
    times, nodes = _distinct(t), _distinct(x)
    shape = (times.size, nodes.size)
    if (
        t.size != times.size * nodes.size
        or np.any(t.reshape(shape) != times[:, None])
        or np.any(x.reshape(shape) != nodes)
    ):
        raise ParameterError(f"{fields_path}: rows do not cover the (t, x) lattice, t-major, x ascending")
    history = FieldHistory(
        times=times,
        grid=SpatialGrid(nodes.size),
        Ebar=Ebar.reshape(shape),
        Etilde=Etilde.reshape(shape),
    )
    if not np.allclose(history.E, E.reshape(shape)):
        print(f"{fields_path}: column E differs from Ebar + Etilde", file=sys.stderr)
        return 1
    report = decay_fit(history, config.klass)
    if report.degenerate:
        print("degenerate: field numerically zero at every node")
    else:
        print(
            f"fitted window: t in [{_fmt(report.fit_start)}, {_fmt(report.fit_end)}]"
            f" ({report.fitted_nodes} nodes)"
        )
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
