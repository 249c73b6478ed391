"""Seeded inputs, jobs and correctness gates of the three benchmark workloads.

A job reads only what the benchmark generated from the seed: a YAML
configuration, a CSV table of f* for ``cli-tabulated``, and the density pairs
of the stability check.  It solves, certifies the solution and checks both
against the workload's gate.  Jobs run one at a time (a closed loop with one
client).

``lingering`` and ``cli-tabulated`` draw each job from a catalog of
CATALOG_SIZE entries so that every job has a reference field recorded at the
commit that defined the benchmark (``reference.json``, written by
``record_reference.py``); the seed picks the order in which a run visits the
catalog.  ``theorem-certify`` needs no reference, because its gate is the
paper's guarantees, so its parameters come from the seed directly.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from vpme_scatter import asymptotic, cli, config, diagnostics, poisson, scheme
from vpme_scatter.characteristics import FieldHistory
from vpme_scatter.errors import SolverDivergenceError

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

EXPLORATORY_CLASS = {"a": 2.0, "a1": 2.7, "a2": 0.1, "alpha": 0.5, "t0": 0.7}
THEOREM_CLASS = {"a": 45.0, "a1": 2.7, "a2": 0.01, "alpha": 0.5, "t0": 0.0}

CATALOG_SIZE = 64
# Stability pairs certified per job, drawn with the criterion-4 generator.
PAIRS_PER_JOB = 48
PAIR_NX = 1024
# Known defect (b): at nx=2048 the absolute 1e-10 Newton tolerance sits below
# the round-off floor of the 1/h^2 residual, so most pairs diverge.
DEFECT_PAIR_NX = 2048
DEFECT_PAIRS = 8

MASS_TOL = 1e-6
BOLTZMANN_TOL = 1e-8
# Largest |E - E_ref| over the fingerprint nodes, relative to max |E_ref|.
FINGERPRINT_RTOL = 1e-8

RUN_FILES = ("fields.csv", "density.csv", "norm_trace.csv", "summary.txt", "manifest.json")

# Stream tags keep the random draws of different workloads independent.
_TAGS = {"lingering": 1, "theorem-certify": 2, "cli-tabulated": 3}
_CATALOG = 0
_JOB = 1
_DEFECT = 2


@dataclass
class JobInput:
    """Everything one job reads; files live in the run's work directory."""

    index: int
    config_path: Path
    entry: int | None  # catalog entry, for workloads with a recorded reference
    params: dict
    pairs: list  # (rho1, rho2) density pairs at PAIR_NX


@dataclass
class JobRecord:
    """Timings, gate outcome and output digest of one job."""

    ok: bool
    problems: list[str]
    job_s: float
    solve_s: float = float("nan")
    certify_s: float = float("nan")
    run_s: float = float("nan")  # cli-tabulated: the `cli.main run` call
    rk4_span_frac: float = float("nan")
    emit_bytes: int = 0
    digest: str = ""  # hash of the solver outputs, for the traced/untraced comparison


@dataclass
class DefectOutcome:
    """Known-defect probes of one run: how many ran, hit the defect, or went wrong."""

    name: str
    attempted: int = 0
    known_failures: int = 0
    wrong: list[str] = field(default_factory=list)
    seconds: float = 0.0


@dataclass
class Certificate:
    bounds_ok: bool
    boltzmann: float
    mass_drift: float
    envelope_pass: bool
    stability: list[float]


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(list(key))


def criterion4_density(rng: np.random.Generator, nx: int) -> np.ndarray:
    """Order-one positive density with three random cosine modulations."""
    x = np.arange(nx) / nx
    rho = rng.uniform(0.2, 1.5) * np.ones(nx)
    for k in (1, 2, 3):
        rho = rho * (1.0 + rng.uniform(-0.25, 0.25) * np.cos(2 * np.pi * k * x + rng.uniform(0, 2 * np.pi)))
    return rho


def density_pairs(rng: np.random.Generator, count: int, nx: int) -> list:
    return [(criterion4_density(rng, nx), criterion4_density(rng, nx)) for _ in range(count)]


def _write_config(path: Path, doc: dict) -> Path:
    path.write_text(yaml.safe_dump(doc, sort_keys=True))
    return path


def fingerprint(E: np.ndarray) -> list[float]:
    """Field values on 5 evenly spaced time slices x 8 evenly spaced nodes."""
    rows = np.linspace(0, E.shape[0] - 1, 5).round().astype(int)
    cols = np.arange(0, E.shape[1], max(1, E.shape[1] // 8))
    return [float(v) for v in E[np.ix_(rows, cols)].ravel()]


_reference_cache: dict = {}


def load_reference() -> dict:
    if not _reference_cache:
        _reference_cache.update(json.loads(REFERENCE_PATH.read_text()))
    return _reference_cache


def check_reference(workload: str, inp: JobInput, E: np.ndarray) -> list[str]:
    ref = load_reference().get(workload, {}).get(str(inp.entry))
    if ref is None:
        return [f"no reference recorded for catalog entry {inp.entry}"]
    if ref["params"] != inp.params:
        return [f"catalog entry {inp.entry} differs from the recorded one"]
    got = np.asarray(fingerprint(E))
    want = np.asarray(ref["E"])
    if got.shape != want.shape:
        return [f"field fingerprint has shape {got.shape}, reference {want.shape}"]
    err = float(np.max(np.abs(got - want))) / max(float(np.max(np.abs(want))), 1e-300)
    if not err <= FINGERPRINT_RTOL:
        return [f"field differs from the reference by {err:.2e} (relative) > {FINGERPRINT_RTOL:g}"]
    return []


def certify(density, history: FieldHistory, klass, pairs, mass_ref: float | None) -> Certificate:
    """Check the paper's guarantees on a converged run.

    Bounds on Utilde and the Boltzmann integral on every slice, mass on every
    slice (against mass_ref, or against the first slice when it is None), the
    16 a1 e^{-at} envelope, and the stability ratio of every density pair.
    """
    grid = history.grid
    bounds_ok = True
    boltzmann = 0.0
    for rho in density.rho:
        s = poisson.make_field_slice(rho, grid)
        bounds_ok = poisson.verify_potential_bounds(s).all_ok and bounds_ok
        boltzmann = max(boltzmann, abs(float(np.mean(np.exp(s.Ubar + s.Utilde))) - 1.0))
    ref = float(density.mass[0]) if mass_ref is None else mass_ref
    mass_drift = float(np.max(np.abs(density.mass - ref)))
    envelope_pass = diagnostics.decay_fit(history, klass).envelope_pass
    pair_grid = poisson.SpatialGrid(PAIR_NX)
    stability = []
    for rho1, rho2 in pairs:
        U1, _ = poisson.solve_linear(rho1, pair_grid)
        U2, _ = poisson.solve_linear(rho2, pair_grid)
        stability.append(poisson.stability_ratio(U1, U2, pair_grid))
    return Certificate(bounds_ok, boltzmann, mass_drift, envelope_pass, stability)


def common_problems(cert: Certificate) -> list[str]:
    """Guarantees that hold in every regime: unit Boltzmann integral and the e^6 estimate."""
    problems = []
    if not cert.boltzmann <= BOLTZMANN_TOL:
        problems.append(f"|mean e^U - 1| = {cert.boltzmann:.2e} > {BOLTZMANN_TOL:g}")
    worst = max(cert.stability, default=0.0)
    if not worst <= poisson.E6:
        problems.append(f"stability ratio {worst:.3g} > e^6")
    return problems


def rk4_span_frac(history: FieldHistory) -> float:
    """Share of sum_i (T - t_i) that transport integrates by RK4 rather than free flight."""
    T = history.horizon
    tq = np.clip(history.quiet_time(), history.times, T)
    return float(np.sum(tq - history.times) / np.sum(T - history.times))


class Workload:
    """One workload: input generation from the seed, the job, and the known-defect probes."""

    name = ""

    def __init__(self, seed: int, work_dir: Path):
        if seed < 0:
            raise ValueError(f"seed must be nonnegative, got {seed}")
        self.seed = seed
        self.tag = _TAGS[self.name]
        self.work_dir = work_dir
        self.order = _rng(self.tag, _JOB, seed).permutation(CATALOG_SIZE)

    def make_input(self, index: int) -> JobInput:
        """Inputs of the run's index-th job: the catalog entry the seed puts there."""
        return self.entry_input(int(self.order[index % CATALOG_SIZE]), index)

    def entry_input(self, entry: int, index: int) -> JobInput:
        raise NotImplementedError

    def setup(self) -> JobInput:
        """Everything before the first job: its inputs, config parse, datum, admissibility."""
        inp = self.make_input(0)
        cfg = config.parse_config(inp.config_path.read_text())
        datum = config.build_datum(cfg)
        report = asymptotic.validate_class_membership(datum)
        if self.name == "theorem-certify" and not report.admissible:
            raise RuntimeError("generated theorem-regime datum is not admissible")
        return inp

    def run_job(self, inp: JobInput, out_dir: Path) -> JobRecord:
        raise NotImplementedError

    def probe_defects(self) -> DefectOutcome:
        """Cases of known defects, run after the measured loop; none by default."""
        return DefectOutcome("")

    def _pairs(self, index: int) -> list:
        return density_pairs(_rng(self.tag, _JOB, self.seed, index), PAIRS_PER_JOB, PAIR_NX)


class _ApiWorkload(Workload):
    """Gaussian-cosine data solved and certified through the Python API."""

    @staticmethod
    def solve(inp: JobInput):
        """Parse the job's config, build its datum and run the fixed-point iteration."""
        cfg = config.parse_config(inp.config_path.read_text())
        datum = config.build_datum(cfg)
        settings = cli._settings(cfg)
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            result = scheme.run_iteration(datum, settings)
        return datum, result, time.perf_counter() - start

    def run_job(self, inp: JobInput, out_dir: Path) -> JobRecord:
        t0 = time.perf_counter()
        datum, result, solve_s = self.solve(inp)
        t1 = time.perf_counter()
        cert = certify(
            result.density_history,
            result.field_history,
            datum.klass,
            inp.pairs,
            asymptotic.datum_mass(datum),
        )
        t2 = time.perf_counter()
        problems = self.gate(inp, result, cert, datum.klass)
        digest = hashlib.sha256()
        for arr in (result.field_history.Ebar, result.field_history.Etilde, result.density_history.rho):
            digest.update(np.ascontiguousarray(arr).tobytes())
        return JobRecord(
            ok=not problems,
            problems=problems,
            job_s=time.perf_counter() - t0,
            solve_s=solve_s,
            certify_s=t2 - t1,
            rk4_span_frac=rk4_span_frac(result.field_history),
            digest=digest.hexdigest(),
        )

    def gate(self, inp, result, cert, klass) -> list[str]:
        raise NotImplementedError


class Lingering(_ApiWorkload):
    """Slowly phase-mixing exploratory datum: transport over the whole span dominates."""

    name = "lingering"

    @staticmethod
    def catalog_params(entry: int) -> dict:
        rng = _rng(_TAGS["lingering"], _CATALOG, entry)
        return {"amplitude": float(rng.uniform(0.8, 1.2)), "sigma": float(rng.uniform(0.25, 0.35))}

    @staticmethod
    def config_doc(params: dict) -> dict:
        return {
            "datum": {"family": "gaussian-cosine", **params},
            "class": dict(EXPLORATORY_CLASS),
            "grid": {"nx": 64, "nv": 64, "nt": 30, "T": 3.0},
            "run": {"mode": "exploratory"},
        }

    def entry_input(self, entry: int, index: int) -> JobInput:
        params = self.catalog_params(entry)
        path = _write_config(self.work_dir / f"job{index}.yaml", self.config_doc(params))
        return JobInput(index, path, entry, params, self._pairs(index))

    def gate(self, inp, result, cert, klass) -> list[str]:
        problems = []
        if not result.converged:
            problems.append(f"not converged after {result.iterations} sweeps")
        if not cert.mass_drift <= MASS_TOL:
            problems.append(f"mass drift {cert.mass_drift:.2e} > {MASS_TOL:g}")
        problems += check_reference(self.name, inp, result.field_history.E)
        return problems + common_problems(cert)


class TheoremCertify(_ApiWorkload):
    """The guaranteed regime at the default grid, then a full certification."""

    name = "theorem-certify"

    def make_input(self, index: int) -> JobInput:
        rng = _rng(self.tag, _CATALOG, self.seed, index)
        # Over this range the field falls below the quiet threshold at the same
        # time node (RK4 over 11 % of the span), so every draw does the same work.
        params = {"amplitude": float(rng.uniform(0.5e-6, 1.0e-6)), "sigma": float(rng.uniform(16.6, 17.4))}
        doc = {
            "datum": {"family": "gaussian-cosine", **params},
            "class": dict(THEOREM_CLASS),
            "grid": {"nx": 256, "nv": 512, "nt": 100},
            "run": {"mode": "theorem"},
        }
        path = _write_config(self.work_dir / f"job{index}.yaml", doc)
        return JobInput(index, path, None, params, self._pairs(index))

    def gate(self, inp, result, cert, klass) -> list[str]:
        problems = []
        if not result.converged:
            problems.append(f"not converged after {result.iterations} sweeps")
        if any(not r <= 0.5 for r in result.ratios):
            problems.append(f"contraction ratio above 1/2: {max(result.ratios):.3g}")
        bound = 16.0 * klass.a1
        if any(not n <= bound for n in result.norms):
            problems.append(f"weighted norm above 16 a1: {max(result.norms):.3g}")
        if not cert.envelope_pass:
            problems.append("field leaves the 16 a1 e^{-at} envelope")
        if not cert.bounds_ok:
            problems.append("Utilde bounds fail on some slice")
        if not cert.mass_drift <= MASS_TOL:
            problems.append(f"mass drift {cert.mass_drift:.2e} > {MASS_TOL:g}")
        return problems + common_problems(cert)

    def probe_defects(self) -> DefectOutcome:
        out = DefectOutcome("stability pairs at nx=2048 (SolverDivergenceError)")
        grid = poisson.SpatialGrid(DEFECT_PAIR_NX)
        start = time.perf_counter()
        for rho1, rho2 in density_pairs(_rng(self.tag, _DEFECT, self.seed), DEFECT_PAIRS, DEFECT_PAIR_NX):
            out.attempted += 1
            U1, _ = poisson.solve_linear(rho1, grid)
            U2, _ = poisson.solve_linear(rho2, grid)
            try:
                ratio = poisson.stability_ratio(U1, U2, grid)
            except SolverDivergenceError:
                out.known_failures += 1
                continue
            if not ratio <= poisson.E6:
                out.wrong.append(f"stability ratio {ratio:.3g} > e^6 at nx={DEFECT_PAIR_NX}")
        out.seconds = time.perf_counter() - start
        return out


class CliTabulated(Workload):
    """`vpme-scatter run` on a tabulated f* read from CSV, with an explicit vmax."""

    name = "cli-tabulated"
    X_NODES = 64
    V_NODES = 129
    V_EDGE = 8.0

    @staticmethod
    def catalog_params(entry: int) -> dict:
        rng = _rng(_TAGS["cli-tabulated"], _CATALOG, entry)
        return {
            "c": float(rng.uniform(0.8, 1.2)),
            "sigma": float(rng.uniform(0.9, 1.1)),
            "eps": [float(rng.uniform(0.05, 0.25)) for _ in range(3)],
            "phi": [float(rng.uniform(0.0, 2.0 * math.pi)) for _ in range(3)],
        }

    @classmethod
    def table_csv(cls, params: dict) -> str:
        """f = c g_sigma(v) (1 + sum_k eps_k cos(2 pi k x + phi_k)) on the 64 x 129 lattice."""
        x = np.arange(cls.X_NODES) / cls.X_NODES
        v = np.linspace(-cls.V_EDGE, cls.V_EDGE, cls.V_NODES)
        s = params["sigma"]
        g = np.exp(-(v**2) / (2.0 * s * s)) / (s * math.sqrt(2.0 * math.pi))
        fx = np.ones_like(x)
        for k, (eps, phi) in enumerate(zip(params["eps"], params["phi"]), start=1):
            fx = fx + eps * np.cos(2.0 * np.pi * k * x + phi)
        f = params["c"] * fx[:, None] * g[None, :]
        lines = ["x,v,f"]
        for xi, row in zip(x.tolist(), f.tolist()):
            lines.extend(f"{xi!r},{vj!r},{fij!r}" for vj, fij in zip(v.tolist(), row))
        return "\n".join(lines) + "\n"

    @staticmethod
    def config_doc(table: Path, vmax: float | None = 6.0) -> dict:
        grid = {"nx": 64, "nv": 64, "nt": 20, "T": 3.0}
        if vmax is not None:
            grid["vmax"] = vmax
        return {
            "datum": {"family": "tabulated-grid", "path": str(table)},
            "class": dict(EXPLORATORY_CLASS),
            "grid": grid,
            "run": {"mode": "exploratory"},
        }

    def _table_path(self, entry: int) -> Path:
        return self.work_dir / f"table{entry}.csv"

    def entry_input(self, entry: int, index: int) -> JobInput:
        params = self.catalog_params(entry)
        table = self._table_path(entry)
        if not table.exists():
            table.write_text(self.table_csv(params))
        path = _write_config(self.work_dir / f"job{index}.yaml", self.config_doc(table))
        return JobInput(index, path, entry, params, self._pairs(index))

    @staticmethod
    def call_cli(config_path: Path, out_dir: Path) -> tuple[int, str]:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            status = cli.main(["run", str(config_path), "--out", str(out_dir)])
        return status, err.getvalue().strip()

    @staticmethod
    def _run_problems(status: int, stderr: str, out_dir: Path) -> tuple[list[str], dict]:
        if status != 0:
            return [f"exit status {status}: {stderr}"], {}
        missing = [f for f in RUN_FILES if not (out_dir / f).is_file()]
        if missing:
            return [f"missing output files {missing}"], {}
        manifest = json.loads((out_dir / "manifest.json").read_text())
        problems = []
        if not manifest.get("converged"):
            problems.append("manifest reports converged = false")
        if not manifest.get("envelope_pass"):
            problems.append("manifest reports envelope_pass = false")
        return problems, manifest

    def run_job(self, inp: JobInput, out_dir: Path) -> JobRecord:
        t0 = time.perf_counter()
        status, stderr = self.call_cli(inp.config_path, out_dir)
        t1 = time.perf_counter()
        problems, manifest = self._run_problems(status, stderr, out_dir)
        if problems:
            return JobRecord(ok=False, problems=problems, job_s=time.perf_counter() - t0, run_s=t1 - t0)
        density, history = read_run_tables(out_dir)
        cfg = config.parse_config(manifest["config"])
        cert = certify(density, history, cfg.klass, inp.pairs, None)
        t2 = time.perf_counter()
        problems = check_reference(self.name, inp, history.E) + common_problems(cert)
        digest = hashlib.sha256()
        for name in RUN_FILES[:4]:
            digest.update((out_dir / name).read_bytes())
        return JobRecord(
            ok=not problems,
            problems=problems,
            job_s=time.perf_counter() - t0,
            solve_s=manifest["phase_seconds"]["iterate"],
            certify_s=t2 - t1,
            run_s=t1 - t0,
            rk4_span_frac=rk4_span_frac(history),
            emit_bytes=sum((out_dir / f).stat().st_size for f in RUN_FILES),
            digest=digest.hexdigest(),
        )

    def probe_defects(self) -> DefectOutcome:
        """Known defect (a): vmax left implicit, as in configs/theorem.yaml.

        default_vmax returns the table edge and the second sweep pushes
        velocities off it, so the run stops with OutOfRangeError.
        """
        out = DefectOutcome("implicit vmax on a table (OutOfRangeError)", attempted=1)
        inp = self.make_input(0)
        doc = self.config_doc(self._table_path(inp.entry), vmax=None)
        path = _write_config(self.work_dir / "implicit-vmax.yaml", doc)
        out_dir = self.work_dir / "implicit-vmax-out"
        start = time.perf_counter()
        status, stderr = self.call_cli(path, out_dir)
        out.seconds = time.perf_counter() - start
        if status != 0 and "outside the tabulated grid" in stderr:
            out.known_failures = 1
        else:
            out.wrong.extend(self._run_problems(status, stderr, out_dir)[0])
        return out


def read_run_tables(out_dir: Path):
    """Density and field histories from a finished run's fields.csv and density.csv."""
    fields = np.loadtxt(out_dir / "fields.csv", delimiter=",", skiprows=1, ndmin=2)
    dens = np.loadtxt(out_dir / "density.csv", delimiter=",", skiprows=1, ndmin=2)
    times = np.unique(fields[:, 0])
    nx = fields.shape[0] // times.size
    grid = poisson.SpatialGrid(nx)
    history = FieldHistory(
        times=times,
        grid=grid,
        Ebar=fields[:, 2].reshape(times.size, nx),
        Etilde=fields[:, 3].reshape(times.size, nx),
    )
    rho = dens[:, 2].reshape(times.size, nx)
    return scheme.DensityHistory(times=times, rho=rho, mass=rho.mean(axis=1)), history


WORKLOADS = {w.name: w for w in (Lingering, TheoremCertify, CliTabulated)}
