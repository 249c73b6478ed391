"""Spans around the package's layer functions, and the per-layer metrics built from them.

The tracer replaces each layer function at the attribute where its callers
look it up (a module global or a class attribute) with a wrapper that records
a span: name, start, end, parent span, job id, the number of points handled
and whether the call raised.  Spans stay in memory until ``write``.  Nothing
in the package changes, so traced results are bit-identical to untraced ones.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from vpme_scatter import asymptotic, cli, config, diagnostics, poisson, scheme
from vpme_scatter.characteristics import FieldHistory


def _points(position: int):
    return lambda args, kwargs: int(np.size(args[position]))


# (owner, attribute, span name, points extractor).  A function bound under
# several names is wrapped at each of them, all with the same span name.
LAYER_FUNCTIONS = [
    (FieldHistory, "sample", "characteristics.sample", _points(2)),
    (scheme, "transport_to_horizon", "characteristics.transport", _points(2)),
    (diagnostics, "transport_to_horizon", "characteristics.transport", _points(2)),
    (scheme, "eval_f_star", "asymptotic.eval", _points(1)),
    (diagnostics, "eval_f_star", "asymptotic.eval", _points(1)),
    (asymptotic, "fourier_f_star", "asymptotic.fourier", None),
    (asymptotic, "validate_class_membership", "asymptotic.validate", None),
    (scheme, "validate_class_membership", "asymptotic.validate", None),
    (cli, "validate_class_membership", "asymptotic.validate", None),
    (config, "load_tabulated_grid", "asymptotic.load_grid", None),
    (scheme, "run_iteration", "scheme.run_iteration", None),
    (cli, "run_iteration", "scheme.run_iteration", None),
    (scheme, "push_density", "scheme.push_density", None),
    (scheme, "field_update", "scheme.field_update", None),
    (scheme, "make_field_slice", "poisson.slice", None),
    (poisson, "make_field_slice", "poisson.slice", None),
    (poisson, "solve_linear", "poisson.linear", None),
    (poisson, "solve_nonlinear", "poisson.nonlinear", None),
    (poisson, "solve_cyclic_tridiagonal", "poisson.tridiag", None),
    (poisson, "stability_ratio", "poisson.stability", None),
    (diagnostics, "decay_fit", "diagnostics.decay_fit", None),
    (cli, "decay_fit", "diagnostics.decay_fit", None),
    (cli, "weak_convergence_gap", "diagnostics.weak_gap", None),
    (cli, "lipschitz_estimate", "diagnostics.lipschitz", None),
    (config, "parse_config", "config.parse", None),
    (cli, "parse_config", "config.parse", None),
    (cli, "run_command", "cli.run", None),
    (cli, "emit_outputs", "cli.emit", None),
    (cli, "write_manifest", "cli.emit", None),
]


# Per-layer metrics of layers that only cli-tabulated runs.  They read 0 on
# the other workloads, so the text summary prints them and the JSON does not.
TEXT_ONLY = {
    "cli.run_s": "s",
    "cli.emit_s": "s",
    "cli.emit_bytes": "B",
    "diagnostics.weak_gap_s": "s",
    "diagnostics.lipschitz_s": "s",
    "asymptotic.load_grid_s": "s",
    "asymptotic.run_share": "frac",
}


class Tracer:
    """In-memory span recorder for one process; single-threaded."""

    def __init__(self, extra: list[tuple] = ()):
        self.functions = LAYER_FUNCTIONS + list(extra)
        # name, start, end, parent index (-1 for none), job id, points, raised
        self.spans: list[tuple] = []
        self.job = ""
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def _open(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(())
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx, parent, name, start, points, raised):
        self._stack.pop()
        self.spans[idx] = (name, start, time.perf_counter(), parent, self.job, points, raised)

    @contextlib.contextmanager
    def span(self, name: str):
        idx, parent = self._open()
        start = time.perf_counter()
        raised = False
        try:
            yield
        except BaseException:
            raised = True
            raise
        finally:
            self._close(idx, parent, name, start, 0, raised)

    def _wrap(self, fn, name, points):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, parent = self._open()
            n = points(args, kwargs) if points is not None else 0
            start = time.perf_counter()
            raised = False
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                self._close(idx, parent, name, start, n, raised)

        return traced

    def install(self):
        for owner, attr, name, points in self.functions:
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, name, points))
            self._installed.append((owner, attr, original))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def active(self, job: str):
        """Trace everything inside the block under the given job id."""
        self.job = job
        self.install()
        try:
            yield
        finally:
            self.uninstall()
            self.job = ""

    def write(self, path: Path):
        """All spans as CSV, durations in seconds from the first span's start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = min((s[1] for s in self.spans), default=0.0)
        lines = ["index,name,start_s,end_s,parent,job,points,raised"]
        for i, (name, start, end, parent, job, points, raised) in enumerate(self.spans):
            lines.append(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent},{job},{points},{int(raised)}")
        path.write_text("\n".join(lines) + "\n")


class JobSpans:
    """The spans of one job: per-name totals, self time and layer coverage."""

    def __init__(self, spans: list[tuple], indices: list[int]):
        self.spans = spans
        self.indices = indices
        self.children: dict[int, list[int]] = defaultdict(list)
        child_time: dict[int, float] = defaultdict(float)
        for i in indices:
            parent = spans[i][3]
            self.children[parent].append(i)
            child_time[parent] += self.duration(i)
        # name -> [inclusive time, self time, calls, points, calls that raised]
        self.totals: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0, 0, 0])
        for i in indices:
            name, _, _, _, _, points, raised = spans[i]
            t = self.totals[name]
            t[0] += self.duration(i)
            t[1] += self.duration(i) - child_time[i]
            t[2] += 1
            t[3] += points
            t[4] += int(raised)

    def duration(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def inclusive(self, name: str) -> float:
        return self.totals[name][0] if name in self.totals else 0.0

    def self_time(self, name: str) -> float:
        return self.totals[name][1] if name in self.totals else 0.0

    def count(self, name: str) -> int:
        return self.totals[name][2] if name in self.totals else 0

    def points(self, name: str) -> int:
        return self.totals[name][3] if name in self.totals else 0

    def raised(self, name: str) -> int:
        return self.totals[name][4] if name in self.totals else 0

    def coverage(self, root: str, layer: str) -> float:
        """Share of the root spans' time spent inside the outermost spans of a layer."""
        covered = 0.0
        total = 0.0
        for i in self.indices:
            if self.spans[i][0] != root:
                continue
            total += self.duration(i)
            stack = list(self.children[i])
            while stack:
                j = stack.pop()
                if self.spans[j][0].split(".")[0] == layer:
                    covered += self.duration(j)
                else:
                    stack.extend(self.children[j])
        return covered / total if total > 0 else 0.0


def job_layer_metrics(js: JobSpans, record) -> dict[str, float]:
    """Per-layer metrics of one traced job."""
    sample_s = js.self_time("characteristics.sample")
    sample_points = js.points("characteristics.sample")
    sweeps = js.count("scheme.push_density")
    nonlinear = js.count("poisson.nonlinear")
    newton = js.count("poisson.tridiag")
    return {
        "characteristics.sample_s": sample_s,
        "characteristics.transport_s": js.self_time("characteristics.transport"),
        "characteristics.sample_calls": js.count("characteristics.sample"),
        "characteristics.points_per_sample": sample_points / max(1, js.count("characteristics.sample")),
        "characteristics.ns_per_point_sample": 1e9 * sample_s / max(1, sample_points),
        # Computed, not measured: one float64 read (x) and one written (E) per point.
        "characteristics.bytes_computed": 16 * sample_points,
        "characteristics.rk4_span_frac": record.rk4_span_frac,
        "characteristics.solve_share": js.coverage("scheme.run_iteration", "characteristics"),
        "scheme.iterations": sweeps,
        "scheme.push_density_s": js.inclusive("scheme.push_density"),
        "scheme.field_update_s": js.inclusive("scheme.field_update"),
        "scheme.sweep_s": (js.inclusive("scheme.push_density") + js.inclusive("scheme.field_update")) / max(1, sweeps),
        "poisson.slices": js.count("poisson.slice"),
        "poisson.newton_steps": newton,
        "poisson.newton_steps_per_solve": newton / max(1, nonlinear),
        "poisson.tridiag_s": js.self_time("poisson.tridiag"),
        "poisson.nonlinear_s": js.self_time("poisson.nonlinear"),
        "poisson.linear_s": js.self_time("poisson.linear"),
        "poisson.stability_s": js.inclusive("poisson.stability"),
        "poisson.certify_share": js.coverage("bench.certify", "poisson"),
        "asymptotic.validate_calls": js.count("asymptotic.validate"),
        "asymptotic.fourier_calls": js.count("asymptotic.fourier"),
        "asymptotic.validate_s": js.inclusive("asymptotic.validate"),
        "asymptotic.eval_s": js.self_time("asymptotic.eval"),
        "asymptotic.eval_points": js.points("asymptotic.eval"),
        "asymptotic.job_share": js.coverage("bench.job", "asymptotic"),
        "diagnostics.decay_fit_s": js.inclusive("diagnostics.decay_fit"),
        "config.parse_s": js.inclusive("config.parse"),
        # Layers that only cli-tabulated runs (TEXT_ONLY).
        "cli.run_s": js.inclusive("cli.run"),
        "cli.emit_s": js.inclusive("cli.emit"),
        "cli.emit_bytes": record.emit_bytes,
        "diagnostics.weak_gap_s": js.inclusive("diagnostics.weak_gap"),
        "diagnostics.lipschitz_s": js.inclusive("diagnostics.lipschitz"),
        "asymptotic.load_grid_s": js.inclusive("asymptotic.load_grid"),
        "asymptotic.run_share": js.coverage("cli.run", "asymptotic"),
    }


def layer_metrics(tracer: Tracer, records: dict[str, object]) -> dict[str, float]:
    """Median over traced jobs of each per-job metric, plus run-wide failure counts."""
    by_job: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(tracer.spans):
        by_job[s[4]].append(i)
    per_job = [job_layer_metrics(JobSpans(tracer.spans, by_job[job]), rec) for job, rec in records.items()]
    out = {name: statistics.median(m[name] for m in per_job) for name in per_job[0]} if per_job else {}
    everything = JobSpans(tracer.spans, list(range(len(tracer.spans))))
    out["poisson.failed_solves"] = everything.raised("poisson.nonlinear")
    return out
