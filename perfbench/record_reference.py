#!/usr/bin/env python3
"""Record the reference fields that the lingering and cli-tabulated gates compare against.

    python3 perfbench/record_reference.py

Solves every catalog entry of both workloads at the current commit (two
worker processes) and rewrites ``perfbench/reference.json`` with each entry's
parameters, sweep count and field fingerprint.  Re-record only when a change
is meant to alter the computed field, and say so in the change.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import tempfile
from pathlib import Path

import run

TOLERANCE_NOTE = (
    "E on 5 evenly spaced time slices x 8 evenly spaced nodes; a job passes when "
    "max |E - E_ref| <= FINGERPRINT_RTOL * max |E_ref| over these nodes"
)


def record(task: tuple[str, int]) -> tuple[str, int, dict]:
    name, entry = task
    run.bootstrap()
    import workloads

    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as tmp:
        wd = Path(tmp)
        workload = workloads.WORKLOADS[name](0, wd)
        inp = workload.entry_input(entry, 0)
        if name == "lingering":
            _, result, _ = workload.solve(inp)
            E, iterations = result.field_history.E, result.iterations
        else:
            status, stderr = workload.call_cli(inp.config_path, wd / "out")
            if status != 0:
                raise RuntimeError(f"{name} entry {entry}: exit status {status}: {stderr}")
            E = workloads.read_run_tables(wd / "out")[1].E
            iterations = json.loads((wd / "out" / "manifest.json").read_text())["iterations"]
        return name, entry, {"params": inp.params, "iterations": iterations, "E": workloads.fingerprint(E)}


def main() -> int:
    run.bootstrap()
    import workloads

    run.WORK_ROOT.mkdir(exist_ok=True)
    tasks = [(name, entry) for name in ("lingering", "cli-tabulated") for entry in range(workloads.CATALOG_SIZE)]
    reference = {"fingerprint": TOLERANCE_NOTE, "lingering": {}, "cli-tabulated": {}}
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(min(2, len(os.sched_getaffinity(0)))) as pool:
        for name, entry, value in pool.imap_unordered(record, tasks):
            reference[name][str(entry)] = value
            print(f"{name} {entry}: {value['iterations']} sweeps", flush=True)
    write_reference(reference, workloads.REFERENCE_PATH)
    return 0


def write_reference(reference: dict, path: Path):
    """One catalog entry per line, entries in catalog order."""
    blocks = []
    for key, value in reference.items():
        if isinstance(value, dict):
            rows = sorted(value.items(), key=lambda kv: int(kv[0]))
            body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in rows)
            blocks.append(f" {json.dumps(key)}: {{\n{body}\n }}")
        else:
            blocks.append(f" {json.dumps(key)}: {json.dumps(value)}")
    path.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    sys.exit(main())
