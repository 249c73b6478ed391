#!/usr/bin/env python3
"""Run the guaranteed-contraction configuration and print its certificate.

In this regime (a^2 >= (200 a2 + 3)(e^6 + 1)) `run` asserts the paper's
guarantees: contraction ratios <= 1/2, weighted norms <= 16 a1, the decay
envelope, the Utilde bounds, mass and the unit Boltzmann integral.  The
script exits with the run's status, which is 1 when the certificate fails.
"""

import json
import sys
from pathlib import Path

from vpme_scatter.cli import main

ROOT = Path(__file__).resolve().parent.parent


def run(out_dir: str = "out/theorem") -> int:
    config = ROOT / "configs" / "theorem.yaml"
    manifest_path = Path(out_dir) / "manifest.json"
    # The run writes its manifest last; drop an earlier run's so a run that
    # stops with an error prints no certificate.
    manifest_path.unlink(missing_ok=True)
    status = main(["run", str(config), "--out", out_dir])
    if manifest_path.exists():
        certificate = json.loads(manifest_path.read_text())["certificate"]
        print(json.dumps(certificate, indent=2, sort_keys=True))
    print(f"outputs in {out_dir}/")
    return status


if __name__ == "__main__":
    sys.exit(run(*sys.argv[1:]))
