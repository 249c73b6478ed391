#!/usr/bin/env python3
"""Demonstrate weak homogenization next to persistence in norm.

For f* = mu(v)(1 + cos 2 pi x) the transported solution relaxes weakly to
the homogeneous profile mu (every smooth test function sees a vanishing
gap), yet the L2 gap ||f(t) - mu|| on the same transported slices never
shrinks: the flow conserves the integral of f^2, so the gap stays at
||f* - mu|| while the cosine mixes in phase space.  This is the mechanism
behind stationary solutions that are unstable in the weak topology.
"""

import sys
from pathlib import Path

from vpme_scatter.cli import main

ROOT = Path(__file__).resolve().parent.parent


def run(out_dir: str = "out/instability") -> int:
    config = ROOT / "configs" / "exploratory.yaml"
    return main(["demo-instability", str(config), "--out", out_dir])


if __name__ == "__main__":
    sys.exit(run(*sys.argv[1:]))
