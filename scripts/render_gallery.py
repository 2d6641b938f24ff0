#!/usr/bin/env python3
"""Render SVGs for a gallery of canonical states into an output directory.

Usage: python scripts/render_gallery.py [outdir]   (default: out/)
"""

import sys
from pathlib import Path

from qubit_spheres.gates import TrajectoryStep, parse_circuit_file, run
from qubit_spheres.render import render_to_file
from qubit_spheres.state import TwoQubitState

ROOT = Path(__file__).resolve().parent.parent


def main():
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out")
    outdir.mkdir(parents=True, exist_ok=True)

    for label in ("00", "01", "10", "11"):
        render_to_file(outdir / f"basis_{label}.svg",
                       TrajectoryStep(0, None, TwoQubitState.basis(label)),
                       title=f"basis |{label}>")
    for name in ("phi+", "phi-", "psi+", "psi-"):
        fname = name.replace("+", "_plus").replace("-", "_minus")
        render_to_file(outdir / f"bell_{fname}.svg",
                       TrajectoryStep(0, None, TwoQubitState.bell(name)),
                       title=f"bell {name}")
    for circ in sorted((ROOT / "circuits").glob("*.circ")):
        circuit = parse_circuit_file(circ)
        render_to_file(outdir / f"circuit_{circ.stem}.svg", run(circuit)[-1],
                       title="circuit: " + "; ".join(g.describe() for g in circuit.gates))
    print(f"wrote {len(list(outdir.glob('*.svg')))} files to {outdir}/")


if __name__ == "__main__":
    main()
