#!/usr/bin/env python3
"""Trace the bundled demo circuits and print the sphere coordinates per step.

Usage: python scripts/circuit_walkthrough.py [circuit-file ...]
Defaults to the four partial-entangler variants in circuits/.
"""

import math
import sys
from pathlib import Path

from qubit_spheres.gates import parse_circuit_file, run
from qubit_spheres.state import coherence_d, reduced_density

ROOT = Path(__file__).resolve().parent.parent
DEFAULTS = [
    ROOT / "circuits" / "entangle_60_70.circ",
    ROOT / "circuits" / "entangle_60_70_y90.circ",
    ROOT / "circuits" / "entangle_60_70_z90.circ",
    ROOT / "circuits" / "entangle_60_70_xm90.circ",
]


def deg(x):
    return math.degrees(x)


def show(path):
    circuit = parse_circuit_file(path)
    print(f"=== {path}")
    print(f"    gates: {'; '.join(g.describe() for g in circuit.gates)}")
    header = (f"{'step':<5}{'gate':<12}{'c':>9}  "
              f"{'BASE(A) x1,b,x0':>28}  {'chi_A':>7} {'x4_A':>8}  {'d_A':>7} {'d_B':>7}")
    print(header)
    for step in run(circuit):
        _, base, ent, _ = step.spheres_a
        d_a, d_b = (coherence_d(reduced_density(step.state, q)) for q in "AB")
        coords = f"({base.x1:+.4f},{base.b:+.4f},{base.x0:+.4f})"
        print(f"{step.index:<5}{step.description:<12}{step.concurrence:9.6f}  "
              f"{coords:>28}  {deg(ent.chi):7.2f} {ent.x4:+8.4f}  "
              f"{d_a:7.4f} {d_b:7.4f}")
    print()


def main():
    paths = [Path(p) for p in sys.argv[1:]] or DEFAULTS
    for path in paths:
        show(path)


if __name__ == "__main__":
    main()
