"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines on stdout.  ``test_invariant_suite`` runs every ``verify`` invariant
(the same registry as ``qubit-spheres verify``).  Expected values marked
"oracle" below were computed with the brute-force partial-trace/determinant
oracles, independent of the sphere-map code path.
"""

import math
import re

import numpy as np
import pytest

from conftest import DEG, GOLDEN_DIR, POOL_SEED, REPO_ROOT, X4_60_70, random_product_state
from qubit_spheres.gates import Circuit, Gate, bloch_rotation, rotation, run
from qubit_spheres.hopf import Assignment, sphere_set
from qubit_spheres.jsonfmt import dumps
from qubit_spheres.state import TwoQubitState
from qubit_spheres.verify import DEFAULT_SAMPLES, DEFAULT_SEED, ENTRIES, run_suite

# Oracle-derived constants (partial trace / determinant form, frozen).
PHI_BEFORE_DEG = -90.0           # base azimuth after the entangler
PHI_AFTER_Z90_DEG = 35.0         # base azimuth after appending rz A 90
PHI_AFTER_XM90_DEG = 90.0        # base azimuth after appending rx A -90
X4_AFTER_XM90 = 0.5              # exactly cos(60 deg) by the oracle


def report(criterion: int, description: str, worst: float, tolerance: float):
    status = "PASS" if worst <= tolerance else "FAIL"
    print(f"[{status}] criterion {criterion:2d}: {description}: "
          f"max error {worst:.3e} (tolerance {tolerance:g})")
    assert worst <= tolerance, f"criterion {criterion}: {worst!r} > {tolerance!r}"


def entangler(eta_deg: float, omega_deg: float, extra: Gate | None = None) -> Circuit:
    gates = [Gate(kind="rx", target="A", angle=eta_deg * DEG),
             Gate(kind="cry", control="A", target="B", angle=omega_deg * DEG)]
    if extra is not None:
        gates.append(extra)
    return Circuit(gates=tuple(gates))


def test_invariant_suite():
    suite = run_suite(DEFAULT_SEED, DEFAULT_SAMPLES)
    for r in suite.results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: "
              f"max error {r.max_error:.3e} (threshold {r.threshold:g})")
    failed = [r.name for r in suite.results if not r.passed]
    assert not failed, f"invariants failed: {', '.join(failed)}"
    # The whole report, every max_error included, as `verify --seed 42` prints it.
    golden = (GOLDEN_DIR / "verify_seed42.json").read_text(encoding="utf-8")
    assert dumps(suite.to_dict()) == golden

    # The second pool seed: the state_pool fixture's 10^4 states.
    second = run_suite(POOL_SEED, DEFAULT_SAMPLES)
    failed = [r.name for r in second.results if not r.passed]
    assert not failed, f"invariants failed on seed {POOL_SEED}: {', '.join(failed)}"


def test_readme_invariant_table_is_the_report():
    # Its names, order and thresholds are verify.ENTRIES'; "1 (normalized)" reads as 1.
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)` \| .* \| ([^|]+) \|$", readme, re.M)
    assert [(name, float(t.split()[0])) for name, t in rows] == list(ENTRIES.items())


def test_criterion_2_entangled_state_reproduction():
    steps = run(entangler(60, 70))
    final = steps[-1]
    err_c = abs(final.concurrence - 0.496732)
    report(2, "entangler(60,70) concurrence vs 0.496732", err_c, 1e-6)

    base = final.spheres_a.base
    free = bloch_rotation(rotation("x", 60 * DEG)) @ np.array([0.0, 0.0, 1.0])
    worst = max(abs(base.x1 - free[0]), abs(base.b - free[1]), abs(base.x0 - free[2]))
    report(2, "BASE(A) equals the free Bloch image of rx(60)", worst, 1e-9)


def test_criterion_3_local_rotation_locality():
    before = run(entangler(60, 70))[-1]
    after = run(entangler(60, 70, Gate(kind="ry", target="A", angle=90 * DEG)))[-1]

    report(3, "ry A 90 leaves the concurrence unchanged",
           abs(after.concurrence - before.concurrence), 1e-10)

    b0, b1 = before.spheres_b, after.spheres_b
    worst = 0.0
    for name in ("theta", "phi", "x1", "b", "x0"):
        worst = max(worst, abs(getattr(b1.base, name) - getattr(b0.base, name)))
    for ent0, ent1 in ((b0.ent, b1.ent), (before.spheres_a.ent, after.spheres_a.ent)):
        for name in ("chi", "xi", "c", "x2", "x3", "x4"):
            worst = max(worst, abs(getattr(ent1, name) - getattr(ent0, name)))
    report(3, "BASE(B)/ENTANGLEMENT(B)/ENTANGLEMENT(A) blocks unchanged", worst, 1e-11)

    want = bloch_rotation(rotation("y", 90 * DEG)) @ np.array(b0.fiber.bloch)
    worst = float(np.max(np.abs(np.array(b1.fiber.bloch) - want)))
    report(3, "FIBER(A) Bloch point rotated by exactly ry(90)", worst, 1e-9)


def test_criterion_4_base_changing_rotations():
    base_steps = run(entangler(60, 70))
    phi0 = math.degrees(base_steps[-1].spheres_a.base.phi)
    report(4, "base azimuth after entangler vs oracle -90 deg",
           abs(phi0 - PHI_BEFORE_DEG), 1e-9)

    after_z = run(entangler(60, 70, Gate(kind="rz", target="A", angle=90 * DEG)))[-1]
    ent_z = after_z.spheres_a.ent
    report(4, "rz A 90 drives x4 to zero", abs(ent_z.x4), 1e-9)
    report(4, "rz A 90 keeps concurrence at 0.496732",
           abs(after_z.concurrence - 0.496732), 1e-6)
    # x4 = 0 sits exactly on the b-sign tie, so the rounding residue of x4
    # selects between the equivalent (b,t) and (-b,-t) gauges: only |phi|
    # is pinned here, along with the sign-definite x1.
    phi_z = math.degrees(after_z.spheres_a.base.phi)
    report(4, "base azimuth magnitude after rz A 90 vs oracle 35 deg",
           abs(abs(phi_z) - PHI_AFTER_Z90_DEG), 1e-9)
    report(4, "base x1 after rz A 90 vs oracle sin(60)cos(35)",
           abs(after_z.spheres_a.base.x1 - abs(X4_60_70)), 1e-9)

    after_x = run(entangler(60, 70, Gate(kind="rx", target="A", angle=-90 * DEG)))[-1]
    ent_x = after_x.spheres_a.ent
    report(4, "rx A -90 keeps concurrence at 0.496732",
           abs(after_x.concurrence - 0.496732), 1e-6)
    # Stated target 0.50002; the partial-trace oracle gives exactly cos(60 deg).
    report(4, "rx A -90 gives |x4| = 0.50002", abs(abs(ent_x.x4) - 0.50002), 1e-4)
    assert abs(ent_x.x4) == pytest.approx(X4_AFTER_XM90, abs=1e-12)
    phi_x = math.degrees(after_x.spheres_a.base.phi)
    report(4, "base azimuth after rx A -90 vs oracle +90 deg",
           abs(phi_x - PHI_AFTER_XM90_DEG), 1e-9)


def test_criterion_11_separability_and_mes_endpoints():
    rng = np.random.default_rng(99)
    worst_c = worst_chi = 0.0
    for _ in range(1000):
        s = random_product_state(rng)
        for a in Assignment:
            ss = sphere_set(s, a)
            worst_c = max(worst_c, ss.ent.c)
            worst_chi = max(worst_chi, ss.ent.chi)
    report(11, "product states: concurrence is zero", worst_c, 1e-10)
    report(11, "product states: chi collapses to zero", worst_chi, 1e-7)

    worst_c = worst_chi = 0.0
    for name in ("phi+", "phi-", "psi+", "psi-"):
        s = TwoQubitState.bell(name)
        for a in Assignment:
            ss = sphere_set(s, a)
            worst_c = max(worst_c, abs(ss.ent.c - 1.0))
            worst_chi = max(worst_chi, abs(ss.ent.chi - math.pi / 2))
    report(11, "Bell states: concurrence = 1", worst_c, 1e-12)
    report(11, "Bell states: chi = 90 deg", math.degrees(worst_chi), 1e-9)
