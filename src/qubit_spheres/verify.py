"""Executable invariant suite: every library-level property, run on random data.

The suite draws one deterministic pool of Haar-random states per seed and
checks each invariant against it (gate/unitary checks use smaller derived
pools).  All reductions are max/count only, so the report is independent
of evaluation order.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import gates, hopf, oracles, state
from .hopf import Assignment
from .jsonfmt import sig15
from .quatmath import (
    I,
    J,
    K,
    Components,
    conj,
    exp_axis,
    hamilton,
    join_components,
    norm_sq,
    split_components,
)
from .state import TwoQubitState

DEFAULT_SEED = 42
DEFAULT_SAMPLES = 10_000


class InvariantResult(NamedTuple):
    name: str
    samples: int
    max_error: float
    threshold: float
    passed: bool


class VerificationReport(NamedTuple):
    seed: int
    samples: int
    results: tuple[InvariantResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failure_count(self) -> int:
        return sum(0 if r.passed else 1 for r in self.results)

    def to_dict(self) -> dict:
        return {
            "version": "1",
            "kind": "verification-report",
            "seed": self.seed,
            "samples": self.samples,
            "all_passed": self.all_passed,
            "invariants": [
                {
                    "name": r.name,
                    "samples": r.samples,
                    "max_error": sig15(r.max_error),
                    "threshold": r.threshold,
                    "passed": r.passed,
                }
                for r in self.results
            ],
        }


def random_su2(rng: np.random.Generator) -> np.ndarray:
    """Haar-random SU(2) matrix from a uniform unit quaternion."""
    w, x, y, z = _random_quaternion(rng)
    return np.array([[w - 1j * z, -y - 1j * x],
                     [y - 1j * x, w + 1j * z]], dtype=complex)


def random_product_state(rng: np.random.Generator) -> TwoQubitState:
    va = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    vb = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    va /= np.linalg.norm(va)
    vb /= np.linalg.norm(vb)
    k = np.kron(va, vb)
    return TwoQubitState(*(complex(c) for c in k))


_RANDOM_GATE_KINDS = tuple(k for k in gates.GATE_KINDS if k != "u4")


def _random_gate(rng: np.random.Generator) -> gates.Gate:
    """Uniform non-u4 kind on a random target; rotation angles uniform in [-2pi, 2pi)."""
    kind = _RANDOM_GATE_KINDS[int(rng.integers(len(_RANDOM_GATE_KINDS)))]
    target = "A" if rng.integers(2) == 0 else "B"
    control = ("B" if target == "A" else "A") if kind.startswith("c") else None
    angle = None
    if kind in gates.ROTATION_KINDS:
        angle = float(rng.uniform(-2 * math.pi, 2 * math.pi))
    return gates.Gate(kind=kind, target=target, control=control, angle=angle)


def _random_quaternion(rng: np.random.Generator, unit: bool = True) -> Components:
    w, x, y, z = rng.standard_normal(4)
    if unit:
        n = math.sqrt(w * w + x * x + y * y + z * z)
        w, x, y, z = w / n, x / n, y / n, z / n
    return float(w), float(x), float(y), float(z)


def _max_diff(p: Components, q: Components) -> float:
    return max(abs(u - v) for u, v in zip(p, q))


def _amp_error(s1: TwoQubitState, s2: TwoQubitState) -> float:
    return max(abs(a - b) for a, b in zip(s1.amplitudes(), s2.amplitudes()))


def _apply_matrix(s: TwoQubitState, u4: np.ndarray) -> TwoQubitState:
    v = u4 @ s.vector()
    return TwoQubitState(*(complex(c) for c in v))


def _one_qubit_op(u: np.ndarray, which: str) -> np.ndarray:
    eye = np.eye(2, dtype=complex)
    return np.kron(u, eye) if which == "A" else np.kron(eye, u)


class _SuiteRunner:
    def __init__(self, seed: int, samples: int):
        self.rng = np.random.default_rng(seed)
        self.samples = samples
        self.results: list[InvariantResult] = []
        self.pool = [state.random_state(self.rng) for _ in range(samples)]
        self.sets = {
            Assignment.A_BASE: [hopf.sphere_set(s, Assignment.A_BASE) for s in self.pool],
            Assignment.B_BASE: [hopf.sphere_set(s, Assignment.B_BASE) for s in self.pool],
        }

    def record(self, name: str, n: int, max_error: float, threshold: float):
        self.results.append(InvariantResult(
            name=name, samples=n, max_error=float(max_error),
            threshold=threshold, passed=max_error <= threshold))

    # -- quaternion algebra ------------------------------------------------

    def quaternion_invariants(self):
        n = min(self.samples, 1000)
        e_assoc = e_norm = e_conj = e_split = e_comm = 0.0
        for _ in range(n):
            a = _random_quaternion(self.rng, unit=False)
            b = _random_quaternion(self.rng, unit=False)
            c = _random_quaternion(self.rng, unit=False)
            e_assoc = max(e_assoc, _max_diff(hamilton(hamilton(a, b), c),
                                             hamilton(a, hamilton(b, c))))
            au, bu = _random_quaternion(self.rng), _random_quaternion(self.rng)
            e_norm = max(e_norm, abs(math.sqrt(norm_sq(hamilton(au, bu)))
                                     - math.sqrt(norm_sq(au)) * math.sqrt(norm_sq(bu))))
            e_conj = max(e_conj, _max_diff(conj(hamilton(au, bu)),
                                           hamilton(conj(bu), conj(au))))
            e_split = max(e_split, _max_diff(a, join_components(*split_components(a))))
            z = complex(*self.rng.standard_normal(2))
            # join_components(z, 0) embeds z with k as its imaginary unit.
            e_comm = max(e_comm, _max_diff(hamilton(J, join_components(z, 0.0)),
                                           hamilton(join_components(z.conjugate(), 0.0), J)))
        self.record("quaternion_associativity", n, e_assoc, 1e-12)
        self.record("quaternion_norm_multiplicative", n, e_norm, 1e-12)
        self.record("quaternion_conj_antihomomorphism", n, e_conj, 1e-15)
        self.record("quaternion_split_roundtrip", n, e_split, 0.0)
        self.record("quaternion_j_commutation", n, e_comm, 0.0)

    # -- state-level properties --------------------------------------------

    def state_invariants(self):
        e_triple = e_compl = e_bloch = 0.0
        for s in self.pool:
            c = state.concurrence_det(s)
            for which in ("A", "B"):
                rho = state.reduced_density(s, which)
                e_triple = max(e_triple, abs(state.concurrence_from_rho(rho) - c))
                d = state.coherence_d(rho)
                e_compl = max(e_compl, abs(d * d + c * c - 1.0))
                r = state.bloch_vector(rho)
                e_bloch = max(e_bloch, abs(sum(v * v for v in r) - (1.0 - c * c)))
        self.record("concurrence_triple_agreement", len(self.pool), e_triple, 1e-10)
        self.record("coherence_complementarity", len(self.pool), e_compl, 1e-12)
        self.record("bloch_vector_norm", len(self.pool), e_bloch, 1e-10)

        n = min(self.samples, 1000)
        e_lu = 0.0
        for i in range(n):
            s = self.pool[i % len(self.pool)]
            u = random_su2(self.rng)
            which = "A" if self.rng.integers(2) == 0 else "B"
            s2 = _apply_matrix(s, _one_qubit_op(u, which))
            e_lu = max(e_lu, abs(state.concurrence_det(s2) - state.concurrence_det(s)))
        self.record("local_unitary_concurrence_invariance", n, e_lu, 1e-10)

    # -- sphere map ----------------------------------------------------------

    def hopf_invariants(self):
        e_round = e_s4 = e_bsq = e_conc = e_chi = 0.0
        for i, s in enumerate(self.pool):
            c_ref = oracles.oracle_concurrence(s)
            for a in Assignment:
                ss = self.sets[a][i]
                e_round = max(e_round, _amp_error(hopf.reconstruct(ss), s))
                base, ent = ss.base, ss.ent
                s4 = (base.x0 ** 2 + base.x1 ** 2 + ent.x2 ** 2
                      + ent.x3 ** 2 + ent.x4 ** 2)
                e_s4 = max(e_s4, abs(s4 - 1.0))
                e_bsq = max(e_bsq, abs(ent.b ** 2 - ent.x4 ** 2 - ent.c ** 2))
                e_conc = max(e_conc, abs(abs(ent.b) * math.sin(ent.chi) - c_ref),
                             abs(ent.c - c_ref))
                e_chi = max(e_chi, ent.chi - math.pi / 2, -ent.chi)
        n2 = 2 * len(self.pool)
        self.record("round_trip_reconstruction", n2, e_round, 1e-10)
        self.record("unit_s4_norm", n2, e_s4, 1e-12)
        self.record("b_squared_decomposition", n2, e_bsq, 1e-12)
        self.record("concurrence_consistency", n2, e_conc, 1e-10)
        self.record("chi_northern_hemisphere", n2, e_chi, 1e-12)

    def equivariance_invariants(self):
        n = min(self.samples, 1000)
        e_loc = e_rot = 0.0
        for i in range(n):
            s = self.pool[i % len(self.pool)]
            a = Assignment.A_BASE if i % 2 == 0 else Assignment.B_BASE
            before = self.sets[a][i % len(self.pool)]
            u = random_su2(self.rng)
            s2 = _apply_matrix(s, _one_qubit_op(u, a.fiber_qubit))
            after = hopf.sphere_set(s2, a)
            e_loc = max(e_loc, self._base_ent_distance(before, after))
            r = gates.bloch_rotation(u)
            want = r @ np.array(before.fiber.bloch)
            got = np.array(after.fiber.bloch)
            e_rot = max(e_rot, float(np.max(np.abs(got - want))))
        self.record("fiber_unitary_base_locality", n, e_loc, 1e-12)
        self.record("fiber_unitary_bloch_rotation", n, e_rot, 1e-9)

        e_fix = e_plane = 0.0
        for i in range(n):
            s = self.pool[i % len(self.pool)]
            a = Assignment.A_BASE if i % 2 == 0 else Assignment.B_BASE
            before = self.sets[a][i % len(self.pool)]
            mu = float(self.rng.uniform(-math.pi, math.pi))
            u = gates.rotation("y", mu)
            s2 = _apply_matrix(s, _one_qubit_op(u, a.base_qubit))
            after = hopf.sphere_set(s2, a)
            eb, ea = before.ent, after.ent
            e_fix = max(e_fix, abs(ea.b - eb.b), abs(ea.x2 - eb.x2),
                        abs(ea.x3 - eb.x3), abs(ea.x4 - eb.x4),
                        abs(ea.chi - eb.chi), abs(ea.c - eb.c))
            x1w = before.base.x0 * math.sin(mu) + before.base.x1 * math.cos(mu)
            x0w = before.base.x0 * math.cos(mu) - before.base.x1 * math.sin(mu)
            e_plane = max(e_plane, abs(after.base.x1 - x1w), abs(after.base.x0 - x0w))
        self.record("base_yrotation_fixes_entanglement", n, e_fix, 1e-12)
        self.record("base_yrotation_plane_rotation", n, e_plane, 1e-10)

    def separability_invariants(self):
        n = min(self.samples, 1000)
        e_c = e_cond = 0.0
        for _ in range(n):
            s = random_product_state(self.rng)
            for a in Assignment:
                ss = hopf.sphere_set(s, a)
                e_c = max(e_c, ss.ent.c)
                # Disjunction, normalized: chi below 1e-8 or |b| below 1e-10.
                e_cond = max(e_cond, min(ss.ent.chi / 1e-8, abs(ss.ent.b) / 1e-10))
        self.record("separable_concurrence_zero", 2 * n, e_c, 1e-10)
        self.record("separable_chi_or_b_zero", 2 * n, e_cond, 1.0)

    # -- oracle cross-checks -------------------------------------------------

    def oracle_invariants(self):
        e_rho = e_outer = 0.0
        for i, s in enumerate(self.pool):
            for a in Assignment:
                ss = self.sets[a][i]
                got = hopf.rho_from_spheres(ss).as_array()
                ref = oracles.oracle_reduced_density(s, a.base_qubit).as_array()
                e_rho = max(e_rho, float(np.max(np.abs(got - ref))))
                # Off-diagonal structure: x1 + b*sin(chi)*e^(k*xi)*i + x4*k must
                # rebuild the full quaternion product 2*q2*conj(q1).  The i/j
                # part carries sign(b): c*e^(k*xi)*i alone only matches b >= 0.
                q1, q2 = hopf.quaternion_pair(s, a)
                p = tuple(2.0 * v for v in hamilton(q2, conj(q1)))
                ent = ss.ent
                r = ent.b * math.sin(ent.chi)
                ew, ex, ey, ez = hamilton(exp_axis(K, ent.xi), I)
                rebuilt = (ss.base.x1 + r * ew, r * ex, r * ey, r * ez + ent.x4)
                e_outer = max(e_outer, _max_diff(rebuilt, p))
        n2 = 2 * len(self.pool)
        self.record("rho_from_spheres_vs_partial_trace", n2, e_rho, 1e-12)
        self.record("outer_product_structure", n2, e_outer, 1e-12)

    # -- gates ----------------------------------------------------------------

    def gate_invariants(self):
        n = min(self.samples, 500)
        e_uni = 0.0
        for _ in range(n):
            u = gates.expand(_random_gate(self.rng))
            e_uni = max(e_uni, float(np.max(np.abs(u @ u.conj().T - np.eye(4)))))
        self.record("expanded_gate_unitarity", n, e_uni, 1e-12)

        e_id = 0.0
        for _ in range(20):
            mu = float(self.rng.uniform(-2 * math.pi, 2 * math.pi))
            lhs = gates.rotation("x", mu)
            rhs = (gates.rotation("z", -math.pi / 2) @ gates.rotation("y", mu)
                   @ gates.rotation("z", math.pi / 2))
            e_id = max(e_id, float(np.max(np.abs(lhs - rhs))))
            lhs = gates.rotation("z", mu)
            rhs = (gates.rotation("x", math.pi / 2) @ gates.rotation("y", mu)
                   @ gates.rotation("x", -math.pi / 2))
            e_id = max(e_id, float(np.max(np.abs(lhs - rhs))))
        self.record("rotation_identities", 20, e_id, 1e-12)

        e_sweep = e_sup = 0.0
        count = 0
        for eta_deg in range(0, 181, 10):
            for omega_deg in range(0, 361, 20):
                eta, omega = math.radians(eta_deg), math.radians(omega_deg)
                circuit = gates.Circuit(gates=(
                    gates.Gate(kind="rx", target="A", angle=eta),
                    gates.Gate(kind="cry", control="A", target="B", angle=omega),
                ))
                steps = gates.run(circuit)
                want = math.sin(eta) * math.sin(omega / 2)
                e_sweep = max(e_sweep, abs(steps[-1].concurrence - want))
                r = state.bloch_vector(steps[1].rho_a)
                e_sup = max(e_sup, abs(math.hypot(r[0], r[1]) - math.sin(eta)))
                count += 1
        self.record("entangler_concurrence_law", count, e_sweep, 1e-9)
        self.record("entangler_superposition_degree", count, e_sup, 1e-12)

        n = min(self.samples, 200)
        e_traj = 0.0
        for _ in range(n):
            gs = [_random_gate(self.rng) for _ in range(int(self.rng.integers(1, 7)))]
            for step in gates.run(gates.Circuit(gates=tuple(gs))):
                e_traj = max(e_traj, abs(step.spheres_a.ent.c - step.spheres_b.ent.c))
        self.record("trajectory_concurrence_match", n, e_traj, 1e-10)

    @staticmethod
    def _base_ent_distance(before, after) -> float:
        b0, b1 = before.base, after.base
        e0, e1 = before.ent, after.ent
        return max(abs(b1.x0 - b0.x0), abs(b1.x1 - b0.x1), abs(b1.b - b0.b),
                   abs(b1.theta - b0.theta),
                   abs(e1.x2 - e0.x2), abs(e1.x3 - e0.x3), abs(e1.x4 - e0.x4),
                   abs(e1.chi - e0.chi))

    def run(self) -> tuple[InvariantResult, ...]:
        self.quaternion_invariants()
        self.state_invariants()
        self.hopf_invariants()
        self.equivariance_invariants()
        self.separability_invariants()
        self.oracle_invariants()
        self.gate_invariants()
        return tuple(self.results)


def run_suite(seed: int = DEFAULT_SEED, samples: int = DEFAULT_SAMPLES
              ) -> VerificationReport:
    """Run every invariant against `samples` seeded random states."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    runner = _SuiteRunner(seed, samples)
    return VerificationReport(seed=seed, samples=samples, results=runner.run())
