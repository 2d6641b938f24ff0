"""Executable invariant suite: every library-level property, run on random data.

The suite draws one deterministic pool of Haar-random states per seed and
makes one pass over it through the scalar kernel the CLI runs, writing the
outputs into arrays.  Each pool invariant is an array of per-sample errors
against the array oracles; a failing one names its worst sample as a
witness.  Other checks use smaller derived draws.  All reductions are max
only, and every matrix product is elementwise (gates._matmul), so the
report depends neither on evaluation order nor on the BLAS kernel.

The pass is split into contiguous shares of the pool (see _shares).  The
process forks a child for each share after the first and maps the first
itself; every process writes its rows, from the same scalar code, into
anonymous shared memory, so the report is byte-identical to a one-process
pass.  A share whose child does not exit cleanly is mapped again here,
which raises the child's error.  The pass stays in one process with one
CPU or no os.sched_getaffinity (macOS, Windows), below 2 * MIN_SHARE
samples, on CPython 3.12 or later, or when fork fails.
"""

from __future__ import annotations

import math
import mmap
import os
import sys
from typing import NamedTuple

import numpy as np

from . import gates, hopf, oracles, state
from .hopf import Assignment
from .jsonfmt import sig15
from .quatmath import I, J, conj, hamilton, join_components, norm_sq, split_components
from .state import TwoQubitState

DEFAULT_SEED = 42
DEFAULT_SAMPLES = 10_000

_ASSIGNMENTS = tuple(Assignment)

# The fewest pool states worth a forked process: a fork, its page faults and
# the reaping cost a few ms, and a share of 1000 states maps in about 0.1 s.
MIN_SHARE = 1000

# Columns of a sphere-set row (_sphere_row).
THETA, PHI, X1, BASE_B, X0, CHI, XI, B, TX, TY, TZ, C, X2, X3, X4 = range(15)
BLOCH = slice(15, 18)


class InvariantResult(NamedTuple):
    name: str
    samples: int
    max_error: float
    threshold: float
    passed: bool
    # A failing pool invariant's worst sample: its pool index, the base qubit
    # of its assignment (or None) and its amplitudes as a `map --state` value.
    witness: dict | None = None


class VerificationReport(NamedTuple):
    seed: int
    samples: int
    results: tuple[InvariantResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

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
                    # null for a NaN or infinite error, which strict JSON cannot hold.
                    "max_error": sig15(r.max_error) if math.isfinite(r.max_error) else None,
                    "threshold": r.threshold,
                    "passed": r.passed,
                    **({} if r.witness is None else {"witness": r.witness}),
                }
                for r in self.results
            ],
        }


def _su2(q: np.ndarray) -> np.ndarray:
    """SU(2) matrices (n, 2, 2) of unit quaternions (n, 4) = (w, x, y, z)."""
    w, x, y, z = q.T
    return np.stack([np.stack([w - 1j * z, -y - 1j * x], -1),
                     np.stack([y - 1j * x, w + 1j * z], -1)], -2)


def _unit(q: np.ndarray) -> np.ndarray:
    """Quaternion rows (n, 4) scaled to unit norm."""
    w, x, y, z = q.T
    return q / np.sqrt(w * w + x * x + y * y + z * z)[:, None]


def _product_amplitudes(rng: np.random.Generator, n: int) -> tuple[np.ndarray, ...]:
    """n product states (n, 4) and their factors (n, 2) of A and of B."""
    v = state.random_amplitudes(rng, 2 * n, dim=2)  # the factor of A, then of B
    fa, fb = v[0::2], v[1::2]
    return (fa[:, :, None] * fb[:, None, :]).reshape(n, 4), fa, fb


def _bloch(f: np.ndarray) -> np.ndarray:
    """Bloch vectors (2 Re(conj(a) b), 2 Im(conj(a) b), |a|^2 - |b|^2) of rows (a, b)."""
    a, b = f.T
    ab = a.conj() * b
    return np.stack([2.0 * ab.real, 2.0 * ab.imag, (a * a.conj() - b * b.conj()).real], axis=1)


def _act(u: np.ndarray, amps: np.ndarray, on_a) -> np.ndarray:
    """Amplitudes (n, 4) after the one-qubit unitaries u (n, 2, 2), each on
    qubit A where `on_a` holds and on B elsewhere: u times the amplitude
    grid with the acted-on qubit's index first (B's by the order 0, 2, 1, 3,
    its own inverse)."""
    order = np.array([[0, 2, 1, 3], [0, 1, 2, 3]])[np.asarray(on_a, dtype=int)]
    moved = gates._matmul(u, np.take_along_axis(amps, order, 1).reshape(-1, 2, 2))
    return np.take_along_axis(moved.reshape(-1, 4), order, 1)


def _sphere_row(ss: hopf.SphereSet) -> tuple[float, ...]:
    """A sphere set's floats: base, entanglement, fiber Bloch point."""
    chi, xi, b, t, c, x2, x3, x4 = ss.ent
    return (*ss.base, chi, xi, b, *t, c, x2, x3, x4, *ss.fiber.bloch)


def _map_states(amps: np.ndarray, ks) -> np.ndarray:
    """Sphere-set rows of the states `amps`, row i under the ks[i]-th Assignment."""
    return np.array([_sphere_row(hopf.sphere_set(TwoQubitState(*v), _ASSIGNMENTS[k]))
                     for v, k in zip(amps.tolist(), ks)])


def _shares(n: int) -> list[tuple[int, int]]:
    """Contiguous [lo, hi) shares of range(n): one per CPU this process may
    run on, none smaller than MIN_SHARE.  One share from CPython 3.12 on,
    where os.fork() warns in a process with a second thread (numpy's
    OpenBLAS thread) and the warning may be raised after the child exists."""
    cpus = 1
    if hasattr(os, "sched_getaffinity") and sys.version_info < (3, 12):
        cpus = len(os.sched_getaffinity(0))
    k = max(1, min(cpus, n // MIN_SHARE))
    bounds = [n * j // k for j in range(k + 1)]
    return list(zip(bounds, bounds[1:]))


def _shared(*shape: int, dtype=float) -> np.ndarray:
    """An array in anonymous shared memory, which forked children write into."""
    dtype = np.dtype(dtype)
    return np.frombuffer(mmap.mmap(-1, math.prod(shape) * dtype.itemsize), dtype).reshape(shape)


def _elementwise(f, a: np.ndarray) -> np.ndarray:
    """f (a math function) applied to every element of a."""
    return np.fromiter(map(f, a.ravel().tolist()), float, a.size).reshape(a.shape)


class _SuiteRunner:
    def __init__(self, seed: int, samples: int):
        self.rng = np.random.default_rng(seed)
        self.samples = samples
        self.results: list[InvariantResult] = []
        self.amps = state.random_amplitudes(self.rng, samples)
        self._map_pool()
        # Sine and cosine of each sphere angle, by libm as the kernel takes them.
        self.sin, self.cos = ({k: _elementwise(f, self.spheres[..., k])
                               for k in (THETA, PHI, CHI, XI)} for f in (math.sin, math.cos))

    def _map_pool(self):
        """The one pass: each pool state through the scalar kernel under both
        assignments, split into shares (see the module docstring).  Index
        [i, k] is pool state i under the k-th Assignment; the state functions
        take that assignment's base qubit.  The oracle concurrence is one
        batched call over the whole pool, made here after the pass."""
        n = self.samples
        self.conc = _shared(n, 2)                # concurrence_det, oracles.concurrence
        self.rho_stats = _shared(n, 2, 5)        # concurrence_from_rho, coherence_d, bloch
        self.spheres = _shared(n, 2, 18)         # _sphere_row(sphere_set)
        self.rec = _shared(n, 2, 4, dtype=complex)  # reconstruct
        self.rho = _shared(n, 2, 4, dtype=complex)  # rho_from_spheres
        first, *left = _shares(n)  # left: the shares this process maps after its own
        children = {}
        try:
            while left:
                try:
                    pid = os.fork()
                except OSError:
                    break
                if pid == 0:
                    status = 1
                    try:
                        self._map_rows(*left[0])
                        status = 0
                    finally:
                        os._exit(status)
                children[pid] = left.pop(0)
            self._map_rows(*first)
        finally:
            for pid, share in children.items():
                if os.waitpid(pid, 0)[1] != 0:
                    left.append(share)
        for share in left:
            self._map_rows(*share)
        self.conc[:, 1] = oracles.concurrence(self.amps)

    def _map_rows(self, lo: int, hi: int):
        """Map pool states lo to hi - 1 into their rows of the pass's arrays."""
        for i, amps in enumerate(self.amps[lo:hi].tolist(), lo):
            s = TwoQubitState(*amps)
            self.conc[i, 0] = state.concurrence_det(s)
            for k, a in enumerate(_ASSIGNMENTS):
                rho = state.reduced_density(s, a.base_qubit)
                self.rho_stats[i, k] = (state.concurrence_from_rho(rho), state.coherence_d(rho),
                                        *state.bloch_vector(rho))
                ss = hopf.sphere_set(s, a)
                self.spheres[i, k] = _sphere_row(ss)
                self.rec[i, k] = hopf.reconstruct(ss)
                self.rho[i, k] = hopf.rho_from_spheres(ss)

    def record(self, name: str, n: int, max_error: float, threshold: float,
               witness: dict | None = None):
        max_error = float(max_error)
        self.results.append(InvariantResult(name, n, max_error, threshold,
                                            max_error <= threshold, witness))

    def check(self, name: str, threshold: float, err: np.ndarray, samples: int | None = None,
              alternating: bool = False):
        """Record a pool invariant from its per-sample errors: err[i] of pool
        state i, err[i, k] of state i under the k-th Assignment, or with
        `alternating`, err[i] of state i under the (i % 2)-th.  NaN fails."""
        worst = max(float(err.max()), 0.0)
        witness = None
        if not worst <= threshold:
            i, k = divmod(int(err.argmax()), 2) if err.ndim == 2 else (int(err.argmax()), None)
            k = i % 2 if alternating else k
            witness = {"sample": i, "assignment": None if k is None else _ASSIGNMENTS[k].value,
                       "state": ",".join(repr(v) for c in self.amps[i].tolist()
                                         for v in (c.real, c.imag))}
        self.record(name, err.size if samples is None else samples, worst, threshold, witness)

    # -- quaternion algebra ------------------------------------------------

    def quaternion_invariants(self):
        n = min(self.samples, 1000)
        # Per sample: a, b, c, then au and bu made unit, then z.
        d = self.rng.standard_normal((n, 22))
        a, b, c = d[:, 0:4].T, d[:, 4:8].T, d[:, 8:12].T
        au, bu = _unit(d[:, 12:16]).T, _unit(d[:, 16:20]).T
        e_assoc = np.subtract(hamilton(hamilton(a, b), c), hamilton(a, hamilton(b, c)))
        e_norm = np.abs(np.sqrt(norm_sq(hamilton(au, bu)))
                        - np.sqrt(norm_sq(au)) * np.sqrt(norm_sq(bu)))
        e_conj = np.subtract(conj(hamilton(au, bu)), hamilton(conj(bu), conj(au)))
        e_split = np.subtract([join_components(*split_components(q)) for q in a.T.tolist()], a.T)
        zs = [complex(*z) for z in d[:, 20:22].tolist()]
        # join_components(z, 0) embeds z with k as its imaginary unit.
        e_comm = np.subtract([hamilton(J, join_components(z, 0.0)) for z in zs],
                             [hamilton(join_components(z.conjugate(), 0.0), J) for z in zs])
        self.record("quaternion_associativity", n, np.abs(e_assoc).max(), 1e-12)
        self.record("quaternion_norm_multiplicative", n, e_norm.max(), 1e-12)
        self.record("quaternion_conj_antihomomorphism", n, np.abs(e_conj).max(), 1e-15)
        self.record("quaternion_split_roundtrip", n, np.abs(e_split).max(), 0.0)
        self.record("quaternion_j_commutation", n, np.abs(e_comm).max(), 0.0)

    # -- state-level properties --------------------------------------------

    def state_invariants(self):
        c = self.conc[:, :1]
        c_rho, d, rx, ry, rz = np.moveaxis(self.rho_stats, -1, 0)
        # Both qubits of each state, counted as one sample.
        n = self.samples
        self.check("concurrence_triple_agreement", 1e-10, np.abs(c_rho - c), n)
        self.check("coherence_complementarity", 1e-12, np.abs(d * d + c * c - 1.0), n)
        self.check("bloch_vector_norm", 1e-10,
                   np.abs(rx * rx + ry * ry + rz * rz - (1.0 - c * c)), n)

        n = min(self.samples, 1000)
        # Per sample: a quaternion, then whether the unitary acts on qubit A.
        draws = [(self.rng.standard_normal(4), self.rng.integers(2) == 0) for _ in range(n)]
        moved = _act(_su2(_unit(np.array([q for q, _ in draws]))), self.amps[:n],
                     [on_a for _, on_a in draws])
        c2 = np.array([state.concurrence_det(TwoQubitState(*v)) for v in moved.tolist()])
        self.check("local_unitary_concurrence_invariance", 1e-10, np.abs(c2 - self.conc[:n, 0]))

    # -- sphere map ----------------------------------------------------------

    def hopf_invariants(self):
        diff = self.rec - self.amps[:, None, :]
        self.check("round_trip_reconstruction", 1e-10,
                   np.hypot(diff.real, diff.imag).max(axis=2))
        # x ** 2 as Python's float power (libm pow) rounds it: x * x differs
        # in the last bit for about one double in a thousand.
        # Only the columns the two checks read are squared.
        cols = [X0, X1, X2, X3, X4, B, C]
        sq = dict(zip(cols, np.moveaxis(np.float_power(self.spheres[..., cols], 2), -1, 0)))
        s4 = sq[X0] + sq[X1] + sq[X2] + sq[X3] + sq[X4]
        self.check("unit_s4_norm", 1e-12, np.abs(s4 - 1.0))
        self.check("b_squared_decomposition", 1e-12, np.abs(sq[B] - sq[X4] - sq[C]))
        del diff, sq  # freed before the checks below make pool-sized arrays of their own
        sp, sin, cos = self.spheres, self.sin, self.cos
        b, c, chi = sp[..., B], sp[..., C], sp[..., CHI]
        c_ref = self.conc[:, 1:]
        self.check("concurrence_consistency", 1e-10,
                   np.maximum(np.abs(np.abs(b) * sin[CHI] - c_ref), np.abs(c - c_ref)))
        self.check("chi_northern_hemisphere", 1e-12, np.maximum(chi - math.pi / 2, -chi))
        # Each sphere's Cartesian point from its angles: (x1, b, x0) from
        # (theta, phi), t from (chi, xi), and the inner-sphere point b*t.
        self.check("sphere_angle_consistency", 1e-12, np.abs([
            sp[..., X1] - sin[THETA] * cos[PHI], sp[..., BASE_B] - sin[THETA] * sin[PHI],
            sp[..., X0] - cos[THETA], sp[..., TZ] - cos[CHI],
            sp[..., TX] - sin[CHI] * cos[XI], sp[..., TY] - sin[CHI] * sin[XI],
            sp[..., X2] - b * sp[..., TX], sp[..., X3] - b * sp[..., TY],
            c - np.abs(b) * sin[CHI], sp[..., X4] - b * cos[CHI]]).max(axis=0))
        # The base qubit's Bloch vector is (x1, x4, x0).
        self.check("bloch_vector_is_base_point", 1e-12,
                   np.abs(self.rho_stats[..., 2:] - sp[..., [X1, X4, X0]]).max(axis=2))

    def equivariance_invariants(self):
        n = min(self.samples, 1000)
        ks = np.arange(n) % 2  # state i is mapped under A_BASE if i is even, else B_BASE
        before = self.spheres[np.arange(n), ks]

        # A fiber-qubit unitary: on B under A_BASE, on A under B_BASE.
        u = _su2(_unit(self.rng.standard_normal((n, 4))))
        after = _map_states(_act(u, self.amps[:n], ks == 1), ks)
        local = [X0, X1, BASE_B, THETA, X2, X3, X4, CHI]
        self.check("fiber_unitary_base_locality", 1e-12,
                   np.abs(after[:, local] - before[:, local]).max(axis=1), alternating=True)
        want = gates._matmul(gates.bloch_rotation(u), before[:, BLOCH, None])[:, :, 0]
        self.check("fiber_unitary_bloch_rotation", 1e-9,
                   np.abs(after[:, BLOCH] - want).max(axis=1), alternating=True)

        mu = self.rng.uniform(-math.pi, math.pi, n)
        u = np.array([gates.rotation("y", m) for m in mu.tolist()])
        after = _map_states(_act(u, self.amps[:n], ks == 0), ks)
        fixed = [B, X2, X3, X4, CHI, C]
        self.check("base_yrotation_fixes_entanglement", 1e-12,
                   np.abs(after[:, fixed] - before[:, fixed]).max(axis=1), alternating=True)
        sin_mu, cos_mu = _elementwise(math.sin, mu), _elementwise(math.cos, mu)
        x0, x1 = before[:, X0], before[:, X1]
        self.check("base_yrotation_plane_rotation", 1e-10, np.maximum(
            np.abs(after[:, X1] - (x0 * sin_mu + x1 * cos_mu)),
            np.abs(after[:, X0] - (x0 * cos_mu - x1 * sin_mu))), alternating=True)

    def separability_invariants(self):
        n = min(self.samples, 1000)
        amps, fa, fb = _product_amplitudes(self.rng, n)
        rows = _map_states(np.repeat(amps, 2, axis=0), [0, 1] * n)
        # Disjunction, normalized: chi below 1e-8 or |b| below 1e-10.
        e_cond = np.minimum(rows[:, CHI] / 1e-8, np.abs(rows[:, B]) / 1e-10)
        self.record("separable_concurrence_zero", 2 * n, rows[:, C].max(), 1e-10)
        self.record("separable_chi_or_b_zero", 2 * n, e_cond.max(), 1.0)
        # Base and fiber become the factors' Bloch spheres: under A_BASE (even
        # rows) the base is A's factor and the fiber B's, under B_BASE the reverse.
        ra, rb = _bloch(fa), _bloch(fb)
        base, fib = (np.stack(pair, axis=1).reshape(2 * n, 3) for pair in ((ra, rb), (rb, ra)))
        self.record("separable_base_is_bloch", 2 * n,
                    np.abs(rows[:, [X1, BASE_B, X0]] - base).max(), 1e-12)
        self.record("separable_fiber_is_bloch", 2 * n, np.abs(rows[:, BLOCH] - fib).max(), 1e-12)

    # -- oracle cross-checks -------------------------------------------------

    def oracle_invariants(self):
        grid = self.amps.reshape(-1, 2, 2)
        ref = np.stack([oracles.partial_trace(grid, a.base_qubit).reshape(-1, 4)
                        for a in _ASSIGNMENTS], axis=1)
        self.check("rho_from_spheres_vs_partial_trace", 1e-12,
                   np.abs(self.rho - ref).max(axis=2))
        del ref  # freed before the pool-sized arrays below, as in hopf_invariants
        # The pair (q1, q2) of each state and assignment, packed from the
        # amplitudes as hopf.quaternion_pair documents: (alpha.re, -beta.im,
        # beta.re, alpha.im | gamma.re, -delta.im, delta.re, gamma.im) under
        # A_BASE, with beta and gamma swapped under B_BASE.  The float view's
        # columns are alpha.re, alpha.im, beta.re, ..., delta.im.
        q = self.amps.view(float)[:, [[0, 3, 2, 1, 4, 7, 6, 5], [0, 5, 4, 1, 2, 7, 6, 3]]]
        q[..., [1, 5]] = -q[..., [1, 5]]
        q = np.moveaxis(q, -1, 0)
        # Off-diagonal structure: x1 + b*sin(chi)*e^(k*xi)*i + x4*k must
        # rebuild the full quaternion product 2*q2*conj(q1).  The i/j part
        # carries sign(b): c*e^(k*xi)*i alone only matches b >= 0.
        p = [2.0 * w for w in hamilton(q[4:], conj(q[:4]))]
        sp, sin_xi = self.spheres, self.sin[XI]
        r = sp[..., B] * self.sin[CHI]
        # e^(k*xi) = cos(xi) + k*sin(xi), times i.
        ew, ex, ey, ez = hamilton((self.cos[XI], sin_xi * 0.0, sin_xi * 0.0, sin_xi * 1.0), I)
        rebuilt = (sp[..., X1] + r * ew, r * ex, r * ey, r * ez + sp[..., X4])
        self.check("outer_product_structure", 1e-12, np.abs(np.subtract(rebuilt, p)).max(axis=0))

    # -- gates ----------------------------------------------------------------

    def gate_invariants(self):
        n = min(self.samples, 500)
        u = np.array([gates.expand(_random_gate(self.rng)) for _ in range(n)])
        e_uni = np.abs(gates._matmul(u, u.conj().swapaxes(1, 2)) - np.eye(4)).max()
        self.record("expanded_gate_unitarity", n, e_uni, 1e-12)

        mu = self.rng.uniform(-2 * math.pi, 2 * math.pi, 20).tolist()
        rx, ry, rz = (np.array([gates.rotation(axis, m) for m in mu]) for axis in "xyz")
        e_x = rx - gates._matmul(gates._matmul(gates.rotation("z", -math.pi / 2), ry),
                                 gates.rotation("z", math.pi / 2))
        e_z = rz - gates._matmul(gates._matmul(gates.rotation("x", math.pi / 2), ry),
                                 gates.rotation("x", -math.pi / 2))
        self.record("rotation_identities", 20, max(np.abs(e_x).max(), np.abs(e_z).max()), 1e-12)

        grid = [(math.radians(eta), math.radians(omega))
                for eta in range(0, 181, 10) for omega in range(0, 361, 20)]
        e_sweep = e_sup = 0.0
        for eta, omega in grid:
            steps = gates.run(gates.Circuit(gates=(
                gates.Gate(kind="rx", target="A", angle=eta),
                gates.Gate(kind="cry", control="A", target="B", angle=omega))))
            e_sweep = max(e_sweep, abs(steps[-1].concurrence - math.sin(eta) * math.sin(omega / 2)))
            r = state.bloch_vector(steps[1].rho_a)
            e_sup = max(e_sup, abs(math.hypot(r[0], r[1]) - math.sin(eta)))
        self.record("entangler_concurrence_law", len(grid), e_sweep, 1e-9)
        self.record("entangler_superposition_degree", len(grid), e_sup, 1e-12)

        n = min(self.samples, 200)
        e_traj = 0.0
        for _ in range(n):
            gs = [_random_gate(self.rng) for _ in range(int(self.rng.integers(1, 7)))]
            for step in gates.run(gates.Circuit(gates=tuple(gs))):
                e_traj = max(e_traj, abs(step.spheres_a.ent.c - step.spheres_b.ent.c))
        self.record("trajectory_concurrence_match", n, e_traj, 1e-10)

        # Drawn last, so that no other invariant's inputs move.
        n = min(self.samples, 500)
        gs = [_random_gate(self.rng) for _ in range(n)]
        got = np.array([gates.apply(TwoQubitState(*v), g)
                        for v, g in zip(self.amps[:n].tolist(), gs)])
        diff = got - gates._matmul(np.array([gates.expand(g) for g in gs]),
                                   self.amps[:n, :, None])[:, :, 0]
        self.check("gate_apply_matches_kron", 1e-12, np.hypot(diff.real, diff.imag).max(axis=1))

    def run(self) -> tuple[InvariantResult, ...]:
        self.quaternion_invariants()
        self.state_invariants()
        self.hopf_invariants()
        self.equivariance_invariants()
        self.separability_invariants()
        self.oracle_invariants()
        self.gate_invariants()
        return tuple(self.results)


def _random_gate(rng: np.random.Generator) -> gates.Gate:
    """Uniform kind on a random target; rotation angles uniform in [-2pi, 2pi)."""
    kind = gates.GATE_KINDS[int(rng.integers(len(gates.GATE_KINDS)))]
    target = "A" if rng.integers(2) == 0 else "B"
    control = ("B" if target == "A" else "A") if kind.startswith("c") else None
    angle = None
    if kind in gates.ROTATION_KINDS:
        angle = float(rng.uniform(-2 * math.pi, 2 * math.pi))
    return gates.Gate(kind=kind, target=target, control=control, angle=angle)


def run_suite(seed: int = DEFAULT_SEED, samples: int = DEFAULT_SAMPLES
              ) -> VerificationReport:
    """Run every invariant against `samples` seeded random states."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    runner = _SuiteRunner(seed, samples)
    return VerificationReport(seed=seed, samples=samples, results=runner.run())
