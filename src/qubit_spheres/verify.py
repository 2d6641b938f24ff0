"""Executable invariant suite: every library-level property, run on random data.

The suite draws one deterministic pool of Haar-random states per seed and
smaller derived draws.  One mapper (_map) sends each batch of states, the
pool and the moved and product states derived from it, through the scalar
kernel the CLI runs into arrays kept beside the batch's amplitudes.  Every
entry is an array of per-sample errors reduced by max; an entry whose
samples are a batch's states names its worst one as a witness.  Products
are elementwise (gates._matmul) and complex ones real (gates._product), so
the report depends on neither evaluation order, BLAS kernel nor SIMD level.

A batch is split into contiguous shares (_shares).  The process forks a
child for each share after the first and maps the first itself; each writes
its rows by the same scalar code into anonymous shared memory, so the report
is byte-identical to a one-process pass.  A share whose child fails is
mapped again here, which raises the child's error.
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
from .quatmath import J, conj, hamilton, join_components, norm_sq, split_components
from .state import TwoQubitState

DEFAULT_SEED = 42
DEFAULT_SAMPLES = 10_000

_ASSIGNMENTS = tuple(Assignment)

# The fewest pool states worth a forked process: a fork, its page faults and
# the reaping cost a few ms, and a share of 1000 states maps in about 0.1 s.
MIN_SHARE = 1000

# Columns of a sphere-set row (_map): base, entanglement, fiber Bloch point.
THETA, PHI, X1, B, X0, CHI, XI, TX, TY, TZ, C, X2, X3, X4 = range(14)
BLOCH = slice(14, 17)


class InvariantResult(NamedTuple):
    name: str
    samples: int
    max_error: float
    threshold: float
    passed: bool
    # A failing entry's worst state, from the batch that was mapped (the pool,
    # moved or product states): its index there, the base qubit of its
    # assignment (or None) and its amplitudes as a `map --state` value.
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


def _bloch(f: np.ndarray) -> np.ndarray:
    """Bloch vectors (2 Re(conj(a) b), 2 Im(conj(a) b), |a|^2 - |b|^2) of rows (a, b)."""
    ab = gates._product(f[:, 0].conj(), f[:, 1])
    (ar, br), (ai, bi) = f.real.T, f.imag.T
    return np.stack([2.0 * ab.real, 2.0 * ab.imag,
                     (ar * ar + ai * ai) - (br * br + bi * bi)], axis=1)


def _act(u: np.ndarray, amps: np.ndarray, on_a) -> np.ndarray:
    """Amplitudes (n, 4) after the one-qubit unitaries u (n, 2, 2), each on
    qubit A where `on_a` holds and on B elsewhere: u times the amplitude
    grid with the acted-on qubit's index first (B's by the order 0, 2, 1, 3,
    its own inverse)."""
    order = np.array([[0, 2, 1, 3], [0, 1, 2, 3]])[np.asarray(on_a, dtype=int)]
    moved = gates._matmul(u, np.take_along_axis(amps, order, 1).reshape(-1, 2, 2))
    return np.take_along_axis(moved.reshape(-1, 4), order, 1)


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


class _Batch(NamedTuple):
    """States amps (m, 4) and _map's rows: row [i, j] is state i under the
    assignment _ASSIGNMENTS[ks[i, j]].  Only the pool has those after `spheres`."""
    amps: np.ndarray
    ks: np.ndarray | None = None
    spheres: np.ndarray | None = None    # sphere_set (columns THETA...)
    conc: np.ndarray | None = None       # concurrence_det, one per state
    rho_stats: np.ndarray | None = None  # concurrence_from_rho, coherence_d, bloch
    rec: np.ndarray | None = None        # reconstruct
    rho: np.ndarray | None = None        # rho_from_spheres


def _map(amps: np.ndarray, ks: np.ndarray, full: bool = False) -> _Batch:
    """The one map: states amps (m, 4) through the CLI's scalar kernel, state
    i under each assignment index in ks[i], split into shares.  Every batch
    gets its sphere rows; a `full` one (the pool) all of _Batch's arrays."""
    m, width = ks.shape
    b = _Batch(amps, ks, _shared(m, width, 17), *((
        _shared(m), _shared(m, width, 5), _shared(m, width, 4, dtype=complex),
        _shared(m, width, 4, dtype=complex)) if full else ()))

    def map_rows(lo: int, hi: int):
        for i, (v, ks_i) in enumerate(zip(amps[lo:hi].tolist(), ks[lo:hi].tolist()), lo):
            s = TwoQubitState(*v)
            if full:
                b.conc[i] = state.concurrence_det(s)
            for j, k in enumerate(ks_i):
                a = _ASSIGNMENTS[k]
                ss = hopf.sphere_set(s, a)
                ent = ss.ent
                b.spheres[i, j] = (*ss.base, ent.chi, ent.xi, *ent.t, ent.c,
                                   ent.x2, ent.x3, ent.x4, *ss.fiber.bloch)
                if full:  # the state functions take the assignment's base qubit
                    rho = state.reduced_density(s, a.base_qubit)
                    b.rho_stats[i, j] = (state.concurrence_from_rho(rho),
                                         state.coherence_d(rho), *state.bloch_vector(rho))
                    b.rec[i, j] = hopf.reconstruct(ss)
                    b.rho[i, j] = hopf.rho_from_spheres(ss)

    first, *left = _shares(m)  # left: the shares this process maps after its own
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
                    map_rows(*left[0])
                    status = 0
                finally:
                    os._exit(status)
            children[pid] = left.pop(0)
        map_rows(*first)
    finally:
        for pid, share in children.items():
            if os.waitpid(pid, 0)[1] != 0:
                left.append(share)
    for share in left:
        map_rows(*share)
    return b


class _SuiteRunner:
    def __init__(self, seed: int, samples: int):
        self.rng = np.random.default_rng(seed)
        self.samples = samples
        self.results: list[InvariantResult] = []
        self.amps = state.random_amplitudes(self.rng, samples)
        # The one pass over the pool, each state under A_BASE, then B_BASE.
        self.pool = _map(self.amps, np.tile([0, 1], (samples, 1)), full=True)
        self.c_ref = oracles.concurrence(self.amps)
        # Sine and cosine of each sphere angle, by libm as the kernel takes them.
        self.sin, self.cos = ({k: _elementwise(f, self.pool.spheres[..., k])
                               for k in (THETA, PHI, CHI, XI)} for f in (math.sin, math.cos))

    def check(self, name: str, threshold: float, err: np.ndarray, batch: _Batch | None = None,
              samples: int | None = None):
        """Record an entry from its per-sample errors: err[i] of sample i, or
        err[i, j] of batch state i under assignment ks[i, j].  A failing entry
        whose samples are `batch`'s states names its worst.  NaN fails."""
        worst = max(float(err.max()), 0.0)
        witness = None
        if batch is not None and not worst <= threshold:
            i, *j = np.unravel_index(int(err.argmax()), err.shape)
            witness = {"sample": int(i),
                       "assignment": _ASSIGNMENTS[batch.ks[i, j[0]]].value if j else None,
                       "state": ",".join(repr(v) for c in batch.amps[i].tolist()
                                         for v in (c.real, c.imag))}
        self.results.append(InvariantResult(name, err.size if samples is None else samples,
                                            worst, threshold, worst <= threshold, witness))

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
        self.check("quaternion_associativity", 1e-12, np.abs(e_assoc).max(axis=0))
        self.check("quaternion_norm_multiplicative", 1e-12, e_norm)
        self.check("quaternion_conj_antihomomorphism", 1e-15, np.abs(e_conj).max(axis=0))
        self.check("quaternion_split_roundtrip", 0.0, np.abs(e_split).max(axis=1))
        self.check("quaternion_j_commutation", 0.0, np.abs(e_comm).max(axis=1))

    # -- state-level properties --------------------------------------------

    def state_invariants(self):
        c = self.pool.conc[:, None]
        c_rho, d, rx, ry, rz = np.moveaxis(self.pool.rho_stats, -1, 0)
        # Both qubits of each state, counted as one sample.
        n = self.samples
        self.check("concurrence_triple_agreement", 1e-10, np.abs(c_rho - c), self.pool, n)
        self.check("coherence_complementarity", 1e-12, np.abs(d * d + c * c - 1.0), self.pool, n)
        self.check("bloch_vector_norm", 1e-10,
                   np.abs(rx * rx + ry * ry + rz * rz - (1.0 - c * c)), self.pool, n)

        n = min(self.samples, 1000)
        # Per sample: a quaternion, then whether the unitary acts on qubit A.
        draws = [(self.rng.standard_normal(4), self.rng.integers(2) == 0) for _ in range(n)]
        moved = _Batch(_act(_su2(_unit(np.array([q for q, _ in draws]))), self.amps[:n],
                            [on_a for _, on_a in draws]))
        c2 = np.array([state.concurrence_det(TwoQubitState(*v)) for v in moved.amps.tolist()])
        self.check("local_unitary_concurrence_invariance", 1e-10,
                   np.abs(c2 - self.pool.conc[:n]), moved)

    # -- sphere map ----------------------------------------------------------

    def hopf_invariants(self):
        pool = self.pool
        diff = pool.rec - self.amps[:, None, :]
        self.check("round_trip_reconstruction", 1e-10,
                   np.hypot(diff.real, diff.imag).max(axis=2), pool)
        # x ** 2 as Python's float power (libm pow) rounds it: x * x differs
        # in the last bit for about one double in a thousand.
        # Only the columns the two checks read are squared.
        cols = [X0, X1, X2, X3, X4, B, C]
        sq = dict(zip(cols, np.moveaxis(np.float_power(pool.spheres[..., cols], 2), -1, 0)))
        s4 = sq[X0] + sq[X1] + sq[X2] + sq[X3] + sq[X4]
        self.check("unit_s4_norm", 1e-12, np.abs(s4 - 1.0), pool)
        self.check("b_squared_decomposition", 1e-12, np.abs(sq[B] - sq[X4] - sq[C]), pool)
        del diff, sq  # freed before the checks below make pool-sized arrays of their own
        sp, sin, cos = pool.spheres, self.sin, self.cos
        b, c, chi = sp[..., B], sp[..., C], sp[..., CHI]
        c_ref = self.c_ref[:, None]
        self.check("concurrence_consistency", 1e-10,
                   np.maximum(np.abs(np.abs(b) * sin[CHI] - c_ref), np.abs(c - c_ref)), pool)
        self.check("chi_northern_hemisphere", 1e-12, np.maximum(chi - math.pi / 2, -chi), pool)
        # Each sphere's Cartesian point from its angles: (x1, b, x0) from
        # (theta, phi), the inner-sphere point b*t, and t from (chi, xi),
        # which are read back from t: atan2 against its own sine and cosine.
        self.check("sphere_angle_consistency", 1e-12, np.abs([
            sp[..., X1] - sin[THETA] * cos[PHI], sp[..., B] - sin[THETA] * sin[PHI],
            sp[..., X0] - cos[THETA], sp[..., TZ] - cos[CHI],
            sp[..., TX] - sin[CHI] * cos[XI], sp[..., TY] - sin[CHI] * sin[XI],
            sp[..., X2] - b * sp[..., TX], sp[..., X3] - b * sp[..., TY],
            c - np.abs(b) * sin[CHI], sp[..., X4] - b * cos[CHI]]).max(axis=0), pool)
        # The base qubit's Bloch vector is (x1, x4, x0).
        self.check("bloch_vector_is_base_point", 1e-12,
                   np.abs(pool.rho_stats[..., 2:] - sp[..., [X1, X4, X0]]).max(axis=2), pool)

    def equivariance_invariants(self):
        n = min(self.samples, 1000)
        # State i is mapped under A_BASE if i is even, else B_BASE: rows (n, 1).
        ks = np.arange(n)[:, None] % 2
        before = self.pool.spheres[np.arange(n)[:, None], ks]

        # A fiber-qubit unitary: on B under A_BASE, on A under B_BASE.
        u = _su2(_unit(self.rng.standard_normal((n, 4))))
        after = _map(_act(u, self.amps[:n], ks[:, 0] == 1), ks)
        local = [X0, X1, B, THETA, X2, X3, X4, CHI]
        self.check("fiber_unitary_base_locality", 1e-12,
                   np.abs(after.spheres[..., local] - before[..., local]).max(axis=2), after)
        want = gates._matmul(gates.bloch_rotation(u)[:, None], before[..., BLOCH, None])[..., 0]
        self.check("fiber_unitary_bloch_rotation", 1e-9,
                   np.abs(after.spheres[..., BLOCH] - want).max(axis=2), after)

        mu = self.rng.uniform(-math.pi, math.pi, (n, 1))
        u = np.array([gates.rotation("y", m) for m in mu.ravel().tolist()])
        after = _map(_act(u, self.amps[:n], ks[:, 0] == 0), ks)
        fixed = [B, X2, X3, X4, CHI, C]
        self.check("base_yrotation_fixes_entanglement", 1e-12,
                   np.abs(after.spheres[..., fixed] - before[..., fixed]).max(axis=2), after)
        sin_mu, cos_mu = _elementwise(math.sin, mu), _elementwise(math.cos, mu)
        x0, x1 = before[..., X0], before[..., X1]
        self.check("base_yrotation_plane_rotation", 1e-10, np.maximum(
            np.abs(after.spheres[..., X1] - (x0 * sin_mu + x1 * cos_mu)),
            np.abs(after.spheres[..., X0] - (x0 * cos_mu - x1 * sin_mu))), after)

    def separability_invariants(self):
        n = min(self.samples, 1000)
        v = state.random_amplitudes(self.rng, 2 * n, dim=2)  # the factor of A, then of B
        fa, fb = v[0::2], v[1::2]
        amps = gates._product(fa[:, :, None], fb[:, None, :]).reshape(n, 4)
        products = _map(amps, np.tile([0, 1], (n, 1)))
        rows = products.spheres
        # Disjunction, normalized: chi below 1e-8 or |b| below 1e-10.
        e_cond = np.minimum(rows[..., CHI] / 1e-8, np.abs(rows[..., B]) / 1e-10)
        self.check("separable_concurrence_zero", 1e-10, rows[..., C], products)
        self.check("separable_chi_or_b_zero", 1.0, e_cond, products)
        # Base and fiber become the factors' Bloch spheres: under A_BASE the
        # base is A's factor and the fiber B's, under B_BASE the reverse.
        ra, rb = _bloch(fa), _bloch(fb)
        base, fib = np.stack((ra, rb), axis=1), np.stack((rb, ra), axis=1)
        self.check("separable_base_is_bloch", 1e-12,
                   np.abs(rows[..., [X1, B, X0]] - base).max(axis=2), products)
        self.check("separable_fiber_is_bloch", 1e-12,
                   np.abs(rows[..., BLOCH] - fib).max(axis=2), products)

    # -- oracle cross-checks -------------------------------------------------

    def oracle_invariants(self):
        grid = self.amps.reshape(-1, 2, 2)
        ref = np.stack([oracles.partial_trace(grid, a.base_qubit).reshape(-1, 4)
                        for a in _ASSIGNMENTS], axis=1)
        self.check("rho_from_spheres_vs_partial_trace", 1e-12,
                   np.abs(self.pool.rho - ref).max(axis=2), self.pool)
        del ref  # freed before the pool-sized arrays below, as in hopf_invariants
        # The pair (q1, q2) of each state and assignment, packed from the
        # amplitudes as the hopf module docstring packs them: (alpha.re,
        # -beta.im, beta.re, alpha.im | gamma.re, -delta.im, delta.re,
        # gamma.im) under A_BASE, with beta and gamma swapped under B_BASE.
        # The float view's columns are alpha.re, alpha.im, ..., delta.im.
        q = self.amps.view(float)[:, [[0, 3, 2, 1, 4, 7, 6, 5], [0, 5, 4, 1, 2, 7, 6, 3]]]
        q[..., [1, 5]] = -q[..., [1, 5]]
        q = np.moveaxis(q, -1, 0)
        # Off-diagonal structure: x1 + b*sin(chi)*e^(k*xi)*i + x4*k must
        # rebuild the full quaternion product 2*q2*conj(q1).  The i/j part
        # carries sign(b): c*e^(k*xi)*i alone only matches b >= 0.
        p = [2.0 * w for w in hamilton(q[4:], conj(q[:4]))]
        sp = self.pool.spheres
        r = sp[..., B] * self.sin[CHI]
        # e^(k*xi)*i = cos(xi)*i + sin(xi)*j.
        rebuilt = (sp[..., X1], r * self.cos[XI], r * self.sin[XI], sp[..., X4])
        self.check("outer_product_structure", 1e-12, np.abs(np.subtract(rebuilt, p)).max(axis=0),
                   self.pool)

    # -- gates ----------------------------------------------------------------

    def gate_invariants(self):
        n = min(self.samples, 500)
        u = np.array([gates.expand(_random_gate(self.rng)) for _ in range(n)])
        self.check("expanded_gate_unitarity", 1e-12,
                   np.abs(gates._matmul(u, u.conj().swapaxes(1, 2)) - np.eye(4)).max(axis=(1, 2)))

        mu = self.rng.uniform(-2 * math.pi, 2 * math.pi, 20).tolist()
        rx, ry, rz = (np.array([gates.rotation(axis, m) for m in mu]) for axis in "xyz")
        e_x = rx - gates._matmul(gates._matmul(gates.rotation("z", -math.pi / 2), ry),
                                 gates.rotation("z", math.pi / 2))
        e_z = rz - gates._matmul(gates._matmul(gates.rotation("x", math.pi / 2), ry),
                                 gates.rotation("x", -math.pi / 2))
        self.check("rotation_identities", 1e-12,
                   np.maximum(np.abs(e_x), np.abs(e_z)).max(axis=(1, 2)))

        grid = [(math.radians(eta), math.radians(omega))
                for eta in range(0, 181, 10) for omega in range(0, 361, 20)]
        e_sweep, e_sup = [], []
        for eta, omega in grid:
            steps = gates.run(gates.Circuit(gates=(
                gates.Gate(kind="rx", target="A", angle=eta),
                gates.Gate(kind="cry", control="A", target="B", angle=omega))))
            e_sweep.append(abs(steps[-1].concurrence - math.sin(eta) * math.sin(omega / 2)))
            r = state.bloch_vector(state.reduced_density(steps[1].state, "A"))
            e_sup.append(abs(math.hypot(r[0], r[1]) - math.sin(eta)))
        self.check("entangler_concurrence_law", 1e-9, np.array(e_sweep))
        self.check("entangler_superposition_degree", 1e-12, np.array(e_sup))

        n = min(self.samples, 200)
        e_traj = []  # one error per step; a circuit is one sample
        for _ in range(n):
            gs = [_random_gate(self.rng) for _ in range(int(self.rng.integers(1, 7)))]
            e_traj += [abs(step.spheres_a.ent.c - step.spheres_b.ent.c)
                       for step in gates.run(gates.Circuit(gates=tuple(gs)))]
        self.check("trajectory_concurrence_match", 1e-10, np.array(e_traj), samples=n)

        # Drawn last, so that no other invariant's inputs move.
        n = min(self.samples, 500)
        gs = [_random_gate(self.rng) for _ in range(n)]
        got = np.array([gates.apply(TwoQubitState(*v), g)
                        for v, g in zip(self.amps[:n].tolist(), gs)])
        diff = got - gates._matmul(np.array([gates.expand(g) for g in gs]),
                                   self.amps[:n, :, None])[:, :, 0]
        self.check("gate_apply_matches_kron", 1e-12, np.hypot(diff.real, diff.imag).max(axis=1),
                   self.pool)

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
