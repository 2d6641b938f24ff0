"""Executable invariant suite: every library-level property, run on random data.

One seeded pool of Haar-random states, and smaller batches derived from it,
go through the scalar kernel the CLI runs: the pool in one pass split over
processes (_pool_pass), each smaller batch by _map in this process.  Every
entry is an array of per-sample errors reduced by max; an entry whose samples
are a batch's states names its worst one as a witness.  Products are
elementwise (gates._matmul) and complex ones real (gates._product), so the
report depends on neither evaluation order, BLAS kernel nor SIMD level.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import sys
from typing import NamedTuple

import numpy as np

from . import gates, hopf, oracles, state
from .hopf import Assignment
from .jsonfmt import sig15
from .state import TwoQubitState

DEFAULT_SEED = 42
DEFAULT_SAMPLES = 10_000

_ASSIGNMENTS = tuple(Assignment)

# The fewest pool states worth a forked process: a fork, its page faults and
# the reaping cost a few ms, and 1000 states map in about 0.08 s.
MIN_SHARE = 1000
# Pool states per chunk, whose errors one _pool_errors call computes: a call
# costs about 0.3 ms of numpy overhead at any size.
CHUNK_STATES = 400
SUBSET = 1000  # states in each smaller batch: the pool's first, moved or not, or products

# Columns of a sphere-set row (_row): base, entanglement, fiber Bloch point.
THETA, PHI, X1, B, X0, CHI, XI, TX, TY, TZ, C, X2, X3, X4 = range(14)
BLOCH = slice(14, 17)


def _row(ss: hopf.SphereSet) -> tuple:
    """The 17 columns THETA...BLOCH of a sphere set."""
    ent = ss.ent
    return (*ss.base, ent.chi, ent.xi, *ent.t, ent.c, ent.x2, ent.x3, ent.x4, *ss.fiber.bloch)


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
    """Bloch vectors (2 Re(conj(a) b), 2 Im(conj(a) b), |a|^2 - |b|^2), on a new first
    axis, of the pairs (a, b) on f's last axis, in real arithmetic as gates._product is."""
    (ar, br), (ai, bi) = np.moveaxis(f.real, -1, 0), np.moveaxis(f.imag, -1, 0)
    return np.array([2.0 * (ar * br + ai * bi), 2.0 * (ar * bi - ai * br),
                     (ar * ar + ai * ai) - (br * br + bi * bi)])


def _act(u: np.ndarray, amps: np.ndarray, on_a) -> np.ndarray:
    """Amplitudes (n, 4) after the one-qubit unitaries u (n, 2, 2), each on
    qubit A where `on_a` holds and on B elsewhere: u times the amplitude
    grid with the acted-on qubit's index first (B's by the order 0, 2, 1, 3,
    its own inverse)."""
    order = np.array([[0, 2, 1, 3], [0, 1, 2, 3]])[np.asarray(on_a, dtype=int)]
    moved = gates._matmul(u, np.take_along_axis(amps, order, 1).reshape(-1, 2, 2))
    return np.take_along_axis(moved.reshape(-1, 4), order, 1)


def _processes(n: int) -> int:
    """Processes to map n states by: one per CPU this process may run on,
    none with fewer than MIN_SHARE states.  One from CPython 3.12 on, where
    os.fork() warns in a process with a second thread (numpy's OpenBLAS
    thread) and the warning may be raised after the child exists."""
    cpus = 1
    if hasattr(os, "sched_getaffinity") and sys.version_info < (3, 12):
        cpus = len(os.sched_getaffinity(0))
    return max(1, min(cpus, n // MIN_SHARE))


def _shared(*shape: int, dtype=float) -> np.ndarray:
    """An array in anonymous shared memory, which forked children write into."""
    dtype = np.dtype(dtype)
    return np.frombuffer(mmap.mmap(-1, math.prod(shape) * dtype.itemsize), dtype).reshape(shape)


# Every entry of the report and its threshold, in report order.
ENTRIES = {
    "reduced_density_vs_partial_trace": 1e-12, "coherence_complementarity": 1e-12,
    "concurrence_det_vs_oracle": 1e-12, "bloch_vector_norm": 1e-10,
    "local_unitary_concurrence_invariance": 1e-10, "round_trip_reconstruction": 1e-10,
    "unit_s4_norm": 1e-12, "b_squared_decomposition": 1e-12, "concurrence_consistency": 1e-10,
    "chi_northern_hemisphere": 1e-12, "sphere_angle_consistency": 1e-12,
    "bloch_vector_is_base_point": 1e-12, "coherence_is_base_bloch_length": 1e-15,
    "fiber_unitary_base_locality": 1e-12, "fiber_unitary_bloch_rotation": 1e-9,
    "base_yrotation_fixes_entanglement": 1e-12, "base_yrotation_plane_rotation": 1e-10,
    "separable_concurrence_zero": 1e-10, "separable_chi_or_b_zero": 1.0,
    "separable_base_is_bloch": 1e-12, "separable_fiber_is_bloch": 1e-12,
    "rho_from_spheres_vs_partial_trace": 1e-12, "outer_product_structure": 1e-12,
    "fiber_is_conditional_state": 1e-12, "expanded_gate_unitarity": 1e-12,
    "rotation_identities": 1e-12, "entangler_concurrence_law": 1e-9,
    "entangler_superposition_degree": 1e-12, "trajectory_concurrence_match": 1e-10,
    "gate_apply_matches_kron": 1e-12}

# The pool entries, in report order: column j of _pool_pass's top and at is
# entry j's.  Those per state count a state once: its two rows are one sample.
_PER_STATE = ("reduced_density_vs_partial_trace", "coherence_complementarity",
              "concurrence_det_vs_oracle", "bloch_vector_norm")
POOL_ENTRIES = _PER_STATE + (
    "round_trip_reconstruction", "unit_s4_norm", "b_squared_decomposition",
    "concurrence_consistency", "chi_northern_hemisphere", "sphere_angle_consistency",
    "bloch_vector_is_base_point", "coherence_is_base_bloch_length",
    "rho_from_spheres_vs_partial_trace", "outer_product_structure", "fiber_is_conditional_state")


class _Batch(NamedTuple):
    """States amps (m, 4), state i mapped under each assignment _ASSIGNMENTS[ks[i, j]]."""
    amps: np.ndarray
    ks: np.ndarray | None = None
    spheres: np.ndarray | None = None  # row [i, j]: _row of its sphere set


def _pool_errors(amps, conc, real, cplx) -> np.ndarray:
    """Errors (n, 2, len(POOL_ENTRIES)) of pool states amps (n, 4) under A_BASE, then
    B_BASE, from concurrence_det conc and _pool_pass's values real (n, 2, 29) and cplx
    (n, 2, 12).  Each is elementwise per row, as the oracles are: any rows' have the
    pool's bits."""
    sp, stats, trig = np.split(real.transpose(2, 0, 1).copy(), [17, 21])
    rec, rho, rd = np.split(cplx.transpose(2, 0, 1).copy(), [4, 8])
    c, c_ref = conc[:, None], oracles.concurrence(amps)[:, None]
    d, rx, ry, rz = stats
    sin_th, sin_ph, sin_chi, sin_xi, cos_th, cos_ph, cos_chi, cos_xi = trig
    x1, b, x0, chi, tx, ty, tz, cc, x2, x3, x4 = sp[[X1, B, X0, CHI, TX, TY, TZ, C, X2, X3, X4]]
    # x ** 2 as Python's float power (libm pow) rounds it: x * x differs
    # in the last bit for about one double in a thousand.
    sq0, sq1, sq2, sq3, sq4, sq_b, sq_c = np.float_power(sp[[X0, X1, X2, X3, X4, B, C]], 2)
    diff = rec - amps.T[:, :, None]
    grid = np.asfortranarray(amps.reshape(-1, 2, 2))  # the oracle's loops then run along states
    ref = np.stack([oracles.partial_trace(grid, a.base_qubit).reshape(-1, 4).T
                    for a in _ASSIGNMENTS], axis=-1)
    # The pair (q1, q2) of each state and assignment, packed from the
    # amplitudes as the hopf module docstring packs them: (alpha.re,
    # -beta.im, beta.re, alpha.im | gamma.re, -delta.im, delta.re,
    # gamma.im) under A_BASE, with beta and gamma swapped under B_BASE.
    # The float view's columns are alpha.re, alpha.im, ..., delta.im.
    q = amps.view(float)[:, [[0, 3, 2, 1, 4, 7, 6, 5], [0, 5, 4, 1, 2, 7, 6, 3]]]
    q = np.ascontiguousarray((q * [1.0, -1.0, 1.0, 1.0, 1.0, -1.0, 1.0, 1.0]).transpose(2, 0, 1))
    # Off-diagonal structure: x1 + b*sin(chi)*e^(k*xi)*i + x4*k must
    # rebuild the full quaternion product 2*q2*conj(q1).  The i/j part
    # carries sign(b): c*e^(k*xi)*i alone only matches b >= 0.
    p = [2.0 * w for w in oracles.hamilton(q[4:], oracles.conj(q[:4]))]
    r, c_b = b * sin_chi, np.abs(b) * sin_chi
    # The fiber qubit's state given the base qubit in |0>: the Bloch vector of
    # (alpha, beta) under A_BASE, (alpha, gamma) under B_BASE, over its squared
    # norm (that of the normalized pair).  A zero pair (theta = pi) has none.
    f = amps[:, [[0, 1], [0, 2]]]
    n2 = (f.real * f.real + f.imag * f.imag).sum(axis=2)
    cond = _bloch(f) / np.where(n2 > 0, n2, 1.0)
    return np.array([
        np.abs(rd - ref).max(axis=0), np.abs(d * d + c * c - 1.0),
        np.broadcast_to(np.abs(c - c_ref), d.shape),
        np.abs(rx * rx + ry * ry + rz * rz - (1.0 - c * c)),
        np.hypot(diff.real, diff.imag).max(axis=0),
        np.abs(sq0 + sq1 + sq2 + sq3 + sq4 - 1.0), np.abs(sq_b - sq4 - sq_c),
        np.maximum(np.abs(c_b - c_ref), np.abs(cc - c_ref)),
        np.maximum(chi - math.pi / 2, -chi),
        # Each sphere's Cartesian point from its angles: (x1, b, x0) from
        # (theta, phi), the inner-sphere point b*t, and t from (chi, xi),
        # which are read back from t: atan2 against its own sine and cosine.
        np.abs([x1 - sin_th * cos_ph, b - sin_th * sin_ph, x0 - cos_th, tz - cos_chi,
                tx - sin_chi * cos_xi, ty - sin_chi * sin_xi, x2 - b * tx, x3 - b * ty,
                cc - c_b, x4 - b * cos_chi]).max(axis=0),
        # The base qubit's Bloch vector is (x1, x4, x0).
        np.abs([rx - x1, ry - x4, rz - x0]).max(axis=0),
        # Its length is d, from reduced_density.  1e-15 = 9u (u = 2^-53): each
        # side is a few u off (sums of unit-bounded products, then hypots).
        np.abs(d - np.hypot(np.hypot(x0, x1), x4)),
        np.abs(rho - ref).max(axis=0),
        # e^(k*xi)*i = cos(xi)*i + sin(xi)*j.
        np.abs([x1 - p[0], r * cos_xi - p[1], r * sin_xi - p[2], x4 - p[3]]).max(axis=0),
        np.where(n2 > 0, np.abs(sp[BLOCH] - cond).max(axis=0), 0.0),
    ]).transpose(1, 2, 0)


def _map(amps: np.ndarray, ks: np.ndarray) -> _Batch:
    """States amps (m, 4) through the CLI's scalar kernel, state i under each
    assignment index in ks[i]: the batch with its sphere rows."""
    rows = (x for v, ks_i in zip(amps.tolist(), ks.tolist()) for s in [TwoQubitState(*v)]
            for k in ks_i for x in _row(hopf.sphere_set(s, _ASSIGNMENTS[k])))
    return _Batch(amps, ks, np.fromiter(rows, float, 17 * ks.size).reshape(*ks.shape, 17))


@contextlib.contextmanager
def _pool_pass(amps: np.ndarray):
    """The pool pass: states amps (m, 4) through the scalar kernel, each under
    A_BASE, then B_BASE.  Yields (top, at), filled once the block ends: per chunk
    and pool entry, the largest error (_pool_errors) and the flat (state,
    assignment) index of its first.  The block runs while the children map.

    The m states are ceil(m / CHUNK_STATES) chunks, at most 256 (one byte each
    in a pipe, which holds them all).  After a fork per CPU but one
    (_processes), every process claims chunks until the pipe is empty and
    writes only top and at, in shared memory.  A chunk a failed child left
    undone is mapped again here, raising its error; every child is reaped
    before the block is left.  The values do not depend on the process that
    maps them: the report is a one-process pass's."""
    m = len(amps)
    chunks = min(256, -(-m // CHUNK_STATES))  # so that none is empty
    per_entry = chunks, len(POOL_ENTRIES)
    top, at = _shared(*per_entry), _shared(*per_entry, dtype=np.int64)
    done = _shared(chunks, dtype=np.uint8)
    edges = [m * c // chunks for c in range(chunks + 1)]  # chunk c is [edges[c], edges[c + 1])

    def map_chunk(c: int):
        lo, hi = edges[c], edges[c + 1]
        # Per state and assignment, real gets the 17 sphere columns, the 4 rho
        # statistics and 8 libm sines and cosines; cplx gets the reconstruct,
        # rho_from_spheres and reduced_density outputs.
        conc, real, cplx = [], [], []
        sin, cos = math.sin, math.cos
        for v in amps[lo:hi].tolist():
            s = TwoQubitState(*v)
            conc.append(state.concurrence_det(s))
            for a in _ASSIGNMENTS:
                ss = hopf.sphere_set(s, a)
                row = _row(ss)
                theta, phi, chi, xi = row[THETA], row[PHI], row[CHI], row[XI]
                rho = state.reduced_density(s, a.base_qubit)
                real += (*row, state.coherence_d(rho), *state.bloch_vector(rho),
                         sin(theta), sin(phi), sin(chi), sin(xi),
                         cos(theta), cos(phi), cos(chi), cos(xi))
                cplx += (*hopf.reconstruct(ss), *hopf.rho_from_spheres(ss), *rho)
        err = _pool_errors(amps[lo:hi], np.array(conc),
                           np.array(real, float).reshape(hi - lo, 2, -1),
                           np.array(cplx, complex).reshape(hi - lo, 2, 12))
        err = err.reshape(-1, len(POOL_ENTRIES))
        top[c], at[c] = err.max(axis=0), err.argmax(axis=0) + 2 * lo
        done[c] = 1

    r, w = os.pipe()
    os.write(w, bytes(range(chunks)))
    os.close(w)

    def claim():  # until the pipe is empty
        while c := os.read(r, 1):
            map_chunk(c[0])

    children = []
    try:
        for _ in range(_processes(m) - 1):
            try:
                pid = os.fork()
            except OSError:
                break
            if pid == 0:
                status = 1
                try:
                    claim()
                    status = 0
                finally:
                    os._exit(status)
            children.append(pid)
        yield top, at
        claim()
    finally:
        os.close(r)
        for pid in children:
            os.waitpid(pid, 0)
    for c in np.flatnonzero(done == 0).tolist():
        map_chunk(c)


class _SuiteRunner:
    def __init__(self, seed: int, samples: int):
        self.rng = np.random.default_rng(seed)
        self.samples = samples
        self.amps = state.random_amplitudes(self.rng, samples)

    def draw(self):
        """Every other random input, in one fixed order: the report's bytes depend on it."""
        rng, n = self.rng, min(self.samples, SUBSET)
        # The draw the quaternion laws once read, kept so every later draw is unchanged.
        rng.standard_normal((n, 22))
        # Per moved state: a quaternion, then whether the unitary acts on qubit A.
        self.moves = [(rng.standard_normal(4), rng.integers(2) == 0) for _ in range(n)]
        self.fiber_u = rng.standard_normal((n, 4))
        self.mu = rng.uniform(-math.pi, math.pi, (n, 1))
        self.factors = state.random_amplitudes(rng, 2 * n, dim=2)  # of A, then of B
        self.random_gates = [_random_gate(rng) for _ in range(min(self.samples, 500))]
        self.angles = rng.uniform(-2 * math.pi, 2 * math.pi, 20).tolist()
        self.circuits = [[_random_gate(rng) for _ in range(int(rng.integers(1, 7)))]
                         for _ in range(min(self.samples, 200))]
        self.applied_gates = [_random_gate(rng) for _ in range(min(self.samples, 500))]

    def check(self, name: str, err: np.ndarray, batch: _Batch | None = None,
              samples: int | None = None, at: np.ndarray | None = None):
        """Record entry `name` from its errors: err[i] of sample i, err[i, j] of batch
        state i under ks[i, j], or chunk c's largest, first at flat index at[c] of ks
        (of the states, where the batch has no ks).
        A failing entry whose samples are `batch`'s states names its worst.  NaN fails."""
        threshold = ENTRIES[name]
        worst = max(float(err.max()), 0.0)
        witness = None
        if batch is not None and not worst <= threshold:
            k = int(err.argmax())
            i, *j = (np.unravel_index(k, err.shape) if at is None else np.unravel_index(
                int(at[k]), batch.amps.shape[:1] if batch.ks is None else batch.ks.shape))
            witness = {"sample": int(i),
                       "assignment": _ASSIGNMENTS[batch.ks[i, j[0]]].value if j else None,
                       "state": ",".join(repr(v) for c in batch.amps[i].tolist()
                                         for v in (c.real, c.imag))}
        self.results[name] = InvariantResult(name, err.size if samples is None else samples,
                                             worst, threshold, worst <= threshold, witness)

    # -- state-level properties --------------------------------------------

    def state_invariants(self):
        n = min(self.samples, SUBSET)
        moved = _Batch(_act(_su2(_unit(np.array([q for q, _ in self.moves]))), self.amps[:n],
                            [on_a for _, on_a in self.moves]))
        c1, c2 = (np.array([state.concurrence_det(TwoQubitState(*v)) for v in amps.tolist()])
                  for amps in (self.amps[:n], moved.amps))
        self.check("local_unitary_concurrence_invariance", np.abs(c2 - c1), moved)

    # -- sphere map ----------------------------------------------------------

    def equivariance_invariants(self):
        n = min(self.samples, SUBSET)
        # State i is mapped under A_BASE if i is even, else B_BASE: rows (n, 1).
        ks = np.arange(n)[:, None] % 2
        # A fiber-qubit unitary: on B under A_BASE, on A under B_BASE.
        u = _su2(_unit(self.fiber_u))
        fibered = _map(_act(u, self.amps[:n], ks[:, 0] == 1), ks)
        rot = gates.bloch_rotation(u)[:, None]
        # A y rotation of the base qubit by mu.
        mu = self.mu.ravel().tolist()
        u = np.array([gates.rotation("y", m) for m in mu])
        rotated = _map(_act(u, self.amps[:n], ks[:, 0] == 0), ks)
        sin_mu, cos_mu = (np.array([[f(m)] for m in mu]) for f in (math.sin, math.cos))
        before = _map(self.amps[:n], ks).spheres

        local = [X0, X1, B, THETA, X2, X3, X4, CHI]
        self.check("fiber_unitary_base_locality",
                   np.abs(fibered.spheres[..., local] - before[..., local]).max(axis=2), fibered)
        want = gates._matmul(rot, before[..., BLOCH, None])[..., 0]
        self.check("fiber_unitary_bloch_rotation",
                   np.abs(fibered.spheres[..., BLOCH] - want).max(axis=2), fibered)

        fixed = [B, X2, X3, X4, CHI, C]
        self.check("base_yrotation_fixes_entanglement",
                   np.abs(rotated.spheres[..., fixed] - before[..., fixed]).max(axis=2), rotated)
        x0, x1 = before[..., X0], before[..., X1]
        self.check("base_yrotation_plane_rotation", np.maximum(
            np.abs(rotated.spheres[..., X1] - (x0 * sin_mu + x1 * cos_mu)),
            np.abs(rotated.spheres[..., X0] - (x0 * cos_mu - x1 * sin_mu))), rotated)

    def separability_invariants(self):
        n = min(self.samples, SUBSET)
        fa, fb = self.factors[0::2], self.factors[1::2]
        amps = gates._product(fa[:, :, None], fb[:, None, :]).reshape(n, 4)
        products = _map(amps, np.tile([0, 1], (n, 1)))
        rows = products.spheres
        # Disjunction, normalized: chi below 1e-8 or |b| below 1e-10.
        e_cond = np.minimum(rows[..., CHI] / 1e-8, np.abs(rows[..., B]) / 1e-10)
        self.check("separable_concurrence_zero", rows[..., C], products)
        self.check("separable_chi_or_b_zero", e_cond, products)
        # Base and fiber become the factors' Bloch spheres: under A_BASE the
        # base is A's factor and the fiber B's, under B_BASE the reverse.
        ra, rb = _bloch(fa).T, _bloch(fb).T
        base, fib = np.stack((ra, rb), axis=1), np.stack((rb, ra), axis=1)
        self.check("separable_base_is_bloch",
                   np.abs(rows[..., [X1, B, X0]] - base).max(axis=2), products)
        self.check("separable_fiber_is_bloch",
                   np.abs(rows[..., BLOCH] - fib).max(axis=2), products)

    # -- gates ----------------------------------------------------------------

    def gate_invariants(self):
        u = np.array([gates.expand(g) for g in self.random_gates])
        self.check("expanded_gate_unitarity",
                   np.abs(gates._matmul(u, u.conj().swapaxes(1, 2)) - np.eye(4)).max(axis=(1, 2)))

        rx, ry, rz = (np.array([gates.rotation(axis, m) for m in self.angles]) for axis in "xyz")
        e_x = rx - gates._matmul(gates._matmul(gates.rotation("z", -math.pi / 2), ry),
                                 gates.rotation("z", math.pi / 2))
        e_z = rz - gates._matmul(gates._matmul(gates.rotation("x", math.pi / 2), ry),
                                 gates.rotation("x", -math.pi / 2))
        self.check("rotation_identities", np.maximum(np.abs(e_x), np.abs(e_z)).max(axis=(1, 2)))

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
        self.check("entangler_concurrence_law", np.array(e_sweep))
        self.check("entangler_superposition_degree", np.array(e_sup))

        e_traj = []  # one error per step; a circuit is one sample
        for gs in self.circuits:
            e_traj += [abs(step.spheres_a.ent.c - step.spheres_b.ent.c)
                       for step in gates.run(gates.Circuit(gates=tuple(gs)))]
        self.check("trajectory_concurrence_match", np.array(e_traj), samples=len(self.circuits))

        gs = self.applied_gates
        n = len(gs)
        got = np.array([gates.apply(TwoQubitState(*v), g)
                        for v, g in zip(self.amps[:n].tolist(), gs)])
        diff = got - gates._matmul(np.array([gates.expand(g) for g in gs]),
                                   self.amps[:n, :, None])[:, :, 0]
        self.check("gate_apply_matches_kron", np.hypot(diff.real, diff.imag).max(axis=1),
                   _Batch(self.amps))

    def run(self) -> tuple[InvariantResult, ...]:
        self.results = {}
        # The groups run while the children map the pool.
        with _pool_pass(self.amps) as (top, at):
            self.draw()
            self.state_invariants()
            self.equivariance_invariants()
            self.separability_invariants()
            self.gate_invariants()
        pool = _Batch(self.amps, np.tile([0, 1], (self.samples, 1)))
        for j, name in enumerate(POOL_ENTRIES):
            if name == "concurrence_det_vs_oracle":  # the state's, in both rows: no assignment
                self.check(name, top[:, j], _Batch(self.amps), self.samples, at[:, j] // 2)
            else:
                self.check(name, top[:, j], pool,
                           self.samples if name in _PER_STATE else pool.ks.size, at[:, j])
        return tuple(self.results[name] for name in ENTRIES)


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
