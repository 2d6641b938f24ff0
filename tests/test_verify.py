import ast
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import child_env, random_product_state
from qubit_spheres import cli, oracles, state, verify
from qubit_spheres.jsonfmt import dumps
from qubit_spheres.state import TwoQubitState, random_state
from qubit_spheres.verify import run_suite


def test_partial_trace_matches_index_summation_bit_for_bit(state_pool):
    # The literal 4x4 outer-product summation, one state at a time, in
    # Python's complex arithmetic, which no CPU feature changes.
    batch = np.array([s.vector() for s in state_pool[:2000]])
    for which in ("A", "B"):
        rhos = oracles.partial_trace(batch.reshape(-1, 2, 2), which)
        for psi, rho in zip(batch.tolist(), rhos):
            outer = np.array([[x * y.conjugate() for y in psi] for x in psi])
            ref = np.zeros((2, 2), dtype=complex)
            for a in range(2):
                for b in range(2):
                    for c in range(2):
                        ref[a, b] += (outer[2 * a + c, 2 * b + c] if which == "A"
                                      else outer[2 * c + a, 2 * c + b])
            assert rho.tobytes() == ref.tobytes()


def test_pool_is_the_random_state_sequence():
    for seed in range(1, 11):
        rng = np.random.default_rng(seed)
        want = np.array([random_state(rng).amplitudes() for _ in range(500)])
        got = state.random_amplitudes(np.random.default_rng(seed), 500)
        assert got.tobytes() == want.tobytes()


def test_pool_norm_is_the_per_row_linalg_norm_bit_for_bit():
    # Each row over the Python sum of its squares, real parts then imaginary.
    for seed in (1, 2, 3, 42, 20240817):
        for dim in (2, 4):
            for n in (1, 3000):
                got = state.random_amplitudes(np.random.default_rng(seed), n, dim)
                x = np.random.default_rng(seed).standard_normal((n, 2, dim))
                norms = [math.sqrt(sum(v * v for v in re + im)) for re, im in x.tolist()]
                want = (x[:, 0] + 1j * x[:, 1]) / np.array(norms)[:, None]
                assert got.tobytes() == want.tobytes(), (seed, dim, n)


SPIN_FLIP = [(0, 3, -1.0), (1, 2, 1.0), (2, 1, 1.0), (3, 0, -1.0)]  # sigma_y x sigma_y


def test_batched_oracle_concurrence_is_the_per_state_form_bit_for_bit(state_pool):
    # Haar rows, and the Bell, basis and product states, where exact zeros occur.
    exact = ([TwoQubitState.bell(name) for name in state.BELL_NAMES]
             + [TwoQubitState.basis(label) for label in state.BASIS_NAMES]
             + [TwoQubitState.from_amplitudes(0.5, 0.5, 0.5, 0.5),
                TwoQubitState.from_amplitudes(0.5, -0.5j, 0.5, -0.5j)])
    rng = np.random.default_rng(3)
    products = [random_product_state(rng) for _ in range(500)]
    states = state_pool[:3000] + exact + products
    got = oracles.concurrence(np.array([s.vector() for s in states]))
    want = np.array([abs(sum(s * (psi[i] * psi[j]) for i, j, s in SPIN_FLIP))
                     for psi in states])
    assert got.tobytes() == want.tobytes()
    assert not got[3004:3010].any()  # the basis rows and the two exact products


def test_oracles_do_not_touch_sphere_code():
    # Structural independence: the oracle module may import only state/numpy,
    # and must not reuse the determinant formula it cross-checks.
    src = Path(oracles.__file__).read_text(encoding="utf-8")
    imported = set()
    for node in ast.walk(ast.parse(src)):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert not any("gates" in name for name in imported)  # an imported hopf is in src
    assert "hopf" not in src
    assert "concurrence_det" not in src


def test_run_suite_rejects_zero_samples():
    with pytest.raises(ValueError, match="samples"):
        run_suite(seed=1, samples=0)
    with pytest.raises(ValueError, match="seed"):
        run_suite(seed=-1, samples=1)


def test_failing_invariant_names_a_replayable_witness(monkeypatch, capsys):
    seed, n, bad = 5, 50, 7
    rng = np.random.default_rng(seed)
    pool_state = [random_state(rng) for _ in range(bad + 1)][bad]

    def bent_fiber(ss):
        return ss._replace(fiber=ss.fiber._replace(zeta_f=ss.fiber.zeta_f + 1e-6))

    # The amplitudes of every batch _map sends through the kernel, in the
    # order mapped: the fiber-unitary moved states (state i under B_BASE if i
    # is odd), the y-rotated ones, the unmoved ones and the product states.
    batches = []
    map_batch = verify._map

    def recorded_map(amps, ks):
        batches.append(amps)
        return map_batch(amps, ks)

    # Per case: the module and function, the call of it that is perturbed (that
    # of state `bad` of the pool or of a recorded batch, under the witness's
    # assignment) and how, and the entry that fails.
    cases = [
        (verify.hopf, "reconstruct", None,
         lambda out: TwoQubitState.from_amplitudes(out.alpha + 1e-6, *out[1:]),
         "round_trip_reconstruction", "B"),
        # A NaN error, whose max_error is written as null.
        (verify.hopf, "rho_from_spheres", None, lambda out: out._replace(rho00=complex(math.nan)),
         "rho_from_spheres_vs_partial_trace", "B"),
        # A trace error, which leaves d and the Bloch vector as they are.
        (verify.state, "reduced_density", None,
         lambda out: out._replace(rho00=out.rho00 + 2e-12, rho11=out.rho11 + 2e-12),
         "reduced_density_vs_partial_trace", "A"),
        # A state's error, under no assignment.  Its c is 0.294: above about
        # 1e-12 / (2c) the shift would fail coherence_complementarity too.
        (verify.state, "concurrence_det", None, lambda out: out + 1.3e-12,
         "concurrence_det_vs_oracle", None),
        (verify.hopf, "sphere_set", 0, bent_fiber, "fiber_unitary_bloch_rotation", "B"),
        (verify.hopf, "sphere_set", 3, bent_fiber, "separable_fiber_is_bloch", "A"),
    ]
    for module, plant, batch, perturb, name, assignment in cases:
        original = getattr(module, plant)
        a = assignment and verify.Assignment(assignment)
        target = {"reduced_density": (pool_state, assignment), "concurrence_det": (pool_state,)
                  }.get(plant) or (verify.hopf.sphere_set(pool_state, a),)
        batches.clear()

        def perturbed(*args):
            out = original(*args)
            if plant != "sphere_set":  # the state functions take the state, the others the set
                hit = args == target
            else:
                hit = len(batches) > batch and args == (tuple(batches[batch][bad].tolist()), a)
            return perturb(out) if hit else out

        monkeypatch.setattr(verify, "_map", recorded_map)
        monkeypatch.setattr(module, plant, perturbed)
        assert cli.main(["verify", "--seed", str(seed), "--samples", str(n)]) == 1
        entries = json.loads(capsys.readouterr().out)["invariants"]
        monkeypatch.undo()
        failed = [e for e in entries if not e["passed"]]
        assert [e["name"] for e in failed] == [name]
        assert all("witness" not in e for e in entries if e["passed"])
        assert (failed[0]["max_error"] is None) == (plant == "rho_from_spheres")
        witness = failed[0]["witness"]
        assert (witness["sample"], witness["assignment"]) == (bad, assignment)
        # The state that was mapped: state `bad` of the perturbed batch.
        want = [v for c in (pool_state if batch is None else batches[batch][bad].tolist())
                for v in (c.real, c.imag)]
        assert witness["state"] == ",".join(map(repr, want))

        assert cli.main(["map", f"--state={witness['state']}"]) == 0
        amps = json.loads(capsys.readouterr().out)["records"][0]["amplitudes"]
        assert amps == pytest.approx(want, abs=1e-15)


def test_nan_error_fails_only_its_entry(monkeypatch, capsys):
    # A NaN concurrence at one grid point of the entangler sweep, among
    # finite errors at the others.
    concurrence_det = verify.gates.concurrence_det
    calls = []

    def planted(s):
        calls.append(s)
        return math.nan if len(calls) == 5 else concurrence_det(s)

    monkeypatch.setattr(verify.gates, "concurrence_det", planted)
    assert cli.main(["verify", "--seed", "5", "--samples", "50"]) == 1
    failed = [e for e in json.loads(capsys.readouterr().out)["invariants"] if not e["passed"]]
    assert failed == [{"name": "entangler_concurrence_law", "samples": 361, "max_error": None,
                       "threshold": 1e-9, "passed": False}]


def test_witness_state_parses_to_the_exact_pool_state():
    amps = state.random_amplitudes(np.random.default_rng(42), 10_000)
    for row in amps.tolist():
        text = ",".join(repr(v) for c in row for v in (c.real, c.imag))  # as check() writes it
        s, _ = cli._parse_state(SimpleNamespace(bell=None, basis=None, state=text))
        assert s.amplitudes() == tuple(row)


try:
    BLAS = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
except TypeError:  # numpy before 1.25 has no mode="dicts"
    BLAS = {}
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
# The OpenBLAS kernels to force, those whose instructions this CPU has.
KERNELS = [k for k, flags in (("Prescott", ["SSE3"]), ("Sandybridge", ["AVX"]),
                              ("Haswell", ["AVX2", "FMA3"]))
           if all(__cpu_features__.get(f) for f in flags)]
# numpy's SIMD targets to turn off, above AVX2 and from AVX2 with FMA up.
NO_SIMD = {"no-avx512": "X86_V4 AVX512_ICL AVX512_SPR",
           "no-x86-v3": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}


@pytest.mark.skipif("DYNAMIC_ARCH" not in BLAS.get("openblas configuration", ""),
                    reason="numpy's BLAS is not OpenBLAS with DYNAMIC_ARCH")
def test_verify_report_is_the_same_on_every_blas_kernel():
    """The report, under the default and each forced OpenBLAS kernel, and
    with numpy's AVX-512 and its X86_V3 (AVX2, FMA) loops turned off; the
    children start together."""
    base = child_env()
    for var in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES"):
        base.pop(var, None)
    envs = {"default": base}
    envs.update((k, dict(base, OPENBLAS_CORETYPE=k, OPENBLAS_VERBOSE="2")) for k in KERNELS)
    # numpy refuses to start when asked to turn off a target it does not dispatch.
    envs.update((k, dict(base, NPY_DISABLE_CPU_FEATURES=v)) for k, v in NO_SIMD.items()
                if set(v.split()) <= set(__cpu_dispatch__))
    argv = [sys.executable, "-m", "qubit_spheres", "verify", "--seed", "42", "--samples", "500"]
    procs = {k: subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                 text=True) for k, env in envs.items()}
    outs = {k: p.communicate() for k, p in procs.items()}
    assert all(p.returncode == 0 for p in procs.values()), outs
    # Each forced kernel is named (Prescott may run as Katmai), and no two are the same.
    cores = [re.findall(r"Core: (\w+)", outs[k][1]) for k in KERNELS]
    assert all(len(c) == 1 for c in cores), outs
    assert len({c[0] for c in cores}) == len(cores), cores
    assert {k: out for k, (out, _) in outs.items()} == dict.fromkeys(outs, outs["default"][0])


# -- the pool pass split over processes ----------------------------------------

# Odd, so that the chunks are uneven.
SPLIT_SAMPLES = 2 * verify.MIN_SHARE + 1


def allow_cpus(monkeypatch, n):
    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def count_forks(monkeypatch) -> list[int]:
    """A list that gets the pid of each process that forks from here on."""
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(verify.os, "fork", counted_fork)
    return forks


def wait_for(flag):  # until another process sets flag[0], for at most 5 s
    end = time.monotonic() + 5.0
    while not flag[0]:
        assert time.monotonic() < end, "timed out waiting for another process"
        time.sleep(0.001)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(sys.version_info >= (3, 12), reason="the pass never forks there")
def test_split_pass_gives_the_one_process_report(monkeypatch):
    forks = count_forks(monkeypatch)
    allow_cpus(monkeypatch, 2)
    assert verify._processes(SPLIT_SAMPLES) == 2
    split = dumps(run_suite(seed=9, samples=SPLIT_SAMPLES).to_dict())
    assert forks == [os.getpid()]
    assert_no_child_left()

    allow_cpus(monkeypatch, 1)
    assert dumps(run_suite(seed=9, samples=SPLIT_SAMPLES).to_dict()) == split
    assert len(forks) == 1

    def failed_fork():
        raise OSError("fork refused")

    allow_cpus(monkeypatch, 2)
    monkeypatch.setattr(verify.os, "fork", failed_fork)
    assert dumps(run_suite(seed=9, samples=SPLIT_SAMPLES).to_dict()) == split
    assert_no_child_left()


@pytest.mark.skipif(sys.version_info >= (3, 12), reason="the pass never forks there")
def test_error_computed_in_a_child_names_its_witness(monkeypatch):
    bad, a = 1500, verify.Assignment.B_BASE
    rows = state.random_amplitudes(np.random.default_rng(9), SPLIT_SAMPLES)[[bad, 10]].tolist()
    target, early = (verify.hopf.sphere_set(TwoQubitState(*row), a) for row in rows)
    reconstruct, rho_from_spheres = verify.hopf.reconstruct, verify.hopf.rho_from_spheres
    where = verify._shared(1, dtype=np.int64)  # the pid that maps state `bad`

    def planted(ss):
        out = reconstruct(ss)
        if ss == target:
            where[0] = os.getpid()
            return TwoQubitState.from_amplitudes(out.alpha + 1e-6, *out[1:])
        return out

    def nan_rho(ss):  # also at state 10, in an earlier chunk: the first NaN is the witness
        out = rho_from_spheres(ss)
        return out._replace(rho00=complex(math.nan)) if ss in (target, early) else out

    gate_invariants = verify._SuiteRunner.gate_invariants

    def slow_gates(self):  # so that a child maps state `bad` meanwhile
        wait_for(where)
        gate_invariants(self)

    monkeypatch.setattr(verify.hopf, "reconstruct", planted)
    monkeypatch.setattr(verify.hopf, "rho_from_spheres", nan_rho)
    monkeypatch.setattr(verify._SuiteRunner, "gate_invariants", slow_gates)
    allow_cpus(monkeypatch, 2)
    split = run_suite(seed=9, samples=SPLIT_SAMPLES)
    assert where[0] not in (0, os.getpid())
    failed = [e for e in split.to_dict()["invariants"] if not e["passed"]]
    assert [(e["name"], e["max_error"] is None) for e in failed] == [
        ("round_trip_reconstruction", False), ("rho_from_spheres_vs_partial_trace", True)]
    assert [e["witness"] for e in failed] == [{"sample": i, "assignment": "B", "state": ",".join(
        repr(v) for c in row for v in (c.real, c.imag))} for i, row in zip((bad, 10), rows)]
    monkeypatch.setattr(verify._SuiteRunner, "gate_invariants", gate_invariants)
    allow_cpus(monkeypatch, 1)
    assert dumps(run_suite(seed=9, samples=SPLIT_SAMPLES).to_dict()) == dumps(split.to_dict())


def test_pool_batch_keeps_no_pool_sized_array(monkeypatch):
    allow_cpus(monkeypatch, 2)
    # ceil(states / CHUNK_STATES) chunks, at most 256: one byte each in the pipe.
    for samples, chunk_states, chunks in ((SPLIT_SAMPLES, 400, 6), (300, 1, 256)):
        amps = state.random_amplitudes(np.random.default_rng(9), samples)
        monkeypatch.setattr(verify, "CHUNK_STATES", chunk_states)
        with verify._pool_pass(amps) as (top, at):
            pass
        assert top.shape == at.shape == (chunks, len(verify.POOL_ENTRIES))
        # Each entry's largest error, and its first chunk's index of it, are one chunk's.
        monkeypatch.setattr(verify, "CHUNK_STATES", samples)
        with verify._pool_pass(amps) as (whole_top, whole_at):
            pass
        first = top.argmax(axis=0)
        assert top.max(axis=0).tolist() == whole_top[0].tolist()
        assert at[first, np.arange(len(first))].tolist() == whole_at[0].tolist()


def test_pass_stays_in_one_process_from_python_3_12(monkeypatch):
    allow_cpus(monkeypatch, 2)
    monkeypatch.setattr(verify, "sys", SimpleNamespace(version_info=(3, 12, 0)))
    assert verify._processes(SPLIT_SAMPLES) == 1
    monkeypatch.setattr(verify, "sys", SimpleNamespace(version_info=(3, 11, 7)))
    assert verify._processes(SPLIT_SAMPLES) == 2


class Planted(Exception):
    pass


@pytest.mark.parametrize("bad", [1500, 10, None, "claim"], ids=[
    "child-share", "parent-share", "parent-group", "parent-claim"])
def test_split_pass_raises_a_failure_here_and_reaps_every_child(monkeypatch, bad):
    """A fault in a late or an early pool chunk, whichever process maps it,
    in a group this process runs while the children map the pool, or in a
    chunk this process claims while a child still maps."""
    seed, reconstruct = 9, verify.hopf.reconstruct
    if bad is None:
        def planted(f):  # the product states' factors
            raise Planted("product state")

        monkeypatch.setattr(verify, "_bloch", planted)
    elif bad == "claim":
        parent, claimed = os.getpid(), verify._shared(1)

        def planted(ss):
            if os.getpid() == parent:
                claimed[0] = 1
                raise Planted("pool state claim")
            wait_for(claimed)  # a child's first call waits, so this process claims a chunk
            return reconstruct(ss)

        monkeypatch.setattr(verify.hopf, "reconstruct", planted)
    else:
        alpha = state.random_amplitudes(np.random.default_rng(seed), SPLIT_SAMPLES)[bad, 0]

        def planted(ss):
            s = reconstruct(ss)
            if abs(s.alpha - alpha) < 1e-12:
                raise Planted(f"pool state {bad}")
            return s

        monkeypatch.setattr(verify.hopf, "reconstruct", planted)
    forks = count_forks(monkeypatch)
    allow_cpus(monkeypatch, 2)
    with pytest.raises(Planted, match="product state$" if bad is None else f"pool state {bad}$"):
        run_suite(seed=seed, samples=SPLIT_SAMPLES)
    assert len(forks) == verify._processes(SPLIT_SAMPLES) - 1  # none from CPython 3.12 on
    assert_no_child_left()
