"""The four benchmark workloads: seeded inputs, timed operations, output checks.

Every workload is a closed loop with a single client: an operation starts
only after the previous one has finished, and a run repeats whole passes
over the seeded inputs until its time is up.  Each pass is the same input
set, so a run's figures are medians over many identical passes.  The seed
is a benchmark argument; the program only ever sees the generated inputs.

Why each workload, and which layer it isolates:

``state_pool``
    4000 states, three quarters Haar-random and one quarter near-degenerate
    (basis, product and Bell states perturbed by eps, log-uniform over
    1e-15 .. 1e-3 and stratified).  For each state and both assignments it calls
    ``sphere_set``, ``reduced_density``, ``rho_from_spheres``,
    ``coherence_d``, ``concurrence_det`` and ``reconstruct``.  ``hopf``,
    ``quatmath`` and ``state`` do nearly all the work; there are no gates,
    no JSON, no SVG and no process start-up.  The near-degenerate quarter
    exercises the base-pole and b = 0 branches of the map, where
    ``reconstruct`` can reject a valid state (ROADMAP item 1); those
    rejections are counted in ``failed``, never dropped from the pool.
    The near-degenerate quarter is the same in every run (a fixed stream,
    NEAR_DEGENERATE_SEED); the seed draws the Haar states and the order.

``circuit_trace``
    160 seeded circuit texts, ten of each length from 1 to 16 gates, every
    parseable gate kind present.  Each goes through ``parse_circuit``,
    ``gates.run``, ``records.step_record`` per step, ``records.document``
    and ``jsonfmt.dumps``.  Here ``gates``, ``records`` and ``jsonfmt`` do
    most of the work and ``hopf`` only part of it.  It is the one workload
    where ``records.step_record`` recomputes what ``gates.run`` already
    stored (ROADMAP item 4).  Lengths are balanced rather than drawn so that
    the per-circuit latency percentiles do not move with the seed.

``cli_oneshot``
    Sequential ``python -m qubit_spheres`` subprocesses over a fixed mix of
    16 calls (``map`` as JSON and text for ``--bell``, ``--basis`` and
    ``--state``; ``run --steps`` on every file in ``circuits/``; ``render``
    of ``--bell`` and ``--circuit``; three malformed inputs).  Interpreter
    start and import dominate, so a faster core must not slow it.  It is
    the only workload that covers ``render``, ``argparse`` and the error
    path.  The traced run calls ``cli.main(argv)`` in-process instead.

``verify_suite``
    ``verify.run_suite(seed, samples=DEFAULT_SAMPLES)``.  The ROADMAP's
    headline target, and the only workload where ``verify``'s own loops and
    ``oracles`` run; it drives the per-state map the way a 10^4-state batch
    would.

Call counts the traced run must reproduce exactly, from reading the code:
on ``circuit_trace``, ``hopf.sphere_set.calls_per_item`` = 4 and
``state.reduced_density.calls_per_item`` = 4 per trajectory step (two in
``gates.run``, two more in ``records.step_record``); on ``state_pool`` both
are 2 per state (one per assignment).

Correctness: each operation's output is checked, outside its timed
interval.  An operation that raises or gives a wrong output fails.  A run
reports the operations of one pass as ``attempted`` and those that failed
on any of its passes as ``failed`` (Outcomes), so that both depend on the
inputs and the program, never on how many passes the run's time allowed.  ``core`` marks the inputs the program must handle (Haar states,
valid CLI calls, all circuits, the suite); a failure there makes the run
incorrect.  Failures on the stress share (near-degenerate states, malformed
CLI input) are counted the same way but do not.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROUND_TRIP_TOL = 1e-10
RHO_TOL = 1e-12
COMPLEMENTARITY_TOL = 1e-12
# The two assignments compute c from different quaternion products, which
# round differently: they agree to 2.2e-16, not bit for bit.
CONCURRENCE_AGREEMENT_TOL = 1e-12

STATE_POOL_SIZE = 4000
# The near-degenerate quarter of state_pool is drawn from this fixed stream,
# not from the run's seed, so that the number of its states the program
# fails on is a property of the program alone: the same in every run.
NEAR_DEGENERATE_SEED = 20030
CIRCUITS_PER_LENGTH = 10
MAX_GATES = 16
SUBPROCESS_TIMEOUT_S = 60

# The parseable circuit gate kinds (README "Circuit files").
ROTATION_KINDS = ("rx", "ry", "rz", "crx", "cry", "crz")
GATE_KINDS = ROTATION_KINDS + ("x", "y", "z", "h", "s", "sdg", "t", "tdg",
                               "cx", "cy", "cz")


# Latencies waiting for their speed factor.  Bounded, like LatencySample, so
# that the benchmark's own memory does not grow with the program's speed and
# show up in peak_rss_mb.
PENDING_MAX = 4096
LATENCY_SAMPLE_SIZE = 50_000


class LatencySample:
    """A fixed-size uniform sample of a run's latencies (reservoir sampling)."""

    def __init__(self, size: int = LATENCY_SAMPLE_SIZE):
        self._values = array("d", bytes(8 * size))   # all of it touched up front
        self._size = size
        self._rng = random.Random(0)
        self.seen = 0

    def add(self, x: float) -> None:
        if self.seen < self._size:
            self._values[self.seen] = x
        else:
            j = self._rng.randrange(self.seen + 1)
            if j < self._size:
                self._values[j] = x
        self.seen += 1

    def values(self) -> list[float]:
        return self._values[:min(self.seen, self._size)].tolist()


class Outcomes:
    """Which operations of the input set failed, on any pass of a run.

    Every pass makes the same operations in the same order, so an
    operation is known by its position in the pass.
    """

    def __init__(self):
        self.attempted = 0          # operations in one pass
        self.failed: set[int] = set()
        self.core_failed: set[int] = set()

    def add(self, index: int, ok: bool, core: bool) -> None:
        self.attempted = max(self.attempted, index + 1)
        if not ok:
            self.failed.add(index)
            if core:
                self.core_failed.add(index)


@dataclass
class PassStats:
    """One pass over a workload's inputs."""

    clock: object = None    # a speed.*Clock: times operations, gives factors
    sample: LatencySample | None = None
    outcomes: Outcomes | None = None   # shared by the passes of a run
    attempted: int = 0
    items: int = 0
    busy_s: float = 0.0     # scaled time inside the program's calls
    factors: list[float] = field(default_factory=list)
    _pending: list[float] = field(default_factory=list)

    def now(self) -> float:
        return perf_counter() if self.clock is None else self.clock.now()

    def record(self, latency: float, ok: bool, core: bool) -> None:
        self._pending.append(latency)
        if self.outcomes is not None:
            self.outcomes.add(self.attempted, ok, core)
        self.attempted += 1
        if self.clock is not None and (self.clock.due() or len(self._pending) >= PENDING_MAX):
            self.settle()

    def settle(self) -> None:
        """Scale the pending latencies to reference speed and file them."""
        if not self._pending or self.clock is None:
            return
        factor = self.clock.factor()
        self.factors.append(factor)
        for x in self._pending:
            x *= factor
            self.busy_s += x
            if self.sample is not None:
                self.sample.add(x)
        self._pending.clear()


class Workload:
    name = ""
    in_subprocess = False     # its operations run in child processes
    # The kinds of work in its in-process operations (speed.KERNEL_PARTS),
    # which the speed reference repeats.
    reference = ("float", "alloc", "numpy")

    def __init__(self, seed: int, root: Path, out_dir: Path):
        self.seed = seed
        self.root = root
        self.out_dir = out_dir

    def make_inputs(self):
        raise NotImplementedError

    def run_pass(self, inputs, stats: PassStats, tracer=None,
                 in_process: bool = False) -> None:
        """One pass over `inputs`, recording every operation in `stats`."""
        raise NotImplementedError

    def _span(self, tracer):
        if tracer is None:
            return contextlib.nullcontext()
        return tracer.span(f"bench.{self.name}.op")


# -- state_pool ---------------------------------------------------------------

class StatePool(Workload):
    name = "state_pool"
    reference = ("float", "alloc")   # Quaternion objects: no numpy

    def make_inputs(self):
        import numpy as np
        from qubit_spheres import state
        from qubit_spheres.state import BASIS_NAMES, BELL_NAMES, TwoQubitState

        rng = np.random.default_rng(self.seed)
        n_haar = STATE_POOL_SIZE * 3 // 4
        n_near = STATE_POOL_SIZE - n_haar
        pool = [(state.random_state(rng), True) for _ in range(n_haar)]
        order = rng.permutation(STATE_POOL_SIZE)
        rng = np.random.default_rng(NEAR_DEGENERATE_SEED)
        for i in range(n_near):
            kind = i % 3
            if kind == 0:
                v = TwoQubitState.basis(BASIS_NAMES[rng.integers(4)]).vector()
            elif kind == 1:
                qa = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                qb = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                v = np.kron(qa / np.linalg.norm(qa), qb / np.linalg.norm(qb))
            else:
                v = TwoQubitState.bell(BELL_NAMES[rng.integers(4)]).vector()
            # Log-uniform, one draw in each of n_near equal slices of the
            # exponent range, so that every seed covers it evenly.
            eps = 10.0 ** (-15.0 + 12.0 * (i + rng.uniform()) / n_near)
            z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            v = v + eps * z / np.linalg.norm(z)
            pool.append((TwoQubitState.from_amplitudes(*(complex(c) for c in v)),
                         False))
        return [pool[i] for i in order]

    def run_pass(self, inputs, stats, tracer=None, in_process=False):
        from qubit_spheres import hopf, state
        from qubit_spheres.hopf import Assignment

        stats.items += len(inputs)
        for s, core in inputs:
            for a in (Assignment.A_BASE, Assignment.B_BASE):
                t0 = stats.now()
                with self._span(tracer):
                    try:
                        ss = hopf.sphere_set(s, a)
                        rho = state.reduced_density(s, a.base_qubit)
                        rho_s = hopf.rho_from_spheres(ss)
                        d = state.coherence_d(rho)
                        c = state.concurrence_det(s)
                        back = hopf.reconstruct(ss)
                    except Exception:  # the operation failed; count it, go on
                        back = None
                latency = stats.now() - t0
                ok = back is not None and _state_op_ok(s, back, rho, rho_s, d, c)
                stats.record(latency, ok, core)


def _state_op_ok(s, back, rho, rho_s, d, c) -> bool:
    trip = max(abs(x - y) for x, y in zip(back.amplitudes(), s.amplitudes()))
    rho_err = max(abs(rho.rho00 - rho_s.rho00), abs(rho.rho01 - rho_s.rho01),
                  abs(rho.rho10 - rho_s.rho10), abs(rho.rho11 - rho_s.rho11))
    return (trip <= ROUND_TRIP_TOL and rho_err <= RHO_TOL
            and abs(d * d + c * c - 1.0) <= COMPLEMENTARITY_TOL)


# -- circuit_trace ------------------------------------------------------------

def circuit_texts(seed: int) -> list[str]:
    """Ten circuits of each length 1..16; circuit i starts with kind i mod 17."""
    rng = random.Random(seed)
    lengths = [n for n in range(1, MAX_GATES + 1) for _ in range(CIRCUITS_PER_LENGTH)]
    rng.shuffle(lengths)
    texts = []
    for i, n in enumerate(lengths):
        lines = [f"# circuit {i}"]
        for j in range(n):
            kind = GATE_KINDS[i % len(GATE_KINDS)] if j == 0 else rng.choice(GATE_KINDS)
            qubits = rng.sample(("A", "B"), 2)
            parts = [kind] + (qubits if kind.startswith("c") else qubits[:1])
            if kind in ROTATION_KINDS:
                parts.append(f"{rng.uniform(-360.0, 360.0):.6g}")
            lines.append(" ".join(parts))
        texts.append("\n".join(lines) + "\n")
    return texts


class CircuitTrace(Workload):
    name = "circuit_trace"

    def make_inputs(self):
        return circuit_texts(self.seed)

    def run_pass(self, inputs, stats, tracer=None, in_process=False):
        from qubit_spheres import gates, jsonfmt, records

        for text in inputs:
            t0 = stats.now()
            with self._span(tracer):
                try:
                    circuit = gates.parse_circuit(text)
                    steps = gates.run(circuit)
                    recs = [records.step_record(st) for st in steps]
                    block = {"kind": "circuit", "initial": circuit.initial,
                             "gates": [g.describe() for g in circuit.gates]}
                    out = jsonfmt.dumps(records.document(block, recs))
                except Exception:  # the operation failed; count it, go on
                    steps, out = [], ""
            latency = stats.now() - t0
            stats.items += len(steps)
            stats.record(latency, bool(out) and _steps_ok(steps), core=True)


def _steps_ok(steps) -> bool:
    for st in steps:
        s = st.state
        if abs(st.spheres_a.ent.c - st.spheres_b.ent.c) > CONCURRENCE_AGREEMENT_TOL:
            return False
        if st.concurrence != 2.0 * abs(s.alpha * s.delta - s.beta * s.gamma):
            return False
    return True


# -- cli_oneshot --------------------------------------------------------------

@dataclass(frozen=True)
class CliCall:
    argv: tuple[str, ...]
    expect: str                 # "golden", "json", "text" or "usage_error"
    golden: str | None = None   # file under tests/golden/
    out_file: str | None = None  # render target

    @property
    def core(self) -> bool:
        return self.expect != "usage_error"


def _state_fields(rng: random.Random) -> list[str]:
    return [f"{rng.uniform(-1.0, 1.0):.6f}" for _ in range(8)]


def _state_arg(fields: list[str]) -> str:
    # "=" form: a value that starts with "-" would otherwise read as an option.
    return "--state=" + ",".join(fields)


def cli_mix(seed: int, out_dir: str, circuit_files: list[str]) -> list[CliCall]:
    """The 16-call mix in a seeded order; the golden calls are fixed."""
    rng = random.Random(seed)
    bell = rng.choice(("phi+", "phi-", "psi+", "psi-"))
    basis = rng.sample(("00", "01", "10", "11"), 2)
    calls = [
        CliCall(("map", "--bell", "phi+"), "golden", "map_bell_phi_plus.json"),
        CliCall(("map", "--bell", bell, "--format", "text"), "text"),
        CliCall(("map", "--basis", basis[0]), "json"),
        CliCall(("map", "--basis", basis[1], "--format", "text"), "text"),
        CliCall(("map", _state_arg(_state_fields(rng))), "json"),
        CliCall(("map", _state_arg(_state_fields(rng)), "--format", "text"), "text"),
    ]
    for path in circuit_files:
        if path.endswith("/entangle_60_70.circ"):
            calls.append(CliCall(("run", path, "--steps"), "golden",
                                 "run_entangle_60_70.json"))
        else:
            calls.append(CliCall(("run", path, "--steps"), "json"))
    svg_bell, svg_circ = f"{out_dir}/render_bell.svg", f"{out_dir}/render_circuit.svg"
    calls += [
        CliCall(("render", "--bell", "phi+", "--out", svg_bell), "golden",
                "map_bell_phi_plus.svg", svg_bell),
        CliCall(("render", "--circuit", "circuits/entangle_60_70.circ",
                 "--out", svg_circ), "golden", "run_entangle_60_70.svg", svg_circ),
    ]
    nan_fields = _state_fields(rng)
    nan_fields[rng.randrange(8)] = "nan"
    big_fields = _state_fields(rng)
    big_fields[rng.randrange(8)] = "1e200"
    calls += [
        CliCall(("map", _state_arg(nan_fields), "--format", "text"), "usage_error"),
        CliCall(("map", _state_arg(big_fields)), "usage_error"),
        CliCall(("run", f"{out_dir}/bad.circ"), "usage_error"),
    ]
    rng.shuffle(calls)
    return calls


def bad_circuit_text(seed: int) -> str:
    rng = random.Random(seed)
    good = [f"ry {rng.choice('AB')} {rng.uniform(-180.0, 180.0):.4g}" for _ in range(3)]
    good.insert(rng.randrange(4), rng.choice(("foo A", "rx A", "cx A A", "ry C 10")))
    return "\n".join(good) + "\n"


class CliOneshot(Workload):
    name = "cli_oneshot"
    in_subprocess = True

    def make_inputs(self):
        (self.out_dir / "bad.circ").write_text(bad_circuit_text(self.seed),
                                               encoding="utf-8")
        circuit_files = sorted(f"circuits/{p.name}"
                               for p in (self.root / "circuits").glob("*.circ"))
        if not circuit_files:
            raise FileNotFoundError(f"no circuit files under {self.root / 'circuits'}")
        golden = {}
        calls = cli_mix(self.seed, self.out_dir.as_posix(), circuit_files)
        for call in calls:
            if call.golden is not None:
                golden[call.golden] = (self.root / "tests" / "golden" / call.golden).read_bytes()
        return calls, golden

    def run_pass(self, inputs, stats, tracer=None, in_process=False):
        calls, golden = inputs
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        for call in calls:
            if call.out_file is not None:
                Path(call.out_file).unlink(missing_ok=True)
            t0 = stats.now()
            with self._span(tracer):
                if in_process:
                    code, out, err = self._call_in_process(call.argv)
                else:
                    code, out, err = self._call_subprocess(call.argv, env)
            latency = stats.now() - t0
            stats.items += 1
            stats.record(latency, self._call_ok(call, code, out, err, golden), call.core)

    def _call_subprocess(self, argv, env) -> tuple[int | None, bytes, bytes]:
        try:
            proc = subprocess.run([sys.executable, "-m", "qubit_spheres", *argv],
                                  cwd=self.root, env=env, capture_output=True,
                                  timeout=SUBPROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # killed and reaped by run()
            return None, b"", b""
        return proc.returncode, proc.stdout, proc.stderr

    def _call_in_process(self, argv) -> tuple[int, bytes, bytes]:
        """cli.main(argv) with stdout/stderr captured, mapped to an exit code."""
        from qubit_spheres import cli

        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.root)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(argv))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
                except Exception:  # an uncaught error is exit 1 with a traceback
                    traceback.print_exc()
                    code = 1
        finally:
            os.chdir(cwd)
        return code, out.getvalue().encode(), err.getvalue().encode()

    def _call_ok(self, call: CliCall, code, out: bytes, err: bytes, golden) -> bool:
        if call.expect == "usage_error":
            lines = err.decode(errors="replace").splitlines()
            return code == 2 and len(lines) == 1 and lines[0].startswith("error:")
        if code != 0:
            return False
        if call.expect == "golden":
            produced = out if call.out_file is None else _read_bytes(Path(call.out_file))
            return produced == golden[call.golden]
        if call.expect == "text":
            return out.startswith(b"amplitudes:")
        try:
            doc = json.loads(out)
        except ValueError:
            return False
        return isinstance(doc, dict) and bool(doc.get("records"))


def _read_bytes(path: Path) -> bytes | None:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return None


# -- verify_suite -------------------------------------------------------------

class VerifySuite(Workload):
    name = "verify_suite"
    _first_report: str | None = None

    def make_inputs(self):
        from qubit_spheres import verify
        return self.seed, verify.DEFAULT_SAMPLES

    def run_pass(self, inputs, stats, tracer=None, in_process=False):
        from qubit_spheres import verify

        seed, samples = inputs
        stats.items += samples
        t0 = stats.now()
        with self._span(tracer):
            try:
                report = verify.run_suite(seed, samples=samples)
            except Exception:  # the operation failed; count it, go on
                report = None
        latency = stats.now() - t0
        if report is None:
            stats.record(latency, False, core=True)
            return
        # Every pass of a run must give the byte-identical report.
        text = json.dumps(report.to_dict())
        if self._first_report is None:
            self._first_report = text
        stats.record(latency, report.all_passed and text == self._first_report, core=True)


WORKLOADS = {w.name: w for w in (StatePool, CircuitTrace, CliOneshot, VerifySuite)}
