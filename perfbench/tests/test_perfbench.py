"""Tests for the benchmark itself: python3 -m pytest perfbench/tests"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _inputs(name: str, seed: int, out: Path):
    got = workloads.WORKLOADS[name](seed, ROOT, out).make_inputs()
    if name == "state_pool":
        return [(s.amplitudes(), core) for s, core in got]
    if name == "cli_oneshot":
        calls, golden = got
        return calls, golden, (out / "bad.circ").read_text(encoding="utf-8")
    return got


# -- inputs -------------------------------------------------------------------

@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_same_seed_same_inputs(name, tmp_path):
    assert _inputs(name, 5, tmp_path) == _inputs(name, 5, tmp_path)


@pytest.mark.parametrize("name", ("state_pool", "circuit_trace", "cli_oneshot"))
def test_other_seed_other_inputs(name, tmp_path):
    assert _inputs(name, 5, tmp_path) != _inputs(name, 6, tmp_path)


def test_state_pool_shares():
    pool = workloads.StatePool(3, ROOT, ROOT).make_inputs()
    assert len(pool) == workloads.STATE_POOL_SIZE
    assert sum(core for _, core in pool) == workloads.STATE_POOL_SIZE * 3 // 4


def test_near_degenerate_quarter_same_for_every_seed():
    def near(seed):
        pool = workloads.StatePool(seed, ROOT, ROOT).make_inputs()
        return sorted(repr(s.amplitudes()) for s, core in pool if not core)

    assert near(3) == near(4)


def test_outcomes_count_one_pass_whatever_the_passes(tmp_path):
    wl = workloads.StatePool(2, ROOT, tmp_path)
    pool = wl.make_inputs()[:400]
    counts = []
    for passes in (1, 3):
        outcomes = workloads.Outcomes()
        for _ in range(passes):
            wl.run_pass(pool, workloads.PassStats(outcomes=outcomes))
        counts.append((outcomes.attempted, len(outcomes.failed)))
    assert counts[0] == counts[1]
    assert counts[0][0] == 2 * len(pool)


def test_circuits_balanced_and_cover_every_kind():
    texts = workloads.circuit_texts(3)
    lines = [[ln for ln in t.splitlines() if not ln.startswith("#")] for t in texts]
    lengths = sorted(len(c) for c in lines)
    assert lengths == sorted(list(range(1, workloads.MAX_GATES + 1))
                             * workloads.CIRCUITS_PER_LENGTH)
    assert {ln.split()[0] for c in lines for ln in c} == set(workloads.GATE_KINDS)


# -- metric names -------------------------------------------------------------

def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace,table", ((0, run.END_TO_END), (1, run.PER_LAYER)))
def test_printed_metrics_are_declared_with_units(trace, table):
    proc = _bench("--workload", "circuit_trace", "--seed", "2", "--seconds", "1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == table


# -- tracing ------------------------------------------------------------------

def test_self_time_never_exceeds_duration():
    tracer = Tracer()

    def leaf(n):
        with tracer.span("leaf"):
            return sum(range(n))

    for i in range(50):
        with tracer.span("root"):
            with tracer.span("mid"):
                leaf(100 * i)
                leaf(10)
            leaf(i)
    durations = [e - s for s, e in zip(tracer.start, tracer.end)]
    self_ns = tracer.self_ns()
    assert all(0 <= s <= d for s, d in zip(self_ns, durations))
    roots = tracer.roots()
    assert all(tracer.names[tracer.name[r]] == "root" for r in roots)


def test_traced_pass_counts_match_code_reading(tmp_path):
    """4 sphere_set and 4 reduced_density calls per trajectory step."""
    wl = workloads.CircuitTrace(4, ROOT, tmp_path)
    texts = wl.make_inputs()[:20]
    tracer = Tracer()
    tracer.install(count_leaves=True)
    stats = workloads.PassStats()
    try:
        wl.run_pass(texts, stats, tracer)
    finally:
        tracer.uninstall()
    from qubit_spheres import gates, hopf, records
    assert gates.sphere_set is hopf.sphere_set and records.sphere_set is hopf.sphere_set
    names = [tracer.names[i] for i in tracer.name]
    assert names.count("hopf.sphere_set") == 4 * stats.items
    assert names.count("state.reduced_density") == 4 * stats.items
    assert tracer.counts["jsonfmt.sig15"] > 0 and tracer.counts["quatmath.Quaternion"] > 0
    durations = [e - s for s, e in zip(tracer.start, tracer.end)]
    assert all(0 <= s <= d for s, d in zip(tracer.self_ns(), durations))


def test_state_pool_counts_two_per_state(tmp_path):
    wl = workloads.StatePool(4, ROOT, tmp_path)
    pool = wl.make_inputs()[:200]
    tracer = Tracer()
    tracer.install()
    stats = workloads.PassStats()
    try:
        wl.run_pass(pool, stats, tracer)
    finally:
        tracer.uninstall()
    names = [tracer.names[i] for i in tracer.name]
    assert names.count("hopf.sphere_set") == 2 * stats.items
    assert names.count("state.reduced_density") == 2 * stats.items


# -- the contract's failure case ---------------------------------------------

def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    proc = _bench("--workload", "state_pool", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
