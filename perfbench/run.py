"""qubit-spheres benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from anywhere; the program is imported from ``src/`` of the checkout
that holds this file, never from an installed copy.  A run repeats whole
passes of workload W (see workloads.py for the four workloads and why each
was chosen) for S seconds, checks every output, and prints one line per
metric followed by a last line of JSON:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (END_TO_END).  ``--trace 1``
spends half of S untraced and half with every program function in
spans.SPANNED wrapped, then makes one more pass that counts calls, and
reports the per-layer metrics (PER_LAYER), including the tracing overhead;
the spans are written to perfbench/out/spans-W-seedN.json.
``--workload all`` runs every workload both ways in fresh processes and
prints one table.

Every time is scaled to a reference machine speed (speed.py), because the
speed of a shared host swings too much between runs for raw times to
compare.  Latency percentiles come from a fixed-size uniform sample of a
run's operations, and pass times (wall_s, items_per_s) are medians over the
run's passes.

``attempted`` counts the operations of one pass over the seeded inputs and
``failed`` those of them that raised or gave a wrong output on any pass, so
that neither moves with the number of passes a run's time allows;
failed / attempted is the workload's fail fraction, printed as
``fail_frac``.  It is not among the gated metrics because it is 0 on
workloads without a known defect.  ``correct`` is false when an operation
on the core inputs failed (see workloads.py).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import speed
from workloads import WORKLOADS, LatencySample, Outcomes, PassStats

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

# "<module>.<function>.self_us" is the mean self time of one call, 0 when the
# workload never makes the call; "*_per_item" divides by the workload's items
# (states, trajectory steps, CLI calls, or suite samples).
PER_LAYER = {
    "quatmath.quaternions_per_item": "count",
    "hopf.sphere_set.self_us": "us",
    "hopf.sphere_set.calls_per_item": "count",
    "hopf.reconstruct.self_us": "us",
    "hopf.reconstruct.fail_ratio": "ratio",
    "state.reduced_density.self_us": "us",
    "state.reduced_density.calls_per_item": "count",
    "state.coherence_d.self_us": "us",
    "state.random_state.self_us": "us",
    "gates.parse_circuit.self_us": "us",
    "gates.expand.self_us": "us",
    "gates.apply.self_us": "us",
    "gates.run.self_us": "us",
    "records.state_record.self_us": "us",
    "records.step_record.self_us": "us",
    "jsonfmt.sig15.calls_per_item": "count",
    "jsonfmt.dumps.self_us": "us",
    "jsonfmt.dumps.bytes_per_item": "bytes",
    "render.render_svg.self_us": "us",
    "render.render_svg.bytes": "bytes",
    "verify.run_suite.self_s": "s",
    "oracles.oracle_reduced_density.self_us": "us",
    "cli.import_ms": "ms",
    "cli.main.self_ms": "ms",
    "trace.overhead_frac": "ratio",
}

SETUP_PROBES = 9
WORKLOAD_NAMES = ("state_pool", "circuit_trace", "cli_oneshot", "verify_suite")


# -- fresh-interpreter probes -------------------------------------------------

def launch_probes() -> tuple[list[float], list[float]]:
    """Set-up time and import cost, each scaled to reference speed.

    Alternates bare launches with launches that import the package:
    b0 f0 b1 f1 ... bN.  The import launch f_i is scaled by its two bare
    neighbours, and its import cost is f_i minus their mean.
    """
    code = f"import sys, time\nsys.path.insert(0, {str(SRC)!r})\nimport qubit_spheres\n" \
           "print(time.perf_counter())\n"
    bare = [speed.launch_s(cwd=ROOT)]
    full = []
    for _ in range(SETUP_PROBES):
        full.append(speed.launch_s(code, cwd=ROOT))
        bare.append(speed.launch_s(cwd=ROOT))
    setup, imports = [], []
    for i, f in enumerate(full):
        b = 0.5 * (bare[i] + bare[i + 1])
        factor = speed.LAUNCH_REFERENCE_S / b
        setup.append(f * factor)
        imports.append((f - b) * factor)
    return setup, imports


# -- measuring ----------------------------------------------------------------

def measure(workload, inputs, seconds: float, outcomes: Outcomes, tracer=None,
            in_process=False):
    """Closed loop: whole passes, back to back, until `seconds` have gone."""
    child = workload.in_subprocess and not in_process
    passes = []
    sample = LatencySample()
    with speed.LaunchClock() if child else speed.SampledClock(workload.reference) as clock:
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline:
            stats = PassStats(clock=clock, sample=sample, outcomes=outcomes)
            workload.run_pass(inputs, stats, tracer, in_process)
            stats.settle()
            passes.append(stats)
    return passes, sample


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(workload, passes, sample) -> dict[str, float]:
    latencies = sample.values()
    who = resource.RUSAGE_CHILDREN if workload.in_subprocess else resource.RUSAGE_SELF
    peak_kb = resource.getrusage(who).ru_maxrss
    return {
        "items_per_s": statistics.median(p.items / p.busy_s for p in passes),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_p90_ms": 1e3 * percentile(latencies, 90),
        "wall_s": statistics.median(p.busy_s for p in passes),
        "peak_rss_mb": peak_kb / 1024.0,
        # Last, so that the probes' own memory is not in peak_rss_mb.
        "setup_s": statistics.median(launch_probes()[0]),
    }


def per_layer(workload, tracer, traced, untraced, counter, counted) -> dict[str, float]:
    """Per-layer metrics: self times from the traced passes, counts per item
    from the single counting pass."""
    self_ns = tracer.self_ns()
    calls, self_total, fails = Counter(), Counter(), Counter()
    for i, nid in enumerate(tracer.name):
        name = tracer.names[nid]
        calls[name] += 1
        self_total[name] += self_ns[i]
        fails[name] += tracer.failed[i]
    # Calls made inside an operation: spans rooted at an op span, plus the
    # counted leaves (counted only while a span is open).
    op = counter.name_id(f"bench.{workload.name}.op")
    per_item = Counter(counter.names[counter.name[i]]
                       for i, root in enumerate(counter.roots())
                       if counter.name[root] == op)
    per_item.update(counter.counts)

    to_reference = statistics.median(f for p in traced for f in p.factors)

    def self_time(name: str, unit: float) -> float:
        if not calls[name]:
            return 0.0
        return to_reference * self_total[name] / calls[name] / unit

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    scales = {"self_us": 1e3, "self_ms": 1e6, "self_s": 1e9}
    out = {}
    for metric in PER_LAYER:
        fn, _, kind = metric.rpartition(".")
        if kind in scales:
            out[metric] = self_time(fn, scales[kind])
        elif kind == "calls_per_item":
            out[metric] = ratio(per_item[fn], counted.items)
    items = sum(p.items for p in traced)
    out["quatmath.quaternions_per_item"] = ratio(per_item["quatmath.Quaternion"],
                                                 counted.items)
    out["hopf.reconstruct.fail_ratio"] = ratio(fails["hopf.reconstruct"],
                                               calls["hopf.reconstruct"])
    out["jsonfmt.dumps.bytes_per_item"] = ratio(tracer.out_bytes["jsonfmt.dumps"], items)
    out["render.render_svg.bytes"] = ratio(tracer.out_bytes["render.render_svg"],
                                           calls["render.render_svg"])
    out["trace.overhead_frac"] = (statistics.median(p.busy_s for p in traced)
                                  / statistics.median(p.busy_s for p in untraced) - 1.0)
    return out


# -- one run ------------------------------------------------------------------

def run_one(name: str, seed: int, seconds: int, trace: bool) -> dict:
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[name](seed, ROOT, OUT)
    inputs = workload.make_inputs()
    outcomes = Outcomes()
    if not trace:
        passes, sample = measure(workload, inputs, seconds, outcomes)
        metrics = end_to_end(workload, passes, sample)
        n_latencies = sample.seen
        units = END_TO_END
    else:
        from spans import Tracer

        # Traced and untraced halves both run in-process, so that their
        # ratio is the tracing overhead alone.
        untraced, _ = measure(workload, inputs, seconds / 2, outcomes, in_process=True)
        tracer = Tracer()
        tracer.install()
        try:
            with tracer.span("bench.make_inputs"):
                inputs = workload.make_inputs()
            traced, sample = measure(workload, inputs, seconds / 2, outcomes, tracer,
                                     in_process=True)
        finally:
            tracer.uninstall()
        tracer.dump(OUT / f"spans-{name}-seed{seed}.json")
        # One more pass, untimed, counts the sub-microsecond calls.
        counter = Tracer()
        counter.install(count_leaves=True)
        counted = PassStats(outcomes=outcomes)
        try:
            workload.run_pass(inputs, counted, counter, in_process=True)
        finally:
            counter.uninstall()
        passes = untraced + traced + [counted]
        metrics = per_layer(workload, tracer, traced, untraced, counter, counted)
        metrics["cli.import_ms"] = statistics.median(launch_probes()[1]) * 1e3
        n_latencies = sample.seen
        units = PER_LAYER

    attempted, failed = outcomes.attempted, len(outcomes.failed)
    print(f"# {name} seed={seed} seconds={seconds} trace={int(trace)} "
          f"passes={len(passes)} latency_samples={n_latencies} "
          f"speed_factor={statistics.median(f for p in passes for f in p.factors):.4f}")
    for metric, unit in units.items():
        print(f"{metric:<42} {metrics[metric]:.6g} {unit}")
    print(f"{'fail_frac':<42} {failed / attempted:.6g} ({failed}/{attempted})")
    return {
        "correct": not outcomes.core_failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
    }


# -- every workload, both ways ------------------------------------------------

def run_all(seed: int, seconds: int) -> int:
    results = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            results[name, trace] = json.loads(proc.stdout.splitlines()[-1])
    width = 14
    print(f"{'metric':<42}{'unit':<7}" + "".join(f"{n:>{width}}" for n in WORKLOAD_NAMES))
    for trace, units in ((0, END_TO_END), (1, PER_LAYER)):
        for metric, unit in units.items():
            row = "".join(f"{results[n, trace]['metrics'][metric]['value']:>{width}.5g}"
                          for n in WORKLOAD_NAMES)
            print(f"{metric:<42}{unit:<7}{row}")
    row = "".join(f"{results[n, 0]['failed'] / results[n, 0]['attempted']:>{width}.5g}"
                  for n in WORKLOAD_NAMES)
    print(f"{'fail_frac':<42}{'ratio':<7}{row}")
    row = "".join(f"{str(results[n, 0]['correct']):>{width}}" for n in WORKLOAD_NAMES)
    print(f"{'correct':<42}{'':<7}{row}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "qubit_spheres" / "__init__.py").is_file():
        print(f"error: no qubit_spheres package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
