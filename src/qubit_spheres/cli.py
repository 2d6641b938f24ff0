"""Command-line interface: map, run, render, verify.

Exit codes: 0 success, 1 verification failure, 2 usage/parse error.
All human-facing angles are degrees; JSON field names carry _deg suffixes.
Each command imports the modules it runs in its function, after its input parses.
"""

from __future__ import annotations

import argparse
import math
import sys

from .state import BASIS_NAMES, BELL_NAMES, NotNormalizable, TwoQubitState, _norm

USAGE_EXIT = 2
VERIFY_FAIL_EXIT = 1


def _add_state_args(p: argparse.ArgumentParser):
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--state", metavar="RE,IM,...",
                   help="8 comma-separated reals: re,im pairs of the four amplitudes")
    g.add_argument("--bell", choices=BELL_NAMES, help="a Bell state")
    g.add_argument("--basis", choices=BASIS_NAMES, help="a computational basis state")
    return g


def _parse_state(args) -> tuple[TwoQubitState, dict]:
    if args.bell is not None:
        return TwoQubitState.bell(args.bell), {"kind": "bell", "name": args.bell}
    if args.basis is not None:
        return TwoQubitState.basis(args.basis), {"kind": "basis", "label": args.basis}
    fields = args.state.split(",")
    if len(fields) != 8:
        raise ValueError(f"--state: needs 8 comma-separated reals, got {len(fields)}")
    vals = []
    for i, field in enumerate(fields, start=1):
        try:
            v = float(field)
        except ValueError:
            raise ValueError(f"--state: field {i} is not a real number: {field!r}") from None
        if not math.isfinite(v):
            raise ValueError(f"--state: field {i} is {v!r}")
        vals.append(v)
    amps = [complex(vals[2 * i], vals[2 * i + 1]) for i in range(4)]
    try:
        # Amplitudes of unit norm up to a few ulps are taken as given, so that
        # a verify witness replays the very state that failed.
        s = (TwoQubitState(*amps) if abs(_norm(*amps) - 1.0) <= 1e-15
             else TwoQubitState.from_amplitudes(*amps))
    except NotNormalizable as exc:
        raise NotNormalizable(f"--state: {exc}") from None
    from .jsonfmt import sig15

    return s, {"kind": "state", "amplitudes": [sig15(p) for z in s for p in (z.real, z.imag)]}


def _assignments(flag: str) -> tuple[str, ...]:
    return ("A", "B") if flag == "both" else (flag,)


def _cmd_map(args) -> int:
    s, input_block = _parse_state(args)
    from . import records
    from .jsonfmt import dumps

    record = records.state_record(s, _assignments(args.assignment))
    sys.stdout.write(records.text(record) if args.format == "text"
                     else dumps(records.document(input_block, [record])))
    return 0


def _cmd_run(args) -> int:
    from .gates import parse_circuit_file, run

    circuit = parse_circuit_file(args.circuit)
    steps = run(circuit)
    from . import records
    from .jsonfmt import dumps

    chosen = _assignments(args.assignment)
    recs = [records.step_record(step, chosen) for step in (steps if args.steps else steps[-1:])]
    block = {"kind": "circuit", "initial": circuit.initial,
             "gates": [g.describe() for g in circuit.gates]}
    sys.stdout.write(dumps(records.document(block, recs)))
    return 0


def _cmd_render(args) -> int:
    if args.circuit is not None:
        from .gates import parse_circuit_file, run

        circuit = parse_circuit_file(args.circuit)
        step = run(circuit)[-1]
        title = "circuit: " + "; ".join(g.describe() for g in circuit.gates)
    else:
        s, input_block = _parse_state(args)
        from .gates import TrajectoryStep

        step = TrajectoryStep(0, None, s)
        if input_block["kind"] == "bell":
            title = f"bell {input_block['name']}"
        elif input_block["kind"] == "basis":
            title = f"basis |{input_block['label']}>"
        else:
            title = "state " + ",".join(f"{v:.4g}" for v in input_block["amplitudes"])
    from . import render

    render.render_to_file(args.out, step, assignments=_assignments(args.assignment),
                          title=title)
    return 0


def _cmd_verify(args) -> int:
    from . import verify  # which imports numpy, as no other command does
    from .jsonfmt import dumps

    # An option left out takes run_suite's default.
    given = {k: v for k, v in (("seed", args.seed), ("samples", args.samples))
             if v is not None}
    report = verify.run_suite(**given)
    sys.stdout.write(dumps(report.to_dict()))
    return 0 if report.all_passed else VERIFY_FAIL_EXIT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qubit-spheres",
        description="Three-sphere coordinates, circuits and renderings "
                    "for two-qubit pure states.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("map", help="map a state to sphere coordinates")
    _add_state_args(p)
    p.add_argument("--assignment", choices=("A", "B", "both"), default="both")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("run", help="run a circuit file and emit the trajectory")
    p.add_argument("circuit", help="circuit file (one gate per line, degrees)")
    p.add_argument("--steps", action="store_true",
                   help="emit every step instead of the final state only")
    p.add_argument("--assignment", choices=("A", "B", "both"), default="both")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("render", help="render the spheres of a state to SVG")
    g = _add_state_args(p)
    g.add_argument("--circuit", help="render the final state of this circuit file")
    p.add_argument("--out", required=True, help="output SVG path")
    p.add_argument("--assignment", choices=("A", "B", "both"), default="both")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--seed", type=int, help="pool seed (default: verify.DEFAULT_SEED)")
    p.add_argument("--samples", type=int,
                   help="pool size (default: verify.DEFAULT_SAMPLES)")
    p.set_defaults(func=_cmd_verify)

    return parser


def _join_state_value(argv: list[str]) -> list[str]:
    """`--state V` as `--state=V`, so that argparse takes a V starting with '-'
    (a negative first real part) as the value rather than as an option."""
    for i in range(len(argv) - 2, -1, -1):
        if argv[i] == "--state" and not argv[i + 1].startswith("--") and argv[i + 1] != "-h":
            argv[i:i + 2] = [f"--state={argv[i + 1]}"]
    return argv


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_state_value(list(sys.argv[1:] if argv is None else argv)))
    if args.command == "verify" and args.samples is not None and args.samples < 1:
        parser.error(f"--samples must be >= 1, got {args.samples}")
    if args.command == "verify" and args.seed is not None and args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
