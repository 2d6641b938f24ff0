"""Build the JSON output records emitted by the CLI (fixed field order)."""

from __future__ import annotations

import math

from .gates import TrajectoryStep
from .hopf import SphereSet
from .jsonfmt import sig15
from .state import DensityMatrix, TwoQubitState

SCHEMA_VERSION = "1"


def _deg(x: float) -> float:
    return sig15(math.degrees(x))


def _sphere_block(ss: SphereSet) -> dict:
    base, ent, fib = ss.base, ss.ent, ss.fiber
    return {
        "base": {
            "theta_deg": _deg(base.theta),
            "phi_deg": _deg(base.phi),
            "x1": sig15(base.x1),
            "b": sig15(base.b),
            "x0": sig15(base.x0),
        },
        "entanglement": {
            "chi_deg": _deg(ent.chi),
            "xi_deg": _deg(ent.xi),
            "c": sig15(ent.c),
            "x2": sig15(ent.x2),
            "x3": sig15(ent.x3),
            "x4": sig15(ent.x4),
        },
        "fiber": {
            "theta_f_deg": _deg(fib.theta_f),
            "phi_f_deg": _deg(fib.phi_f),
            "zeta_f_deg": _deg(fib.zeta_f),
            "bloch": [sig15(v) for v in fib.bloch],
        },
    }


def _rho_block(rho: DensityMatrix) -> dict:
    return {
        "rho00": [sig15(rho.rho00.real), sig15(rho.rho00.imag)],
        "rho01": [sig15(rho.rho01.real), sig15(rho.rho01.imag)],
        "rho10": [sig15(rho.rho10.real), sig15(rho.rho10.imag)],
        "rho11": [sig15(rho.rho11.real), sig15(rho.rho11.imag)],
    }


def amplitude_list(s: TwoQubitState) -> list[float]:
    out: list[float] = []
    for amp in s.amplitudes():
        out.append(sig15(amp.real))
        out.append(sig15(amp.imag))
    return out


def _snapshot_fields(step: TrajectoryStep, assignments: tuple[str, ...]) -> dict:
    return {
        "amplitudes": amplitude_list(step.state),
        "assignments": {label: _sphere_block(step.spheres(label)) for label in assignments},
        "rho_A": _rho_block(step.rho_a),
        "rho_B": _rho_block(step.rho_b),
        "concurrence": sig15(step.concurrence),
        "coherence_d_A": sig15(step.coherence_d_a),
        "coherence_d_B": sig15(step.coherence_d_b),
    }


def state_record(s: TwoQubitState, assignments: tuple[str, ...] = ("A", "B")) -> dict:
    return _snapshot_fields(TrajectoryStep(0, None, s), assignments)


def step_record(step: TrajectoryStep, assignments: tuple[str, ...] = ("A", "B")) -> dict:
    record: dict = {
        "step": step.index,
        "gate": None if step.gate is None else step.description,
    }
    record.update(_snapshot_fields(step, assignments))
    return record


def document(input_block: dict, records: list[dict]) -> dict:
    return {"version": SCHEMA_VERSION, "input": input_block, "records": records}
