"""The one-pass JSON writer against the dict-and-json.dumps writer it replaced."""

import json
import math
import random

import numpy as np
import pytest

from qubit_spheres import cli, gates, jsonfmt, records, verify
from qubit_spheres.gates import ROTATION_KINDS, TrajectoryStep, parse_circuit, run
from qubit_spheres.jsonfmt import sig15
from qubit_spheres.state import (
    BASIS_NAMES,
    BELL_NAMES,
    TwoQubitState,
    coherence_d,
    reduced_density,
)

CHOICES = {"both": ("A", "B"), "A": ("A",), "B": ("B",)}


# -- reference: the record dicts, written by json.dumps -----------------------

def _deg(x):
    return sig15(math.degrees(x))


def _sphere_block(ss):
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


def _rho_block(rho):
    return {
        "rho00": [sig15(rho.rho00.real), sig15(rho.rho00.imag)],
        "rho01": [sig15(rho.rho01.real), sig15(rho.rho01.imag)],
        "rho10": [sig15(rho.rho10.real), sig15(rho.rho10.imag)],
        "rho11": [sig15(rho.rho11.real), sig15(rho.rho11.imag)],
    }


def _reference_record(step, assignments, with_step):
    rho_a, rho_b = (reduced_density(step.state, q) for q in "AB")
    record = {"step": step.index,
              "gate": None if step.gate is None else step.description} if with_step else {}
    record.update({
        "amplitudes": [sig15(p) for amp in step.state.amplitudes() for p in (amp.real, amp.imag)],
        "assignments": {label: _sphere_block(step.spheres(label)) for label in assignments},
        "rho_A": _rho_block(rho_a),
        "rho_B": _rho_block(rho_b),
        "concurrence": sig15(step.concurrence),
        "coherence_d_A": sig15(coherence_d(rho_a)),
        "coherence_d_B": sig15(coherence_d(rho_b)),
    })
    return record


def _reference_dumps(input_block, recs):
    doc = {"version": "1", "input": input_block, "records": recs}
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


# -- the writer equals the reference ------------------------------------------

def _random_circuits(seed, count=51):
    """Circuit texts of 1-10 gates; circuit i starts with kind i mod 17."""
    rng = random.Random(seed)
    texts = []
    for i in range(count):
        lines = []
        for j in range(rng.randint(1, 10)):
            first = gates.GATE_KINDS[i % len(gates.GATE_KINDS)]
            kind = first if j == 0 else rng.choice(gates.GATE_KINDS)
            qubits = rng.sample(("A", "B"), 2)
            parts = [kind] + (qubits if kind.startswith("c") else qubits[:1])
            if kind in ROTATION_KINDS:
                parts.append(rng.choice(("90", "-180", "45", f"{rng.uniform(-360, 360):.6g}")))
            lines.append(" ".join(parts))
        texts.append("\n".join(lines) + "\n")
    return texts


@pytest.mark.parametrize("choice", CHOICES)
def test_writer_matches_reference_on_random_circuits(choice):
    assignments = CHOICES[choice]
    # verify's random gates, every kind on each target; describe() writes some
    # angles by repr, and (scaled by 1e-300) some with an exponent.
    rng = np.random.default_rng(34)
    odd = [verify._random_gate(rng) for _ in range(200)]
    odd += [g._replace(angle=1e-300 * g.angle) for g in odd[:40] if g.angle is not None]
    back = parse_circuit("\n".join(g.describe() for g in odd)).gates
    assert {(g.kind, g.target) for g in odd} == {(k, q) for k in gates.GATE_KINDS for q in "AB"}
    assert back != tuple(odd) and any("e" in g.describe() for g in odd)
    for circuit in [*map(parse_circuit, _random_circuits(seed=8)), gates.Circuit(tuple(odd))]:
        steps = run(circuit)
        block = {"kind": "circuit", "initial": circuit.initial,
                 "gates": [g.describe() for g in circuit.gates]}
        got = jsonfmt.dumps(records.document(
            block, [records.step_record(st, assignments) for st in steps]))
        want = _reference_dumps(block, [_reference_record(st, assignments, True)
                                        for st in steps])
        assert got == want, circuit


@pytest.mark.parametrize("choice", CHOICES)
def test_writer_matches_reference_on_every_bell_and_basis_map(capsys, choice):
    cases = [("--bell", n, TwoQubitState.bell(n), {"kind": "bell", "name": n})
             for n in BELL_NAMES]
    cases += [("--basis", n, TwoQubitState.basis(n), {"kind": "basis", "label": n})
              for n in BASIS_NAMES]
    for flag, name, s, block in cases:
        assert cli.main(["map", flag, name, "--assignment", choice]) == 0
        want = _reference_dumps(block, [_reference_record(TrajectoryStep(0, None, s),
                                                          CHOICES[choice], False)])
        assert capsys.readouterr().out == want, name


# -- the writer's rules -------------------------------------------------------

@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_leaf_raises(monkeypatch, bad):
    with pytest.raises(ValueError, match="not JSON compliant"):
        jsonfmt.numbers([0.5, bad])
    step = run(parse_circuit("rx A 60\n"))[-1]
    monkeypatch.setattr(records, "concurrence_det", lambda s: bad)
    with pytest.raises(ValueError, match="not JSON compliant"):
        jsonfmt.dumps(records.document({}, [records.step_record(step)]))
    with pytest.raises(ValueError):
        jsonfmt.dumps({"max_error": bad})


def test_negative_zero_is_written_as_zero_and_integral_floats_keep_point():
    assert jsonfmt.numbers([-0.0, 0.0, 1.0, -180.0, 1e15, 1e16, 2.0 ** 52]) == [
        "0.0", "0.0", "1.0", "-180.0", "1000000000000000.0", "1e+16", "4503599627370500.0"]
    s = TwoQubitState(complex(1.0, -0.0), complex(-0.0, 0.0), 0j, 0j)
    doc = jsonfmt.dumps(records.document({}, [records.state_record(s, ("A",))]))
    assert "-0.0" not in doc
    assert json.loads(doc)["records"][0]["amplitudes"][:4] == [1.0, 0.0, 0.0, 0.0]
    assert '"amplitudes": [\n        1.0,\n        0.0,' in doc


def _differential_values(rng):
    """10^6 doubles: every exponent, the output's own ranges, and the edges."""
    bits = rng.integers(0, 2 ** 64, size=60_000, dtype=np.uint64).view(np.float64)
    subnormal = rng.uniform(-1.0, 1.0, 20_000) * np.finfo(float).tiny
    degrees = rng.uniform(-360.0, 360.0, 310_000)
    near_integral = rng.integers(-360, 361, 100_000) * (1 + rng.uniform(-1e-13, 1e-13, 100_000))
    unit = rng.uniform(-1.0, 1.0, 250_000) * 10.0 ** rng.integers(-8, 1, 250_000)
    integral = np.round(rng.uniform(-1.0, 1.0, 100_000) * 10.0 ** rng.integers(0, 18, 100_000))
    short = rng.integers(-10 ** 6, 10 ** 6, 130_000) / 10.0 ** rng.integers(0, 8, 130_000)
    edges = np.array([0.0, -0.0, 5e-324, np.finfo(float).tiny, 1e-4, 1e-5, 1e15, 1e16, 1e17,
                      2.0 ** 53, 999999999999999.5, 9999999999999998.0, 1e308])
    edges = np.concatenate([edges, -edges, np.nextafter(edges, 0.0), -np.nextafter(edges, 0.0),
                            np.nextafter(edges[:-1], np.inf), -np.nextafter(edges[:-1], np.inf)])
    walks = [e * (1 + rng.uniform(-1e-6, 1e-6, 5_000)) for e in (1e-5, 1e-4, 1e15, 1e16)]
    values = np.concatenate([bits, subnormal, degrees, near_integral, unit, integral, short,
                             edges, *walks, *(-w for w in walks)])
    return values[np.isfinite(values)].tolist()


def test_numbers_equal_repr_of_sig15_on_a_million_values():
    values = _differential_values(np.random.default_rng(20261018))
    assert len(values) >= 10 ** 6
    assert jsonfmt.numbers(values) == list(map(repr, map(sig15, values)))
