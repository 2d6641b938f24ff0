import cmath
import math

import numpy as np
import pytest

from conftest import DEG
from qubit_spheres import records
from qubit_spheres.gates import (
    GATE_KINDS,
    ROTATION_KINDS,
    BadAngle,
    BadWiring,
    Circuit,
    Gate,
    ParseError,
    UnknownGate,
    apply,
    bloch_rotation,
    expand,
    parse_circuit,
    rotation,
    run,
)
from qubit_spheres.state import NormOutOfTolerance, TwoQubitState, random_state

# Reference gate kernel: the numpy construction `gates` used before its 2x2
# table (cos*I2 - 1j*sin*sigma, fixed gates as arrays, np.kron expansion).
_REF_I2 = np.eye(2, dtype=complex)
_REF_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_REF_FIXED = {
    **_REF_PAULI,
    "h": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "s": np.diag([1, 1j]).astype(complex),
    "sdg": np.diag([1, -1j]).astype(complex),
    "t": np.diag([1, np.exp(1j * math.pi / 4)]).astype(complex),
    "tdg": np.diag([1, np.exp(-1j * math.pi / 4)]).astype(complex),
}
REF_ANGLES = (0.0, -0.0, 1e-300, 0.3, -0.3, 1.2, -2.5, math.pi, -math.pi,
              2 * math.pi, -2 * math.pi, 3 * math.pi, 6.1, -6.1)


def ref_rotation(axis, angle):
    half = 0.5 * angle
    return math.cos(half) * _REF_I2 - 1j * math.sin(half) * _REF_PAULI[axis]


def ref_expand(g):
    base = g.kind[1:] if g.kind.startswith("c") else g.kind
    u = ref_rotation(base[1], g.angle) if base in ("rx", "ry", "rz") else _REF_FIXED[base]
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    if g.control is None:
        return np.kron(u, _REF_I2) if g.target == "A" else np.kron(_REF_I2, u)
    if g.control == "A":
        return np.kron(p0, _REF_I2) + np.kron(p1, u)
    return np.kron(_REF_I2, p0) + np.kron(u, p1)


def entry_reprs(m):
    """Shape, dtype and every entry's repr: equal only if bit-identical, signed zeros too."""
    return m.shape, m.dtype, [repr(complex(x)) for x in m.ravel()]


def every_gate():
    """Every kind on every wiring, rotations at every REF_ANGLES angle."""
    for kind in GATE_KINDS:
        wirings = ((("A", "B"), ("B", "A")) if kind.startswith("c")
                   else ((None, "A"), (None, "B")))
        for control, target in wirings:
            for angle in (REF_ANGLES if kind in ROTATION_KINDS else (None,)):
                yield Gate(kind=kind, target=target, control=control, angle=angle)


def test_rotation_matches_reference_bit_for_bit():
    for axis in "xyz":
        for angle in REF_ANGLES:
            assert entry_reprs(rotation(axis, angle)) == entry_reprs(ref_rotation(axis, angle))


def test_expand_matches_reference_bit_for_bit():
    for g in every_gate():
        assert entry_reprs(expand(g)) == entry_reprs(ref_expand(g)), g.describe()
    assert [repr(complex(expand(Gate(k, "B"))[1, 1])) for k in ("t", "tdg")] == [
        repr(cmath.exp(1j * math.pi / 4)), repr(cmath.exp(-1j * math.pi / 4))]


def test_apply_matches_expanded_matrix():
    # The 2x2 sums round differently from the 4x4 product, by a few ulp at most.
    rng = np.random.default_rng(20251)
    states = [random_state(rng) for _ in range(40)]
    for g in every_gate():
        for s in states:
            want = expand(g) @ s.vector()
            got = apply(s, g).amplitudes()
            assert max(abs(x - complex(y)) for x, y in zip(got, want)) <= 4 * 2.0**-52


# 1e307 rad is finite, but its degrees are not: no circuit file can state it.
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e307, -1e307])
def test_rotation_gate_rejects_non_finite_angle(bad):
    with pytest.raises(ValueError, match="not finite"):
        Gate(kind="rx", target="A", angle=bad)
    with pytest.raises(ValueError, match="not finite"):
        Gate(kind="cry", control="A", target="B", angle=bad)


def test_replace_and_make_keep_the_checks():
    with pytest.raises(NormOutOfTolerance):
        TwoQubitState.basis("00")._replace(alpha=2)
    with pytest.raises(ValueError, match="not finite"):
        Gate(kind="rx", target="A", angle=0.5)._replace(angle=math.nan)


def test_bad_wiring():
    with pytest.raises(BadWiring):
        Gate(kind="cx", control="A", target="A")


def test_gate_argument_validation():
    with pytest.raises(ValueError):
        Gate(kind="rx", target="A")           # missing angle
    with pytest.raises(ValueError):
        Gate(kind="x", target="A", angle=1.0)  # extra angle
    with pytest.raises(ValueError):
        Gate(kind="nope", target="A")
    with pytest.raises(ValueError):
        Gate(kind="rx", target="C", angle=1.0)


def test_run_empty_circuit():
    steps = run(Circuit(gates=()))
    assert len(steps) == 1
    assert steps[0].description == "initial"
    assert steps[0].concurrence == 0.0


def test_spheres_rejects_an_unknown_label():
    step = run(parse_circuit("rx A 60\ncry A B 70\n"))[-1]
    assert step.spheres("A") == step.spheres_a
    assert step.spheres("B") == step.spheres_b
    for label in ("C", "a", "X"):
        with pytest.raises(ValueError, match="qubit label must be 'A' or 'B'"):
            step.spheres(label)
    with pytest.raises(ValueError, match="qubit label must be 'A' or 'B'"):
        records.state_record(step.state, ("A", "X"))
    with pytest.raises(ValueError, match="assignment label 'A' is repeated"):
        records.state_record(step.state, ("A", "A"))


def test_bloch_rotation_oracle():
    r = bloch_rotation(rotation("y", 90 * DEG))
    assert np.allclose(r, [[0, 0, 1], [0, 1, 0], [-1, 0, 0]], atol=1e-12)
    assert np.allclose(bloch_rotation(np.eye(2, dtype=complex)), np.eye(3), atol=1e-15)
    us = np.stack([rotation("y", 90 * DEG), rotation("x", 0.3), np.eye(2, dtype=complex)])
    assert all((r == bloch_rotation(u)).all() for r, u in zip(bloch_rotation(us), us))


def test_parse_circuit_comments_and_blanks():
    c = parse_circuit("# comment\n\nry B 90  # trailing comment\n")
    assert len(c.gates) == 1
    assert c.gates[0].describe() == "ry B 90"


# A gate name outside GATE_KINDS (u4 among them) takes the unknown-gate branch.
@pytest.mark.parametrize("text, error, message", [
    ("rx A sixty", BadAngle, "line 1: bad angle 'sixty'"),
    ("ry B 90\nfrob A 10", UnknownGate, "line 2: unknown gate 'frob'"),
    ("ry B 90\nry C 10", ParseError, "line 2: target must be 'A' or 'B', got 'C'"),
    ("rx A", ParseError, "line 1: rx expects 2 argument(s), got 1"),
    ("x A 10", ParseError, "line 1: x expects 1 argument(s), got 2"),
    ("cx A B 10", ParseError, "line 1: cx expects 2 argument(s), got 3"),
    ("cx B B", ParseError, "line 1: cx: control equals target (B)"),
    ("rx A 1 2", ParseError, "line 1: rx expects 2 argument(s), got 3"),
], ids=["bad-angle", "unknown-gate", "bad-qubit-label", "rx-arity", "x-arity", "cx-arity",
        "cx-wiring", "rx-extra-argument"])
def test_parse_circuit_errors(text, error, message):
    with pytest.raises(error) as exc:
        parse_circuit(text)
    assert str(exc.value) == message
    assert message.startswith(f"line {exc.value.line_no}: ")


def test_gate_describe_roundtrip():
    text = "rx A 60\ncry A B 70\nry A 90"
    c = parse_circuit(text)
    assert "\n".join(g.describe() for g in c.gates) == text
    # Angles past 6 digits parse back bit for bit, and the shortest text is kept.
    text = ("rx A 12.3456789\ncry A B 70.00001\nrz B -0\nry A 1e-300\ncrx B A -359.99999999999\n"
            "ry B 0.1\nrx A 123456.789012345")
    c = parse_circuit(text)
    assert "\n".join(g.describe() for g in c.gates) == text
    back = parse_circuit("\n".join(g.describe() for g in c.gates))
    assert back == c and repr(back) == repr(c)
    rng = np.random.default_rng(4)
    for deg in rng.uniform(-720, 720, 2000).tolist() + rng.standard_normal(200).tolist():
        g = Gate(kind="ry", target="A", angle=math.radians(deg))
        (back,) = parse_circuit(g.describe()).gates
        assert repr(back.angle) == repr(g.angle), g.describe()
    # Every gate a Gate can hold is one a circuit file can say.
    for g in every_gate():
        (back,) = parse_circuit(g.describe()).gates
        assert (back.kind, back.control, back.target) == (g.kind, g.control, g.target)
