import math

import numpy as np
import pytest

from qubit_spheres.gates import (
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
from qubit_spheres.state import TwoQubitState, bloch_vector

DEG = math.pi / 180
C_60_70 = 0.496731764892154


def test_rotation_identity_and_double_cover():
    assert np.allclose(rotation("y", 0.0), np.eye(2), atol=1e-15)
    assert np.allclose(rotation("x", 2 * math.pi), -np.eye(2), atol=1e-12)


def test_rotation_determinant_one():
    for axis in "xyz":
        for angle in (0.3, 1.2, -2.5):
            assert np.linalg.det(rotation(axis, angle)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("mu_deg", [30, 90, 137])
def test_x_from_y_identity(mu_deg):
    mu = mu_deg * DEG
    lhs = rotation("x", mu)
    rhs = rotation("z", -90 * DEG) @ rotation("y", mu) @ rotation("z", 90 * DEG)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("mu_deg", [30, 90, 137])
def test_z_from_y_identity(mu_deg):
    mu = mu_deg * DEG
    lhs = rotation("z", mu)
    rhs = rotation("x", 90 * DEG) @ rotation("y", mu) @ rotation("x", -90 * DEG)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_expand_rx_on_a():
    g = Gate(kind="rx", target="A", angle=60 * DEG)
    v = expand(g) @ TwoQubitState.basis("00").vector()
    want = np.array([math.cos(30 * DEG), 0, -1j * math.sin(30 * DEG), 0])
    assert np.max(np.abs(v - want)) < 1e-15


def test_expand_cry_block_action():
    s = TwoQubitState(complex(math.cos(30 * DEG)), 0j,
                      complex(0, -math.sin(30 * DEG)), 0j)
    g = Gate(kind="cry", control="A", target="B", angle=70 * DEG)
    v = expand(g) @ s.vector()
    want = np.array([math.cos(30 * DEG), 0,
                     -1j * math.sin(30 * DEG) * math.cos(35 * DEG),
                     -1j * math.sin(30 * DEG) * math.sin(35 * DEG)])
    assert np.max(np.abs(v - want)) < 1e-15


def test_cx_flips_target():
    s = apply(TwoQubitState.basis("10"), Gate(kind="cx", control="A", target="B"))
    assert s.amplitudes() == pytest.approx((0, 0, 0, 1))
    s = apply(TwoQubitState.basis("00"), Gate(kind="cx", control="A", target="B"))
    assert s.amplitudes() == pytest.approx((1, 0, 0, 0))


def test_control_on_b():
    # B controls: |01> flips qubit A, |00> untouched.
    s = apply(TwoQubitState.basis("01"), Gate(kind="cx", control="B", target="A"))
    assert s.amplitudes() == pytest.approx((0, 0, 0, 1))
    s = apply(TwoQubitState.basis("00"), Gate(kind="cx", control="B", target="A"))
    assert s.amplitudes() == pytest.approx((1, 0, 0, 0))


def test_every_gate_kind_is_unitary():
    rng = np.random.default_rng(3)
    for kind in ("rx", "ry", "rz", "x", "y", "z", "h", "s", "sdg", "t", "tdg"):
        angle = float(rng.uniform(-6, 6)) if kind in ("rx", "ry", "rz") else None
        for target in "AB":
            u = expand(Gate(kind=kind, target=target, angle=angle))
            assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-12
    for kind in ("crx", "cry", "crz", "cx", "cy", "cz"):
        angle = float(rng.uniform(-6, 6)) if kind.startswith("cr") else None
        for control, target in (("A", "B"), ("B", "A")):
            u = expand(Gate(kind=kind, control=control, target=target, angle=angle))
            assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-12


def test_u4_gate():
    m = np.kron(rotation("x", 0.7), rotation("y", -0.3))
    g = Gate(kind="u4", matrix=m)
    assert np.max(np.abs(expand(g) - m)) == 0.0
    with pytest.raises(ValueError):
        Gate(kind="u4", matrix=np.ones((4, 4)))
    with pytest.raises(ValueError):
        Gate(kind="u4")


def test_u4_gate_is_a_value():
    m = np.eye(4, dtype=complex)
    g = Gate(kind="u4", matrix=m)
    m[0, 0] = -1.0                      # the caller's array is not the gate's
    assert np.array_equal(g.matrix, np.eye(4))
    with pytest.raises(ValueError):
        g.matrix[0, 0] = -1.0
    assert g == Gate(kind="u4", matrix=np.eye(4))
    assert hash(g) == hash(Gate(kind="u4", matrix=np.eye(4)))
    assert g != Gate(kind="u4", matrix=np.diag([1, 1, 1, -1]))
    assert len({g, Gate(kind="u4", matrix=np.eye(4)), Gate(kind="x", target="A")}) == 2
    with pytest.raises(ValueError):
        Gate(kind="x", target="A", matrix=np.eye(4))


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


def test_apply_identity_and_involution():
    s = TwoQubitState.bell("psi-")
    same = apply(s, Gate(kind="rz", target="A", angle=0.0))
    assert same.amplitudes() == pytest.approx(s.amplitudes())
    twice = apply(apply(s, Gate(kind="x", target="A")), Gate(kind="x", target="A"))
    assert twice.amplitudes() == pytest.approx(s.amplitudes())


def test_local_rotation_preserves_concurrence():
    steps = run(parse_circuit("rx A 60\ncry A B 70\nry A 90\n"))
    assert steps[2].concurrence == pytest.approx(C_60_70, abs=1e-12)
    assert steps[3].concurrence == pytest.approx(C_60_70, abs=1e-10)


def test_run_empty_circuit():
    steps = run(Circuit(gates=()))
    assert len(steps) == 1
    assert steps[0].description == "initial"
    assert steps[0].concurrence == 0.0


def test_run_entangler():
    steps = run(parse_circuit("rx A 60\ncry A B 70\n"))
    assert len(steps) == 3
    assert steps[-1].concurrence == pytest.approx(C_60_70, abs=1e-12)
    # maximal entanglement at eta=90, omega=180
    steps = run(parse_circuit("rx A 90\ncry A B 180\n"))
    assert steps[-1].concurrence == pytest.approx(1.0, abs=1e-12)


def test_run_records_both_assignments():
    steps = run(parse_circuit("ry A 42\ncrx A B 33\n"))
    for step in steps:
        assert step.spheres_a.ent.c == pytest.approx(step.spheres_b.ent.c, abs=1e-10)
        assert step.concurrence == pytest.approx(step.spheres_a.ent.c, abs=1e-10)


def test_run_custom_initial_state():
    steps = run(Circuit(gates=(), initial="10"))
    assert steps[0].state.amplitudes() == (0j, 0j, 1 + 0j, 0j)


def test_superposition_degree_after_first_gate():
    for eta_deg in (0, 25, 60, 90, 140, 180):
        steps = run(Circuit(gates=(Gate(kind="rx", target="A", angle=eta_deg * DEG),)))
        r = bloch_vector(steps[1].rho_a)
        assert math.hypot(r[0], r[1]) == pytest.approx(
            math.sin(eta_deg * DEG), abs=1e-12)


def test_bloch_rotation_oracle():
    r = bloch_rotation(rotation("y", 90 * DEG))
    assert np.allclose(r, [[0, 0, 1], [0, 1, 0], [-1, 0, 0]], atol=1e-12)
    assert np.allclose(bloch_rotation(np.eye(2, dtype=complex)), np.eye(3), atol=1e-15)


def test_parse_circuit_basic():
    c = parse_circuit("rx A 60\ncry A B 70")
    assert len(c.gates) == 2
    assert c.gates[0].kind == "rx"
    assert c.gates[0].angle == pytest.approx(60 * DEG)
    assert c.gates[1].control == "A"
    assert c.gates[1].target == "B"


def test_parse_circuit_comments_and_blanks():
    c = parse_circuit("# comment\n\nry B 90  # trailing comment\n")
    assert len(c.gates) == 1
    assert c.gates[0].describe() == "ry B 90"


def test_parse_circuit_bad_angle():
    with pytest.raises(BadAngle) as exc:
        parse_circuit("rx A sixty")
    assert exc.value.line_no == 1


def test_parse_circuit_unknown_gate():
    with pytest.raises(UnknownGate) as exc:
        parse_circuit("ry B 90\nfrob A 10")
    assert exc.value.line_no == 2


def test_parse_circuit_bad_qubit_label():
    with pytest.raises(ParseError) as exc:
        parse_circuit("ry B 90\nry C 10")
    assert exc.value.line_no == 2


def test_parse_circuit_u4_not_expressible():
    with pytest.raises(UnknownGate):
        parse_circuit("u4 A 10")


def test_parse_circuit_arity_errors():
    with pytest.raises(ParseError):
        parse_circuit("rx A")
    with pytest.raises(ParseError):
        parse_circuit("x A 10")
    with pytest.raises(ParseError):
        parse_circuit("cx A B 10")
    with pytest.raises(ParseError):
        parse_circuit("cx B B")


def test_parse_circuit_fixed_gates():
    c = parse_circuit("h A\ncx A B\nsdg B\ntdg A\nt B\ns A\n")
    kinds = [g.kind for g in c.gates]
    assert kinds == ["h", "cx", "sdg", "tdg", "t", "s"]


def test_gate_describe_roundtrip():
    text = "rx A 60\ncry A B 70\nry A 90"
    c = parse_circuit(text)
    assert "\n".join(g.describe() for g in c.gates) == text
