"""Rotation/controlled gates, circuit files, and stepwise state evolution.

Rotation convention: R_n(t) = exp(-i*t*(n.sigma)/2).  Qubit A is the
most-significant tensor factor, matching the (|00>,|01>,|10>,|11>)
amplitude ordering.  Circuit files carry angles in degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .hopf import Assignment, SphereSet, sphere_set
from .state import (
    DensityMatrix,
    TwoQubitState,
    coherence_d,
    concurrence_det,
    reduced_density,
)

ROTATION_KINDS = ("rx", "ry", "rz", "crx", "cry", "crz")
FIXED_SINGLE_KINDS = ("x", "y", "z", "h", "s", "sdg", "t", "tdg")
FIXED_CONTROLLED_KINDS = ("cx", "cy", "cz")
GATE_KINDS = ROTATION_KINDS + FIXED_SINGLE_KINDS + FIXED_CONTROLLED_KINDS + ("u4",)

QUBITS = ("A", "B")

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_I2 = np.eye(2, dtype=complex)
_PAULI = {"x": _SX, "y": _SY, "z": _SZ}

_FIXED_1Q = {
    "x": _SX,
    "y": _SY,
    "z": _SZ,
    "h": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "s": np.diag([1, 1j]).astype(complex),
    "sdg": np.diag([1, -1j]).astype(complex),
    "t": np.diag([1, np.exp(1j * math.pi / 4)]).astype(complex),
    "tdg": np.diag([1, np.exp(-1j * math.pi / 4)]).astype(complex),
}


class BadWiring(ValueError):
    """Controlled gate with control == target."""


class ParseError(ValueError):
    """Circuit-file syntax error, annotated with the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class UnknownGate(ParseError):
    pass


class BadAngle(ParseError):
    pass


def rotation(axis: str, angle: float) -> np.ndarray:
    """2x2 unitary exp(-i*angle*sigma_axis/2); determinant 1."""
    if axis not in _PAULI:
        raise ValueError(f"axis must be one of ('x', 'y', 'z'), got {axis!r}")
    half = 0.5 * angle
    return math.cos(half) * _I2 - 1j * math.sin(half) * _PAULI[axis]


def bloch_rotation(u: np.ndarray) -> np.ndarray:
    """SO(3) action of a 2x2 unitary on Bloch vectors: R_ij = Tr(s_i U s_j U+)/2."""
    paulis = (_SX, _SY, _SZ)
    udag = u.conj().T
    r = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            r[i, j] = 0.5 * np.trace(paulis[i] @ u @ paulis[j] @ udag).real
    return r


@dataclass(frozen=True)
class Gate:
    """One circuit element; rotation kinds carry `angle` (radians), u4 a matrix.

    A u4 gate keeps a read-only copy of its matrix and, like every gate,
    compares and hashes by value.
    """

    kind: str
    target: str | None = None
    control: str | None = None
    angle: float | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind == "u4":
            if self.matrix is None:
                raise ValueError("u4 gate requires a 4x4 matrix")
            m = np.array(self.matrix, dtype=complex)
            if m.shape != (4, 4):
                raise ValueError(f"u4 matrix must be 4x4, got shape {m.shape}")
            if np.abs(m @ m.conj().T - np.eye(4)).max() > 1e-12:
                raise ValueError("u4 matrix is not unitary within 1e-12")
            m.setflags(write=False)
            object.__setattr__(self, "matrix", m)
            return
        if self.matrix is not None:
            raise ValueError(f"{self.kind} takes no matrix")
        if self.target not in QUBITS:
            raise ValueError(f"target must be 'A' or 'B', got {self.target!r}")
        controlled = self.kind.startswith("c")
        if controlled:
            if self.control not in QUBITS:
                raise ValueError(f"control must be 'A' or 'B', got {self.control!r}")
            if self.control == self.target:
                raise BadWiring(f"{self.kind}: control equals target ({self.target})")
        elif self.control is not None:
            raise ValueError(f"{self.kind} takes no control qubit")
        needs_angle = self.kind in ROTATION_KINDS
        if needs_angle and self.angle is None:
            raise ValueError(f"{self.kind} requires an angle")
        if not needs_angle and self.angle is not None:
            raise ValueError(f"{self.kind} takes no angle")

    def _key(self) -> tuple:
        m = None if self.matrix is None else tuple(self.matrix.ravel().tolist())
        return (self.kind, self.target, self.control, self.angle, m)

    def __eq__(self, other):
        if not isinstance(other, Gate):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def describe(self) -> str:
        if self.kind == "u4":
            return "u4"
        parts = [self.kind]
        if self.control is not None:
            parts.append(self.control)
        parts.append(self.target)
        if self.angle is not None:
            parts.append(f"{math.degrees(self.angle):g}")
        return " ".join(parts)


def _single_qubit_matrix(g: Gate) -> np.ndarray:
    base = g.kind[1:] if g.kind.startswith("c") else g.kind
    if base in ("rx", "ry", "rz"):
        return rotation(base[1], g.angle)
    return _FIXED_1Q[base]


def expand(g: Gate) -> np.ndarray:
    """4x4 unitary of the gate in the (|00>,|01>,|10>,|11>) ordering."""
    if g.kind == "u4":
        return g.matrix.copy()
    u = _single_qubit_matrix(g)
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    if g.control is None:
        return np.kron(u, _I2) if g.target == "A" else np.kron(_I2, u)
    if g.control == "A":
        return np.kron(p0, _I2) + np.kron(p1, u)
    return np.kron(_I2, p0) + np.kron(u, p1)


def apply(s: TwoQubitState, g: Gate) -> TwoQubitState:
    v = expand(g) @ s.vector()
    return TwoQubitState(*(complex(c) for c in v))


@dataclass(frozen=True)
class Circuit:
    gates: tuple[Gate, ...]
    initial: str = "00"

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.initial not in ("00", "01", "10", "11"):
            raise ValueError(f"initial state label must be a basis label, got {self.initial!r}")

    def initial_state(self) -> TwoQubitState:
        return TwoQubitState.basis(self.initial)


@dataclass(frozen=True)
class TrajectoryStep:
    """State after step `index` (0 = initial); derived values are computed on first read."""

    index: int
    gate: Gate | None
    state: TwoQubitState

    @property
    def description(self) -> str:
        return self.gate.describe() if self.gate is not None else "initial"

    @cached_property
    def spheres_a(self) -> SphereSet:
        return sphere_set(self.state, Assignment.A_BASE)

    @cached_property
    def spheres_b(self) -> SphereSet:
        return sphere_set(self.state, Assignment.B_BASE)

    def spheres(self, label: str) -> SphereSet:
        return self.spheres_a if label == "A" else self.spheres_b

    @cached_property
    def rho_a(self) -> DensityMatrix:
        return reduced_density(self.state, "A")

    @cached_property
    def rho_b(self) -> DensityMatrix:
        return reduced_density(self.state, "B")

    @cached_property
    def concurrence(self) -> float:
        return concurrence_det(self.state)

    @cached_property
    def coherence_d_a(self) -> float:
        return coherence_d(self.rho_a)

    @cached_property
    def coherence_d_b(self) -> float:
        return coherence_d(self.rho_b)


def run(c: Circuit) -> list[TrajectoryStep]:
    """Evolve the circuit gate by gate; step 0 is the initial state."""
    s = c.initial_state()
    steps = [TrajectoryStep(0, None, s)]
    for i, g in enumerate(c.gates, start=1):
        s = apply(s, g)
        steps.append(TrajectoryStep(i, g, s))
    return steps


def _parse_angle(token: str, line_no: int) -> float:
    try:
        deg = float(token)
    except ValueError:
        raise BadAngle(line_no, f"bad angle {token!r}") from None
    if not math.isfinite(deg):
        raise BadAngle(line_no, f"angle {token!r} is not finite")
    return math.radians(deg)


def parse_circuit(text: str, initial: str = "00") -> Circuit:
    """Parse the line-oriented circuit format.

    One gate per line: ``<kind> <target> [<angle_deg>]`` for single-qubit
    gates, ``<kind> <control> <target> [<angle_deg>]`` for controlled
    gates.  Qubit labels are A or B, ``#`` starts a comment, blank lines
    are ignored.
    """
    gates: list[Gate] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0].lower()
        if kind == "u4" or kind not in GATE_KINDS:
            raise UnknownGate(line_no, f"unknown gate {tokens[0]!r}")
        controlled = kind in FIXED_CONTROLLED_KINDS or (
            kind in ROTATION_KINDS and kind.startswith("c"))
        takes_angle = kind in ROTATION_KINDS
        expected = 1 + (2 if controlled else 1) + (1 if takes_angle else 0)
        if len(tokens) != expected:
            raise ParseError(
                line_no,
                f"{kind} expects {expected - 1} argument(s), got {len(tokens) - 1}")
        pos = 1
        control = None
        if controlled:
            control = tokens[pos]
            pos += 1
        target = tokens[pos]
        pos += 1
        angle = _parse_angle(tokens[pos], line_no) if takes_angle else None
        try:
            gates.append(Gate(kind=kind, target=target, control=control, angle=angle))
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
    return Circuit(gates=tuple(gates), initial=initial)


def parse_circuit_file(path) -> Circuit:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_circuit(fh.read())
