"""Rotation/controlled gates, circuit files, and stepwise state evolution.

Rotation convention: R_n(t) = exp(-i*t*(n.sigma)/2).  Qubit A is the
most-significant tensor factor, matching the (|00>,|01>,|10>,|11>)
amplitude ordering.  Circuit files carry angles in degrees.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .hopf import A_BASE, B_BASE, SphereSet, sphere_set
from .state import TwoQubitState, _check_qubit, concurrence_det

if TYPE_CHECKING:
    import numpy as np

ROTATION_KINDS = ("rx", "ry", "rz", "crx", "cry", "crz")
FIXED_SINGLE_KINDS = ("x", "y", "z", "h", "s", "sdg", "t", "tdg")
FIXED_CONTROLLED_KINDS = ("cx", "cy", "cz")
GATE_KINDS = ROTATION_KINDS + FIXED_SINGLE_KINDS + FIXED_CONTROLLED_KINDS

QUBITS = ("A", "B")

# Every single-qubit gate is a 2x2 table ((u00, u01), (u10, u11)) of Python
# complex entries.  `apply` computes with it directly; `rotation`, `expand`
# and `bloch_rotation` build their numpy arrays from it.
Matrix2 = tuple[tuple[complex, complex], tuple[complex, complex]]

_I2: Matrix2 = ((1 + 0j, 0j), (0j, 1 + 0j))
# Projectors on a control qubit's 0 and 1.
_P0: Matrix2 = ((1 + 0j, 0j), (0j, 0j))
_P1: Matrix2 = ((0j, 0j), (0j, 1 + 0j))
_PAULI: dict[str, Matrix2] = {
    "x": ((0j, 1 + 0j), (1 + 0j, 0j)),
    "y": ((0j, -1j), (1j, 0j)),
    "z": ((1 + 0j, 0j), (0j, -1 + 0j)),
}
_H = 1 / math.sqrt(2)
_FIXED_1Q: dict[str, Matrix2] = {
    **_PAULI,
    "h": ((complex(_H), complex(_H)), (complex(_H), complex(-_H))),
    "s": ((1 + 0j, 0j), (0j, 1j)),
    "sdg": ((1 + 0j, 0j), (0j, -1j)),
    "t": ((1 + 0j, 0j), (0j, complex(math.cos(math.pi / 4), math.sin(math.pi / 4)))),
    "tdg": ((1 + 0j, 0j), (0j, complex(math.cos(math.pi / 4), -math.sin(math.pi / 4)))),
}


def _rotation_table(axis: str, angle: float) -> Matrix2:
    """cos(angle/2)*I - (1j*sin(angle/2))*sigma, entry by entry.

    `complex(c)` multiplies as a full complex product, the way numpy
    multiplies a complex array by a real (Python 3.14 multiplies a bare float
    component-wise), so signed zeros come out as in the numpy construction.
    """
    half = 0.5 * angle
    c, s = complex(math.cos(half)), 1j * math.sin(half)
    (p00, p01), (p10, p11) = _PAULI[axis]
    return ((c * (1 + 0j) - s * p00, c * 0j - s * p01),
            (c * 0j - s * p10, c * (1 + 0j) - s * p11))


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
    import numpy as np

    if axis not in _PAULI:
        raise ValueError(f"axis must be one of ('x', 'y', 'z'), got {axis!r}")
    return np.array(_rotation_table(axis, angle))


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y elementwise, a complex product written in real arithmetic: numpy
    fuses its SIMD complex multiply under X86_V3, and never fuses this, so
    it rounds as Python's complex product does on every CPU."""
    import numpy as np

    if not (np.iscomplexobj(x) or np.iscomplexobj(y)):
        return x * y
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over the last two axes, broadcast over the others, as a sum over
    k of elementwise products (_product) in k order: no BLAS kernel sets its bits."""
    out = _product(a[..., :, 0, None], b[..., None, 0, :])
    for k in range(1, a.shape[-1]):
        out = out + _product(a[..., :, k, None], b[..., None, k, :])
    return out


def bloch_rotation(u: np.ndarray) -> np.ndarray:
    """SO(3) action of 2x2 unitaries (..., 2, 2) on Bloch vectors: R_ij = Tr(s_i U s_j U+)/2."""
    import numpy as np

    paulis = np.array([_PAULI[axis] for axis in "xyz"])
    u = np.asarray(u)[..., None, None, :, :]
    p = _matmul(_matmul(_matmul(paulis[:, None], u), paulis), np.conj(u).swapaxes(-1, -2))
    return 0.5 * (p[..., 0, 0] + p[..., 1, 1]).real


# A functional base: the class form of NamedTuple forbids overriding __new__.
class Gate(NamedTuple("Gate", [
        ("kind", str), ("target", str), ("control", str | None), ("angle", float | None)])):
    """One circuit element: a 2x2 table on `target`, applied where `control`
    (if any) is 1; rotation kinds carry `angle` (radians)."""

    __slots__ = ()

    def __new__(cls, kind: str, target: str, control: str | None = None,
                angle: float | None = None):
        if kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {kind!r}")
        if target not in QUBITS:
            raise ValueError(f"target must be 'A' or 'B', got {target!r}")
        controlled = kind.startswith("c")
        if controlled:
            if control not in QUBITS:
                raise ValueError(f"control must be 'A' or 'B', got {control!r}")
            if control == target:
                raise BadWiring(f"{kind}: control equals target ({target})")
        elif control is not None:
            raise ValueError(f"{kind} takes no control qubit")
        needs_angle = kind in ROTATION_KINDS
        if needs_angle and angle is None:
            raise ValueError(f"{kind} requires an angle")
        if not needs_angle and angle is not None:
            raise ValueError(f"{kind} takes no angle")
        # Degrees, as a circuit file states the angle: 1e307 is finite, its degrees are not.
        if needs_angle and not math.isfinite(math.degrees(angle)):
            raise ValueError(f"{kind} angle {angle!r} is not finite in degrees")
        return tuple.__new__(cls, (kind, target, control, angle))

    # namedtuple's own _make (and so _replace) would skip __new__.
    _make = classmethod(lambda cls, it: cls(*it))

    def describe(self) -> str:
        angle = None if self.angle is None else _degrees_text(self.angle)
        return " ".join(filter(None, (self.kind, self.control, self.target, angle)))


def _degrees_text(angle: float) -> str:
    """The shortest %g text (6 to 17 digits) that parses back to the angle:
    of its degrees, or of a double next to them, as a file's degrees can be
    one ulp from degrees(radians(d)).  Else the degrees' repr."""
    deg = math.degrees(angle)
    near = (deg, math.nextafter(deg, -math.inf), math.nextafter(deg, math.inf))
    for p in range(6, 18):
        for d in near:
            text = "%.*g" % (p, d)
            if math.radians(float(text)) == angle:
                return text
    return repr(deg)


def _table(g: Gate) -> Matrix2:
    """The 2x2 table of a gate's single-qubit part (the target's, if controlled)."""
    base = g.kind[1:] if g.kind.startswith("c") else g.kind
    if base in ("rx", "ry", "rz"):
        return _rotation_table(base[1], g.angle)
    return _FIXED_1Q[base]


def _kron(a: Matrix2, b: Matrix2) -> list[list[complex]]:
    """The 4x4 Kronecker product of two tables, entry (2i+k, 2j+l) = a[i][j]*b[k][l]."""
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def expand(g: Gate) -> np.ndarray:
    """4x4 unitary of the gate in the (|00>,|01>,|10>,|11>) ordering, built
    from the 2x2 tables with Python complex products and sums.  Those round
    as numpy's complex kron and add do, so the matrix equals the np.kron
    construction bit for bit, signed zeros included."""
    import numpy as np

    u = _table(g)
    if g.control is None:
        return np.array(_kron(u, _I2) if g.target == "A" else _kron(_I2, u))
    if g.control == "A":
        off, on = _kron(_P0, _I2), _kron(_P1, u)
    else:
        off, on = _kron(_I2, _P0), _kron(u, _P1)
    return np.array([[x + y for x, y in zip(r0, r1)] for r0, r1 in zip(off, on)])


def apply(s: TwoQubitState, g: Gate) -> TwoQubitState:
    """The state after gate g: the 2x2 table acts on the target's index of
    the (a, b) amplitude grid, on the control = 1 half for a controlled gate."""
    (u00, u01), (u10, u11) = _table(g)
    a00, a01, a10, a11 = s
    if g.target == "A":
        if g.control != "B":
            a00, a10 = u00 * a00 + u01 * a10, u10 * a00 + u11 * a10
        a01, a11 = u00 * a01 + u01 * a11, u10 * a01 + u11 * a11
    else:
        if g.control != "A":
            a00, a01 = u00 * a00 + u01 * a01, u10 * a00 + u11 * a01
        a10, a11 = u00 * a10 + u01 * a11, u10 * a10 + u11 * a11
    return TwoQubitState(a00, a01, a10, a11)


class Circuit(NamedTuple):
    gates: tuple[Gate, ...]
    # A circuit file cannot name an initial state: every circuit starts at |00>.
    initial = "00"


class TrajectoryStep(NamedTuple):
    """State after step `index` (0 = initial); its sphere sets and concurrence
    are computed on each read."""

    index: int
    gate: Gate | None
    state: TwoQubitState

    @property
    def description(self) -> str:
        return self.gate.describe() if self.gate is not None else "initial"

    @property
    def spheres_a(self) -> SphereSet:
        return sphere_set(self.state, A_BASE)

    @property
    def spheres_b(self) -> SphereSet:
        return sphere_set(self.state, B_BASE)

    def spheres(self, label: str) -> SphereSet:
        return self.spheres_a if _check_qubit(label) == "A" else self.spheres_b

    @property
    def concurrence(self) -> float:
        return concurrence_det(self.state)


def run(c: Circuit) -> list[TrajectoryStep]:
    """Evolve the circuit gate by gate; step 0 is the initial state."""
    s = TwoQubitState.basis(c.initial)
    steps = [tuple.__new__(TrajectoryStep, (0, None, s))]
    for i, g in enumerate(c.gates, start=1):
        s = apply(s, g)
        steps.append(tuple.__new__(TrajectoryStep, (i, g, s)))
    return steps


def _parse_angle(token: str, line_no: int) -> float:
    try:
        deg = float(token)
    except ValueError:
        raise BadAngle(line_no, f"bad angle {token!r}") from None
    if not math.isfinite(deg):
        raise BadAngle(line_no, f"angle {token!r} is not finite")
    return math.radians(deg)


def parse_circuit(text: str) -> Circuit:
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
        name, *args = line.split()
        kind = name.lower()
        if kind not in GATE_KINDS:
            raise UnknownGate(line_no, f"unknown gate {name!r}")
        takes_angle = kind in ROTATION_KINDS
        arity = (2 if kind.startswith("c") else 1) + takes_angle
        if len(args) != arity:
            raise ParseError(line_no, f"{kind} expects {arity} argument(s), got {len(args)}")
        angle = _parse_angle(args.pop(), line_no) if takes_angle else None
        control, target = args if len(args) == 2 else (None, *args)
        try:
            gates.append(Gate(kind=kind, target=target, control=control, angle=angle))
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
    return Circuit(gates=tuple(gates))


def parse_circuit_file(path) -> Circuit:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_circuit(fh.read())
