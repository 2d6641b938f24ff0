"""Build the output records emitted by the CLI (fixed field order).

A record holds a snapshot's leaves, already written as JSON text, in the
field order of its layout, and the literal parts of that layout's template,
built once per assignment choice; ``jsonfmt.dumps`` joins the leaves between
the parts, and ``text`` fills the text form's template with the same leaves.
"""

from __future__ import annotations

from functools import cache
from math import degrees
from typing import TYPE_CHECKING, NamedTuple

from .hopf import A_BASE, B_BASE, sphere_set
from .jsonfmt import LEAF, Document, numbers, template
from .state import TwoQubitState, _check_qubit, coherence_d, concurrence_det, reduced_density

if TYPE_CHECKING:
    from .gates import TrajectoryStep

SCHEMA_VERSION = "1"


# A snapshot's JSON leaves in field order, and its layout's literal parts,
# which jsonfmt.dumps joins with the leaves between them.
Record = NamedTuple("Record", [("assignments", tuple), ("leaves", tuple), ("template", tuple)])


@cache
def _template(with_step: bool, assignments: tuple[str, ...]) -> tuple[str, ...]:
    if repeated := [a for a in assignments if assignments.count(a) > 1]:
        raise ValueError(f"assignment label {repeated[0]!r} is repeated")
    sphere = {
        "base": dict.fromkeys(("theta_deg", "phi_deg", "x1", "b", "x0"), LEAF),
        "entanglement": dict.fromkeys(("chi_deg", "xi_deg", "c", "x2", "x3", "x4"), LEAF),
        "fiber": {**dict.fromkeys(("theta_f_deg", "phi_f_deg", "zeta_f_deg"), LEAF),
                  "bloch": [LEAF] * 3},
    }
    rho = dict.fromkeys(("rho00", "rho01", "rho10", "rho11"), [LEAF, LEAF])
    return template({
        **({"step": LEAF, "gate": LEAF} if with_step else {}),
        "amplitudes": [LEAF] * 8,
        "assignments": dict.fromkeys(assignments, sphere),
        "rho_A": rho, "rho_B": rho,
        **dict.fromkeys(("concurrence", "coherence_d_A", "coherence_d_B"), LEAF),
    })


def _text_template(assignments: tuple[str, ...]) -> str:
    """The text form with a % field at each leaf of _template but rho_A's and rho_B's."""
    lines = ["amplitudes:",
             *(f"  {name:<6} %+.9f %+.9fi" for name in ("alpha", "beta", "gamma", "delta"))]
    for label in assignments:
        lines += [f"assignment {label}:",
                  "  base          theta=%9.4f deg  phi=%9.4f deg  (x1,b,x0)=(%.6f, %.6f, %.6f)",
                  "  entanglement  chi=%11.4f deg  xi=%10.4f deg  c=%.6f  "
                  "(x2,x3,x4)=(%.6f, %.6f, %.6f)",
                  "  fiber         theta_f=%7.4f deg  phi_f=%8.4f deg  zeta_f=%8.4f deg  "
                  "bloch=(%.6f, %.6f, %.6f)"]
    return "\n".join([*lines, "concurrence:   %.9f", "coherence d_A: %.9f",
                      "coherence d_B: %.9f", ""])


def _neg(t: str) -> str:
    """The text numbers() writes for -x, from t, the one it writes for x."""
    return t[1:] if t[0] == "-" else t if t == "0.0" else "-" + t


def _numbers(s: TwoQubitState, assignments: tuple[str, ...]) -> list[str]:
    """The number leaves, in _template's order, of a state under each assignment;
    its sphere sets, density matrices and concurrence are computed here."""
    a, b, g, d = s
    values = [a.real, a.imag, b.real, b.imag, g.real, g.imag, d.real, d.imag]
    for label in assignments:
        _, base, ent, fib = sphere_set(s, A_BASE if _check_qubit(label) == "A" else B_BASE)
        values += (degrees(base.theta), degrees(base.phi), base.x1, base.b, base.x0,
                   degrees(ent.chi), degrees(ent.xi), ent.c, ent.x2, ent.x3, ent.x4,
                   degrees(fib.theta_f), degrees(fib.phi_f), degrees(fib.zeta_f), *fib.bloch)
    rho_a, rho_b = reduced_density(s, "A"), reduced_density(s, "B")
    (a00, a01, _, a11), (b00, b01, _, b11) = rho_a, rho_b
    values += (a00.real, a01.real, a01.imag, a11.real, b00.real, b01.real, b01.imag, b11.real,
               concurrence_det(s), coherence_d(rho_a), coherence_d(rho_b))
    text = numbers(values)
    # Each rho's four other leaves are written from their twins, exact under
    # CPython's complex product, which rounds each real product on its own
    # (no fused multiply-add).  A diagonal imaginary part sums terms -p + p,
    # so it is +-0, written "0.0".  rho10 is conj(rho01) bit for bit: the real
    # parts sum the same products in commuted order, and the imaginary parts
    # sum terms fl(p - q) where rho01's sum fl(q - p).  So rho10.re gets
    # rho01.re's text, and rho10.im its negation ("0.0" stays "0.0").
    r00, r01, i01, r11, q00, q01, j01, q11 = text[-11:-3]
    text[-11:-3] = (r00, "0.0", r01, i01, r01, _neg(i01), r11, "0.0",
                    q00, "0.0", q01, j01, q01, _neg(j01), q11, "0.0")
    return text


def state_record(s: TwoQubitState, assignments: tuple[str, ...] = ("A", "B")) -> Record:
    return tuple.__new__(Record, (assignments, tuple(_numbers(s, assignments)),
                                  _template(False, assignments)))


def text(record: Record) -> str:
    """A state_record in the text form: every leaf but the 16 of rho_A and rho_B."""
    leaves = record.leaves[:-19] + record.leaves[-3:]
    return _text_template(record.assignments) % tuple(map(float, leaves))


def step_record(step: TrajectoryStep, assignments: tuple[str, ...] = ("A", "B")) -> Record:
    # describe() writes a kind, A/B and %g or repr digits, none of which JSON escapes.
    index, gate, s = step
    leaves = (str(index), "null" if gate is None else '"%s"' % gate.describe(),
              *_numbers(s, assignments))
    return tuple.__new__(Record, (assignments, leaves, _template(True, assignments)))


def document(input_block: dict, records: list[Record]) -> Document:
    return Document({"version": SCHEMA_VERSION, "input": input_block}, records)
