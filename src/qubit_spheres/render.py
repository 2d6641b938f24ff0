"""Deterministic SVG rendering of the three spheres for a state.

Fixed canvas, fixed orthographic camera, fixed decimal formatting: the
same input always produces byte-identical output.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .gates import TrajectoryStep
    from .hopf import SphereSet

# Orthographic camera direction (degrees): oblique view with +z up.
VIEW_AZIMUTH_DEG = -60.0
VIEW_ELEVATION_DEG = 30.0

CELL = 330          # px per sphere cell (square drawing area)
LABEL_H = 46        # px label strip under each cell
MARGIN = 14
RADIUS = 118        # px radius of a unit sphere
N_CIRCLE = 72       # polyline segments per drawn circle
HEAD_PX = 8.0       # px length of an arrowhead stroke
POINT_R = 4.0       # px radius of a marked point

_AZ = math.radians(VIEW_AZIMUTH_DEG)
_EL = math.radians(VIEW_ELEVATION_DEG)
_RIGHT = (-math.sin(_AZ), math.cos(_AZ), 0.0)
_UP = (-math.sin(_EL) * math.cos(_AZ), -math.sin(_EL) * math.sin(_AZ), math.cos(_EL))

_WIRE = "stroke:#d8d8d8;stroke-width:1;fill:none"
_AXIS = "stroke:#b0b0b0;stroke-width:1;fill:none"
_OUTER = "stroke:#c8a400;stroke-width:1.5;fill:none"
_INNER = "stroke:#2e8b57;stroke-width:1.5;fill:none"
_CONC = "stroke:#2e8b57;stroke-width:1.5;fill:none;stroke-dasharray:5,4"

# Per column of a row (base, entanglement, fiber): outline style, axis
# labels, vector style and marked-point colour.
_COLUMNS = (
    (_WIRE, ("x1", "b", "x0"), "stroke:#1f4fc8;stroke-width:2;fill:none", "#1f4fc8"),
    (_OUTER, ("x2", "x3", "x4"), "stroke:#8b008b;stroke-width:2;fill:none", "#2e8b57"),
    (_WIRE, ("x", "y", "z"), "stroke:#c83232;stroke-width:2;fill:none", "#c83232"),
)


def _fmt(v: float) -> str:
    if abs(v) < 5e-5:
        v = 0.0
    return f"{v:.4f}"


def _deg(x: float) -> str:
    return _fmt(math.degrees(x))


def _px(cx: float, cy: float, p: tuple[float, float, float]) -> tuple[float, float]:
    """Canvas position of the point p of the unit sphere centred at (cx, cy)."""
    sx = p[0] * _RIGHT[0] + p[1] * _RIGHT[1] + p[2] * _RIGHT[2]
    sy = p[0] * _UP[0] + p[1] * _UP[1] + p[2] * _UP[2]
    return cx + RADIUS * sx, cy - RADIUS * sy


def _line(x0: float, y0: float, x1: float, y1: float, style: str) -> str:
    return (f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y1)}" '
            f'style="{style}"/>')


def _circle(x: float, y: float, r: float, paint: str) -> str:
    return f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" {paint}/>'


def _text(x: float, y: float, content: str, cls: str) -> str:
    return (f'<text x="{_fmt(x)}" y="{_fmt(y)}" text-anchor="middle" '
            f'class="{cls}">{content}</text>')


def _ring(cx: float, cy: float, radius: float, height: float, style: str) -> str:
    """The horizontal circle of the given radius at the given height."""
    pts = []
    for k in range(N_CIRCLE + 1):
        ang = 2.0 * math.pi * k / N_CIRCLE
        x, y = _px(cx, cy, (radius * math.cos(ang), radius * math.sin(ang), height))
        pts.append(f"{_fmt(x)},{_fmt(y)}")
    return f'<polyline points="{" ".join(pts)}" style="{style}"/>'


def _arrow(cx: float, cy: float, tip, style: str) -> list[str]:
    """A vector from the sphere's centre: its shaft, and a two-stroke head
    unless the shaft projects to a point."""
    x0, y0 = _px(cx, cy, (0.0, 0.0, 0.0))
    x1, y1 = _px(cx, cy, tip)
    parts = [_line(x0, y0, x1, y1, style)]
    dx, dy = x1 - x0, y1 - y0
    length = math.hypot(dx, dy)
    if length < 1e-9:
        return parts
    ux, uy = dx / length, dy / length
    for sign in (1.0, -1.0):
        ca, sa = math.cos(2.6), math.sin(2.6) * sign
        parts.append(_line(x1, y1, x1 + HEAD_PX * (ca * ux - sa * uy),
                           y1 + HEAD_PX * (sa * ux + ca * uy), style))
    return parts


def _centre(col: int, row: int) -> tuple[float, float]:
    return (MARGIN + col * CELL + CELL / 2,
            MARGIN + 18 + row * (CELL + LABEL_H) + CELL / 2)


def _frame(col: int, row: int) -> list[str]:
    """The part of a cell that no state changes: outline, equator and
    labelled axes."""
    cx, cy = _centre(col, row)
    outline, labels, _, _ = _COLUMNS[col]
    parts = [_circle(cx, cy, RADIUS, f'style="{outline}"'), _ring(cx, cy, 1.0, 0.0, _WIRE)]
    for axis, name in zip(((1.25, 0, 0), (0, 1.25, 0), (0, 0, 1.25)), labels):
        parts.append(_line(*_px(cx, cy, (0, 0, 0)), *_px(cx, cy, axis), _AXIS))
        parts.append(_text(*_px(cx, cy, tuple(1.38 * v for v in axis)), name, "axis"))
    return parts


def _row(row: int, ss: SphereSet) -> list[str]:
    """One assignment's three cells: each frame, then what the state draws in it."""
    base, ent, fib = ss.base, ss.ent, ss.fiber
    v, bloch = (base.x1, base.b, base.x0), fib.bloch
    # Per column: vector tip, marked point, title, label line.
    cells = (
        (v, v, f"BASE({ss.assignment.base_qubit})",
         f"theta={_deg(base.theta)}deg phi={_deg(base.phi)}deg"),
        (ent.t, (ent.x2, ent.x3, ent.x4), f"ENTANGLEMENT({ss.assignment.base_qubit})",
         f"chi={_deg(ent.chi)}deg xi={_deg(ent.xi)}deg c={_fmt(ent.c)}"),
        (bloch, bloch, f"FIBER({ss.assignment.fiber_qubit})",
         f"theta_f={_deg(fib.theta_f)}deg "
         f"phi_f-2zeta_f={_fmt(math.degrees(fib.phi_f - 2 * fib.zeta_f))}deg"),
    )
    out = []
    for col, (tip, point, title, label) in enumerate(cells):
        cx, cy = _centre(col, row)
        out.extend(_frame(col, row))
        if col == 1:
            # The inner sphere of radius |b|, and on it the horizontal
            # concurrence circle of radius c at height x4.
            out.append(_circle(cx, cy, RADIUS * abs(base.b), f'style="{_INNER}"'))
            out.append(_ring(cx, cy, ent.c, ent.x4, _CONC))
        _, _, vector_style, colour = _COLUMNS[col]
        out.extend(_arrow(cx, cy, tip, vector_style))
        out.append(_circle(*_px(cx, cy, point), POINT_R, f'fill="{colour}"'))
        out.append(_text(cx, cy + RADIUS + 24, title, "title"))
        out.append(_text(cx, cy + RADIUS + 40, label, "label"))
    return out


def render_svg(step: TrajectoryStep, assignments: tuple[str, ...] = ("A", "B"),
               title: str = "") -> str:
    """Render one row of three spheres per requested assignment of the step's state."""
    rows = [step.spheres(label) for label in assignments]

    width = 3 * CELL + 2 * MARGIN
    height = len(rows) * (CELL + LABEL_H) + 2 * MARGIN + 18
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        "<style>text{font-family:monospace;font-size:12px;fill:#333}"
        ".title{font-size:13px;font-weight:bold}.axis{fill:#909090}</style>",
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    if title:
        # '>' is legal in XML text and stays as written (e.g. "basis |00>").
        title = title.replace("&", "&amp;").replace("<", "&lt;")
        out.append(
            f'<text x="{MARGIN}" y="{MARGIN + 4}" class="title">{title}</text>')
    for r, ss in enumerate(rows):
        out.extend(_row(r, ss))
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_to_file(path, step: TrajectoryStep, assignments=("A", "B"), title="") -> None:
    svg = render_svg(step, assignments=assignments, title=title)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
