"""Deterministic SVG rendering of the three spheres for a state.

Fixed canvas, fixed orthographic camera, fixed decimal formatting: the
same input always produces byte-identical output.
"""

from __future__ import annotations

import math

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


def _fmt(v: float) -> str:
    if abs(v) < 5e-5:
        v = 0.0
    return f"{v:.4f}"


def _project(p: tuple[float, float, float]) -> tuple[float, float]:
    sx = p[0] * _RIGHT[0] + p[1] * _RIGHT[1] + p[2] * _RIGHT[2]
    sy = p[0] * _UP[0] + p[1] * _UP[1] + p[2] * _UP[2]
    return sx, sy


class _Cell:
    """One sphere drawing cell; collects SVG elements in draw order."""

    def __init__(self, cx: float, cy: float):
        self.cx = cx
        self.cy = cy
        self.parts: list[str] = []

    def to_px(self, p: tuple[float, float, float]) -> tuple[float, float]:
        sx, sy = _project(p)
        return self.cx + RADIUS * sx, self.cy - RADIUS * sy

    def circle3d(self, radius: float, height: float, style: str):
        pts = []
        for k in range(N_CIRCLE + 1):
            ang = 2.0 * math.pi * k / N_CIRCLE
            x, y = self.to_px((radius * math.cos(ang), radius * math.sin(ang), height))
            pts.append(f"{_fmt(x)},{_fmt(y)}")
        self.parts.append(f'<polyline points="{" ".join(pts)}" style="{style}"/>')

    def outline(self, radius_px: float, style: str):
        self.parts.append(
            f'<circle cx="{_fmt(self.cx)}" cy="{_fmt(self.cy)}" '
            f'r="{_fmt(radius_px)}" style="{style}"/>')

    def line3d(self, p0, p1, style: str):
        x0, y0 = self.to_px(p0)
        x1, y1 = self.to_px(p1)
        self.parts.append(
            f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y1)}" '
            f'style="{style}"/>')

    def arrow3d(self, tip, style: str):
        x0, y0 = self.to_px((0.0, 0.0, 0.0))
        x1, y1 = self.to_px(tip)
        self.parts.append(
            f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y1)}" '
            f'style="{style}"/>')
        dx, dy = x1 - x0, y1 - y0
        length = math.hypot(dx, dy)
        if length < 1e-9:
            return
        ux, uy = dx / length, dy / length
        for sign in (1.0, -1.0):
            ca, sa = math.cos(2.6), math.sin(2.6) * sign
            hx = x1 + HEAD_PX * (ca * ux - sa * uy)
            hy = y1 + HEAD_PX * (sa * ux + ca * uy)
            self.parts.append(
                f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(hx)}" y2="{_fmt(hy)}" '
                f'style="{style}"/>')

    def point3d(self, p, color: str):
        x, y = self.to_px(p)
        self.parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(POINT_R)}" fill="{color}"/>')

    def axes(self, labels: tuple[str, str, str]):
        style = "stroke:#b0b0b0;stroke-width:1;fill:none"
        for axis, name in zip(((1.25, 0, 0), (0, 1.25, 0), (0, 0, 1.25)), labels):
            self.line3d((0, 0, 0), axis, style)
            x, y = self.to_px(tuple(1.38 * v for v in axis))
            self.parts.append(
                f'<text x="{_fmt(x)}" y="{_fmt(y)}" text-anchor="middle" '
                f'class="axis">{name}</text>')

    def text(self, dy: float, content: str, cls: str = "label"):
        x = self.cx
        y = self.cy + RADIUS + dy
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" text-anchor="middle" '
            f'class="{cls}">{content}</text>')


_WIRE = "stroke:#d8d8d8;stroke-width:1;fill:none"
_OUTER = "stroke:#c8a400;stroke-width:1.5;fill:none"
_INNER = "stroke:#2e8b57;stroke-width:1.5;fill:none"
_CONC = "stroke:#2e8b57;stroke-width:1.5;fill:none;stroke-dasharray:5,4"
_TVEC = "stroke:#8b008b;stroke-width:2;fill:none"
_BASEVEC = "stroke:#1f4fc8;stroke-width:2;fill:none"
_FIBVEC = "stroke:#c83232;stroke-width:2;fill:none"


def _deg(x: float) -> str:
    return _fmt(math.degrees(x))


def _base_cell(cx, cy, ss: SphereSet) -> _Cell:
    cell = _Cell(cx, cy)
    cell.outline(RADIUS, _WIRE)
    cell.circle3d(1.0, 0.0, _WIRE)
    cell.axes(("x1", "b", "x0"))
    v = (ss.base.x1, ss.base.b, ss.base.x0)
    cell.arrow3d(v, _BASEVEC)
    cell.point3d(v, "#1f4fc8")
    cell.text(24, f"BASE({ss.assignment.base_qubit})", "title")
    cell.text(40, f"theta={_deg(ss.base.theta)}deg phi={_deg(ss.base.phi)}deg")
    return cell


def _ent_cell(cx, cy, ss: SphereSet) -> _Cell:
    cell = _Cell(cx, cy)
    ent = ss.ent
    cell.outline(RADIUS, _OUTER)
    cell.circle3d(1.0, 0.0, _WIRE)
    cell.axes(("x2", "x3", "x4"))
    babs = abs(ent.b)
    cell.outline(RADIUS * babs, _INNER)
    # Horizontal concurrence circle of radius c at height x4 on the inner sphere.
    cell.circle3d(ent.c, ent.x4, _CONC)
    cell.arrow3d(ent.t, _TVEC)
    cell.point3d((ent.x2, ent.x3, ent.x4), "#2e8b57")
    cell.text(24, f"ENTANGLEMENT({ss.assignment.base_qubit})", "title")
    cell.text(40, f"chi={_deg(ent.chi)}deg xi={_deg(ent.xi)}deg c={_fmt(ent.c)}")
    return cell


def _fiber_cell(cx, cy, ss: SphereSet) -> _Cell:
    cell = _Cell(cx, cy)
    fib = ss.fiber
    cell.outline(RADIUS, _WIRE)
    cell.circle3d(1.0, 0.0, _WIRE)
    cell.axes(("x", "y", "z"))
    cell.arrow3d(fib.bloch, _FIBVEC)
    cell.point3d(fib.bloch, "#c83232")
    cell.text(24, f"FIBER({ss.assignment.fiber_qubit})", "title")
    cell.text(40, (f"theta_f={_deg(fib.theta_f)}deg "
                   f"phi_f-2zeta_f={_fmt(math.degrees(fib.phi_f - 2 * fib.zeta_f))}deg"))
    return cell


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
        cy = MARGIN + 18 + r * (CELL + LABEL_H) + CELL / 2
        cells = (
            _base_cell(MARGIN + CELL / 2, cy, ss),
            _ent_cell(MARGIN + CELL + CELL / 2, cy, ss),
            _fiber_cell(MARGIN + 2 * CELL + CELL / 2, cy, ss),
        )
        for cell in cells:
            out.extend(cell.parts)
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_to_file(path, step: TrajectoryStep, assignments=("A", "B"), title="") -> None:
    svg = render_svg(step, assignments=assignments, title=title)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
