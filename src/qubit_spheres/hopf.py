"""Map a two-qubit pure state onto base, entanglement and fiber spheres.

The amplitude vector is packed into a pair of quaternions, (q1, q2) =
(alpha + beta*j, gamma + delta*j) with qubit A as the base and
(alpha + gamma*j, beta + delta*j) with B; the product 2*q2*conj(q1) =
x1 + b*t carries the base-sphere azimuthal data and the entanglement
coordinates, and the fiber versor completes an exactly invertible
seven-angle parameterization.

The map and its inverse work on the packed floats: each quaternion product,
conjugate, squared norm, join and split is written out where it is used,
in the same expressions and order as the reference functions in
``oracles``, so the results are theirs bit for bit (``tests/test_hopf.py``
pins that).
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, NoReturn

from .state import DensityMatrix, TwoQubitState

VALID_TOL = 1e-9
# |t| must be 1 more tightly: every angle check passes a t off by 1e-10.
UNIT_T_TOL = 1e-12
CHI_MAX = math.pi / 2 + VALID_TOL


class InvalidSphereSet(ValueError):
    """Sphere-set invariants violated beyond their tolerance."""


class Assignment(Enum):
    """Which physical qubit is mapped to the base (the other is the fiber)."""

    A_BASE = "A"
    B_BASE = "B"

    @property
    def base_qubit(self) -> str:
        return self._value_

    @property
    def fiber_qubit(self) -> str:
        return "B" if self is A_BASE else "A"


# Read by name: on CPython 3.11 each Assignment.A_BASE read runs EnumType.__getattr__.
A_BASE, B_BASE = Assignment.A_BASE, Assignment.B_BASE


class BaseSphere(NamedTuple):
    """Polar/azimuthal angles plus Cartesian (x1, b, x0) of the base qubit."""

    theta: float
    phi: float
    x1: float
    b: float
    x0: float


class EntanglementSphere(NamedTuple):
    """Unit axis t = (tx, ty, tz) and the inner-sphere point (x2, x3, x4) = b*t,
    b the base sphere's.  chi and xi, the angles of t, and the concurrence
    c = |b|*sin(chi), the radius of the inner sphere's horizontal circle, are
    computed on each read; x4 = b*cos(chi) is the base qubit's imaginary coherence."""

    t: tuple[float, float, float]
    x2: float
    x3: float
    x4: float

    @property
    def chi(self) -> float:
        tx, ty, tz = self.t
        return math.atan2(math.hypot(tx, ty), tz)

    @property
    def xi(self) -> float:
        return math.atan2(self.t[1], self.t[0])

    @property
    def c(self) -> float:
        return math.hypot(self.x2, self.x3)


class FiberSphere(NamedTuple):
    """Fiber versor angles.  The Bloch point, computed on each read, sits at
    polar angle theta_f and azimuth phi_f - 2*zeta_f."""

    theta_f: float
    phi_f: float
    zeta_f: float

    @property
    def bloch(self) -> tuple[float, float, float]:
        az = self.phi_f - 2.0 * self.zeta_f
        st = math.sin(self.theta_f)
        return (st * math.cos(az), st * math.sin(az), math.cos(self.theta_f))


class SphereSet(NamedTuple):
    assignment: Assignment
    base: BaseSphere
    ent: EntanglementSphere
    fiber: FiberSphere


def sphere_set(s: TwoQubitState, a: Assignment) -> SphereSet:
    """Pack (q1, q2), form P = 2*q2*conj(q1) = x1 + b*t, and decompose the
    fiber versor q_f = cos(theta/2)*q1 + sin(theta/2)*e^(-t*phi)*q2."""
    if a is A_BASE:
        c1, d1, c2, d2 = s
    elif a is B_BASE:
        c1, c2, d1, d2 = s
    else:
        raise ValueError(f"assignment must be an Assignment, got {a!r}")
    # q1 = c1 + d1*j = (a0, a1, a2, a3) and q2 = c2 + d2*j = (b0, b1, b2, b3),
    # where c + d*j = (c.real, -d.imag, d.real, c.imag).  complex() first: an
    # int amplitude's zero imaginary part must negate to -0.0, as a float's.
    c1, d1, c2, d2 = complex(c1), complex(d1), complex(c2), complex(d2)
    a0, a1, a2, a3 = c1.real, -d1.imag, d1.real, c1.imag
    b0, b1, b2, b3 = c2.real, -d2.imag, d2.real, c2.imag
    x0 = (a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3) - (b0 * b0 + b1 * b1 + b2 * b2 + b3 * b3)
    # The Hamilton product q2 * (a0, -a1, -a2, -a3).  Negation is exact and
    # x - (-y) is x + y bit for bit, so conj's signs fold into the terms.
    x1 = 2.0 * (b0 * a0 + b1 * a1 + b2 * a2 + b3 * a3)
    x2 = 2.0 * (-b0 * a1 + b1 * a0 - b2 * a3 + b3 * a2)
    x3 = 2.0 * (-b0 * a2 + b1 * a3 + b2 * a0 - b3 * a1)
    x4 = 2.0 * (-b0 * a3 - b1 * a2 + b2 * a1 + b3 * a0)
    pnorm = math.sqrt(x2 * x2 + x3 * x3 + x4 * x4)
    if pnorm >= 1e-140:
        scale = 1.0
        u2, u3, u4 = x2, x3, x4
    else:
        # Below about 1e-154 the squares of p lose digits to underflow, and
        # below 2.2e-308 so does |p|, which would leave |t| off 1.  Scaling by
        # 2**600 is exact: t comes from the scaled p, and b is scaled back.
        scale = 2.0 ** 600
        u2, u3, u4 = scale * x2, scale * x3, scale * x4
        pnorm = math.sqrt(u2 * u2 + u3 * u3 + u4 * u4)

    # Hemisphere rule: pick the sign of b so that t stays northern (t_k >= 0);
    # ties (x4 == 0, p != 0) take b > 0, and p == 0 collapses to t = k.
    if pnorm == 0.0:
        b = 0.0
        tx, ty, tz = 0.0, 0.0, 1.0
    else:
        bu = math.copysign(pnorm, x4) if x4 != 0.0 else pnorm
        tx, ty, tz = u2 / bu, u3 / bu, u4 / bu
        b = bu / scale

    # atan2 rather than acos: acos loses half its digits near the poles.
    theta = math.atan2(math.hypot(x1, b), x0)
    # theta may round to a pole while (x1, b) still fixes the angle the fiber needs.
    phi = 0.0 if (x1 == 0.0 and b == 0.0) else math.atan2(b, x1)

    half = 0.5 * theta
    ch, sh = math.cos(half), math.sin(half)
    # r = e^(-t*phi) * q2; t is a unit axis by construction.
    cp, sp = math.cos(-phi), math.sin(-phi)
    ex, ey, ez = sp * tx, sp * ty, sp * tz
    rw = cp * b0 - ex * b1 - ey * b2 - ez * b3
    rx = cp * b1 + ex * b0 + ey * b3 - ez * b2
    ry = cp * b2 - ex * b3 + ey * b0 + ez * b1
    rz = cp * b3 + ex * b2 - ey * b1 + ez * b0
    # q_f = ch*q1 + sh*r = ca + cb*j, with ca = (fw, fz) and cb = (fy, -fx).
    fw, fx, fy, fz = ch * a0 + sh * rw, ch * a1 + sh * rx, ch * a2 + sh * ry, ch * a3 + sh * rz
    ma, mb = abs(complex(fw, fz)), abs(complex(fy, -fx))
    theta_f = 2.0 * math.atan2(mb, ma)
    if ma == 0.0:
        zeta_f = 0.0
        phi_f = math.atan2(-fx, fy)
    elif mb == 0.0:
        zeta_f = math.atan2(fz, fw)
        phi_f = zeta_f
    else:
        zeta_f = math.atan2(fz, fw)
        phi_f = math.atan2(-fx, fy) + zeta_f
        if phi_f > math.pi:
            phi_f -= 2.0 * math.pi
        elif phi_f <= -math.pi:
            phi_f += 2.0 * math.pi
    return tuple.__new__(SphereSet, (
        a, tuple.__new__(BaseSphere, (theta, phi, x1, b, x0)),
        tuple.__new__(EntanglementSphere, ((tx, ty, tz), x2, x3, x4)),
        tuple.__new__(FiberSphere, (theta_f, phi_f, zeta_f))))


def _bad(name: str, err: float, tol: float = VALID_TOL) -> NoReturn:
    raise InvalidSphereSet(f"{name} violated by {err:.3e} (tolerance {tol})")


def _reject_non_finite(ss: SphereSet):
    """Raise InvalidSphereSet naming the first NaN or infinite float of ss."""
    for part in ("base", "ent", "fiber"):
        sphere = getattr(ss, part)
        for field, v in zip(sphere._fields, sphere):
            named = ([(f"{field}[{j}]", x) for j, x in enumerate(v)]
                     if isinstance(v, tuple) else [(field, v)])
            for name, x in named:
                if not math.isfinite(x):
                    raise InvalidSphereSet(f"{part}.{name} is {x!r}")


def _validate(ss: SphereSet) -> tuple[float, float]:
    """Raise InvalidSphereSet on any inconsistency; return (cos, sin) of phi."""
    theta, phi, x1, b, x0 = ss.base
    (tx, ty, tz), x2, x3, x4 = ss.ent
    theta_f, phi_f, zeta_f = ss.fiber

    # Each float must be finite, so that an error names the float, not a check
    # (the fiber's angles are in none).  One sum tests them all; when it
    # overflows from finite floats, the checks below decide.
    if not math.isfinite(theta + phi + x1 + b + x0 + tx + ty + tz + x2 + x3 + x4
                         + theta_f + phi_f + zeta_f):
        _reject_non_finite(ss)

    st, ct = math.sin(theta), math.cos(theta)
    cp, sp = math.cos(phi), math.sin(phi)
    lo, hi = -VALID_TOL, VALID_TOL
    e1, e2, e3 = x1 - st * cp, b - st * sp, x0 - ct
    if not (lo <= e1 <= hi and lo <= e2 <= hi and lo <= e3 <= hi):
        _bad("base Cartesian/angle consistency", max(abs(e1), abs(e2), abs(e3)))

    chi, c = math.atan2(math.hypot(tx, ty), tz), math.hypot(x2, x3)
    if not (lo <= chi <= CHI_MAX):
        raise InvalidSphereSet(f"chi {chi!r} outside [0, pi/2]")
    # |b| <= 1 + VALID_TOL by now, so no difference is NaN and max() names the worst.
    e1, e2, e3, e4 = x2 - b * tx, x3 - b * ty, x4 - b * tz, b * b - x4 * x4 - c * c
    if not (lo <= e1 <= hi and lo <= e2 <= hi and lo <= e3 <= hi and lo <= e4 <= hi):
        _bad("entanglement-sphere consistency", max(abs(e1), abs(e2), abs(e3), abs(e4)))

    err = x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3 + x4 * x4 - 1.0
    if not lo <= err <= hi:
        _bad("unit 5-space norm", abs(err))

    err = math.sqrt(tx * tx + ty * ty + tz * tz) - 1.0
    if not -UNIT_T_TOL <= err <= UNIT_T_TOL:
        _bad("unit t axis", abs(err), UNIT_T_TOL)
    return cp, sp


def reconstruct(ss: SphereSet) -> TwoQubitState:
    """Exact inverse of sphere_set: q1 = cos(theta/2)*q_f, q2 = sin(theta/2)*e^(t*phi)*q_f.
    The result is unit-norm by construction (|q_f| = 1, |t| = 1 within UNIT_T_TOL).
    Raises InvalidSphereSet on an inconsistent set, one whose t is not a unit axis among them."""
    cp, sp = _validate(ss)
    theta_f, phi_f, zeta_f = ss.fiber
    # The fiber versor q_f = (cos(theta_f/2) + sin(theta_f/2)*e^(k*phi_f)*j) * e^(k*zeta_f).
    half = 0.5 * theta_f
    ch, sh = math.cos(half), math.sin(half)
    # (ch, 0, 0, 0) + sh*e^(k*phi_f)*j, with e^(k*angle) = (c, 0, 0, s), bit
    # for bit: the terms left out are signed zeros, added to ch or c, which
    # are never 0 (no double is a zero of cos), or to the leading 0.0.
    c, s = math.cos(phi_f), math.sin(phi_f)
    w, x, y, z = ch, 0.0 - sh * s, 0.0 + sh * c, 0.0
    # Times e^(k*zeta_f), its zeros written s*0.0 to keep their sign.
    c, s = math.cos(zeta_f), math.sin(zeta_f)
    s0 = s * 0.0
    w, x, y, z = (w * c - x * s0 - y * s0 - z * s,
                  w * s0 + x * c + y * s - z * s0,
                  w * s0 - x * s + y * c + z * s0,
                  w * s + x * s0 - y * s0 + z * c)
    # e^(t*phi) * q_f.
    tx, ty, tz = ss.ent.t
    ex, ey, ez = sp * tx, sp * ty, sp * tz
    rw = cp * w - ex * x - ey * y - ez * z
    rx = cp * x + ex * w + ey * z - ez * y
    ry = cp * y - ex * z + ey * w + ez * x
    rz = cp * z + ex * y - ey * x + ez * w
    half = 0.5 * ss.base.theta
    ch, sh = math.cos(half), math.sin(half)
    # Split q1 = ch*q_f and q2 = sh*r into c + d*j: c = (w, z), d = (y, -x).
    c1, d1 = complex(ch * w, ch * z), complex(ch * y, -(ch * x))
    c2, d2 = complex(sh * rw, sh * rz), complex(sh * ry, -(sh * rx))
    # |q1|^2 + |q2|^2 = |q_f|^2 = 1 within about UNIT_T_TOL: no NORM_TOL check.
    if ss.assignment is A_BASE:
        return tuple.__new__(TwoQubitState, (c1, d1, c2, d2))
    if ss.assignment is B_BASE:
        return tuple.__new__(TwoQubitState, (c1, c2, d1, d2))
    raise InvalidSphereSet(f"assignment {ss.assignment!r} is not an Assignment")


def rho_from_spheres(ss: SphereSet) -> DensityMatrix:
    """Reduced density matrix of the base qubit from (x0, x1, x4) alone."""
    x0, x1, x4 = ss.base.x0, ss.base.x1, ss.ent.x4
    return tuple.__new__(DensityMatrix, (
        complex((1.0 + x0) / 2.0, 0.0),
        complex(x1 / 2.0, -x4 / 2.0),
        complex(x1 / 2.0, x4 / 2.0),
        complex((1.0 - x0) / 2.0, 0.0),
    ))
