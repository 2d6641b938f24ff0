"""Map a two-qubit pure state onto base, entanglement and fiber spheres.

The amplitude vector is packed into a pair of quaternions, (q1, q2) =
(alpha + beta*j, gamma + delta*j) with qubit A as the base and
(alpha + gamma*j, beta + delta*j) with B; the product 2*q2*conj(q1) =
x1 + b*t carries the base-sphere azimuthal data and the entanglement
coordinates, and the fiber versor completes an exactly invertible
seven-angle parameterization.

The map and its inverse work on quaternion components (``quatmath``'s
``Components`` tuples).  The entanglement axis ``t`` is stored as the
point (tx, ty, tz) of S^2.  Each exponential e^(t*angle) is written out
as cos(angle) + t*sin(angle), from a sine and cosine taken once per call;
``reconstruct`` checks that a caller's ``t`` is a unit axis.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, NoReturn

from .quatmath import (
    Components,
    J,
    K,
    conj,
    hamilton,
    join_components,
    norm_sq,
    split_components,
)
from .state import DensityMatrix, TwoQubitState

VALID_TOL = 1e-9
# |t| must be 1 more tightly: every angle check passes a t off by 1e-10.
UNIT_T_TOL = 1e-12


class InvalidSphereSet(ValueError):
    """Sphere-set invariants violated beyond their tolerance."""


class Assignment(Enum):
    """Which physical qubit is mapped to the base (the other is the fiber)."""

    A_BASE = "A"
    B_BASE = "B"

    @property
    def base_qubit(self) -> str:
        return self.value

    @property
    def fiber_qubit(self) -> str:
        return "B" if self is Assignment.A_BASE else "A"


class BaseSphere(NamedTuple):
    """Polar/azimuthal angles plus Cartesian (x1, b, x0) of the base qubit."""

    theta: float
    phi: float
    x1: float
    b: float
    x0: float


class EntanglementSphere(NamedTuple):
    """Unit axis t = (tx, ty, tz) and the inner-sphere point (x2, x3, x4) = b*t.

    b is the base sphere's.  chi and xi, the angles of t, and the
    concurrence c = hypot(x2, x3) = |b|*sin(chi), the radius of the inner
    sphere's horizontal circle, are computed on each read; x4 = b*cos(chi)
    is the imaginary coherence of the base qubit.
    """

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


def _fiber_angles(q_f: Components) -> tuple[float, float, float]:
    ca, cb = split_components(q_f)
    ma, mb = abs(ca), abs(cb)
    theta_f = 2.0 * math.atan2(mb, ma)
    if ma == 0.0:
        zeta_f = 0.0
        phi_f = math.atan2(cb.imag, cb.real)
    elif mb == 0.0:
        zeta_f = math.atan2(ca.imag, ca.real)
        phi_f = zeta_f
    else:
        zeta_f = math.atan2(ca.imag, ca.real)
        phi_f = math.atan2(cb.imag, cb.real) + zeta_f
        if phi_f > math.pi:
            phi_f -= 2.0 * math.pi
        elif phi_f <= -math.pi:
            phi_f += 2.0 * math.pi
    return theta_f, phi_f, zeta_f


def sphere_set(s: TwoQubitState, a: Assignment) -> SphereSet:
    """Pack (q1, q2), form P = 2*q2*conj(q1) = x1 + b*t, and decompose the
    fiber versor q_f = cos(theta/2)*q1 + sin(theta/2)*e^(-t*phi)*q2."""
    if a is Assignment.A_BASE:
        q1, q2 = join_components(s.alpha, s.beta), join_components(s.gamma, s.delta)
    elif a is Assignment.B_BASE:
        q1, q2 = join_components(s.alpha, s.gamma), join_components(s.beta, s.delta)
    else:
        raise ValueError(f"assignment must be an Assignment, got {a!r}")
    x0 = norm_sq(q1) - norm_sq(q2)
    pw, px, py, pz = hamilton(q2, conj(q1))

    x1 = 2.0 * pw
    x2, x3, x4 = 2.0 * px, 2.0 * py, 2.0 * pz
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
        tx, ty, tz = K[1:]
    else:
        bu = math.copysign(pnorm, x4) if x4 != 0.0 else pnorm
        tx, ty, tz = u2 / bu, u3 / bu, u4 / bu
        b = bu / scale

    # atan2 rather than acos: acos loses half its digits near the poles.
    theta = math.atan2(math.hypot(x1, b), x0)
    phi = 0.0 if (theta == 0.0 or theta == math.pi) else math.atan2(b, x1)

    half = 0.5 * theta
    ch, sh = math.cos(half), math.sin(half)
    qw, qx, qy, qz = q1
    # e^(-t*phi); t is a unit axis by construction.
    cp, sp = math.cos(-phi), math.sin(-phi)
    rw, rx, ry, rz = hamilton((cp, sp * tx, sp * ty, sp * tz), q2)
    fiber = FiberSphere(*_fiber_angles(
        (ch * qw + sh * rw, ch * qx + sh * rx, ch * qy + sh * ry, ch * qz + sh * rz)))
    return SphereSet(a, BaseSphere(theta, phi, x1, b, x0),
                     EntanglementSphere((tx, ty, tz), x2, x3, x4), fiber)


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

    # A NaN compares False with every tolerance below, and max() drops one
    # that does not come first, so each float must be finite.  One sum tests
    # them all; a sum that overflows from finite floats fails a check below.
    if not math.isfinite(theta + phi + x1 + b + x0 + tx + ty + tz + x2 + x3 + x4
                         + theta_f + phi_f + zeta_f):
        _reject_non_finite(ss)

    st, ct = math.sin(theta), math.cos(theta)
    cp, sp = math.cos(phi), math.sin(phi)
    err = max(abs(x1 - st * cp),
              abs(b - st * sp),
              abs(x0 - ct))
    if err > VALID_TOL:
        _bad("base Cartesian/angle consistency", err)

    chi, c = ss.ent.chi, ss.ent.c
    if not (-VALID_TOL <= chi <= math.pi / 2 + VALID_TOL):
        raise InvalidSphereSet(f"chi {chi!r} outside [0, pi/2]")
    err = max(abs(x2 - b * tx),
              abs(x3 - b * ty),
              abs(x4 - b * tz),
              abs(b * b - x4 * x4 - c * c))
    if err > VALID_TOL:
        _bad("entanglement-sphere consistency", err)

    s4 = (x0 ** 2 + x1 ** 2 + x2 ** 2 + x3 ** 2 + x4 ** 2)
    if abs(s4 - 1.0) > VALID_TOL:
        _bad("unit 5-space norm", abs(s4 - 1.0))

    err = abs(math.sqrt(tx * tx + ty * ty + tz * tz) - 1.0)
    if err > UNIT_T_TOL:
        _bad("unit t axis", err, UNIT_T_TOL)
    return cp, sp


def reconstruct(ss: SphereSet) -> TwoQubitState:
    """Exact inverse of sphere_set: q1 = cos(theta/2)*q_f, q2 = sin(theta/2)*e^(t*phi)*q_f."""
    cp, sp = _validate(ss)
    tx, ty, tz = ss.ent.t
    # The fiber versor q_f = (cos(theta_f/2) + sin(theta_f/2)*e^(k*phi_f)*j) * e^(k*zeta_f).
    half = 0.5 * ss.fiber.theta_f
    ch, sh = math.cos(half), math.sin(half)
    # e^(k*angle) = (c, 0, 0, s), its zeros written s*0.0 to keep their sign.
    c, s = math.cos(ss.fiber.phi_f), math.sin(ss.fiber.phi_f)
    w, x, y, z = hamilton((c, s * 0.0, s * 0.0, s), J)
    c, s = math.cos(ss.fiber.zeta_f), math.sin(ss.fiber.zeta_f)
    # (ch, 0, 0, 0) + sh*(w, x, y, z), with the signed zeros that sum gives.
    w, x, y, z = hamilton((ch + sh * w, 0.0 + sh * x, 0.0 + sh * y, 0.0 + sh * z),
                          (c, s * 0.0, s * 0.0, s))
    half = 0.5 * ss.base.theta
    ch, sh = math.cos(half), math.sin(half)
    rw, rx, ry, rz = hamilton((cp, sp * tx, sp * ty, sp * tz), (w, x, y, z))
    c1, c2 = split_components((ch * w, ch * x, ch * y, ch * z))
    c3, c4 = split_components((sh * rw, sh * rx, sh * ry, sh * rz))
    if ss.assignment is Assignment.A_BASE:
        return TwoQubitState(c1, c2, c3, c4)
    if ss.assignment is Assignment.B_BASE:
        return TwoQubitState(c1, c3, c2, c4)
    raise InvalidSphereSet(f"assignment {ss.assignment!r} is not an Assignment")


def rho_from_spheres(ss: SphereSet) -> DensityMatrix:
    """Reduced density matrix of the base qubit from (x0, x1, x4) alone."""
    x0, x1, x4 = ss.base.x0, ss.base.x1, ss.ent.x4
    return DensityMatrix(
        rho00=complex((1.0 + x0) / 2.0, 0.0),
        rho01=complex(x1 / 2.0, -x4 / 2.0),
        rho10=complex(x1 / 2.0, x4 / 2.0),
        rho11=complex((1.0 - x0) / 2.0, 0.0),
    )
