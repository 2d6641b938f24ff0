"""Map a two-qubit pure state onto base, entanglement and fiber spheres.

The amplitude vector is packed into a pair of quaternions (one per
base-qubit assignment); the product 2*q2*conj(q1) = x1 + b*t carries the
base-sphere azimuthal data and the entanglement coordinates, and the fiber
versor completes an exactly invertible seven-angle parameterization.

The map and its inverse work on quaternion components (``quatmath``'s
``Components`` tuples).  The entanglement axis ``t`` is stored as the
point (tx, ty, tz) of S^2; ``fiber`` and ``reconstruct`` pass the pure
quaternion (0, tx, ty, tz) to ``exp_axis``.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .quatmath import (
    Components,
    J,
    K,
    conj,
    exp_axis,
    hamilton,
    join_components,
    norm_sq,
    split_components,
)
from .state import DensityMatrix, TwoQubitState

VALID_TOL = 1e-9


class InvalidSphereSet(ValueError):
    """Sphere-set invariants violated beyond 1e-9."""


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
    """Unit axis t = (tx, ty, tz) (angles chi, xi) and the inner sphere of radius |b|.

    The inner-sphere point is (x2, x3, x4) = b*t; the concurrence is the
    radius c = hypot(x2, x3) = |b|*sin(chi) of its horizontal circle, and
    x4 = b*cos(chi) is the imaginary coherence of the base qubit.
    """

    chi: float
    xi: float
    b: float
    t: tuple[float, float, float]
    c: float
    x2: float
    x3: float
    x4: float


class FiberSphere(NamedTuple):
    """Fiber versor angles; the Bloch point is plotted at azimuth phi_f - 2*zeta_f."""

    theta_f: float
    phi_f: float
    zeta_f: float
    bloch: tuple[float, float, float]


class SphereSet(NamedTuple):
    assignment: Assignment
    base: BaseSphere
    ent: EntanglementSphere
    fiber: FiberSphere

    @property
    def concurrence(self) -> float:
        return self.ent.c


def quaternion_pair(s: TwoQubitState, a: Assignment) -> tuple[Components, Components]:
    """(alpha + beta*j, gamma + delta*j) for A_BASE; (alpha + gamma*j, beta + delta*j) for B_BASE."""
    if a is Assignment.A_BASE:
        return (join_components(s.alpha, s.beta),
                join_components(s.gamma, s.delta))
    return (join_components(s.alpha, s.gamma),
            join_components(s.beta, s.delta))


def base_and_entanglement(q1: Components, q2: Components
                          ) -> tuple[BaseSphere, EntanglementSphere]:
    x0 = norm_sq(q1) - norm_sq(q2)
    pw, px, py, pz = hamilton(q2, conj(q1))

    x1 = 2.0 * pw
    x2, x3, x4 = 2.0 * px, 2.0 * py, 2.0 * pz
    pnorm = math.sqrt(x2 * x2 + x3 * x3 + x4 * x4)

    # Hemisphere rule: pick the sign of b so that t stays northern (t_k >= 0);
    # ties (x4 == 0, p != 0) take b > 0, and p == 0 collapses to t = k.
    if pnorm == 0.0:
        b = 0.0
        t = K[1:]
        chi = 0.0
        xi = 0.0
    else:
        b = math.copysign(pnorm, x4) if x4 != 0.0 else pnorm
        tx, ty, tz = x2 / b, x3 / b, x4 / b
        t = (tx, ty, tz)
        chi = math.atan2(math.hypot(tx, ty), tz)
        xi = math.atan2(ty, tx)

    c = math.hypot(x2, x3)
    # atan2 rather than acos: acos loses half its digits near the poles.
    theta = math.atan2(math.hypot(x1, b), x0)
    phi = 0.0 if (theta == 0.0 or theta == math.pi) else math.atan2(b, x1)

    return (BaseSphere(theta=theta, phi=phi, x1=x1, b=b, x0=x0),
            EntanglementSphere(chi=chi, xi=xi, b=b, t=t, c=c, x2=x2, x3=x3, x4=x4))


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


def _fiber_bloch(theta_f: float, phi_f: float, zeta_f: float
                 ) -> tuple[float, float, float]:
    az = phi_f - 2.0 * zeta_f
    st = math.sin(theta_f)
    return (st * math.cos(az), st * math.sin(az), math.cos(theta_f))


def fiber(q1: Components, q2: Components, base: BaseSphere,
          ent: EntanglementSphere) -> FiberSphere:
    """Fiber versor q_f = cos(theta/2)*q1 + sin(theta/2)*e^(-t*phi)*q2, decomposed."""
    half = 0.5 * base.theta
    ch, sh = math.cos(half), math.sin(half)
    qw, qx, qy, qz = q1
    rw, rx, ry, rz = hamilton(exp_axis((0.0, *ent.t), -base.phi), q2)
    theta_f, phi_f, zeta_f = _fiber_angles(
        (ch * qw + sh * rw, ch * qx + sh * rx, ch * qy + sh * ry, ch * qz + sh * rz))
    return FiberSphere(theta_f=theta_f, phi_f=phi_f, zeta_f=zeta_f,
                       bloch=_fiber_bloch(theta_f, phi_f, zeta_f))


def sphere_set(s: TwoQubitState, a: Assignment) -> SphereSet:
    q1, q2 = quaternion_pair(s, a)
    base, ent = base_and_entanglement(q1, q2)
    return SphereSet(assignment=a, base=base, ent=ent, fiber=fiber(q1, q2, base, ent))


def fiber_versor(f: FiberSphere) -> Components:
    """Rebuild q_f = (cos(theta_f/2) + sin(theta_f/2)*e^(k*phi_f)*j) * e^(k*zeta_f)."""
    half = 0.5 * f.theta_f
    ch, sh = math.cos(half), math.sin(half)
    w, x, y, z = hamilton(exp_axis(K, f.phi_f), J)
    # (ch, 0, 0, 0) + sh*(w, x, y, z), with the signed zeros that sum gives.
    return hamilton((ch + sh * w, 0.0 + sh * x, 0.0 + sh * y, 0.0 + sh * z),
                    exp_axis(K, f.zeta_f))


def _validate(ss: SphereSet) -> None:
    base, ent, fib = ss.base, ss.ent, ss.fiber

    def bad(name, err):
        raise InvalidSphereSet(f"{name} violated by {err:.3e} (tolerance {VALID_TOL})")

    st, ct = math.sin(base.theta), math.cos(base.theta)
    err = max(abs(base.x1 - st * math.cos(base.phi)),
              abs(base.b - st * math.sin(base.phi)),
              abs(base.x0 - ct))
    if err > VALID_TOL:
        bad("base Cartesian/angle consistency", err)

    if not (-VALID_TOL <= ent.chi <= math.pi / 2 + VALID_TOL):
        raise InvalidSphereSet(f"chi {ent.chi!r} outside [0, pi/2]")
    sc, cc = math.sin(ent.chi), math.cos(ent.chi)
    tx, ty, tz = ent.t
    err = max(abs(tx - sc * math.cos(ent.xi)),
              abs(ty - sc * math.sin(ent.xi)),
              abs(tz - cc))
    if err > VALID_TOL:
        bad("t/(chi, xi) consistency", err)
    err = max(abs(ent.x2 - ent.b * tx),
              abs(ent.x3 - ent.b * ty),
              abs(ent.x4 - ent.b * tz),
              abs(ent.c - math.hypot(ent.x2, ent.x3)),
              abs(ent.b * ent.b - ent.x4 * ent.x4 - ent.c * ent.c),
              abs(ent.b - base.b))
    if err > VALID_TOL:
        bad("entanglement-sphere consistency", err)

    s4 = (base.x0 ** 2 + base.x1 ** 2 + ent.x2 ** 2 + ent.x3 ** 2 + ent.x4 ** 2)
    if abs(s4 - 1.0) > VALID_TOL:
        bad("unit 5-space norm", abs(s4 - 1.0))

    ref = _fiber_bloch(fib.theta_f, fib.phi_f, fib.zeta_f)
    err = max(abs(fib.bloch[i] - ref[i]) for i in range(3))
    if err > VALID_TOL:
        bad("fiber bloch/angle consistency", err)


def reconstruct(ss: SphereSet) -> TwoQubitState:
    """Exact inverse of sphere_set for either assignment."""
    _validate(ss)
    q_f = fiber_versor(ss.fiber)
    half = 0.5 * ss.base.theta
    ch, sh = math.cos(half), math.sin(half)
    w, x, y, z = q_f
    rw, rx, ry, rz = hamilton(exp_axis((0.0, *ss.ent.t), ss.base.phi), q_f)
    c1, c2 = split_components((ch * w, ch * x, ch * y, ch * z))
    c3, c4 = split_components((sh * rw, sh * rx, sh * ry, sh * rz))
    if ss.assignment is Assignment.A_BASE:
        amps = (c1, c2, c3, c4)
    else:
        amps = (c1, c3, c2, c4)
    return TwoQubitState(*amps)


def rho_from_spheres(ss: SphereSet) -> DensityMatrix:
    """Reduced density matrix of the base qubit from (x0, x1, x4) alone."""
    x0, x1, x4 = ss.base.x0, ss.base.x1, ss.ent.x4
    return DensityMatrix(
        rho00=complex((1.0 + x0) / 2.0, 0.0),
        rho01=complex(x1 / 2.0, -x4 / 2.0),
        rho10=complex(x1 / 2.0, x4 / 2.0),
        rho11=complex((1.0 - x0) / 2.0, 0.0),
    )
