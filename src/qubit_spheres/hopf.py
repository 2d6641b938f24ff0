"""Map a two-qubit pure state onto base, entanglement and fiber spheres.

The amplitude vector is packed into a pair of quaternions (one per
base-qubit assignment); the product 2*q2*conj(q1) = x1 + b*t carries the
base-sphere azimuthal data and the entanglement coordinates, and the fiber
versor completes an exactly invertible seven-angle parameterization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .quatmath import (
    J,
    K,
    Quaternion,
    exp_pure,
    join_complex_pair,
    split_complex_pair,
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


@dataclass(frozen=True)
class BaseSphere:
    """Polar/azimuthal angles plus Cartesian (x1, b, x0) of the base qubit."""

    theta: float
    phi: float
    x1: float
    b: float
    x0: float


@dataclass(frozen=True)
class EntanglementSphere:
    """Unit axis t (angles chi, xi) and the inner sphere of radius |b|.

    The inner-sphere point is (x2, x3, x4) = b*t; the concurrence is the
    radius c = hypot(x2, x3) = |b|*sin(chi) of its horizontal circle, and
    x4 = b*cos(chi) is the imaginary coherence of the base qubit.
    """

    chi: float
    xi: float
    b: float
    t: Quaternion
    c: float
    x2: float
    x3: float
    x4: float


@dataclass(frozen=True)
class FiberSphere:
    """Fiber versor angles; the Bloch point is plotted at azimuth phi_f - 2*zeta_f."""

    theta_f: float
    phi_f: float
    zeta_f: float
    bloch: tuple[float, float, float]


@dataclass(frozen=True)
class SphereSet:
    assignment: Assignment
    base: BaseSphere
    ent: EntanglementSphere
    fiber: FiberSphere

    @property
    def concurrence(self) -> float:
        return self.ent.c


def quaternion_pair(s: TwoQubitState, a: Assignment) -> tuple[Quaternion, Quaternion]:
    """(alpha + beta*j, gamma + delta*j) for A_BASE; (alpha + gamma*j, beta + delta*j) for B_BASE."""
    if a is Assignment.A_BASE:
        return (join_complex_pair(s.alpha, s.beta),
                join_complex_pair(s.gamma, s.delta))
    return (join_complex_pair(s.alpha, s.gamma),
            join_complex_pair(s.beta, s.delta))


def base_and_entanglement(q1: Quaternion, q2: Quaternion
                          ) -> tuple[BaseSphere, EntanglementSphere]:
    x0 = q1.norm_sq() - q2.norm_sq()
    p = 2.0 * (q2 * q1.conj())

    x1 = p.w
    x2, x3, x4 = p.x, p.y, p.z
    pnorm = math.sqrt(x2 * x2 + x3 * x3 + x4 * x4)

    # Hemisphere rule: pick the sign of b so that t stays northern (t_k >= 0);
    # ties (x4 == 0, p != 0) take b > 0, and p == 0 collapses to t = k.
    if pnorm == 0.0:
        b = 0.0
        t = K
        chi = 0.0
        xi = 0.0
    else:
        b = math.copysign(pnorm, x4) if x4 != 0.0 else pnorm
        t = Quaternion(0.0, x2 / b, x3 / b, x4 / b)
        chi = math.atan2(math.hypot(t.x, t.y), t.z)
        xi = math.atan2(t.y, t.x)

    c = math.hypot(x2, x3)
    # atan2 rather than acos: acos loses half its digits near the poles.
    theta = math.atan2(math.hypot(x1, b), x0)
    phi = 0.0 if (theta == 0.0 or theta == math.pi) else math.atan2(b, x1)

    return (BaseSphere(theta=theta, phi=phi, x1=x1, b=b, x0=x0),
            EntanglementSphere(chi=chi, xi=xi, b=b, t=t, c=c, x2=x2, x3=x3, x4=x4))


def _fiber_angles(q_f: Quaternion) -> tuple[float, float, float]:
    ca, cb = split_complex_pair(q_f)
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


def fiber(q1: Quaternion, q2: Quaternion, base: BaseSphere,
          ent: EntanglementSphere) -> FiberSphere:
    """Fiber versor q_f = cos(theta/2)*q1 + sin(theta/2)*e^(-t*phi)*q2, decomposed."""
    half = 0.5 * base.theta
    q_f = (math.cos(half) * q1
           + math.sin(half) * (exp_pure(ent.t, -base.phi) * q2))
    theta_f, phi_f, zeta_f = _fiber_angles(q_f)
    return FiberSphere(theta_f=theta_f, phi_f=phi_f, zeta_f=zeta_f,
                       bloch=_fiber_bloch(theta_f, phi_f, zeta_f))


def sphere_set(s: TwoQubitState, a: Assignment) -> SphereSet:
    q1, q2 = quaternion_pair(s, a)
    base, ent = base_and_entanglement(q1, q2)
    return SphereSet(assignment=a, base=base, ent=ent, fiber=fiber(q1, q2, base, ent))


def fiber_versor(f: FiberSphere) -> Quaternion:
    """Rebuild q_f = (cos(theta_f/2) + sin(theta_f/2)*e^(k*phi_f)*j) * e^(k*zeta_f)."""
    half = 0.5 * f.theta_f
    inner = (Quaternion(math.cos(half))
             + math.sin(half) * (exp_pure(K, f.phi_f) * J))
    return inner * exp_pure(K, f.zeta_f)


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
    err = max(abs(ent.t.w),
              abs(ent.t.x - sc * math.cos(ent.xi)),
              abs(ent.t.y - sc * math.sin(ent.xi)),
              abs(ent.t.z - cc))
    if err > VALID_TOL:
        bad("t/(chi, xi) consistency", err)
    err = max(abs(ent.x2 - ent.b * ent.t.x),
              abs(ent.x3 - ent.b * ent.t.y),
              abs(ent.x4 - ent.b * ent.t.z),
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
    q1 = math.cos(half) * q_f
    q2 = math.sin(half) * (exp_pure(ss.ent.t, ss.base.phi) * q_f)
    c1, c2 = split_complex_pair(q1)
    c3, c4 = split_complex_pair(q2)
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
