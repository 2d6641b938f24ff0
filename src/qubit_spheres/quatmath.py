"""Quaternion arithmetic with the exact conventions the sphere maps rely on.

Basis rules: ij = k, jk = i, ki = j, i^2 = j^2 = k^2 = -1.  Complex
amplitudes entering the quaternion algebra use *k* as their imaginary
unit, so ``complex(a, b)`` embeds as the quaternion ``(a, 0, 0, b)``.

Each formula is written once, on plain ``(w, x, y, z)`` float tuples
(``Components``); the ``Quaternion`` class wraps them.  The sphere maps in
``hopf`` call the component functions directly, so a state is mapped
without building intermediate ``Quaternion`` objects.
"""

from __future__ import annotations

import math

# Complex-in-k: an ordinary Python complex whose imaginary unit is understood
# to be the quaternion k once embedded.
ComplexK = complex

Components = tuple[float, float, float, float]

UNIT_TOL = 1e-12


class NonUnitPureImaginary(ValueError):
    """Axis passed to exp_axis (or exp_pure) is not a unit pure-imaginary quaternion."""


def hamilton(a: Components, b: Components) -> Components:
    """Hamilton product a*b (non-commutative)."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw)


def conj(q: Components) -> Components:
    w, x, y, z = q
    return (w, -x, -y, -z)


def norm_sq(q: Components) -> float:
    w, x, y, z = q
    return w * w + x * x + y * y + z * z


def exp_axis(t: Components, angle: float) -> Components:
    """e^(t*angle) = cos(angle) + t*sin(angle) for a unit pure-imaginary t.

    Rejects a non-unit or non-pure axis instead of normalizing, so that
    convention bugs upstream surface here.
    """
    w, x, y, z = t
    n = math.sqrt(norm_sq(t))
    if abs(w) > UNIT_TOL or abs(n - 1.0) > UNIT_TOL:
        raise NonUnitPureImaginary(
            f"axis must be unit pure-imaginary, got w={w!r}, |t|={n!r}"
        )
    c, s = math.cos(angle), math.sin(angle)
    return (c, s * x, s * y, s * z)


def split_components(q: Components) -> tuple[ComplexK, ComplexK]:
    """Split q = embed(a) + embed(b)*j into the complex-in-k pair (a, b).

    From the basis rules, embed(b)*j = b_re*j - b_im*i, so the components
    map as a = (w, z) and b = (y, -x).  The inverse is join_components.
    """
    w, x, y, z = q
    return complex(w, z), complex(y, -x)


def join_components(a: ComplexK, b: ComplexK) -> Components:
    """Recompose embed(a) + embed(b)*j; exact inverse of split_components."""
    a, b = complex(a), complex(b)
    return (a.real, -b.imag, b.real, a.imag)


class Quaternion:
    """Immutable quaternion w + x*i + y*j + z*k over double-precision reals.

    Treat instances as frozen; every operation returns a new value.
    """

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w: float = 0.0, x: float = 0.0, y: float = 0.0, z: float = 0.0):
        object.__setattr__(self, "w", float(w))
        object.__setattr__(self, "x", float(x))
        object.__setattr__(self, "y", float(y))
        object.__setattr__(self, "z", float(z))

    def __setattr__(self, name, value):
        raise AttributeError("Quaternion is immutable")

    def __repr__(self):
        return f"Quaternion({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"

    def __eq__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        return (self.w, self.x, self.y, self.z) == (other.w, other.x, other.y, other.z)

    def __hash__(self):
        return hash((self.w, self.x, self.y, self.z))

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        """Hamilton product (non-commutative); scalars multiply componentwise."""
        if isinstance(other, Quaternion):
            return Quaternion(*hamilton(self.components(), other.components()))
        s = float(other)
        return Quaternion(self.w * s, self.x * s, self.y * s, self.z * s)

    def __rmul__(self, other) -> "Quaternion":
        s = float(other)
        return Quaternion(self.w * s, self.x * s, self.y * s, self.z * s)

    def conj(self) -> "Quaternion":
        return Quaternion(*conj(self.components()))

    def norm_sq(self) -> float:
        return norm_sq(self.components())

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def components(self) -> Components:
        return (self.w, self.x, self.y, self.z)


ONE = Quaternion(1.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def embed(c: ComplexK) -> Quaternion:
    """Embed a complex-in-k number: complex(a, b) -> a + b*k."""
    c = complex(c)
    return Quaternion(c.real, 0.0, 0.0, c.imag)


def exp_pure(t: Quaternion, angle: float) -> Quaternion:
    """e^(t*angle) for a unit pure-imaginary t (see exp_axis)."""
    return Quaternion(*exp_axis(t.components(), angle))


def split_complex_pair(q: Quaternion) -> tuple[ComplexK, ComplexK]:
    """Split q = embed(a) + embed(b)*j into (a, b) (see split_components)."""
    return split_components(q.components())


def join_complex_pair(a: ComplexK, b: ComplexK) -> Quaternion:
    """Recompose embed(a) + embed(b)*j; exact inverse of split_complex_pair."""
    return Quaternion(*join_components(a, b))
