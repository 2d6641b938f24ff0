"""Quaternion arithmetic with the exact conventions the sphere maps rely on.

Basis rules: ij = k, jk = i, ki = j, i^2 = j^2 = k^2 = -1.  Complex
amplitudes entering the quaternion algebra use *k* as their imaginary
unit, so ``complex(a, b)`` embeds as the quaternion ``(a, 0, 0, b)``.

A quaternion is a plain ``(w, x, y, z)`` float tuple (``Components``),
and each formula is written once as a function on such tuples.  Scalar
multiples and sums are written out componentwise by the caller.  The
quaternion invariants in ``verify`` and the reference map in
``tests/test_hopf.py`` call these functions; ``hopf`` writes the same
formulas out inline, and that reference holds it to them bit for bit.
"""

from __future__ import annotations

# Complex-in-k: an ordinary Python complex whose imaginary unit is understood
# to be the quaternion k once embedded.
ComplexK = complex

Components = tuple[float, float, float, float]

ONE: Components = (1.0, 0.0, 0.0, 0.0)
I: Components = (0.0, 1.0, 0.0, 0.0)
J: Components = (0.0, 0.0, 1.0, 0.0)
K: Components = (0.0, 0.0, 0.0, 1.0)


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


def split_components(q: Components) -> tuple[ComplexK, ComplexK]:
    """Split q = a + b*j into the complex-in-k pair (a, b).

    From the basis rules, b*j = b_re*j - b_im*i, so the components
    map as a = (w, z) and b = (y, -x).  The inverse is join_components.
    """
    w, x, y, z = q
    return complex(w, z), complex(y, -x)


def join_components(a: ComplexK, b: ComplexK) -> Components:
    """Recompose a + b*j; exact inverse of split_components.

    join_components(c, 0.0) embeds a complex-in-k c as (c.real, -0.0, 0.0, c.imag).
    """
    a, b = complex(a), complex(b)
    return (a.real, -b.imag, b.real, a.imag)
