"""Ground-truth brute-force implementations used to cross-check everything.

Both oracles work on a batch of amplitude rows at once, as numpy arrays, with
elementwise sums in a fixed order and complex products in real arithmetic,
which numpy never fuses: each row rounds as it would alone, and as Python's
complex arithmetic, on every CPU.
This module must stay independent of the sphere machinery: it may import
only numpy.  Tests enforce that no sphere-map code is reachable from here.

It is also the home of the reference quaternion algebra.  Basis rules:
ij = k, jk = i, ki = j, i^2 = j^2 = k^2 = -1.  Complex amplitudes entering
the algebra use *k* as their imaginary unit, so ``complex(a, b)`` embeds as
the quaternion ``(a, 0, 0, b)``.  A quaternion is a plain ``(w, x, y, z)``
tuple of floats or of numpy arrays (``Components``), and each formula is
written once as a function on such tuples; the sphere map writes them inline.
"""

from __future__ import annotations

import numpy as np

_SIGMA_Y = np.array([[0, -1j], [1j, 0]])
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y)
# Its nonzero entries (S_ij, i, j), in row order.
_SPIN_FLIP_TERMS = [(s, i, j) for (i, j), s in np.ndenumerate(_SPIN_FLIP.real) if s]


def partial_trace(m: np.ndarray, which: str) -> np.ndarray:
    """Reduced density matrices (n, 2, 2) of qubit `which` for the amplitude
    grids m[:, a, b] = <ab|psi>: rho[a, b] = sum_c g[a, c] conj(g[b, c]), g
    the grid with `which`'s index first."""
    if which not in ("A", "B"):
        raise ValueError(f"qubit label must be 'A' or 'B', got {which!r}")
    g = m if which == "A" else m.transpose(0, 2, 1)
    x, y = g[:, :, None], g[:, None, :]  # g[a, c] and g[b, c], over [a, b, c]
    re = x.real * y.real + x.imag * y.imag
    im = x.imag * y.real - x.real * y.imag
    rho = np.empty(re.shape[:3], complex)
    rho.real, rho.imag = re[..., 0] + re[..., 1], im[..., 0] + im[..., 1]
    return rho


def concurrence(amps: np.ndarray) -> np.ndarray:
    """Concurrences (n,) of the states amps (n, 4) in the Wootters spin-flip
    form |psi^T (sigma_y x sigma_y) psi| (PRL 80, 2245, 1998): the sum over
    the nonzero entries S_ij, in row order, of S_ij psi_i psi_j, with the
    modulus taken by np.hypot."""
    re, im = amps.real, amps.imag
    z_re = sum(s * (re[:, i] * re[:, j] - im[:, i] * im[:, j]) for s, i, j in _SPIN_FLIP_TERMS)
    z_im = sum(s * (re[:, i] * im[:, j] + im[:, i] * re[:, j]) for s, i, j in _SPIN_FLIP_TERMS)
    return np.hypot(z_re, z_im)


Components = tuple[float, float, float, float]


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


def split_components(q: Components) -> tuple[complex, complex]:
    """Split q = a + b*j into the complex-in-k pair (a, b).

    From the basis rules, b*j = b_re*j - b_im*i, so the components
    map as a = (w, z) and b = (y, -x).  The inverse is join_components.
    """
    w, x, y, z = q
    return complex(w, z), complex(y, -x)


def join_components(a: complex, b: complex) -> Components:
    """Recompose a + b*j; exact inverse of split_components.

    join_components(c, 0.0) embeds a complex-in-k c as (c.real, -0.0, 0.0, c.imag).
    """
    a, b = complex(a), complex(b)
    return (a.real, -b.imag, b.real, a.imag)
