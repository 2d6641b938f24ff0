"""Ground-truth brute-force implementations used to cross-check everything.

Both oracles work on a batch of amplitude rows at once, as numpy arrays, with
elementwise sums in a fixed order, so each row rounds as it would alone.
This module must stay independent of the sphere machinery: it may import
only numpy.  Tests enforce that no sphere-map code is reachable from here.
"""

from __future__ import annotations

import numpy as np

_SIGMA_Y = np.array([[0, -1j], [1j, 0]])
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y)


def partial_trace(m: np.ndarray, which: str) -> np.ndarray:
    """Reduced density matrices (n, 2, 2) of qubit `which` for the amplitude
    grids m[:, a, b] = <ab|psi>: rho[a, b] = sum_c g[a, c] conj(g[b, c]), g
    the grid with `which`'s index first, as elementwise sums with the complex
    products in real arithmetic (so a matrix rounds the same alone as in a
    batch, and as Python's complex arithmetic, on every CPU)."""
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
    modulus taken by np.hypot.  The complex products are written out in real
    arithmetic, which numpy never fuses, so each rounds as Python's does."""
    re, im = amps.real, amps.imag
    terms = [(s, i, j) for (i, j), s in np.ndenumerate(_SPIN_FLIP.real) if s]
    z_re = sum(s * (re[:, i] * re[:, j] - im[:, i] * im[:, j]) for s, i, j in terms)
    z_im = sum(s * (re[:, i] * im[:, j] + im[:, i] * re[:, j]) for s, i, j in terms)
    return np.hypot(z_re, z_im)
