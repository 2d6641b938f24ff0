"""Ground-truth brute-force implementations used to cross-check everything.

Both oracles work on a batch of amplitude rows at once, as numpy arrays, and
round each row as they would round it alone.  This module must stay
independent of the sphere machinery: it may import only numpy.  Tests
enforce that no sphere-map code is reachable from here.
"""

from __future__ import annotations

import numpy as np

_SIGMA_Y = np.array([[0, -1j], [1j, 0]])
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y)


def partial_trace(m: np.ndarray, which: str) -> np.ndarray:
    """Reduced density matrices (n, 2, 2) of qubit `which` for the amplitude
    grids m[:, a, b] = <ab|psi>: rho[a, b] = sum_c g[a, c] conj(g[b, c]), g
    the grid with `which`'s index first, as elementwise sums (so a matrix
    rounds the same alone as in a batch)."""
    if which not in ("A", "B"):
        raise ValueError(f"qubit label must be 'A' or 'B', got {which!r}")
    g = m if which == "A" else m.transpose(0, 2, 1)
    return (g[:, :, None, 0] * g[:, None, :, 0].conj()
            + g[:, :, None, 1] * g[:, None, :, 1].conj())


def concurrence(amps: np.ndarray) -> np.ndarray:
    """Concurrences (n,) of the states amps (n, 4) in the Wootters spin-flip
    form |psi^T (sigma_y x sigma_y) psi| (PRL 80, 2245, 1998).

    Each row rounds as `abs(psi @ S @ psi)` of that state alone, bit for bit:
    a stacked matmul takes numpy's per-row vector-matrix and dot kernels, and
    np.hypot rounds the modulus as the scalar abs does, where np.abs of the
    array rounds about a third of the rows differently.  The right operand
    is made contiguous whatever the caller's layout (a no-op on a
    C-contiguous batch).  Stacked matmuls exist in numpy 1.24; np.vecdot
    would need numpy 2.0.
    """
    z = np.matmul(amps[:, None, :] @ _SPIN_FLIP,
                  np.ascontiguousarray(amps[:, :, None]))[:, 0, 0]
    return np.hypot(z.real, z.imag)
