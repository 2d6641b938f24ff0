"""Ground-truth brute-force implementations used to cross-check everything.

This module must stay independent of the sphere machinery: it may import
only the state types and numpy.  Tests enforce that no sphere-map code is
reachable from here.
"""

from __future__ import annotations

import numpy as np

from .state import TwoQubitState

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


def oracle_concurrence(s: TwoQubitState) -> float:
    """Wootters spin-flip form |psi^T (sigma_y x sigma_y) psi| (PRL 80, 2245, 1998)."""
    psi = s.vector()
    return float(abs(psi @ _SPIN_FLIP @ psi))
