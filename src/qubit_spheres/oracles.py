"""Ground-truth brute-force implementations used to cross-check everything.

This module must stay independent of the sphere machinery: it may import
only the state types and numpy.  Tests enforce that no sphere-map code is
reachable from here.
"""

from __future__ import annotations

import numpy as np

from .state import DensityMatrix, TwoQubitState

_SIGMA_Y = np.array([[0, -1j], [1j, 0]])
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y)


def oracle_reduced_density(s: TwoQubitState, which: str) -> DensityMatrix:
    """Partial trace by literal 4x4 outer-product index summation."""
    if which not in ("A", "B"):
        raise ValueError(f"qubit label must be 'A' or 'B', got {which!r}")
    psi = s.vector()
    outer = np.outer(psi, psi.conj())
    rho = np.zeros((2, 2), dtype=complex)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                if which == "A":
                    rho[a, b] += outer[2 * a + c, 2 * b + c]
                else:
                    rho[a, b] += outer[2 * c + a, 2 * c + b]
    return DensityMatrix(rho00=complex(rho[0, 0]), rho01=complex(rho[0, 1]),
                         rho10=complex(rho[1, 0]), rho11=complex(rho[1, 1]))


def oracle_concurrence(s: TwoQubitState) -> float:
    """Wootters spin-flip form |psi^T (sigma_y x sigma_y) psi| (PRL 80, 2245, 1998)."""
    psi = s.vector()
    return float(abs(psi @ _SPIN_FLIP @ psi))
