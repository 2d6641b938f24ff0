"""Two-qubit pure states, reduced density matrices, concurrence and coherence."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

# Norm 1 + e maps to |x|^2 = (1 + e)^4 ~ 1 + 4e on the sphere point, which
# hopf.reconstruct holds to VALID_TOL = 1e-9: 4*NORM_TOL must stay below it.
NORM_TOL = 2e-10
ZERO_NORM_TOL = 1e-12

BELL_NAMES = ("phi+", "phi-", "psi+", "psi-")
BASIS_NAMES = ("00", "01", "10", "11")


class NotNormalizable(ValueError):
    """Amplitude vector has (near-)zero norm."""


class NormOutOfTolerance(ValueError):
    """Construction with a norm farther than NORM_TOL from 1 (or not finite)."""


# The class form of NamedTuple forbids overriding __new__, hence the
# functional base.
class TwoQubitState(NamedTuple("TwoQubitState", [
        ("alpha", complex), ("beta", complex), ("gamma", complex), ("delta", complex)])):
    """Amplitudes of |00>, |01>, |10>, |11>; unit norm, global phase kept.

    Qubit A is the most-significant factor: index = 2*a + b.
    """

    __slots__ = ()

    def __new__(cls, alpha: complex, beta: complex, gamma: complex, delta: complex):
        n = _norm(alpha, beta, gamma, delta)
        # Written so that a NaN norm fails the check too.
        if not abs(n - 1.0) <= NORM_TOL:
            raise NormOutOfTolerance(f"state norm {n!r} is not within {NORM_TOL} of 1")
        return tuple.__new__(cls, (alpha, beta, gamma, delta))

    # namedtuple's own _make (and so _replace) would skip __new__.
    _make = classmethod(lambda cls, it: cls(*it))

    @classmethod
    def from_amplitudes(cls, a: complex, b: complex, g: complex, d: complex
                        ) -> "TwoQubitState":
        """Build a state by renormalizing the given amplitudes."""
        a, b, g, d = complex(a), complex(b), complex(g), complex(d)
        n = _norm(a, b, g, d)
        if not math.isfinite(n):
            raise NotNormalizable(f"amplitude norm {n!r} is not finite")
        if n < ZERO_NORM_TOL:
            raise NotNormalizable(f"amplitude norm {n!r} too small to normalize")
        return cls(a / n, b / n, g / n, d / n)

    @classmethod
    def basis(cls, label: str) -> "TwoQubitState":
        if label not in BASIS_NAMES:
            raise ValueError(f"basis label must be one of {BASIS_NAMES}, got {label!r}")
        amps = [0j, 0j, 0j, 0j]
        amps[BASIS_NAMES.index(label)] = 1 + 0j
        return cls(*amps)

    @classmethod
    def bell(cls, name: str) -> "TwoQubitState":
        s = 1 / math.sqrt(2)
        table = {
            "phi+": (s, 0, 0, s),
            "phi-": (s, 0, 0, -s),
            "psi+": (0, s, s, 0),
            "psi-": (0, s, -s, 0),
        }
        if name not in table:
            raise ValueError(f"bell name must be one of {BELL_NAMES}, got {name!r}")
        return cls(*(complex(v) for v in table[name]))

    def amplitudes(self) -> tuple[complex, complex, complex, complex]:
        return (self.alpha, self.beta, self.gamma, self.delta)

    def vector(self) -> np.ndarray:
        import numpy as np

        return np.array([self.alpha, self.beta, self.gamma, self.delta], dtype=complex)

    def norm(self) -> float:
        return _norm(self.alpha, self.beta, self.gamma, self.delta)


def _norm(a: complex, b: complex, g: complex, d: complex) -> float:
    # Squares by multiplication: a huge amplitude overflows to inf, where
    # ** 2 would raise OverflowError.
    a, b, g, d = abs(a), abs(b), abs(g), abs(d)
    return math.sqrt(a * a + b * b + g * g + d * d)


class DensityMatrix(NamedTuple):
    """2x2 reduced density matrix of one qubit (Hermitian, trace 1)."""

    rho00: complex
    rho01: complex
    rho10: complex
    rho11: complex


def _check_qubit(which: str) -> str:
    if which not in ("A", "B"):
        raise ValueError(f"qubit label must be 'A' or 'B', got {which!r}")
    return which


def reduced_density(s: TwoQubitState, which: str) -> DensityMatrix:
    """Partial trace over the other qubit by direct index summation:
    rho_ab = sum_c psi_{a c} conj(psi_{b c}), with B's index first for B
    (the same formula with beta and gamma swapped)."""
    a, b, g, d = s
    if which == "B":
        b, g = g, b
    elif which != "A":
        _check_qubit(which)  # raises: neither label
    return tuple.__new__(DensityMatrix, (
        a * a.conjugate() + b * b.conjugate(),
        a * g.conjugate() + b * d.conjugate(),
        g * a.conjugate() + d * b.conjugate(),
        g * g.conjugate() + d * d.conjugate(),
    ))


def concurrence_det(s: TwoQubitState) -> float:
    """Concurrence of a pure state: 2|alpha*delta - beta*gamma|."""
    return 2.0 * abs(s.alpha * s.delta - s.beta * s.gamma)


def coherence_d(rho: DensityMatrix) -> float:
    """Scalar coherence d, complementary to concurrence: the length of the
    Bloch vector, hypot(rho00 - rho11, 2|rho01|).  It equals
    sqrt(2*Tr rho^2 - 1) at trace 1, but that radicand cancels near d = 0,
    where its square root keeps no correct digit."""
    r00, r01, _, r11 = rho
    return math.hypot((r00 - r11).real, 2.0 * abs(r01))


def bloch_vector(rho: DensityMatrix) -> tuple[float, float, float]:
    """Bloch vector (rx, ry, rz) with rx = 2 Re rho10, ry = 2 Im rho10."""
    return (2.0 * rho.rho10.real, 2.0 * rho.rho10.imag,
            (rho.rho00 - rho.rho11).real)


def random_amplitudes(rng: np.random.Generator, n: int, dim: int = 4) -> np.ndarray:
    """n Haar-uniform unit vectors (n, dim): per row, dim real then dim
    imaginary standard normals over their norm, the sum of their squares in
    that order, so a row rounds alike in any batch and on any BLAS kernel."""
    import numpy as np

    x = rng.standard_normal((n, 2, dim))
    norms = np.sqrt(sum((x * x).reshape(n, -1).T))
    if norms.min() < ZERO_NORM_TOL:
        raise NotNormalizable("degenerate random draw")
    return (x[:, 0] + 1j * x[:, 1]) / norms[:, None]


def random_state(seed) -> TwoQubitState:
    """One Haar-uniform state, the one-row random_amplitudes draw.

    Accepts an int seed or a numpy Generator (for drawing sequences).
    """
    import numpy as np

    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return TwoQubitState(*random_amplitudes(rng, 1)[0].tolist())
