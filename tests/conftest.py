import math
import os
from pathlib import Path

import numpy as np
import pytest

from qubit_spheres.oracles import Components, norm_sq
from qubit_spheres.state import (
    BASIS_NAMES,
    BELL_NAMES,
    TwoQubitState,
    random_amplitudes,
    random_state,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
CIRCUIT_DIR = REPO_ROOT / "circuits"

POOL_SEED = 20240817
POOL_SIZE = 10_000


def child_env() -> dict[str, str]:
    """os.environ with the package's src first on PYTHONPATH, for a child Python."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")) if p))


DEG = math.pi / 180

# The quaternion basis units, as oracles' (w, x, y, z) tuples.
ONE: Components = (1.0, 0.0, 0.0, 0.0)
I: Components = (0.0, 1.0, 0.0, 0.0)
J: Components = (0.0, 0.0, 1.0, 0.0)
K: Components = (0.0, 0.0, 0.0, 1.0)

# Oracle-derived constants for the rx(60)+cry(70) worked state.
C_60_70 = 0.496731764892154          # sin(60 deg) * sin(35 deg)
X4_60_70 = -0.709406479916222        # -sin(60 deg) * cos(35 deg)


def exp_axis(t: Components, angle: float) -> Components:
    """e^(t*angle) = cos(angle) + t*sin(angle) for a unit pure-imaginary t.

    The map writes each exponential out inline; the reference map in
    test_hopf composes it from this function.
    """
    w, x, y, z = t
    assert abs(w) <= 1e-12 and abs(math.sqrt(norm_sq(t)) - 1.0) <= 1e-12, t
    c, s = math.cos(angle), math.sin(angle)
    return (c, s * x, s * y, s * z)


def random_product_state(rng: np.random.Generator) -> TwoQubitState:
    """Product of two Haar-uniform qubits, the factor of A then of B."""
    return TwoQubitState(*np.kron(*random_amplitudes(rng, 2, dim=2)).tolist())


def near_degenerate_sweep(exponents=range(3, 16)) -> list[TwoQubitState]:
    """Basis, Bell and product states perturbed by eps = 10**-k for k in
    exponents (default 1e-3 ... 1e-15), where the base poles, b = 0 and
    chi = 0 make the angles ill-conditioned."""
    rng = np.random.default_rng(41)
    centres = [TwoQubitState.basis(label).vector() for label in BASIS_NAMES]
    centres += [TwoQubitState.bell(name).vector() for name in BELL_NAMES]
    centres += [random_product_state(rng).vector() for _ in range(4)]
    states = [TwoQubitState(1 + 1e-10, 0j, 0j, 0j)]
    for v in centres:
        for k in exponents:
            for _ in range(4):
                z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                w = v + 10.0 ** -k * z / np.linalg.norm(z)
                states.append(TwoQubitState.from_amplitudes(*w))
    return states


# Exact states on each branch of the map: p = 0 and the base poles (basis
# states), x4 = 0 with p != 0 (real Bell states), and both fiber poles.
BRANCH_POINTS = ([TwoQubitState.basis(label) for label in BASIS_NAMES]
                 + [TwoQubitState.bell(name) for name in BELL_NAMES])


# Amplitudes spelled as int and float, not complex: the map must read their
# zero imaginary parts as it reads complex(0.0) ones.
SPELLED_STATES = [TwoQubitState(1, 0, 0, 0), TwoQubitState(0, 1, 0, 0),
                  TwoQubitState(0.0, 0.0, 1.0, 0.0), TwoQubitState(0, 0, 0, 1.0)]


@pytest.fixture(scope="session")
def state_pool():
    rng = np.random.default_rng(POOL_SEED)
    return [random_state(rng) for _ in range(POOL_SIZE)]
