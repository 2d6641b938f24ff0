"""Three-sphere geometric toolkit for two-qubit pure states."""

from .gates import Circuit, Gate, TrajectoryStep, apply, expand, parse_circuit, rotation, run
from .hopf import (
    Assignment,
    BaseSphere,
    EntanglementSphere,
    FiberSphere,
    SphereSet,
    reconstruct,
    rho_from_spheres,
    sphere_set,
)
from .quatmath import ComplexK
from .state import (
    DensityMatrix,
    TwoQubitState,
    bloch_vector,
    coherence_d,
    concurrence_det,
    concurrence_from_rho,
    random_state,
    reduced_density,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "BaseSphere",
    "Circuit",
    "ComplexK",
    "DensityMatrix",
    "EntanglementSphere",
    "FiberSphere",
    "Gate",
    "SphereSet",
    "TrajectoryStep",
    "TwoQubitState",
    "VerificationReport",
    "apply",
    "bloch_vector",
    "coherence_d",
    "concurrence_det",
    "concurrence_from_rho",
    "expand",
    "parse_circuit",
    "random_state",
    "reconstruct",
    "reduced_density",
    "rho_from_spheres",
    "rotation",
    "run",
    "run_suite",
    "sphere_set",
]


def __getattr__(name):
    # verify needs numpy; it is imported on first use of its names, so that
    # importing the package (and so every CLI command but verify) does not.
    if name in ("VerificationReport", "run_suite"):
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
