"""Three-sphere geometric toolkit for two-qubit pure states."""

import importlib

__version__ = "0.1.0"

# Each public name by the module that defines it.  A name's module is imported
# on its first use, so that importing the package imports none of them (and
# numpy, which verify needs, only with verify's names).
_MODULES = {
    "gates": ("Circuit", "Gate", "TrajectoryStep", "apply", "expand", "parse_circuit",
              "rotation", "run"),
    "hopf": ("Assignment", "BaseSphere", "EntanglementSphere", "FiberSphere", "SphereSet",
             "reconstruct", "rho_from_spheres", "sphere_set"),
    "state": ("DensityMatrix", "TwoQubitState", "bloch_vector", "coherence_d",
              "concurrence_det", "random_state", "reduced_density"),
    "verify": ("VerificationReport", "run_suite"),
}
_MODULE_OF = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
