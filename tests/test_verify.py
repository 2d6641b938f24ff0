import ast
from pathlib import Path

import numpy as np
import pytest

from conftest import entangler_60_70_state
from qubit_spheres import oracles
from qubit_spheres.jsonfmt import dumps
from qubit_spheres.state import TwoQubitState
from qubit_spheres.verify import run_suite

C_60_70 = 0.496731764892154


def test_oracle_reduced_density_bell():
    rho = oracles.oracle_reduced_density(TwoQubitState.bell("phi+"), "A")
    assert rho.rho00 == pytest.approx(0.5, abs=1e-15)
    assert rho.rho11 == pytest.approx(0.5, abs=1e-15)
    assert abs(rho.rho01) < 1e-15


def test_oracle_reduced_density_basis_01():
    rho = oracles.oracle_reduced_density(TwoQubitState.basis("01"), "A")
    assert rho.rho00 == pytest.approx(1.0)
    assert rho.rho11 == pytest.approx(0.0)
    rho = oracles.oracle_reduced_density(TwoQubitState.basis("01"), "B")
    assert rho.rho11 == pytest.approx(1.0)


def test_oracle_reduced_density_self_consistency(state_pool):
    for s in state_pool[:200]:
        for which in ("A", "B"):
            rho = oracles.oracle_reduced_density(s, which)
            assert rho.trace() == pytest.approx(1.0, abs=1e-12)
            evals = np.linalg.eigvalsh(rho.as_array())
            assert evals.min() >= -1e-12
            assert evals.max() <= 1 + 1e-12
            assert rho.hermiticity_defect() < 1e-15


def test_oracle_concurrence_values():
    assert oracles.oracle_concurrence(TwoQubitState.bell("phi+")) == pytest.approx(1.0, abs=1e-15)
    assert oracles.oracle_concurrence(entangler_60_70_state()) == pytest.approx(C_60_70, abs=1e-12)
    product = TwoQubitState.from_amplitudes(0.5, 0.5, 0.5, 0.5)
    assert oracles.oracle_concurrence(product) <= 1e-12


def test_oracles_do_not_touch_sphere_code():
    # Structural independence: the oracle module may import only state/numpy,
    # and must not reuse the determinant formula it cross-checks.
    src = Path(oracles.__file__).read_text(encoding="utf-8")
    tree = ast.parse(src)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert not any("hopf" in name for name in imported)
    assert not any("gates" in name for name in imported)
    assert "hopf" not in src
    assert "concurrence_det" not in src


def test_run_suite_smoke():
    report = run_suite(seed=7, samples=200)
    assert report.all_passed
    assert report.failure_count == 0
    names = [r.name for r in report.results]
    assert "round_trip_reconstruction" in names
    assert "rho_from_spheres_vs_partial_trace" in names
    assert "outer_product_structure" in names
    assert len(names) == len(set(names))


def test_run_suite_deterministic():
    r1 = run_suite(seed=11, samples=100)
    r2 = run_suite(seed=11, samples=100)
    assert dumps(r1.to_dict()) == dumps(r2.to_dict())


def test_run_suite_rejects_zero_samples():
    with pytest.raises(ValueError):
        run_suite(seed=1, samples=0)


def test_report_shape():
    report = run_suite(seed=3, samples=50)
    d = report.to_dict()
    assert d["version"] == "1"
    assert d["kind"] == "verification-report"
    assert d["seed"] == 3
    assert d["samples"] == 50
    for entry in d["invariants"]:
        assert set(entry) == {"name", "samples", "max_error", "threshold", "passed"}
        assert entry["max_error"] >= 0.0
