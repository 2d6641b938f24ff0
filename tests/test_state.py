import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import BRANCH_POINTS, SPELLED_STATES, near_degenerate_sweep
from qubit_spheres.hopf import Assignment, rho_from_spheres, sphere_set
from qubit_spheres.state import (
    DensityMatrix,
    NormOutOfTolerance,
    NotNormalizable,
    TwoQubitState,
    coherence_d,
    concurrence_det,
    random_state,
    reduced_density,
)

def test_from_amplitudes_renormalizes():
    s = TwoQubitState.from_amplitudes(0.6, 0, 0, 0.8000001)
    assert s.norm() == pytest.approx(1.0, abs=1e-15)
    assert abs(s.delta) > abs(s.alpha)


def test_from_amplitudes_zero_vector():
    with pytest.raises(NotNormalizable):
        TwoQubitState.from_amplitudes(0, 0, 0, 1e-13)


def test_constructor_enforces_norm():
    with pytest.raises(NormOutOfTolerance):
        TwoQubitState(1 + 0j, 1 + 0j, 0j, 0j)
    with pytest.raises(NormOutOfTolerance):
        TwoQubitState(complex(math.nan), 0j, 0j, 0j)


@pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8, 1e-10])
def test_coherence_keeps_its_digits_near_a_bell_state(eps):
    """cos(pi/4 + eps)|00> + sin(pi/4 + eps)|11>, where d ~ 2 eps.  A square
    root of 2 Tr rho^2 - 1 cancels there: its error reached 1.5e-8 at
    eps = 1e-10, 73 times d."""
    alpha, delta = math.cos(math.pi / 4 + eps), math.sin(math.pi / 4 + eps)
    rho = reduced_density(TwoQubitState(complex(alpha), 0j, 0j, complex(delta)), "A")
    # rho01 = 0 exactly, so d is |rho00 - rho11|, exact from the float amplitudes.
    exact = abs(Fraction(alpha) ** 2 - Fraction(delta) ** 2)
    # Rounding alpha^2 and delta^2 costs up to u/2 each (u = 2^-53) before
    # they cancel, so d is good to a few u absolute, not relative: its
    # relative condition number from the amplitudes is about 1/d.
    assert abs(Fraction(coherence_d(rho)) - exact) <= Fraction(4, 2**53)


def test_random_state_mean_concurrence(state_pool):
    mean = np.mean([concurrence_det(s) for s in state_pool])
    assert 0.3 < mean < 0.7


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_state_always_valid(seed):
    s = random_state(seed)
    assert abs(s.norm() - 1.0) < 1e-12
    assert s.amplitudes() == random_state(np.random.default_rng(seed)).amplitudes()


amp = st.tuples(st.floats(-1, 1), st.floats(-1, 1))


@given(amp, amp, amp, amp)
def test_concurrence_agreement_any_state(a, b, g, d):
    vec = [complex(*a), complex(*b), complex(*g), complex(*d)]
    if sum(abs(v) ** 2 for v in vec) < 1e-6:
        return
    s = TwoQubitState.from_amplitudes(*vec)
    c = concurrence_det(s)
    for which in ("A", "B"):
        d_val = coherence_d(reduced_density(s, which))
        assert d_val * d_val + c * c == pytest.approx(1.0, abs=1e-12)


# -- reference: the density maps as their docstring formulas ------------------
# Each written in the kernel's expression order, so that the kernel must
# reproduce it bit for bit.

def ref_reduced_density(s, which):
    """rho_ab = sum_c psi_{a c} conj(psi_{b c}), psi indexed [A][B] ([B][A] for B)."""
    psi = ((s.alpha, s.beta), (s.gamma, s.delta))
    if which == "B":
        psi = tuple(zip(*psi))
    return DensityMatrix(*(psi[i][0] * psi[j][0].conjugate() + psi[i][1] * psi[j][1].conjugate()
                           for i in (0, 1) for j in (0, 1)))


def ref_rho_from_spheres(ss):
    """rho = (1 + r.sigma)/2 with the base qubit's Bloch vector r = (x1, x4, x0)."""
    rx, ry, rz = ss.base.x1, ss.ent.x4, ss.base.x0
    return DensityMatrix(complex((1.0 + rz) / 2.0, 0.0), complex(rx / 2.0, -ry / 2.0),
                         complex(rx / 2.0, ry / 2.0), complex((1.0 - rz) / 2.0, 0.0))


def ref_coherence(rho):
    """coherence_d = hypot(rho00 - rho11, 2|rho01|), the Bloch vector's length."""
    return math.hypot((rho.rho00 - rho.rho11).real, 2.0 * abs(rho.rho01))


def test_density_maps_match_reference(state_pool):
    # repr, not only ==: it tells -0.0 from 0.0 and an int from a float.
    for s in state_pool[:2000] + near_degenerate_sweep() + BRANCH_POINTS + SPELLED_STATES:
        for a in Assignment:
            ss = sphere_set(s, a)
            rho, rho_s = reduced_density(s, a.base_qubit), rho_from_spheres(ss)
            want, want_s = ref_reduced_density(s, a.base_qubit), ref_rho_from_spheres(ss)
            got = (rho, rho_s, coherence_d(rho), coherence_d(rho_s))
            assert repr(got) == repr(
                (want, want_s, ref_coherence(want), ref_coherence(want_s))), (s, a)
