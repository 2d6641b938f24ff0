import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import ONE, I, J, K
from qubit_spheres.oracles import (
    conj,
    hamilton,
    join_components,
    norm_sq,
    split_components,
)

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
quaternions = st.tuples(finite, finite, finite, finite)


def neg(q):
    return tuple(-v for v in q)


def norm(q):
    return math.sqrt(norm_sq(q))


def test_basis_multiplication_table():
    # Full 4x4 table spelled out as the independent reference.
    table = {
        (ONE, ONE): ONE, (ONE, I): I, (ONE, J): J, (ONE, K): K,
        (I, ONE): I, (I, I): neg(ONE), (I, J): K, (I, K): neg(J),
        (J, ONE): J, (J, I): neg(K), (J, J): neg(ONE), (J, K): I,
        (K, ONE): K, (K, I): J, (K, J): neg(I), (K, K): neg(ONE),
    }
    for (a, b), want in table.items():
        assert hamilton(a, b) == want


def test_mul_examples():
    assert hamilton(I, J) == K
    assert hamilton(K, J) == neg(I)
    q = (0.3, -1.5, 2.0, 0.25)
    assert hamilton(q, ONE) == q


def test_norm_and_conj():
    q = (1.0, 2.0, -3.0, 0.5)
    assert norm_sq(q) == pytest.approx(1 + 4 + 9 + 0.25)
    assert hamilton(q, conj(q)) == (norm_sq(q), 0.0, 0.0, 0.0)  # exact: q's parts are dyadic


def test_conj_examples():
    assert conj((1.0, 1.0, 0.0, 0.0)) == (1.0, -1.0, 0.0, 0.0)   # ONE + I -> ONE - I
    assert conj(J) == neg(J)
    assert conj(hamilton(I, J)) == hamilton(conj(J), conj(I))
    assert conj(hamilton(I, J)) == neg(K)


def test_split_examples():
    assert split_components(ONE) == (1 + 0j, 0j)
    assert split_components(J) == (0j, 1 + 0j)
    a, b = split_components(I)
    assert join_components(a, b) == I


def test_embed_is_k_imaginary():
    assert join_components(complex(2.5, -1.25), 0j) == (2.5, 0.0, 0.0, -1.25)


@given(quaternions, quaternions, quaternions)
def test_associativity(a, b, c):
    lhs, rhs = hamilton(hamilton(a, b), c), hamilton(a, hamilton(b, c))
    scale = max(1.0, norm(a) * norm(b) * norm(c))
    assert all(abs(u - v) <= 1e-12 * scale for u, v in zip(lhs, rhs))


@given(quaternions, quaternions)
def test_norm_multiplicative(a, b):
    scale = max(1.0, norm(a) * norm(b))
    assert abs(norm(hamilton(a, b)) - norm(a) * norm(b)) <= 1e-12 * scale


@given(quaternions, quaternions)
def test_conj_antihomomorphism(a, b):
    lhs, rhs = conj(hamilton(a, b)), hamilton(conj(b), conj(a))
    scale = max(1.0, norm(a) * norm(b))
    assert all(abs(u - v) <= 1e-15 * scale for u, v in zip(lhs, rhs))


@given(quaternions)
def test_split_join_roundtrip_is_exact(q):
    a, b = split_components(q)
    assert join_components(a, b) == q


@given(finite, finite)
def test_j_commutes_with_conjugation(re, im):
    c = complex(re, im)
    lhs = hamilton(J, join_components(c, 0j))
    assert lhs == hamilton(join_components(c.conjugate(), 0j), J)


@given(quaternions)
def test_conj_involution_and_norm(q):
    assert conj(conj(q)) == q
    assert norm(conj(q)) == norm(q)
