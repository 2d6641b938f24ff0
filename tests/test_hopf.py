import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import entangler_60_70_state
from qubit_spheres.gates import bloch_rotation
from qubit_spheres.hopf import (
    Assignment,
    BaseSphere,
    EntanglementSphere,
    FiberSphere,
    InvalidSphereSet,
    SphereSet,
    _fiber_bloch,
    _validate,
    base_and_entanglement,
    fiber,
    fiber_versor,
    quaternion_pair,
    reconstruct,
    rho_from_spheres,
    sphere_set,
)
from qubit_spheres.oracles import oracle_concurrence
from qubit_spheres.quatmath import (
    J,
    K,
    Quaternion,
    exp_pure,
    join_complex_pair,
    split_complex_pair,
)
from qubit_spheres.state import (
    BASIS_NAMES,
    BELL_NAMES,
    TwoQubitState,
    bloch_vector,
    reduced_density,
)
from qubit_spheres.verify import random_product_state, random_su2

R2 = 1 / math.sqrt(2)


def amp_error(s1, s2):
    return max(abs(a - b) for a, b in zip(s1.amplitudes(), s2.amplitudes()))


def test_quaternion_pair_basis():
    q1, q2 = quaternion_pair(TwoQubitState.basis("00"), Assignment.A_BASE)
    assert q1 == Quaternion(1, 0, 0, 0)
    assert q2 == Quaternion(0, 0, 0, 0)


def test_quaternion_pair_bell():
    q1, q2 = quaternion_pair(TwoQubitState.bell("phi+"), Assignment.A_BASE)
    assert q1.components() == pytest.approx((R2, 0, 0, 0))
    assert q2.components() == pytest.approx((0, 0, R2, 0))


def test_quaternion_pair_b_base_recomposition(state_pool):
    # (alpha + gamma*j, beta + delta*j): check the packing by unpacking.
    from qubit_spheres.quatmath import split_complex_pair
    for s in state_pool[:100]:
        q1, q2 = quaternion_pair(s, Assignment.B_BASE)
        a, g = split_complex_pair(q1)
        b, d = split_complex_pair(q2)
        assert (a, b, g, d) == s.amplitudes()
        assert q1.norm_sq() + q2.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_basis_00_spheres():
    ss = sphere_set(TwoQubitState.basis("00"), Assignment.A_BASE)
    assert ss.base.theta == 0.0
    assert ss.base.phi == 0.0
    assert ss.base.x0 == pytest.approx(1.0)
    assert ss.ent.b == 0.0
    assert ss.ent.chi == 0.0
    assert ss.ent.xi == 0.0
    assert ss.ent.t == Quaternion(0, 0, 0, 1)
    assert ss.ent.c == 0.0
    assert ss.fiber.theta_f == pytest.approx(0.0, abs=1e-12)
    assert ss.fiber.zeta_f == pytest.approx(0.0, abs=1e-12)


def test_bell_phi_plus_spheres():
    ss = sphere_set(TwoQubitState.bell("phi+"), Assignment.A_BASE)
    assert (ss.base.x1, ss.base.b, ss.base.x0) == pytest.approx((0, 1, 0), abs=1e-12)
    assert ss.ent.chi == pytest.approx(math.pi / 2, abs=1e-12)
    assert ss.ent.c == pytest.approx(1.0, abs=1e-12)
    assert ss.ent.x4 == pytest.approx(0.0, abs=1e-12)
    # fiber versor is the identity quaternion
    assert fiber_versor(ss.fiber) == pytest.approx((1, 0, 0, 0), abs=1e-12)


def test_bell_both_assignments_same_concurrence():
    for name in ("phi+", "phi-", "psi+", "psi-"):
        s = TwoQubitState.bell(name)
        ca = sphere_set(s, Assignment.A_BASE).ent.c
        cb = sphere_set(s, Assignment.B_BASE).ent.c
        assert ca == pytest.approx(1.0, abs=1e-12)
        assert cb == pytest.approx(1.0, abs=1e-12)


def test_entangled_state_base_coordinates():
    ss = sphere_set(entangler_60_70_state(), Assignment.A_BASE)
    assert ss.base.x1 == pytest.approx(0.0, abs=1e-12)
    assert ss.base.b == pytest.approx(-math.sin(math.radians(60)), abs=1e-12)
    assert ss.base.x0 == pytest.approx(0.5, abs=1e-12)
    assert ss.ent.c == pytest.approx(0.496731764892154, abs=1e-12)
    assert ss.ent.x4 == pytest.approx(-0.709406479916222, abs=1e-12)
    assert math.degrees(ss.ent.chi) == pytest.approx(35.0, abs=1e-9)


def test_entangled_state_b_base_concurrence():
    ss = sphere_set(entangler_60_70_state(), Assignment.B_BASE)
    assert ss.ent.c == pytest.approx(0.496731764892154, abs=1e-12)


def test_base_sphere_angles_match_cartesian(sphere_pool):
    sets_a, sets_b = sphere_pool
    for ss in (sets_a[:500] + sets_b[:500]):
        st, ct = math.sin(ss.base.theta), math.cos(ss.base.theta)
        assert ss.base.x1 == pytest.approx(st * math.cos(ss.base.phi), abs=1e-12)
        assert ss.base.b == pytest.approx(st * math.sin(ss.base.phi), abs=1e-12)
        assert ss.base.x0 == pytest.approx(ct, abs=1e-12)
        sc, cc = math.sin(ss.ent.chi), math.cos(ss.ent.chi)
        assert ss.ent.t.x == pytest.approx(sc * math.cos(ss.ent.xi), abs=1e-12)
        assert ss.ent.t.y == pytest.approx(sc * math.sin(ss.ent.xi), abs=1e-12)
        assert ss.ent.t.z == pytest.approx(cc, abs=1e-12)
        assert ss.ent.x2 == pytest.approx(ss.ent.b * sc * math.cos(ss.ent.xi), abs=1e-12)
        assert ss.ent.c == pytest.approx(abs(ss.ent.b) * sc, abs=1e-12)
        assert ss.ent.x4 == pytest.approx(ss.ent.b * cc, abs=1e-12)


def test_fiber_product_state_is_fiber_qubit_bloch():
    rng = np.random.default_rng(11)
    for _ in range(200):
        va = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        vb = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        va /= np.linalg.norm(va)
        vb /= np.linalg.norm(vb)
        s = TwoQubitState(*(complex(c) for c in np.kron(va, vb)))
        ss = sphere_set(s, Assignment.A_BASE)
        # single-qubit Bloch vector of the fiber factor, straight from psi_B
        want = (2 * (vb[0].conjugate() * vb[1]).real,
                2 * (vb[0].conjugate() * vb[1]).imag,
                abs(vb[0]) ** 2 - abs(vb[1]) ** 2)
        assert ss.fiber.bloch == pytest.approx(want, abs=1e-9)
        # base sphere likewise reduces to the base qubit's Bloch vector
        want_a = (2 * (va[0].conjugate() * va[1]).real,
                  2 * (va[0].conjugate() * va[1]).imag,
                  abs(va[0]) ** 2 - abs(va[1]) ** 2)
        got_a = (ss.base.x1, ss.base.b, ss.base.x0)
        assert got_a == pytest.approx(want_a, abs=1e-9)


def test_round_trip_examples():
    for s in (TwoQubitState.basis("00"), TwoQubitState.bell("phi+"),
              entangler_60_70_state()):
        for a in Assignment:
            assert amp_error(reconstruct(sphere_set(s, a)), s) < 1e-12


def near_degenerate_sweep() -> list[TwoQubitState]:
    """Basis, Bell and product states perturbed by eps = 1e-3 ... 1e-15, where
    the base poles, b = 0 and chi = 0 make the angles ill-conditioned."""
    rng = np.random.default_rng(41)
    centres = [TwoQubitState.basis(label).vector() for label in BASIS_NAMES]
    centres += [TwoQubitState.bell(name).vector() for name in BELL_NAMES]
    centres += [random_product_state(rng).vector() for _ in range(4)]
    states = [TwoQubitState(1 + 1e-10, 0j, 0j, 0j)]
    for v in centres:
        for k in range(3, 16):
            for _ in range(4):
                z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                w = v + 10.0 ** -k * z / np.linalg.norm(z)
                states.append(TwoQubitState.from_amplitudes(*w))
    return states


def assert_round_trip(s: TwoQubitState, a: Assignment):
    # reconstruct returns a unit vector, so the input's own norm defect (up
    # to NORM_TOL) comes back as error.
    err = amp_error(reconstruct(sphere_set(s, a)), s)
    assert err <= 1e-12 + abs(s.norm() - 1.0), (s, a, err)


def test_near_degenerate_round_trip():
    for s in near_degenerate_sweep():
        for a in Assignment:
            assert_round_trip(s, a)


# Exact states on each branch of the map: p = 0 and the base poles (basis
# states), x4 = 0 with p != 0 (real Bell states), and both fiber poles.
BRANCH_POINTS = ([TwoQubitState.basis(label) for label in BASIS_NAMES]
                 + [TwoQubitState.bell(name) for name in BELL_NAMES])


def test_branch_points_reach_every_branch():
    hit = set()
    for s in BRANCH_POINTS:
        for a in Assignment:
            ss = sphere_set(s, a)
            ent, theta, theta_f = ss.ent, ss.base.theta, ss.fiber.theta_f
            branches = {
                "p = 0": ent.x2 == ent.x3 == ent.x4 == 0.0,
                "x4 = 0, p != 0": ent.x4 == 0.0 and ent.b != 0.0,
                "theta = 0": theta == 0.0,
                "theta = pi": theta == math.pi,
                "|ca| = 0": theta_f == math.pi,
                "|cb| = 0": theta_f == 0.0,
            }
            hit.update(name for name, at in branches.items() if at)
            assert_round_trip(s, a)
    assert hit == set(branches)


product_states = st.integers(0, 2**32 - 1).map(
    lambda seed: random_product_state(np.random.default_rng(seed)))


@st.composite
def near_degenerate_states(draw):
    """A branch point, or a basis, Bell or product state perturbed by a
    log-uniform eps in [1e-15, 1e-3]."""
    centre = draw(st.one_of(st.sampled_from(BRANCH_POINTS), product_states))
    eps = draw(st.one_of(st.just(0.0), st.floats(-15.0, -3.0).map(lambda k: 10.0 ** k)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return TwoQubitState.from_amplitudes(*(centre.vector() + eps * z / np.linalg.norm(z)))


@given(near_degenerate_states(), st.sampled_from(Assignment))
def test_near_degenerate_round_trip_property(s, a):
    assert_round_trip(s, a)


def test_s4_norm_and_b_relation(sphere_pool):
    sets_a, sets_b = sphere_pool
    for ss in (sets_a[:1000] + sets_b[:1000]):
        n = (ss.base.x0 ** 2 + ss.base.x1 ** 2 + ss.ent.x2 ** 2
             + ss.ent.x3 ** 2 + ss.ent.x4 ** 2)
        assert n == pytest.approx(1.0, abs=1e-12)
        assert ss.ent.b ** 2 == pytest.approx(ss.ent.x4 ** 2 + ss.ent.c ** 2,
                                              abs=1e-12)
        assert 0.0 <= ss.ent.chi <= math.pi / 2 + 1e-12


def test_concurrence_matches_oracle(state_pool, sphere_pool):
    sets_a, sets_b = sphere_pool
    for s, sa, sb in zip(state_pool[:1000], sets_a, sets_b):
        want = oracle_concurrence(s)
        assert abs(sa.ent.b) * math.sin(sa.ent.chi) == pytest.approx(want, abs=1e-10)
        assert abs(sb.ent.b) * math.sin(sb.ent.chi) == pytest.approx(want, abs=1e-10)


def test_fiber_versor_is_unit(sphere_pool):
    sets_a, sets_b = sphere_pool
    for ss in (sets_a[:500] + sets_b[:500]):
        assert Quaternion(*fiber_versor(ss.fiber)).norm() == pytest.approx(1.0, abs=1e-12)


def test_rho_from_spheres_examples():
    rho = rho_from_spheres(sphere_set(TwoQubitState.bell("phi+"), Assignment.A_BASE))
    assert rho.rho00 == pytest.approx(0.5, abs=1e-12)
    assert abs(rho.rho01) < 1e-12
    rho = rho_from_spheres(sphere_set(TwoQubitState.basis("00"), Assignment.A_BASE))
    assert rho.rho00 == pytest.approx(1.0, abs=1e-12)
    rho = rho_from_spheres(sphere_set(entangler_60_70_state(), Assignment.A_BASE))
    assert rho.rho00.real == pytest.approx(0.75, abs=1e-12)
    assert abs(rho.rho01.imag) == pytest.approx(0.709406479916222 / 2, abs=1e-12)


def test_bloch_vector_consistent_with_sphere_coords(state_pool, sphere_pool):
    # (rx, ry, rz) of the reduced matrix equals (x1, x4, x0).
    sets_a, _ = sphere_pool
    for s, ss in zip(state_pool[:300], sets_a):
        r = bloch_vector(reduced_density(s, "A"))
        assert r == pytest.approx((ss.base.x1, ss.ent.x4, ss.base.x0), abs=1e-12)


def test_fiber_equivariance_su2():
    rng = np.random.default_rng(23)
    from qubit_spheres.state import random_state
    for _ in range(200):
        s = random_state(rng)
        u = random_su2(rng)
        for a in Assignment:
            before = sphere_set(s, a)
            full = (np.kron(u, np.eye(2)) if a.fiber_qubit == "A"
                    else np.kron(np.eye(2), u))
            s2 = TwoQubitState(*(complex(c) for c in full @ s.vector()))
            after = sphere_set(s2, a)
            assert after.base.x0 == pytest.approx(before.base.x0, abs=1e-12)
            assert after.base.x1 == pytest.approx(before.base.x1, abs=1e-12)
            assert after.base.b == pytest.approx(before.base.b, abs=1e-12)
            assert after.ent.x2 == pytest.approx(before.ent.x2, abs=1e-12)
            assert after.ent.x3 == pytest.approx(before.ent.x3, abs=1e-12)
            assert after.ent.x4 == pytest.approx(before.ent.x4, abs=1e-12)
            want = bloch_rotation(u) @ np.array(before.fiber.bloch)
            assert after.fiber.bloch == pytest.approx(tuple(want), abs=1e-9)


def test_base_y_rotation_equivariance():
    rng = np.random.default_rng(29)
    from qubit_spheres.gates import rotation
    from qubit_spheres.state import random_state
    for _ in range(200):
        s = random_state(rng)
        mu = float(rng.uniform(-math.pi, math.pi))
        u = rotation("y", mu)
        for a in Assignment:
            before = sphere_set(s, a)
            full = (np.kron(u, np.eye(2)) if a.base_qubit == "A"
                    else np.kron(np.eye(2), u))
            s2 = TwoQubitState(*(complex(c) for c in full @ s.vector()))
            after = sphere_set(s2, a)
            for name in ("b", "x2", "x3", "x4", "chi", "c"):
                assert getattr(after.ent, name) == pytest.approx(
                    getattr(before.ent, name), abs=1e-12)
            x1w = before.base.x0 * math.sin(mu) + before.base.x1 * math.cos(mu)
            x0w = before.base.x0 * math.cos(mu) - before.base.x1 * math.sin(mu)
            assert after.base.x1 == pytest.approx(x1w, abs=1e-10)
            assert after.base.x0 == pytest.approx(x0w, abs=1e-10)


def test_separability_conditions():
    rng = np.random.default_rng(31)
    for _ in range(300):
        s = random_product_state(rng)
        for a in Assignment:
            ss = sphere_set(s, a)
            assert ss.ent.c <= 1e-10
            assert ss.ent.chi <= 1e-8 or abs(ss.ent.b) <= 1e-10


def test_reconstruct_rejects_invalid_set():
    ss = sphere_set(TwoQubitState.bell("phi+"), Assignment.A_BASE)
    broken = SphereSet(
        assignment=ss.assignment,
        base=BaseSphere(theta=ss.base.theta, phi=ss.base.phi,
                        x1=ss.base.x1 + 1e-3, b=ss.base.b, x0=ss.base.x0),
        ent=ss.ent,
        fiber=ss.fiber,
    )
    with pytest.raises(InvalidSphereSet):
        reconstruct(broken)


def test_reconstruct_rejects_southern_chi():
    ss = sphere_set(TwoQubitState.bell("phi+"), Assignment.A_BASE)
    t = ss.ent.t
    broken = SphereSet(
        assignment=ss.assignment,
        base=ss.base,
        ent=EntanglementSphere(chi=math.pi / 2 + 0.1, xi=ss.ent.xi, b=ss.ent.b,
                               t=t, c=ss.ent.c, x2=ss.ent.x2, x3=ss.ent.x3,
                               x4=ss.ent.x4),
        fiber=ss.fiber,
    )
    with pytest.raises(InvalidSphereSet):
        reconstruct(broken)


def test_component_functions_compose():
    s = entangler_60_70_state()
    q1, q2 = (q.components() for q in quaternion_pair(s, Assignment.A_BASE))
    base, ent = base_and_entanglement(q1, q2)
    fib = fiber(q1, q2, base, ent)
    ss = sphere_set(s, Assignment.A_BASE)
    assert ss.base == base
    assert ss.ent == ent
    assert ss.fiber == fib


# -- reference: the map written on Quaternion objects ------------------------
# Operation for operation what the float kernel in hopf computes; the kernel
# must reproduce it bit for bit.

def ref_quaternion_pair(s, a):
    if a is Assignment.A_BASE:
        return (join_complex_pair(s.alpha, s.beta),
                join_complex_pair(s.gamma, s.delta))
    return (join_complex_pair(s.alpha, s.gamma),
            join_complex_pair(s.beta, s.delta))


def ref_base_and_entanglement(q1, q2):
    x0 = q1.norm_sq() - q2.norm_sq()
    p = 2.0 * (q2 * q1.conj())

    x1 = p.w
    x2, x3, x4 = p.x, p.y, p.z
    pnorm = math.sqrt(x2 * x2 + x3 * x3 + x4 * x4)

    if pnorm == 0.0:
        b = 0.0
        t = K
        chi = 0.0
        xi = 0.0
    else:
        b = math.copysign(pnorm, x4) if x4 != 0.0 else pnorm
        t = Quaternion(0.0, x2 / b, x3 / b, x4 / b)
        chi = math.atan2(math.hypot(t.x, t.y), t.z)
        xi = math.atan2(t.y, t.x)

    c = math.hypot(x2, x3)
    theta = math.atan2(math.hypot(x1, b), x0)
    phi = 0.0 if (theta == 0.0 or theta == math.pi) else math.atan2(b, x1)

    return (BaseSphere(theta=theta, phi=phi, x1=x1, b=b, x0=x0),
            EntanglementSphere(chi=chi, xi=xi, b=b, t=t, c=c, x2=x2, x3=x3, x4=x4))


def ref_fiber_angles(q_f):
    ca, cb = split_complex_pair(q_f)
    ma, mb = abs(ca), abs(cb)
    theta_f = 2.0 * math.atan2(mb, ma)
    if ma == 0.0:
        zeta_f = 0.0
        phi_f = math.atan2(cb.imag, cb.real)
    elif mb == 0.0:
        zeta_f = math.atan2(ca.imag, ca.real)
        phi_f = zeta_f
    else:
        zeta_f = math.atan2(ca.imag, ca.real)
        phi_f = math.atan2(cb.imag, cb.real) + zeta_f
        if phi_f > math.pi:
            phi_f -= 2.0 * math.pi
        elif phi_f <= -math.pi:
            phi_f += 2.0 * math.pi
    return theta_f, phi_f, zeta_f


def ref_fiber(q1, q2, base, ent):
    half = 0.5 * base.theta
    q_f = (math.cos(half) * q1
           + math.sin(half) * (exp_pure(ent.t, -base.phi) * q2))
    theta_f, phi_f, zeta_f = ref_fiber_angles(q_f)
    return FiberSphere(theta_f=theta_f, phi_f=phi_f, zeta_f=zeta_f,
                       bloch=_fiber_bloch(theta_f, phi_f, zeta_f))


def ref_sphere_set(s, a):
    q1, q2 = ref_quaternion_pair(s, a)
    base, ent = ref_base_and_entanglement(q1, q2)
    return SphereSet(assignment=a, base=base, ent=ent, fiber=ref_fiber(q1, q2, base, ent))


def ref_fiber_versor(f):
    half = 0.5 * f.theta_f
    inner = (Quaternion(math.cos(half))
             + math.sin(half) * (exp_pure(K, f.phi_f) * J))
    return inner * exp_pure(K, f.zeta_f)


def ref_reconstruct(ss):
    _validate(ss)
    q_f = ref_fiber_versor(ss.fiber)
    half = 0.5 * ss.base.theta
    q1 = math.cos(half) * q_f
    q2 = math.sin(half) * (exp_pure(ss.ent.t, ss.base.phi) * q_f)
    c1, c2 = split_complex_pair(q1)
    c3, c4 = split_complex_pair(q2)
    if ss.assignment is Assignment.A_BASE:
        amps = (c1, c2, c3, c4)
    else:
        amps = (c1, c3, c2, c4)
    return TwoQubitState(*amps)


def assert_matches_reference(states):
    # repr, not only ==: it tells -0.0 from 0.0, which decides atan2 branches.
    for s in states:
        for a in Assignment:
            ss = sphere_set(s, a)
            want = ref_sphere_set(s, a)
            assert ss == want and repr(ss) == repr(want), (s, a)
            got, want = reconstruct(ss), ref_reconstruct(want)
            assert got == want and repr(got) == repr(want), (s, a)


def test_kernel_matches_reference_on_pool(state_pool):
    assert_matches_reference(state_pool[:2000])


def test_kernel_matches_reference_near_degenerate():
    assert_matches_reference(near_degenerate_sweep() + BRANCH_POINTS)
