import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    BRANCH_POINTS,
    SPELLED_STATES,
    J,
    K,
    exp_axis,
    near_degenerate_sweep,
    random_product_state,
)
from qubit_spheres.hopf import (
    UNIT_T_TOL,
    Assignment,
    BaseSphere,
    EntanglementSphere,
    FiberSphere,
    InvalidSphereSet,
    SphereSet,
    _validate,
    reconstruct,
    sphere_set,
)
from qubit_spheres.oracles import (
    conj,
    hamilton,
    join_components,
    norm_sq,
    split_components,
)
from qubit_spheres.records import state_record
from qubit_spheres.state import (
    BASIS_NAMES,
    BELL_NAMES,
    NORM_TOL,
    NormOutOfTolerance,
    TwoQubitState,
)


def pool_sets(states) -> list:
    """Sphere sets of `states` under A_BASE, then under B_BASE."""
    return [sphere_set(s, a) for a in Assignment for s in states]


def assert_round_trip(s: TwoQubitState, a: Assignment):
    # reconstruct returns a unit vector, so the input's own norm defect (up
    # to NORM_TOL) comes back as error.
    err = max(abs(x - y) for x, y in zip(reconstruct(sphere_set(s, a)), s))
    assert err <= 1e-12 + abs(s.norm() - 1.0), (s, a, err)


# Perturbations so small that |p|^2 underflows (|p| below about 1e-154), and
# subnormal ones (below 2.2e-308), where |p| itself keeps only a few digits.
TINY_EXPONENTS = (140, 160, 180, 200, 250, 300, 310, 315, 320)


def test_near_degenerate_round_trip():
    for s in near_degenerate_sweep() + near_degenerate_sweep(TINY_EXPONENTS):
        for a in Assignment:
            assert_round_trip(s, a)
    # The fiber point is the Bloch vector of the base-|0> pair, (alpha, beta) under
    # A_BASE, (alpha, gamma) under B_BASE, scaled so that no square underflows.
    # Subnormal perturbations cost digits: 2.3e-14 off at 1e-310, 1.7e-4 at 1e-320.
    for s in near_degenerate_sweep() + near_degenerate_sweep(TINY_EXPONENTS[:6]):
        for a in Assignment:
            pair = (s.alpha, s.beta if a is Assignment.A_BASE else s.gamma)
            m = max(abs(v) for z in pair for v in (z.real, z.imag))
            (p, pp), (q, qq) = ((z / m, abs(z / m) ** 2) for z in pair)
            z = 2.0 * p.conjugate() * q
            want = np.array([z.real, z.imag, pp - qq]) / (pp + qq)
            assert np.abs(sphere_set(s, a).fiber.bloch - want).max() <= 1e-12, (s, a)


def test_branch_points_reach_every_branch():
    hit = set()
    for s in BRANCH_POINTS:
        for a in Assignment:
            ss = sphere_set(s, a)
            ent, theta, theta_f = ss.ent, ss.base.theta, ss.fiber.theta_f
            branches = {
                "p = 0": ent.x2 == ent.x3 == ent.x4 == 0.0,
                "x4 = 0, p != 0": ent.x4 == 0.0 and ss.base.b != 0.0,
                "theta = 0": theta == 0.0,
                "theta = pi": theta == math.pi,
                "|ca| = 0": theta_f == math.pi,
                "|cb| = 0": theta_f == 0.0,
            }
            hit.update(name for name, at in branches.items() if at)
            assert_round_trip(s, a)
    assert hit == set(branches)


def signed_zero_spellings() -> list[TwoQubitState]:
    """Each basis state with its seven zero parts spelled 0.0 or -0.0."""
    states = []
    for label in BASIS_NAMES:
        parts = [p for amp in TwoQubitState.basis(label) for p in (amp.real, amp.imag)]
        for signs in itertools.product((1.0, -1.0), repeat=7):
            zeros = iter(signs)
            spelled = [p or next(zeros) * 0.0 for p in parts]
            states.append(TwoQubitState(*map(complex, spelled[::2], spelled[1::2])))
    return states


# States whose P has x4 = -0.0 and p != 0 under the given assignment.
# complex(0, -0.5), not the literal -0.5j, which is (-0-0.5j) and gives
# x4 = +0.0.
TIE_STATES = ((TwoQubitState(0j, complex(0, 0.5), complex(0.5, -0.5), complex(0, -0.5)),
               Assignment.A_BASE),
              (TwoQubitState(0j, complex(0.5, -0.5), complex(0, 0.5), complex(0, -0.5)),
               Assignment.B_BASE))


def test_signed_zero_branches():
    # The pole rule: phi = 0 where x1 and b are zeros (theta = 0 and pi here),
    # whatever the signs that atan2(b, x1) would read.
    for s in signed_zero_spellings():
        for a in Assignment:
            base = sphere_set(s, a).base
            assert base.theta in (0.0, math.pi) and repr(base.phi) == "0.0", (s, a)
    # The tie rule: x4 = -0.0 with p != 0 takes b > 0.
    for s, a in TIE_STATES:
        ss = sphere_set(s, a)
        assert repr(ss.ent.x4) == "-0.0" and ss.base.b > 0, (s, a)


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


def test_states_at_the_norm_tolerance_map_back(state_pool):
    # A norm defect e puts the sphere point at |x|^2 ~ 1 + 4e: every state the
    # constructor accepts must still map back and have a record.
    rng = np.random.default_rng(43)
    centres = ([TwoQubitState.basis(label) for label in BASIS_NAMES]
               + [TwoQubitState.bell(name) for name in BELL_NAMES]
               + [random_product_state(rng) for _ in range(50)] + state_pool[:50])
    for v in centres:
        for defect in (0.995 * NORM_TOL, -0.995 * NORM_TOL):
            s = TwoQubitState(*(z * (1.0 + defect) for z in v))
            for a in Assignment:
                assert_round_trip(s, a)
            state_record(s)
        with pytest.raises(NormOutOfTolerance):
            TwoQubitState(*(z * (1.0 + 1.05 * NORM_TOL) for z in v))


def test_fiber_versor_is_unit(state_pool):
    # |reconstruct(ss)| = |q_f|: q1 and q2 are the rebuilt versor scaled by cos and
    # sin of theta/2 (q2 also turned by e^(t*phi), unit as t is), as reconstruct assumes.
    pool = pool_sets(state_pool[:500])
    tilted = [ss._replace(ent=ss.ent._replace(t=tuple(f * v for v in ss.ent.t)))
              for f in (1 - 0.99 * UNIT_T_TOL, 1 + 0.99 * UNIT_T_TOL) for ss in pool]
    for ss in pool + tilted + pool_sets(
            BRANCH_POINTS + near_degenerate_sweep() + near_degenerate_sweep(TINY_EXPONENTS)):
        assert abs(reconstruct(ss).norm() - 1.0) <= 1e-12, ss


def scale_b(ss, f):
    """ss with b scaled by f and the entanglement sphere kept consistent."""
    b = f * ss.base.b
    x2, x3, x4 = (b * v for v in ss.ent.t)
    return ss._replace(base=ss.base._replace(b=b), ent=ss.ent._replace(x2=x2, x3=x3, x4=x4))


# Each set breaks one check and passes every check before it.
@pytest.mark.parametrize("broken, message", [
    (lambda ss: ss._replace(base=ss.base._replace(x1=ss.base.x1 + 1e-3)),
     "base Cartesian/angle consistency violated by 1.000e-03 (tolerance 1e-09)"),
    # t tipped 0.1 below the equator: chi = pi/2 + 0.1.
    (lambda ss: ss._replace(ent=ss.ent._replace(t=(0.0, math.cos(0.1), -math.sin(0.1)))),
     "chi 1.6707963267948966 outside [0, pi/2]"),
    (lambda ss: ss._replace(ent=ss.ent._replace(x2=ss.ent.x2 + 1e-3)),
     "entanglement-sphere consistency violated by 1.000e-03 (tolerance 1e-09)"),
    # |b| off by 9e-10 passes the base check but moves |x|^2 by 1.8e-9.
    (lambda ss: scale_b(ss, 1.0 + 9e-10),
     "unit 5-space norm violated by 1.800e-09 (tolerance 1e-09)"),
    # |t| = 1 + 1e-10 is within 1e-9 of every angle check, not of 1e-12.
    (lambda ss: ss._replace(ent=ss.ent._replace(t=tuple((1.0 + 1e-10) * v for v in ss.ent.t))),
     "unit t axis violated by 1.000e-10 (tolerance 1e-12)"),
    # A consistent set whose assignment is a label, not an Assignment.
    (lambda ss: ss._replace(assignment="A"), "assignment 'A' is not an Assignment"),
], ids=["base", "southern-chi", "entanglement", "5-norm", "unit-t", "assignment"])
def test_reconstruct_rejects_invalid_set(broken, message):
    ss = sphere_set(TwoQubitState.bell("phi+"), Assignment.A_BASE)
    with pytest.raises(InvalidSphereSet) as e:
        reconstruct(broken(ss))
    assert str(e.value) == message


@pytest.mark.parametrize("a", ["A", "B", None])
def test_sphere_set_rejects_a_non_assignment(a):
    with pytest.raises(ValueError, match=re.escape(repr(a))):
        sphere_set(TwoQubitState.bell("phi+"), a)


# Every stored float of a sphere set, named as InvalidSphereSet names it.
SPHERE_SET_FLOATS = [
    "base.theta", "base.phi", "base.x1", "base.b", "base.x0",
    "ent.t[0]", "ent.t[1]", "ent.t[2]", "ent.x2", "ent.x3", "ent.x4",
    "fiber.theta_f", "fiber.phi_f", "fiber.zeta_f",
]


def with_float(ss, name, v):
    """ss with the float `name` (as in SPHERE_SET_FLOATS) set to v."""
    part, field = name.split(".")
    sphere = getattr(ss, part)
    if field.endswith("]"):
        field, j = field[:-1].split("[")
        v = tuple(v if k == int(j) else x for k, x in enumerate(getattr(sphere, field)))
    return ss._replace(**{part: sphere._replace(**{field: v})})


@pytest.mark.parametrize("name", SPHERE_SET_FLOATS)
def test_reconstruct_rejects_non_finite_field(name):
    ss = sphere_set(TwoQubitState.bell("phi+"), Assignment.A_BASE)
    for v in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidSphereSet) as e:
            reconstruct(with_float(ss, name, v))
        assert str(e.value) == f"{name} is {v!r}"


# -- reference: the map written as quaternion expressions ---------------------
# The map as a chain of quaternion operations, each one a separate call in
# expression order: `a * b` is hamilton(a, b), `s * q` is scale(s, q) and
# `p + q` is add(p, q).  The kernel in hopf fuses these steps; it must
# reproduce them bit for bit.

def scale(s, q):
    return tuple(v * s for v in q)


def add(p, q):
    return tuple(u + v for u, v in zip(p, q))


def ref_quaternion_pair(s, a):
    if a is Assignment.A_BASE:
        return (join_components(s.alpha, s.beta),
                join_components(s.gamma, s.delta))
    return (join_components(s.alpha, s.gamma),
            join_components(s.beta, s.delta))


def ref_base_and_entanglement(q1, q2):
    x0 = norm_sq(q1) - norm_sq(q2)
    p = scale(2.0, hamilton(q2, conj(q1)))

    x1 = p[0]
    x2, x3, x4 = p[1:]
    # Below |p| = 1e-140, t comes from p scaled by the exact 2**600.
    k = 1.0 if math.sqrt(x2 * x2 + x3 * x3 + x4 * x4) >= 1e-140 else 2.0 ** 600
    u = scale(k, p[1:])
    pnorm = math.sqrt(norm_sq((0.0, *u)))

    if pnorm == 0.0:
        b = 0.0
        t = K[1:]
    else:
        bu = math.copysign(pnorm, x4) if x4 != 0.0 else pnorm
        t = tuple(v / bu for v in u)
        b = bu / k

    theta = math.atan2(math.hypot(x1, b), x0)
    phi = 0.0 if (x1 == 0.0 and b == 0.0) else math.atan2(b, x1)

    return (BaseSphere(theta=theta, phi=phi, x1=x1, b=b, x0=x0),
            EntanglementSphere(t=t, x2=x2, x3=x3, x4=x4))


def ref_fiber_angles(q_f):
    ca, cb = split_components(q_f)
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


def ref_fiber_bloch(theta_f, phi_f, zeta_f):
    az = phi_f - 2.0 * zeta_f
    st = math.sin(theta_f)
    return (st * math.cos(az), st * math.sin(az), math.cos(theta_f))


def ref_fiber(q1, q2, base, ent):
    half = 0.5 * base.theta
    q_f = add(scale(math.cos(half), q1),
              scale(math.sin(half), hamilton(exp_axis((0.0, *ent.t), -base.phi), q2)))
    return FiberSphere(*ref_fiber_angles(q_f))


def ref_derived(ss):
    """The values a sphere set computes on each read: chi, xi and c from
    the stored t, x2 and x3, and the fiber Bloch point."""
    tx, ty, tz = ss.ent.t
    return (math.atan2(math.hypot(tx, ty), tz), math.atan2(ty, tx),
            math.hypot(ss.ent.x2, ss.ent.x3), ref_fiber_bloch(*ss.fiber))


def ref_sphere_set(s, a):
    q1, q2 = ref_quaternion_pair(s, a)
    base, ent = ref_base_and_entanglement(q1, q2)
    return SphereSet(assignment=a, base=base, ent=ent, fiber=ref_fiber(q1, q2, base, ent))


def ref_fiber_versor(f):
    half = 0.5 * f.theta_f
    inner = add((math.cos(half), 0.0, 0.0, 0.0),
                scale(math.sin(half), hamilton(exp_axis(K, f.phi_f), J)))
    return hamilton(inner, exp_axis(K, f.zeta_f))


def ref_reconstruct(ss):
    _validate(ss)
    q_f = ref_fiber_versor(ss.fiber)
    half = 0.5 * ss.base.theta
    q1 = scale(math.cos(half), q_f)
    q2 = scale(math.sin(half), hamilton(exp_axis((0.0, *ss.ent.t), ss.base.phi), q_f))
    c1, c2 = split_components(q1)
    c3, c4 = split_components(q2)
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
            derived = (ss.ent.chi, ss.ent.xi, ss.ent.c, ss.fiber.bloch)
            assert repr(derived) == repr(ref_derived(want)), (s, a)
            got, want = reconstruct(ss), ref_reconstruct(want)
            assert got == want and repr(got) == repr(want), (s, a)


def test_kernel_matches_reference_on_pool(state_pool):
    assert_matches_reference(state_pool[:2000])


def test_kernel_matches_reference_near_degenerate():
    assert_matches_reference(near_degenerate_sweep() + near_degenerate_sweep(TINY_EXPONENTS)
                             + BRANCH_POINTS + SPELLED_STATES + signed_zero_spellings()
                             + [s for s, _ in TIE_STATES])
