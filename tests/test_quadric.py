import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liesphere.errors import ContactViolation, DegenerateConfiguration, DomainError
from liesphere.indefinite import Signature, compose, random_lie_transform
from liesphere.quadric import (PAPER6_12_34, STANDARD_13_24, OrientedSphere,
                               ProjectiveCurvature, classify_quadric_point, cross_ratio,
                               curvature_sphere, legendre_lift, lie_curvature,
                               lie_curvature_of_values, moebius_coefficients,
                               moebius_curvature, oriented_contact, parallel_transform,
                               sphere_to_quadric)

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
ROOT2 = math.sqrt(2.0)


def test_point_sphere_rep_and_nullity():
    q = sphere_to_quadric(OrientedSphere.point(E1))
    assert np.array_equal(q.rep.coords, [1, 0, 0, 1, 0])


def test_oriented_sphere_validation():
    with pytest.raises(DomainError):
        OrientedSphere.sphere(2 * E1, 0.3, 1)       # non-unit center
    with pytest.raises(DomainError):
        OrientedSphere.sphere(E1, math.pi, 1)       # radius outside (0, pi)
    with pytest.raises(DomainError):
        OrientedSphere(E1, "point_sphere", 0.5)     # point sphere carries no radius


def test_half_turn_sphere_is_great_sphere():
    q = sphere_to_quadric(OrientedSphere.sphere(E1, math.pi / 2, 1))
    great = sphere_to_quadric(OrientedSphere.great(E1, 1))
    assert np.abs(q.rep.coords - great.rep.coords).max() <= 1e-15


def test_quarter_turn_rep():
    q = sphere_to_quadric(OrientedSphere.sphere(E1, math.pi / 4, 1))
    assert np.abs(q.rep.coords - [1, 0, 0, ROOT2 / 2, ROOT2 / 2]).max() <= 1e-15


def test_classify_scaled_point_sphere():
    from liesphere.indefinite import SignedVector
    from liesphere.quadric import QuadricPoint
    q = QuadricPoint(SignedVector(np.array([2.0, 0, 0, 2.0, 0.0]), Signature(3, 2)))
    sphere = classify_quadric_point(q)
    assert sphere.kind == "point_sphere"
    assert np.abs(sphere.center - E1).max() <= 1e-15


def test_projective_equality_of_quadric_points():
    a = sphere_to_quadric(OrientedSphere.sphere(E1, 0.4, 1))
    from liesphere.indefinite import SignedVector
    from liesphere.quadric import QuadricPoint
    b = QuadricPoint(SignedVector(-3.0 * a.rep.coords, a.rep.signature))
    c = sphere_to_quadric(OrientedSphere.sphere(E1, 0.41, 1))
    assert a.same_point(b)
    assert not a.same_point(c)


def test_classify_negative_great_sphere():
    from liesphere.indefinite import SignedVector
    from liesphere.quadric import QuadricPoint
    q = QuadricPoint(SignedVector(np.array([0.0, 1, 0, 0, -1.0]), Signature(3, 2)))
    sphere = classify_quadric_point(q)
    assert sphere.kind == "great_sphere" and sphere.orientation == -1


def test_classify_roundtrip_quarter_turn():
    original = OrientedSphere.sphere(E1, math.pi / 4, 1)
    again = classify_quadric_point(sphere_to_quadric(original))
    assert again.kind == "sphere"
    assert abs(again.radius - math.pi / 4) <= 1e-12
    assert again.orientation == 1


@settings(max_examples=80, deadline=None)
@given(st.floats(0.01, math.pi - 0.01), st.sampled_from([1, -1]), st.integers(0, 10_000))
def test_classify_roundtrip_random(radius, orientation, seed):
    rng = np.random.default_rng(seed)
    center = rng.normal(size=4)
    center /= np.linalg.norm(center)
    original = OrientedSphere.sphere(center, radius, orientation)
    again = classify_quadric_point(sphere_to_quadric(original))
    assert abs(again.radius - radius) <= 1e-10
    assert again.orientation == orientation
    assert np.abs(again.center - center).max() <= 1e-10


def test_classify_zero_spatial_part_errors():
    # a null vector cannot have zero spatial part, so the guard is only reachable
    # through a malformed object constructed around the validation
    from liesphere.indefinite import SignedVector
    from liesphere.quadric import QuadricPoint
    q = object.__new__(QuadricPoint)
    object.__setattr__(q, "rep", SignedVector(np.array([0.0, 0, 0, 1.0, 1.0]),
                                              Signature(3, 2)))
    with pytest.raises(DomainError):
        classify_quadric_point(q)


def test_oriented_contact_point_vs_orthogonal_great():
    point = sphere_to_quadric(OrientedSphere.point(E1))
    great = sphere_to_quadric(OrientedSphere.great(E2, 1))
    ok, residual = oriented_contact(point, great, 1e-9)
    assert ok and residual <= 1e-15


def test_no_contact_between_distinct_point_spheres():
    a = sphere_to_quadric(OrientedSphere.point(E1))
    b = sphere_to_quadric(OrientedSphere.point(E2))
    ok, _ = oriented_contact(a, b, 1e-9)
    assert not ok


def test_self_contact():
    q = sphere_to_quadric(OrientedSphere.sphere(E1, 0.4, -1))
    ok, _ = oriented_contact(q, q, 1e-9)
    assert ok


def test_legendre_lift_basic():
    ce = legendre_lift(E1, E2)
    from liesphere.indefinite import inner
    assert inner(ce.k1.rep, ce.k2.rep) == 0.0


def test_legendre_lift_rejects_parallel():
    with pytest.raises(ContactViolation):
        legendre_lift(E1, E1)


def test_legendre_lift_random_orthonormal():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.normal(size=5)
        a /= np.linalg.norm(a)
        b = rng.normal(size=5)
        b -= (b @ a) * a
        b /= np.linalg.norm(b)
        ce = legendre_lift(a, b)
        from liesphere.indefinite import inner
        assert abs(inner(ce.k1.rep, ce.k2.rep)) <= 1e-14


def test_curvature_sphere_poles_and_radius():
    ce = legendre_lift(E1, E2)
    at_infinity = curvature_sphere(ce, ProjectiveCurvature.infinity())
    assert np.array_equal(at_infinity.rep.coords, ce.k1.rep.coords)
    at_zero = curvature_sphere(ce, ProjectiveCurvature(0.0, 1.0))
    assert np.array_equal(at_zero.rep.coords, ce.k2.rep.coords)
    unit = classify_quadric_point(curvature_sphere(ce, ProjectiveCurvature(1.0, 1.0)))
    assert abs(unit.radius - math.pi / 4) <= 1e-12


def test_moebius_identity():
    lam = ProjectiveCurvature(3.0, 2.0)
    out = moebius_curvature(1, 0, 0, 1, lam)
    assert (out.v, out.u) == (3.0, 2.0)


def test_moebius_quarter_rotation():
    out = moebius_curvature(0, 1, -1, 0, ProjectiveCurvature(1.0, 1.0))
    assert (out.v, out.u) == (-1.0, 1.0)


def test_moebius_pole_is_projective_infinity():
    a, b, c, d = 2.0, 1.0, 0.5, 3.0
    out = moebius_curvature(a, b, c, d, ProjectiveCurvature(d, -b))
    assert out.is_infinite


def test_moebius_singular_errors():
    with pytest.raises(DegenerateConfiguration):
        moebius_curvature(1, 1, 1, 1, ProjectiveCurvature(1.0, 1.0))


def test_parallel_transform_zero_is_identity():
    sig = Signature(4, 2)
    assert np.array_equal(parallel_transform(0.0, sig).matrix, np.eye(6))


def test_parallel_transform_shifts_radius():
    # cot(pi/8) must map to cot(3*pi/8) under a quarter-turn-of-two shift
    lam = ProjectiveCurvature.from_value(1.0 / math.tan(math.pi / 8))
    theta = math.pi / 4
    a, b, c, d = math.cos(theta), math.sin(theta), -math.sin(theta), math.cos(theta)
    out = moebius_curvature(a, b, c, d, lam)
    assert abs(out.value - (ROOT2 - 1)) <= 1e-12
    assert abs(out.value - 1.0 / math.tan(3 * math.pi / 8)) <= 1e-12


def test_parallel_transform_half_turn_gives_negative_tan():
    xi = 0.83
    lam = ProjectiveCurvature.from_angle(xi)
    theta = math.pi / 2
    out = moebius_curvature(math.cos(theta), math.sin(theta),
                            -math.sin(theta), math.cos(theta), lam)
    assert abs(out.value + math.tan(xi)) <= 1e-12


def test_parallel_transform_composition():
    sig = Signature(4, 2)
    lhs = compose(parallel_transform(0.4, sig), parallel_transform(-0.9, sig))
    rhs = parallel_transform(-0.5, sig)
    assert np.abs(lhs.matrix - rhs.matrix).max() <= 1e-10


def test_cross_ratio_fourth_roots():
    assert abs(cross_ratio(1, 1j, -1, -1j) - 2.0) <= 1e-15


def test_cross_ratio_degenerate_errors():
    with pytest.raises(DegenerateConfiguration):
        cross_ratio(1.0, 2.0, 2.0, 1.0)


def test_cross_ratio_concircular_is_real():
    rng = np.random.default_rng(5)
    for _ in range(50):
        angles = np.sort(rng.uniform(0, 2 * math.pi, 4))
        if np.diff(angles).min() < 1e-3:
            continue
        value = cross_ratio(*(cmath.exp(1j * t) for t in angles))
        assert abs(value.imag) <= 1e-10


def test_lie_curvature_g4_family_values():
    quad = (ROOT2 + 1, ROOT2 - 1, 1 - ROOT2, -1 - ROOT2)
    assert abs(lie_curvature_of_values(quad, STANDARD_13_24).value - 2.0) <= 1e-12
    assert abs(lie_curvature_of_values(quad, PAPER6_12_34).value + 1.0) <= 1e-12


def test_lie_curvature_g6_psi_pattern():
    root3 = math.sqrt(3.0)
    quad = (2 + root3, 1.0, 2 - root3, -1.0)  # (lambda, mu, nu, sigma)
    assert abs(lie_curvature_of_values(quad, PAPER6_12_34).value + 1.0) <= 1e-12


def test_lie_curvature_rejects_repeats():
    with pytest.raises(DegenerateConfiguration):
        lie_curvature_of_values((1.0, 1.0, 2.0, 3.0))


def test_lie_curvature_handles_infinity():
    values = [ProjectiveCurvature.infinity(), ProjectiveCurvature.from_value(1.0),
              ProjectiveCurvature.from_value(0.0), ProjectiveCurvature.from_value(-1.0)]
    # with l1 = infinity the standard cross ratio degenerates to (l2-l4)/(l2-l3)
    out = lie_curvature(*values, ordering=STANDARD_13_24)
    assert abs(out.value - 2.0 / 1.0) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000))
def test_cross_ratio_curvature_identity(seed):
    # Prop-style identity: cross ratio of e^(2 i theta_k) equals the curvature cross ratio
    rng = np.random.default_rng(seed)
    thetas = np.sort(rng.uniform(0.02, math.pi - 0.02, 4))
    if np.diff(thetas).min() < 1e-3:
        return
    phi = lie_curvature(*(ProjectiveCurvature.from_angle(t) for t in thetas),
                        ordering=STANDARD_13_24).value
    zcr = cross_ratio(*(cmath.exp(2j * t) for t in thetas))
    assert abs(zcr - phi) <= 1e-10


def test_lie_invariance_under_random_group_actions():
    sig = Signature(4, 2)
    ce = legendre_lift(np.array([1.0, 0, 0, 0]), np.array([0.0, 1, 0, 0]))
    base = (ROOT2 + 1, ROOT2 - 1, 1 - ROOT2, -1 - ROOT2)
    phi0 = lie_curvature_of_values(base, STANDARD_13_24).value
    for seed in range(60):
        transform = random_lie_transform(sig, seed, 0.6)
        a, b, c, d = moebius_coefficients(transform, ce)
        moved = [moebius_curvature(a, b, c, d, ProjectiveCurvature.from_value(v))
                 for v in base]
        assert abs(lie_curvature(*moved).value - phi0) <= 1e-8


def test_cross_ratio_stack_names_its_degenerate_member():
    w = np.exp(1j * np.array([[0.1, 0.2], [1.1, 1.2], [2.1, 2.2], [3.1, 3.2]]))
    # complex array arithmetic may round differently from scalar arithmetic in the last bit
    assert np.abs(cross_ratio(*w) - [cross_ratio(*w[:, k]) for k in range(2)]).max() <= 1e-15
    w4 = w[3].copy()
    w4[1] = w[0, 1]
    with pytest.raises(DegenerateConfiguration, match="vanishes at stack index 1$"):
        cross_ratio(w[0], w[1], w[2], w4)


def test_lie_curvature_stack_names_its_degenerate_member():
    angles = np.array([[0.3, 0.9, 1.4, 2.2], [0.2, 0.8, 1.6, 2.9], [0.4, 1.0, 1.1, 2.0]])
    stack = [ProjectiveCurvature.from_angle(col) for col in angles.T]
    values = lie_curvature(*stack, ordering=PAPER6_12_34).value
    assert np.array_equal(values, [lie_curvature(*map(ProjectiveCurvature.from_angle, row),
                                                 ordering=PAPER6_12_34).value
                                   for row in angles])
    angles[2, 2] = angles[2, 1]
    stack[2] = ProjectiveCurvature.from_angle(angles[:, 2])
    with pytest.raises(DegenerateConfiguration,
                       match="curvatures 2 and 3 coincide at stack index 2$"):
        lie_curvature(*stack)


def test_moebius_curvature_stack_names_its_singular_member():
    a, b, c, d = np.array([[1.0, 2.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.5, 1.0], [1.0, 3.0, 1.0]])
    lam = ProjectiveCurvature.from_value(np.array([0.5, -2.0, 7.0]))
    with pytest.raises(DegenerateConfiguration, match="singular at stack index 2$"):
        moebius_curvature(a, b, c, d, lam)
    out = moebius_curvature(a[:2], b[:2], c[:2], d[:2],
                            ProjectiveCurvature.from_value([0.5, -2.0]))
    for k, v in enumerate((0.5, -2.0)):
        one = moebius_curvature(a[k], b[k], c[k], d[k], ProjectiveCurvature.from_value(v))
        assert (out.v[k], out.u[k]) == (one.v, one.u)


def test_parallel_transform_stack_gives_rotation_coefficients():
    # the library's parallel transformations act on curvatures by exactly (cos, sin, -sin, cos)
    thetas = np.linspace(-1.5, 1.5, 100)
    ce = legendre_lift(np.array([1.0, 0, 0, 0]), np.array([0.0, 1, 0, 0]))
    a, b, c, d = moebius_coefficients(parallel_transform(thetas, Signature(4, 2)), ce)
    for k, theta in enumerate(thetas):
        assert (a[k], b[k], c[k], d[k]) == (math.cos(theta), math.sin(theta),
                                            -math.sin(theta), math.cos(theta))
