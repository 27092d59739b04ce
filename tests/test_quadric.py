import cmath
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liesphere.errors import (ContactViolation, DegenerateConfiguration, DomainError,
                              raise_where)
from liesphere.indefinite import (LieTransform, Signature, SignedVector, compose, inner,
                                  random_lie_transform)
from liesphere.quadric import (ORDERINGS, PAPER6_12_34, PROJECTIVE_TOL, STANDARD_13_24,
                               ContactElement, LieCurvatureValue, ProjectiveCurvature,
                               QuadricPoint, cross_ratio, curvature_sphere, legendre_lift,
                               lie_curvature, lie_curvature_of_values, moebius_coefficients,
                               moebius_curvature, parallel_transform)

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
ROOT2 = math.sqrt(2.0)


def quadric_point(coords):
    return QuadricPoint(SignedVector(np.array(coords, dtype=float), Signature(3, 2)))


def test_point_sphere_rep_and_nullity():
    k1 = legendre_lift(E1, E2).k1
    assert np.array_equal(k1.rep.coords, [1, 0, 0, 1, 0])
    assert inner(k1.rep, k1.rep) == 0.0


@pytest.mark.parametrize("make, cls", [
    (lambda: legendre_lift(E1, E2).k1.rep, SignedVector),
    (lambda: parallel_transform(0.3, Signature(3, 2)), LieTransform),
    (lambda: legendre_lift(E1, E2).k1, QuadricPoint),
    (lambda: legendre_lift(E1, E2), ContactElement),
    (lambda: ProjectiveCurvature.from_value(np.array([1.0, 2.0])), ProjectiveCurvature),
    (lambda: lie_curvature_of_values(np.array([[3.0, 2.5], [1.0, 0.5], [-1.0, -0.5],
                                               [-2.0, -3.0]])), LieCurvatureValue),
])
def test_records_of_arrays_compare_by_identity(make, cls):
    # == on two equal-valued records is identity: False, and it never raises
    a, b = make(), make()
    assert type(a) is cls and a == a and a != b and not a == b
    assert len({a, b, a}) == 2  # hashed by identity too


def test_oriented_sphere_validation():
    with pytest.raises(ValueError, match="must be nonzero"):
        quadric_point([0, 0, 0, 0, 0])
    with pytest.raises(DomainError, match="not on the quadric"):
        quadric_point([2, 0, 0, 1, 0])


def test_half_turn_sphere_is_great_sphere():
    ce = legendre_lift(E1, E2)
    q = curvature_sphere(ce, ProjectiveCurvature.from_angle(math.pi / 2))
    assert np.abs(q.rep.coords - ce.k2.rep.coords).max() <= 1e-15


def test_quarter_turn_rep():
    # (center, cos xi, sin xi) at xi = pi/4, centered at the focal point (E1 + E2)/sqrt(2)
    q = curvature_sphere(legendre_lift(E1, E2), ProjectiveCurvature.from_angle(math.pi / 4))
    assert np.abs(q.rep.coords - [ROOT2 / 2, ROOT2 / 2, 0, ROOT2 / 2, ROOT2 / 2]).max() <= 1e-15


def test_no_contact_between_distinct_point_spheres():
    a, b = quadric_point([1, 0, 0, 1, 0]), quadric_point([0, 1, 0, 1, 0])
    with pytest.raises(ContactViolation, match="not in oriented contact"):
        ContactElement(a, b)


def test_self_contact():
    # every quadric point touches itself, so only the independence guard rejects the pair
    q = quadric_point([0, 0, 1, 0, -1])
    assert inner(q.rep, q.rep) == 0.0
    for pair in ((q, q), (q, quadric_point(-3.0 * q.rep.coords))):
        with pytest.raises(ContactViolation, match="linearly independent"):
            ContactElement(*pair)


def test_legendre_lift_basic():
    ce = legendre_lift(E1, E2)
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
        assert abs(inner(ce.k1.rep, ce.k2.rep)) <= 1e-14


def test_curvature_sphere_poles_and_radius():
    ce = legendre_lift(E1, E2)
    at_infinity = curvature_sphere(ce, ProjectiveCurvature(1.0, 0.0))
    assert np.array_equal(at_infinity.rep.coords, ce.k1.rep.coords)
    at_zero = curvature_sphere(ce, ProjectiveCurvature(0.0, 1.0))
    assert np.array_equal(at_zero.rep.coords, ce.k2.rep.coords)
    unit = curvature_sphere(ce, ProjectiveCurvature(1.0, 1.0))
    assert inner(unit.rep, ce.k1.rep) == 0.0 and inner(unit.rep, ce.k2.rep) == 0.0
    cos, sin = unit.rep.coords[-2:]
    assert abs(math.atan2(sin, cos) - math.pi / 4) <= 1e-12


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
    values = [ProjectiveCurvature(1.0, 0.0), ProjectiveCurvature.from_value(1.0),
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


def test_cross_ratio_of_python_floats_that_overflow_is_a_domain_error():
    # Python float arithmetic ignores numpy's error state: inf / inf is a silent nan
    with pytest.raises(DomainError, match=r"^the cross ratio nan is not finite$"):
        cross_ratio(3e200, 2e200, -2e200, -3e200)


def test_cross_ratio_of_numpy_values_that_overflow_is_a_domain_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"^a cross ratio cannot be evaluated at points "
                                              r"3e\+200, 2e\+200, ") as info:
            cross_ratio(np.float64(3e200), 2e200, -2e200, -3e200)
    assert isinstance(info.value.__cause__, FloatingPointError)


def test_cross_ratio_of_a_python_complex_that_overflows_is_a_domain_error():
    with pytest.raises(DomainError, match=r"^a cross ratio cannot be evaluated at") as info:
        cross_ratio(complex(1.7e308, 1.7e308), 0j, 1j, 2j)
    assert isinstance(info.value.__cause__, OverflowError)


def test_cross_ratio_of_a_nan_point_names_its_stack_index():
    with pytest.raises(DomainError, match=r"^the cross ratio nan is not finite$"):
        cross_ratio(float("nan"), 1.0, 2.0, 3.0)
    with pytest.raises(DomainError, match=r"not finite at stack index 2$"):
        cross_ratio(np.array([0.0, 0.5, math.nan]), 1.0, 2.0, 3.0)


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


# ---------------------------------------------------------------------------
# the stacked-copy kernels the pairwise ones replaced, kept verbatim as references
# ---------------------------------------------------------------------------

_PAIR_I, _PAIR_J = np.triu_indices(4, 1)


def _reference_lie_curvature(l1, l2, l3, l4, ordering=STANDARD_13_24):
    vu = np.stack(np.broadcast_arrays(l1.v, l2.v, l3.v, l4.v, l1.u, l2.u, l3.u, l4.u), axis=-1)
    v, u = vu[..., :4], vu[..., 4:]
    # diff[..., k] = l_i - l_j over a common projective denominator, for the k-th pair
    diff = v[..., _PAIR_I] * u[..., _PAIR_J] - v[..., _PAIR_J] * u[..., _PAIR_I]
    norm = np.hypot(v, u)
    coincide = np.abs(diff) / (norm[..., _PAIR_I] * norm[..., _PAIR_J]) <= PROJECTIVE_TOL
    pair = np.argmax(coincide, axis=-1)
    raise_where(coincide.any(axis=-1), DegenerateConfiguration, "curvatures {} and {} coincide",
                _PAIR_I[pair] + 1, _PAIR_J[pair] + 1)
    d12, d13, d14, d23, d24, d34 = (diff[..., k] for k in range(6))
    if ordering == STANDARD_13_24:
        num, den = d13 * d24, d14 * d23
    else:
        num, den = d12 * d34, d14 * -d23
    return LieCurvatureValue((num / den)[()], ordering)


def _reference_cross_ratio(w1, w2, w3, w4):
    scale = functools.reduce(np.maximum, (abs(w1), abs(w2), abs(w3), abs(w4), 1.0))
    raise_where((abs(w1 - w4) <= 1e-12 * scale) | (abs(w2 - w3) <= 1e-12 * scale),
                DegenerateConfiguration, "cross ratio denominator vanishes")
    return (w1 - w3) * (w2 - w4) / ((w1 - w4) * (w2 - w3))


def _same_bits(new, old):
    assert type(new) is type(old) and np.shape(new) == np.shape(old)
    assert np.array_equal(new, old, equal_nan=True)


def _raised(function, *args, **kwargs):
    with pytest.raises(DegenerateConfiguration) as info:
        function(*args, **kwargs)
    return str(info.value)


@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("seed", range(4))
def test_lie_curvature_equals_stacked_reference_with_infinite_curvatures(seed, ordering):
    rng = np.random.default_rng(seed)
    v, u = rng.normal(size=(2, 4, 6, 9))
    # one curvature of about a third of the members is infinite: u = 0
    infinite = (np.arange(4)[:, None, None] == rng.integers(0, 4, (6, 9))) & (
        rng.uniform(size=(6, 9)) < 0.35)
    u[infinite] = 0.0
    stack = [ProjectiveCurvature(v[k], u[k]) for k in range(4)]
    new = lie_curvature(*stack, ordering=ordering)
    assert new.ordering == ordering and np.isfinite(new.value).all()
    _same_bits(new.value, _reference_lie_curvature(*stack, ordering=ordering).value)


@pytest.mark.parametrize("ordering", ORDERINGS)
def test_lie_curvature_equals_stacked_reference_when_broadcasting(ordering):
    rng = np.random.default_rng(11)
    mixed = [ProjectiveCurvature(1.0, 0.0),
             ProjectiveCurvature(rng.normal(size=(3, 1)), 1.0),
             ProjectiveCurvature.from_angle(rng.uniform(0.1, 3.0, 5).astype(np.float32)),
             ProjectiveCurvature(np.float32(-2.3), np.float32(0.7))]
    # the stacked copy computed every operand in float64, float32 pairs included
    new = lie_curvature(*mixed, ordering=ordering).value
    assert new.shape == (3, 5)
    _same_bits(new, _reference_lie_curvature(*mixed, ordering=ordering).value)
    floats = [ProjectiveCurvature(1.0, 0.0), ProjectiveCurvature(0.5, 1.0),
              ProjectiveCurvature(-3.0, 2.0), ProjectiveCurvature(4.0, -1.5)]
    new = lie_curvature(*floats, ordering=ordering).value
    assert isinstance(new, np.float64)
    _same_bits(new, _reference_lie_curvature(*floats, ordering=ordering).value)
    quad = (ROOT2 + 1, ROOT2 - 1, 1 - ROOT2, -1 - ROOT2)
    _same_bits(lie_curvature_of_values(quad, ordering).value,
               _reference_lie_curvature(*map(ProjectiveCurvature.from_value, quad),
                                        ordering=ordering).value)


def test_lie_curvature_coincidence_text_and_index_equal_the_reference():
    rng = np.random.default_rng(3)
    v, u = rng.normal(size=(2, 4, 5, 8))
    # the first coincident member in C order is (2, 6); it holds pairs 13 and 24 (13 first)
    for index, i, j in (((2, 6), 2, 4), ((2, 6), 1, 3), ((4, 1), 1, 2)):
        v[j - 1][index], u[j - 1][index] = -2.0 * v[i - 1][index], -2.0 * u[i - 1][index]
    u[1, 3, 3] = u[3, 3, 3] = 0.0  # two infinite curvatures coincide too
    stack = [ProjectiveCurvature(v[k], u[k]) for k in range(4)]
    text = _raised(lie_curvature, *stack)
    assert text == "curvatures 1 and 3 coincide at stack index (2, 6)"
    assert text == _raised(_reference_lie_curvature, *stack)
    scalars = [ProjectiveCurvature(1.0, 0.0), ProjectiveCurvature(0.5, 1.0),
               ProjectiveCurvature(-2.0, 0.0), ProjectiveCurvature(0.5, 1.0)]
    assert _raised(lie_curvature, *scalars, ordering=PAPER6_12_34) == (
        "curvatures 1 and 3 coincide") == _raised(_reference_lie_curvature, *scalars)


def test_cross_ratio_equals_reference_and_names_the_same_degenerate_member():
    rng = np.random.default_rng(7)
    w = np.exp(1j * rng.uniform(0.0, 2 * math.pi, (4, 30)))
    _same_bits(cross_ratio(*w), _reference_cross_ratio(*w))
    _same_bits(cross_ratio(1, 1j, -1, -1j), _reference_cross_ratio(1, 1j, -1, -1j))
    w[2, 17] = w[1, 17]
    w[3, 21] = w[0, 21]
    assert _raised(cross_ratio, *w) == "cross ratio denominator vanishes at stack index 17"
    assert _raised(cross_ratio, *w) == _raised(_reference_cross_ratio, *w)
    assert _raised(cross_ratio, 1.0, 2.0, 2.0, 1.0) == _raised(_reference_cross_ratio,
                                                               1.0, 2.0, 2.0, 1.0)
