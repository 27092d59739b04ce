import math

import numpy as np
import pytest

from liesphere import isoparam
from liesphere.errors import DomainError
from liesphere.isoparam import (FamilyInvariants, IsoparametricFamily,
                                mean_curvature, minimal_theta,
                                multiplicity_vector, principal_curvatures,
                                scalar_curvature, theta_from_mean_curvature)
from liesphere.quadric import ProjectiveCurvature, moebius_curvature
from liesphere.report import _FAMILY_COMBOS

ROOT2 = math.sqrt(2.0)
ROOT3 = math.sqrt(3.0)

FAMILY_COMBOS = ((1, 1, 1), (2, 1, 2), (2, 2, 2), (3, 1, 1), (3, 2, 2), (3, 4, 4),
                 (3, 8, 8), (4, 1, 1), (4, 2, 2), (4, 1, 4), (4, 4, 5), (6, 1, 1),
                 (6, 2, 2))


def grid(g, count=200, span=0.92):
    bound = math.pi / (2 * g)
    return np.linspace(-span * bound, span * bound, count)


def test_minimal_octagon_curvatures():
    pcs = principal_curvatures(IsoparametricFamily(4, 1, 1, 0.0))
    expected = [ROOT2 + 1, ROOT2 - 1, -(ROOT2 - 1), -(ROOT2 + 1)]
    assert np.abs(pcs - expected).max() <= 1e-12


def test_minimal_dodecagon_curvatures():
    pcs = principal_curvatures(IsoparametricFamily(6, 1, 1, 0.0))
    expected = [2 + ROOT3, 1.0, 2 - ROOT3, -(2 - ROOT3), -1.0, -(2 + ROOT3)]
    assert np.abs(pcs - expected).max() <= 1e-12


def test_g1_curvature():
    # lambda_1(theta) = cot(pi/2 + theta): the equator at theta = 0 is flat and minimal,
    # and theta = -pi/4 gives the unit-curvature small sphere cot(pi/4) = 1
    pcs = principal_curvatures(IsoparametricFamily(1, 1, 1, 0.0))
    assert pcs.shape == (1,)
    assert abs(pcs[0]) <= 1e-12
    assert abs(mean_curvature(IsoparametricFamily(1, 1, 1, 0.0))) <= 1e-12
    shifted = principal_curvatures(IsoparametricFamily(1, 1, 1, -math.pi / 4))
    assert abs(shifted[0] - 1.0) <= 1e-12


def test_common_multiplicity_enforced():
    with pytest.raises(DomainError):
        IsoparametricFamily(3, 1, 2, 0.0)
    with pytest.raises(DomainError):
        IsoparametricFamily(6, 1, 2, 0.0)


@pytest.mark.parametrize("g, m1, m2", ((3, 0, 0), (3, 1, 2), (6, 2, 1), (1, 1, 3), (4, 0, 3),
                                      (4, 2, 0), (2, -1, 1), (5, 1, 1)))
def test_multiplicity_vector_rejects_what_the_family_rejects(g, m1, m2):
    with pytest.raises(DomainError):
        multiplicity_vector(g, m1, m2)
    with pytest.raises(DomainError):
        IsoparametricFamily(g, m1, m2, 0.0)
    with pytest.raises(DomainError):
        theta_from_mean_curvature(g, m1, m2, 0.0)


def test_multiplicity_vector_admissible_values():
    assert (multiplicity_vector(4, 1, 3) == [1, 3, 1, 3]).all()
    assert (multiplicity_vector(2, 2, 5) == [2, 5]).all()
    assert (multiplicity_vector(6, 2, 2) == [2] * 6).all()
    assert (multiplicity_vector(3, 4, 4) == [4] * 3).all()


def test_mean_curvature_vanishes_at_symmetric_minimum():
    assert abs(mean_curvature(IsoparametricFamily(4, 1, 1, 0.0))) <= 1e-12
    assert abs(mean_curvature(IsoparametricFamily(3, 1, 1, 0.0))) <= 1e-12
    fam2 = IsoparametricFamily(2, 1, 1, 0.0)
    assert abs(mean_curvature(fam2)) <= 1e-12
    assert abs(principal_curvatures(fam2).sum()) <= 1e-12


def test_mean_curvature_formula_matches_direct_sum_on_grids():
    for g, m1, m2 in FAMILY_COMBOS:
        for theta in grid(g):
            fam = IsoparametricFamily(g, m1, m2, float(theta))
            direct = float(fam.multiplicities @ principal_curvatures(fam))
            h = mean_curvature(fam)
            assert abs(h - direct) <= 1e-9 * max(1.0, abs(h))


def test_mean_curvature_strictly_decreasing():
    # the paper only states monotonicity; the decreasing direction follows from
    # cot being decreasing on every branch of the open theta interval
    for g, m1, m2 in FAMILY_COMBOS:
        values = [mean_curvature(IsoparametricFamily(g, m1, m2, float(t)))
                  for t in grid(g, 60)]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_minimal_theta_symmetric_cases():
    assert abs(minimal_theta(4, 2, 2)) <= 1e-15
    assert abs(minimal_theta(6, 1, 1)) <= 1e-15


def test_minimal_theta_unequal_multiplicities():
    theta = minimal_theta(4, 1, 4)
    assert abs(mean_curvature(IsoparametricFamily(4, 1, 4, theta))) <= 1e-10


def test_theta_from_mean_curvature_minimal():
    assert abs(theta_from_mean_curvature(4, 1, 1, 0.0)) <= 1e-10


def test_theta_roundtrip_spot():
    h = mean_curvature(IsoparametricFamily(6, 1, 1, 0.07))
    assert abs(theta_from_mean_curvature(6, 1, 1, h) - 0.07) <= 1e-10


def test_theta_from_large_mean_curvature():
    theta = theta_from_mean_curvature(3, 2, 2, 10.0)
    assert abs(mean_curvature(IsoparametricFamily(3, 2, 2, theta)) - 10.0) <= 1e-9


def test_theta_roundtrip_on_grids():
    for g, m1, m2 in FAMILY_COMBOS:
        for theta in grid(g, 40):
            h = mean_curvature(IsoparametricFamily(g, m1, m2, float(theta)))
            assert abs(theta_from_mean_curvature(g, m1, m2, h) - theta) <= 1e-10


def _bisection_theta(g, m1, m2, h):
    """theta from H by bisection on the closed form of H, as before the closed-form root."""
    bound = math.pi / (2 * g)
    lo, hi = -bound + 1e-13, bound - 1e-13

    def f(theta):
        return isoparam._mean_curvature_raw(g, m1, m2, bound + theta) - h

    if not f(lo) > 0 > f(hi):
        raise ArithmeticError("mean curvature does not diverge with opposite signs at endpoints")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_closed_form_theta_matches_bisection_reference():
    worst = 0.0
    for g, m1, m2 in _FAMILY_COMBOS:
        bound = math.pi / (2 * g)
        thetas = np.linspace(-0.9 * bound, 0.9 * bound, 45)
        h = mean_curvature(IsoparametricFamily(g, m1, m2, thetas))
        closed = theta_from_mean_curvature(g, m1, m2, h)
        worst = max(worst, max(abs(c - _bisection_theta(g, m1, m2, v)) for c, v in zip(closed, h)))
    assert worst <= 1e-12


@pytest.mark.parametrize("h", (1e200, -1e200, 1e300, -1e300, np.finfo(float).max,
                               -np.finfo(float).max))
def test_theta_from_huge_mean_curvature_stays_inside(h):
    for g, m1, m2 in FAMILY_COMBOS:
        theta = theta_from_mean_curvature(g, m1, m2, h)
        assert abs(theta) < math.pi / (2 * g)
        assert np.sign(mean_curvature(IsoparametricFamily(g, m1, m2, theta))) == np.sign(h)


@pytest.mark.parametrize("h", (math.nan, math.inf, -math.inf))
def test_theta_from_non_finite_mean_curvature_raises(h):
    with pytest.raises(ArithmeticError):
        theta_from_mean_curvature(4, 1, 1, h)
    with pytest.raises(ArithmeticError, match="at stack index 1"):
        theta_from_mean_curvature(4, 1, 1, np.array([0.0, h]))


def test_theta_from_mean_curvature_array_equals_scalar_calls():
    h = np.concatenate([np.linspace(-50.0, 50.0, 101), [-1e300, -1e200, 1e200, 1e300]])
    for g, m1, m2 in FAMILY_COMBOS:
        thetas = theta_from_mean_curvature(g, m1, m2, h)
        assert thetas.shape == h.shape
        assert thetas.tolist() == [theta_from_mean_curvature(g, m1, m2, v) for v in h]


def test_stacked_family_equals_member_calls():
    for g, m1, m2 in FAMILY_COMBOS:
        thetas = grid(g, 30)
        fam = IsoparametricFamily(g, m1, m2, thetas)
        members = [IsoparametricFamily(g, m1, m2, float(t)) for t in thetas]
        assert np.array_equal(principal_curvatures(fam),
                              [principal_curvatures(m) for m in members])
        assert np.array_equal(mean_curvature(fam), [mean_curvature(m) for m in members])
        inv = scalar_curvature(fam)
        assert inv.scalar_curvature.shape == thetas.shape


@pytest.mark.parametrize("g, m1, m2", ((3, 1, 1), (3, 2, 2), (4, 1, 1), (4, 2, 2), (4, 1, 2),
                                       (6, 1, 1), (6, 2, 2)))
def test_multiplicity_sum_equals_gemv(g, m1, m2):
    # The search formed its cmc and csc rows as lam @ mult and (lam * lam) @ mult on stacks
    # (S, 2g, g), which numpy hands to BLAS gemv, and benchmarks/refs.json holds the survivors
    # of that order as x86-64 OpenBLAS runs it. This pins that host gemv order: if it fails,
    # the host's gemv adds in another order and refs.json was made under a different one.
    rng = np.random.default_rng((g, m1, m2))
    mult = multiplicity_vector(g, m1, m2)
    for count in (1, 2, 3, 7, 64, 257, 1000, 5000):
        lam = 1.0 / np.tan(rng.uniform(0.01, math.pi - 0.01, (count, 2 * g, g)))
        for values in (lam, lam * lam):
            assert np.array_equal(isoparam.multiplicity_sum(np.moveaxis(values * mult, -1, 0)),
                                  values @ mult)


@pytest.mark.parametrize("g, m1, m2", [(g, m1, m2) for g in (1, 2, 3, 4, 6)
                                        for m1, m2 in ((1, 1), (1, 2), (2, 2), (4, 5))
                                        if g in (2, 4) or m1 == m2])  # else m1 = m2 is forced
def test_second_moment_has_one_summation_order(g, m1, m2):
    thetas = grid(g, 2001, 0.99)
    stacked = scalar_curvature(IsoparametricFamily(g, m1, m2, thetas))
    members = [scalar_curvature(IsoparametricFamily(g, m1, m2, float(t))) for t in thetas]
    for name in ("second_moment", "scalar_curvature"):
        assert np.array_equal(getattr(stacked, name), [getattr(m, name) for m in members])
    # and it is sum m_i lambda_i^2 to rounding: two orders of g positive terms differ by
    # at most 2 (g - 1) rounding errors of the sum
    lam = principal_curvatures(IsoparametricFamily(g, m1, m2, thetas))
    direct = (lam * lam) @ multiplicity_vector(g, m1, m2)
    assert np.allclose(stacked.second_moment, direct, rtol=2 * g * np.finfo(float).eps, atol=0.0)


def test_stacked_family_names_its_bad_theta():
    bound = math.pi / 8
    with pytest.raises(DomainError, match="at stack index 2"):
        IsoparametricFamily(4, 1, 1, np.array([0.0, 0.1, bound, math.nan]))


def test_scalar_flat_families():
    for theta in (-0.2, 0.0, 0.17):
        assert abs(scalar_curvature(IsoparametricFamily(6, 1, 1, theta * 0.2)
                                    ).scalar_curvature) <= 1e-9
        assert abs(scalar_curvature(IsoparametricFamily(3, 1, 1, theta)
                                    ).scalar_curvature) <= 1e-9


def test_scalar_minimal_g4_22():
    theta = minimal_theta(4, 2, 2)
    inv = scalar_curvature(IsoparametricFamily(4, 2, 2, theta))
    assert abs(inv.scalar_curvature - 32.0) <= 1e-9  # 4(m1+m2)(m1+m2-2)


def test_scalar_minimal_matches_closed_form():
    for m1, m2 in ((1, 1), (2, 2), (4, 5), (1, 4)):
        theta = minimal_theta(4, m1, m2)
        inv = scalar_curvature(IsoparametricFamily(4, m1, m2, theta))
        assert abs(inv.scalar_curvature - 4 * (m1 + m2) * (m1 + m2 - 2)) <= 1e-8


def test_scalar_specialized_general_agreement_on_grids():
    for g, m1, m2 in FAMILY_COMBOS:
        for theta in grid(g, 60):
            inv = scalar_curvature(IsoparametricFamily(g, m1, m2, float(theta)))
            r = inv.scalar_curvature
            assert abs(inv.closed_form - r) <= 1e-8 * max(1, abs(r))


@pytest.mark.parametrize("g, m1, m2", _FAMILY_COMBOS + ((4, 2, 3),))
def test_closed_forms_match_40_digit_direct_sums(g, m1, m2):
    # H = sum m_i lambda_i and R = (n-1)(n-2) + H^2 - sum m_i lambda_i^2 at the float theta_1
    # that the package evaluates, against the closed forms in t = cot(g theta_1 / 2)
    mpmath = pytest.importorskip("mpmath")
    bound = math.pi / (2 * g)
    fam = IsoparametricFamily(g, m1, m2, np.linspace(-0.9 * bound, 0.9 * bound, 45))
    inv = scalar_curvature(fam)
    mult, n = [int(m) for m in fam.multiplicities], fam.ambient_dim
    with mpmath.workdps(40):
        for theta1, h_closed, r_closed in zip(fam.theta1, inv.mean_curvature, inv.closed_form):
            lam = [mpmath.cot(mpmath.mpf(theta1) + i * mpmath.pi / g) for i in range(g)]
            h = sum(m * x for m, x in zip(mult, lam))
            r = (n - 1) * (n - 2) + h * h - sum(m * x * x for m, x in zip(mult, lam))
            # relative where |value| > 1; R is 0 exactly for m1 = m2 = 1
            assert abs(h_closed - h) <= 1e-14 * max(1, abs(h)), (theta1, h_closed, h)
            assert abs(r_closed - r) <= 1e-14 * max(1, abs(r)), (theta1, r_closed, r)


def test_family_invariants_consistency_check():
    with pytest.raises(ValueError):
        FamilyInvariants(5, 0.0, 12.0, 5.0, 5.0)


def test_principal_curvature_bounds():
    for g, m1, m2 in FAMILY_COMBOS:
        floor = 1.0 / math.tan(math.pi / g) if g > 1 else -math.inf
        for theta in grid(g, 30):
            pcs = principal_curvatures(IsoparametricFamily(g, m1, m2, float(theta)))
            assert np.all(np.diff(pcs) < 0)
            assert pcs[0] > floor - 1e-12


def test_parallel_family_consistency():
    # curvatures of M_(theta+delta) are the parallel-map images of those of M_theta
    for g in (3, 4, 6):
        theta, delta = 0.05, 0.11
        bound = math.pi / (2 * g)
        pcs0 = principal_curvatures(IsoparametricFamily(g, 1, 1, theta * bound))
        pcs1 = principal_curvatures(IsoparametricFamily(g, 1, 1, theta * bound + delta * bound))
        shift = delta * bound
        a, b = math.cos(shift), math.sin(shift)
        moved = [moebius_curvature(a, b, -b, a, ProjectiveCurvature.from_value(v)).value
                 for v in pcs0]
        assert np.abs(np.array(moved) - pcs1).max() <= 1e-10
