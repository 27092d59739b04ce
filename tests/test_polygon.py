import cmath
import math

import numpy as np
import pytest

from liesphere.errors import DomainError
from liesphere.polygon import (AngleGaps, CircleMobius, GeodesicPolygon, angle_table,
                               build_parallel_polygon, conformal_normalize,
                               constraint_search, g4_grid_oracle, g4_residual,
                               g6_branches, g6_grid_oracle, is_parallel,
                               isometry_reduction, link_check, link_partner,
                               polygon_from_positions, polygon_lie_curvature,
                               psi_values, solve_g4_normalized, solve_g6_normalized)
from liesphere.quadric import ProjectiveCurvature, lie_curvature

ROOT2 = math.sqrt(2.0)
ROOT3 = math.sqrt(3.0)
PI = math.pi


def random_gaps(rng, g):
    odd = rng.uniform(0.25, 1.0, g)
    even = rng.uniform(0.25, 1.0, g)
    return AngleGaps(g, tuple(odd / odd.sum() * PI), tuple(even / even.sum() * PI))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_regular_octagon_spacing():
    poly = build_parallel_polygon(4, 0.0)
    gaps = np.diff(poly.vertex_angles)
    assert np.abs(gaps - PI / 4).max() <= 1e-12


def test_octagon_alternating_gaps():
    poly = build_parallel_polygon(4, PI / 16)
    gaps = np.diff(np.append(poly.vertex_angles,
                             poly.vertex_angles[0] + 2 * PI))
    assert np.abs(gaps[0::2] - 3 * PI / 8).max() <= 1e-12
    assert np.abs(gaps[1::2] - PI / 8).max() <= 1e-12
    assert abs(gaps.sum() - 2 * PI) <= 1e-12


def test_regular_dodecagon_spacing():
    poly = build_parallel_polygon(6, 0.0)
    gaps = np.diff(poly.vertex_angles)
    assert np.abs(gaps - PI / 6).max() <= 1e-12


def test_theta_out_of_range():
    with pytest.raises(DomainError):
        build_parallel_polygon(4, PI / 4)


def test_angle_table_row_p5_shift():
    # Table row p^5 carries the odd gaps rotated to (gamma, delta, alpha, beta)
    gaps = AngleGaps(4, (0.7, 0.9, 0.75, PI - 2.35), (0.8, 0.7, 0.85, PI - 2.35))
    poly = angle_table(4, gaps, 0.3)
    row = poly.radius_table[4]
    diffs = np.diff(row)
    alpha, beta, gamma, delta = gaps.odd
    assert np.abs(diffs - [gamma, delta, alpha]).max() <= 1e-12


def test_angle_table_parallel_octagon():
    poly = angle_table(4, AngleGaps.regular(4), PI / 8)
    assert is_parallel(poly)
    assert np.abs(poly.radius_table - poly.radius_table[0]).max() <= 1e-15


def test_positions_match_radius_table():
    rng = np.random.default_rng(3)
    for g in (3, 4, 6):
        for _ in range(20):
            gaps = random_gaps(rng, g)
            theta1 = rng.uniform(0.05, 0.9 * min(gaps.odd[-1], gaps.even[-1]))
            try:
                poly = angle_table(g, gaps, theta1)
            except DomainError:
                continue
            rebuilt = polygon_from_positions(g, poly.vertex_angles)
            # tables agree modulo pi (cot-equality), here entries stay in range
            assert np.abs(rebuilt.radius_table - poly.radius_table).max() <= 1e-9


def test_table_shift_involutive():
    # continuing the base-radius recurrence through a full cycle returns the
    # starting radius, and rotating a row's gaps back reproduces row p^1
    rng = np.random.default_rng(9)
    for g in (3, 4, 6):
        poly = None
        while poly is None:
            gaps = random_gaps(rng, g)
            theta1 = 0.8 * min(gaps.odd[-1], gaps.even[-1])
            try:
                poly = angle_table(g, gaps, theta1)
            except DomainError:
                continue
        base = [poly.radius_table[2 * k, 0] for k in range(g)]
        closing = base[g - 1] + gaps.odd[g - 1] - gaps.even[0]
        assert abs(closing - base[0]) <= 1e-12
        for k in range(1, g):
            row = poly.radius_table[2 * k]
            diffs = tuple(np.diff(row))
            rotated = gaps.odd[k:] + gaps.odd[:k]
            assert np.abs(np.array(diffs) - rotated[:-1]).max() <= 1e-12


def test_link_partner_matches_leaf_relations():
    # the g=4 pairings of each curvature sphere
    expected_mu = {1: 4, 2: 7, 3: 6, 5: 8}
    for t, s in expected_mu.items():
        assert link_partner(4, t, 2) == s
        assert link_partner(4, s, 2) == t
    assert link_partner(4, 1, 4) == 8   # tau^1 = tau^8
    assert link_partner(3, 1, 3) == 6   # nu^1 = nu^6 on the hexagon


def test_link_partner_broadcasts_over_vertices_and_spheres():
    for g in (3, 4, 6):
        t = np.arange(1, 2 * g + 1)
        i = np.arange(1, g + 1)
        scalar = [[link_partner(g, int(tt), int(ii)) for ii in i] for tt in t]
        assert (link_partner(g, t[:, None], i) == np.array(scalar)).all()


def _reference_angle_table(g, gaps, theta1, theta2):
    """The per-row base-radius recurrence and vertex-position loops, kept as the reference."""
    odd, even = np.array(gaps.odd), np.array(gaps.even)
    base_odd = np.empty(g)
    base_odd[0] = theta1
    for k in range(1, g):
        base_odd[k] = base_odd[k - 1] + odd[k - 1] - even[(g - k) % g]
    rows = np.empty((2 * g, g))
    for k in range(g):
        o_gaps = odd[[(k + j) % g for j in range(g)]]
        e_gaps = even[[(j - k) % g for j in range(g)]]
        rows[2 * k, 0] = base_odd[k]
        rows[2 * k, 1:] = base_odd[k] + np.cumsum(o_gaps[:-1])
        e_base = theta2 if k == 0 else base_odd[k]
        rows[2 * k + 1, 0] = e_base
        rows[2 * k + 1, 1:] = e_base + np.cumsum(e_gaps[:-1])
    phi1 = PI / 2 - theta1
    phis = np.empty(2 * g)
    phis[0] = phi1
    for i in range(1, g + 1):
        phis[2 * i - 1] = phi1 + 2 * rows[0, i - 1]
    for i in range(2, g + 1):
        phis[2 * g + 2 - 2 * i] = phis[1] - 2 * rows[1, i - 1]
    rel = (phis - phis[0]) % (2 * PI)
    rel[0] = 0.0
    return phis[0] + rel, rows


def test_angle_table_equals_reference_loops_exactly():
    # the search's survivors and the suite references rely on bit-equal tables
    rng = np.random.default_rng(11)
    checked = 0
    for g in (3, 4, 6):
        for _ in range(30):
            gaps = random_gaps(rng, g)
            theta1 = rng.uniform(0.05, 0.9 * min(gaps.odd[-1], gaps.even[-1]))
            for theta2 in (theta1, theta1 + rng.uniform(1e-3, 1e-2)):
                try:
                    poly = angle_table(g, gaps, theta1, theta2)
                except DomainError:
                    continue
                phis, rows = _reference_angle_table(g, gaps, theta1, theta2)
                assert (poly.radius_table == rows).all()
                assert (poly.vertex_angles == phis).all()
                if theta2 != theta1:
                    checked += 1
    assert checked >= 30


# ---------------------------------------------------------------------------
# link relations and parallel verdicts
# ---------------------------------------------------------------------------

def test_link_check_parallel_polygon():
    report = link_check(build_parallel_polygon(4, 0.07))
    assert report.ok
    assert report.max_residual <= 1e-12


def test_link_check_hexagon_has_nine_pairings():
    report = link_check(build_parallel_polygon(3, 0.1))
    assert report.ok
    assert len(report.residuals) == 9


def test_link_check_holds_for_any_table_built_polygon():
    rng = np.random.default_rng(11)
    for g in (3, 4, 6):
        for _ in range(15):
            gaps = random_gaps(rng, g)
            theta1 = rng.uniform(0.05, 0.9 * min(gaps.odd[-1], gaps.even[-1]))
            try:
                poly = angle_table(g, gaps, theta1)
            except DomainError:
                continue
            assert link_check(poly).ok


def test_link_check_detects_perturbed_radius():
    poly = build_parallel_polygon(4, 0.0)
    table = poly.radius_table.copy()
    table[0, 1] += 0.01     # alpha -> alpha + 0.01 in row p^1 only
    bad = GeodesicPolygon(4, poly.vertex_angles, table)
    report = link_check(bad)
    assert not report.ok
    assert 0.005 < report.max_residual < 0.05


def test_link_check_detects_mismatched_base_radii():
    poly = angle_table(4, AngleGaps.regular(4), 0.35, 0.349)
    report = link_check(poly)
    assert not report.ok


def test_is_parallel_verdicts():
    assert is_parallel(build_parallel_polygon(6, 0.05))
    assert is_parallel(build_parallel_polygon(6, 0.0))
    skew = angle_table(4, AngleGaps(4, (0.8, 0.76, 0.78, PI - 2.34),
                                    (0.79, 0.77, 0.8, PI - 2.36)), 0.3)
    assert not is_parallel(skew)


# ---------------------------------------------------------------------------
# polygon Lie curvatures
# ---------------------------------------------------------------------------

def test_octagon_lie_curvatures():
    poly = build_parallel_polygon(4, 0.0)
    assert abs(polygon_lie_curvature(poly, 1, "phi_standard").value - 2.0) <= 1e-12
    assert abs(polygon_lie_curvature(poly, 1, "phi_paper6").value + 1.0) <= 1e-12


def test_dodecagon_psi_nu():
    poly = build_parallel_polygon(6, 0.0)
    for vertex in range(1, 13):
        assert abs(polygon_lie_curvature(poly, vertex, "psi_nu").value + 1.0) <= 1e-10


def test_family_phi_constants_over_theta():
    for theta in np.linspace(-0.9, 0.9, 21) * (PI / 8):
        poly = build_parallel_polygon(4, float(theta))
        for vertex in range(1, 9):
            assert abs(polygon_lie_curvature(poly, vertex, "phi_paper6").value + 1.0) <= 1e-10
    for theta in np.linspace(-0.9, 0.9, 21) * (PI / 12):
        poly = build_parallel_polygon(6, float(theta))
        assert abs(polygon_lie_curvature(poly, 1, "psi_nu").value + 1.0) <= 1e-10
        assert abs(polygon_lie_curvature(poly, 1, "phi_4").value + 1.0 / 3.0) <= 1e-10
        assert abs(polygon_lie_curvature(poly, 1, "phi_6").value - 1.0 / 3.0) <= 1e-10


def test_polygon_curvature_matches_projective_cross_ratio():
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 200:
        gaps = random_gaps(rng, 4)
        theta1 = rng.uniform(0.05, 0.9 * min(gaps.odd[-1], gaps.even[-1]))
        try:
            poly = angle_table(4, gaps, theta1)
        except DomainError:
            continue
        vertex = int(rng.integers(1, 9))
        value = polygon_lie_curvature(poly, vertex, "phi_standard").value
        direct = lie_curvature(*(ProjectiveCurvature.from_angle(t)
                                 for t in poly.radius_table[vertex - 1])).value
        assert abs(value - direct) <= 1e-12
        checked += 1


# ---------------------------------------------------------------------------
# angle systems
# ---------------------------------------------------------------------------

def test_g4_residual_regular():
    assert abs(g4_residual(AngleGaps.regular(4))) <= 1e-15


def test_g4_residual_family_gaps():
    for theta in np.linspace(-0.9, 0.9, 11) * (PI / 8):
        poly = build_parallel_polygon(4, float(theta))
        diffs = np.diff(poly.radius_table[0])
        gaps = AngleGaps.from_free(4, tuple(diffs), tuple(diffs))
        assert abs(g4_residual(gaps)) <= 1e-10


def test_g4_residual_unbalanced():
    gaps = AngleGaps(4, (PI / 3, PI / 6, PI / 4, PI / 4), (PI / 4,) * 4)
    assert abs(g4_residual(gaps)) > 0.1


def test_solve_g4_normalized():
    gaps = solve_g4_normalized()
    assert max(abs(x - PI / 4) for x in gaps.odd + gaps.even) <= 1e-10
    assert abs(g4_residual(gaps)) <= 1e-12


def test_g4_oracle():
    oracle = g4_grid_oracle(721)
    assert oracle.unique_cell
    assert max(abs(v - PI / 4) for v in oracle.grid_minimum) <= oracle.cell_size
    assert max(abs(v - PI / 4) for v in oracle.polished) <= 1e-6


def test_solve_g6_normalized():
    gaps = solve_g6_normalized()
    assert max(abs(x - PI / 6) for x in gaps.odd + gaps.even) <= 1e-10
    values, _ = psi_values(gaps)
    assert max(abs(v + 1.0) for v in values) <= 1e-10


def test_g6_branch_analysis():
    branches = g6_branches()
    accepted = [b for b in branches if b.accepted]
    rejected_x = sorted(b.x for b in branches if not b.accepted and b.x is not None)
    assert [b.x for b in accepted] == [0.5]
    assert rejected_x == [-1.0, 0.0, 1.0, 2.0]
    # x = y = 1/2 satisfies both components of the real system
    x = 0.5
    assert 5 * (x + x) - 4 * (x * x + 1) == 0.0


def test_g6_common_factor_branch_killed_by_closure():
    # points on 5(x+y) = 4(xy+1) with x != y satisfy every Psi condition but
    # violate the antipodal closure beta + gamma + delta = pi/2
    x = 0.9
    y = (5 * x - 4) / (4 * x - 5)   # solve 5(x+y) = 4(xy+1) for y
    assert abs(5 * (x + y) - 4 * (x * y + 1)) <= 1e-12
    alpha = math.acos(x) / 2
    gamma = math.acos(y) / 2
    beta = PI / 2 - alpha - gamma
    assert beta > 0
    gaps = AngleGaps(6, (alpha, beta, gamma, gamma, beta, alpha), (PI / 6,) * 6)
    values, _ = psi_values(gaps)
    assert max(abs(v + 1.0) for v in values) <= 1e-10
    closure = abs(beta + 2 * gamma - PI / 2)
    assert closure > 1e-3


def test_g6_key_identity_value():
    w = cmath.exp(1j * PI / 3)
    lhs = 2 * (w * w + 1)
    rhs = w + w
    assert abs(lhs - (1 + 1j * ROOT3)) <= 1e-12
    assert abs(rhs - (1 + 1j * ROOT3)) <= 1e-12


def test_g6_oracle():
    oracle = g6_grid_oracle(721)
    assert oracle.unique_cell
    assert max(abs(v - PI / 6) for v in oracle.grid_minimum) <= oracle.cell_size
    assert max(abs(v - PI / 6) for v in oracle.polished) <= 1e-6


def test_psi_values_on_random_normalized_gaps():
    rng = np.random.default_rng(5)
    produced = 0
    while produced < 40:
        a, c = rng.uniform(0.15, 0.6, 2)
        b = PI / 2 - a - c
        d, z = rng.uniform(0.15, 0.6, 2)
        e = PI / 2 - d - z
        if min(b, e) < 0.05:
            continue
        gaps = AngleGaps(6, (a, b, c, d, z, e), (PI / 6,) * 6)
        _, route_gap = psi_values(gaps)   # closed forms against the point cross ratios
        assert route_gap <= 1e-10
        produced += 1


def test_psi_sensitivity_to_gap_swap():
    base = solve_g6_normalized()
    a, b = 0.4, PI / 2 - 0.4 - PI / 6
    swapped = AngleGaps(6, (a, b, PI / 6, PI / 6, b, a), base.even)
    values, _ = psi_values(swapped)
    assert abs(values[0] + 1.0) > 1e-3


# ---------------------------------------------------------------------------
# conformal machinery
# ---------------------------------------------------------------------------

def test_conformal_normalize_identity_on_normalized():
    poly = build_parallel_polygon(4, 0.1)
    mapped, out = conformal_normalize(poly)
    assert abs(mapped.x) <= 1e-10 and abs(mapped.y) <= 1e-10
    assert np.abs(out.vertex_angles - poly.vertex_angles).max() <= 1e-10


def test_conformal_normalize_recovers_perturbed_dodecagon():
    base = build_parallel_polygon(6, 0.05)
    perturb = CircleMobius.from_parameters(0.4, 0.25 + 0.1j)
    phis = np.array([perturb.apply_angle(p) for p in base.vertex_angles])
    moved = polygon_from_positions(6, phis)
    assert not is_parallel(moved)
    mapped, recovered = conformal_normalize(moved)
    for t in (0, 1):
        arc = recovered.vertex_angles[t + 6] - recovered.vertex_angles[t]
        assert abs(arc - PI) <= 1e-8
    before = polygon_lie_curvature(moved, 1, "psi_nu").value
    after = polygon_lie_curvature(recovered, 1, "psi_nu").value
    assert abs(before - after) <= 1e-8
    assert abs(after + 1.0) <= 1e-8


def test_circle_mobius_is_o21():
    mapped = CircleMobius.from_parameters(0.3, 0.2 - 0.35j)
    from liesphere.indefinite import Signature, is_lie_transform
    ok, _ = is_lie_transform(mapped.matrix, Signature(2, 1), 1e-9)
    assert ok
    assert mapped.matrix[2, 0] == mapped.x
    assert mapped.matrix[2, 2] == mapped.alpha_check


def test_isometry_reduction_g6_minimal():
    poly = build_parallel_polygon(6, 0.0)
    result = isometry_reduction(6, poly, 1, 1)
    assert abs(result.x) <= 1e-10 and abs(result.y) <= 1e-10
    values = {c.name: c.expression_value for c in result.certificates}
    assert abs(values["H_minus_K_lambda"] + 6 * (2 + ROOT3)) <= 1e-9
    assert abs(values["H_minus_K_tau"] - 6 * (2 + ROOT3)) <= 1e-9


def test_isometry_reduction_g4():
    poly = build_parallel_polygon(4, 0.05)
    result = isometry_reduction(4, poly, 1, 1)
    assert abs(result.x) <= 1e-10 and abs(result.y) <= 1e-10
    for cert in result.certificates:
        assert cert.holds and cert.margin > 1e-6


def test_isometry_reduction_certificate_value_at_theta0():
    result = isometry_reduction(4, build_parallel_polygon(4, 0.0), 1, 1)
    values = {c.name: c.expression_value for c in result.certificates}
    # H = 0, K = 4 at the symmetric member: H - K lambda = -4(sqrt2 + 1)
    assert abs(values["H_minus_K_lambda"] + 4 * (ROOT2 + 1)) <= 1e-9


def test_isometry_reduction_grid_and_multiplicities():
    for g, m1, m2 in ((4, 1, 1), (4, 2, 2), (4, 4, 5), (6, 1, 1), (6, 2, 2)):
        bound = PI / (2 * g)
        for theta in np.linspace(-0.8, 0.8, 9) * bound:
            result = isometry_reduction(g, build_parallel_polygon(g, float(theta)), m1, m2)
            assert max(abs(result.x), abs(result.y)) <= 1e-10
            assert all(c.holds and c.margin > 1e-6 for c in result.certificates)


def test_isometry_reduction_rejects_non_parallel():
    skew = angle_table(4, AngleGaps(4, (0.8, 0.76, 0.78, PI - 2.34),
                                    (0.79, 0.77, 0.8, PI - 2.36)), 0.3)
    with pytest.raises(DomainError):
        isometry_reduction(4, skew, 1, 1)


# ---------------------------------------------------------------------------
# falsification search
# ---------------------------------------------------------------------------

def test_search_g3_smoke():
    survivors = constraint_search(3, ("cmc",), 10, 0)
    assert survivors
    assert all(s.parallel for s in survivors)
    assert all(s.residual <= 1e-6 for s in survivors)


def test_search_g4_cmc_csc_smoke():
    survivors = constraint_search(4, ("cmc", "csc"), 10, 1)
    assert survivors
    assert all(s.parallel for s in survivors)


def test_search_rejects_bad_arguments():
    with pytest.raises(ValueError):
        constraint_search(4, ("cmc", "nope"), 10, 0)
    with pytest.raises(DomainError):
        constraint_search(4, ("cmc",), 100, 0)
    with pytest.raises(DomainError):
        constraint_search(3, ("clc",), 10, 0)


def test_search_deterministic():
    a = constraint_search(4, ("cmc", "clc"), 8, 3)
    b = constraint_search(4, ("cmc", "clc"), 8, 3)
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.gaps == y.gaps and x.theta1 == y.theta1
