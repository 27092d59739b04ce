import cmath
import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest

from liesphere import dji, polygon
from liesphere.dji import CLC_PHI
from liesphere.errors import DomainError
from liesphere.isoparam import multiplicity_vector
from liesphere.polygon import (AngleGaps, CircleMobius, GeodesicPolygon, angle_table,
                               build_parallel_polygon, conformal_normalize,
                               constraint_search, g4_grid_oracle, g4_residual,
                               g6_branches, g6_grid_oracle, is_parallel,
                               isometry_reduction, link_check, link_partner,
                               polygon_from_positions, polygon_lie_curvature,
                               psi_values, solve_g4_normalized, solve_g6_normalized)
from liesphere.quadric import (PAPER6_12_34, ProjectiveCurvature, lie_curvature,
                               lie_curvature_of_values)

ROOT2 = math.sqrt(2.0)
ROOT3 = math.sqrt(3.0)
PI = math.pi


def _moved_angle(mobius, phi):
    """The circle angle phi moved by the O(2,1) matrix of mobius."""
    z = mobius.matrix @ np.array([math.cos(phi), math.sin(phi), 1.0])
    return math.atan2(z[1], z[0])


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
            try:
                poly = angle_table(g, gaps, theta1)
            except DomainError:
                continue
            phis, rows = _reference_angle_table(g, gaps, theta1, theta1)
            assert (poly.radius_table == rows).all()
            assert (poly.vertex_angles == phis).all()
            checked += 1
    assert checked >= 30


# ---------------------------------------------------------------------------
# link relations and parallel verdicts
# ---------------------------------------------------------------------------

def test_link_check_parallel_polygon():
    report = link_check(build_parallel_polygon(4, 0.07))
    assert report.max_residual <= 1e-12


def test_link_check_hexagon_has_nine_pairings():
    report = link_check(build_parallel_polygon(3, 0.1))
    assert report.max_residual <= 1e-9
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
            assert link_check(poly).max_residual <= 1e-9


def test_link_check_detects_perturbed_radius():
    poly = build_parallel_polygon(4, 0.0)
    table = poly.radius_table.copy()
    table[0, 1] += 0.01     # alpha -> alpha + 0.01 in row p^1 only
    bad = GeodesicPolygon(4, poly.vertex_angles, table)
    report = link_check(bad)
    assert 0.005 < report.max_residual < 0.05


def _mismatched_base_radii(g, theta1, theta2):
    """A regular-gap polygon whose row p^2 starts from theta2 instead of theta1."""
    poly = angle_table(g, AngleGaps.regular(g), theta1)
    table = poly.radius_table.copy()
    table[1] += theta2 - theta1
    return GeodesicPolygon(g, poly.vertex_angles, table)


def test_link_check_detects_mismatched_base_radii():
    report = link_check(_mismatched_base_radii(4, 0.35, 0.349))
    assert report.max_residual > 1e-9


def _link_residuals_reference(poly):
    """The per-pairing loop that link_check broadcasts, kept as the reference."""
    cot = poly.curvatures()
    residuals = {}
    for t in range(1, 2 * poly.g + 1):
        for i in range(1, poly.g + 1):
            s = link_partner(poly.g, t, i)
            if s < t:
                continue
            residuals[(t, i, s)] = abs(cot[t - 1, i - 1] - cot[s - 1, i - 1])
    return residuals


def test_link_check_residuals_equal_the_pairing_loop():
    perturbed = build_parallel_polygon(4, 0.0)
    table = perturbed.radius_table.copy()
    table[0, 1] += 0.01
    polygons = [build_parallel_polygon(g, theta) for g in (3, 4, 6) for theta in (-0.1, 0.0, 0.07)]
    polygons += [GeodesicPolygon(4, perturbed.vertex_angles, table),
                 _mismatched_base_radii(4, 0.35, 0.349)]
    for poly in polygons:
        residuals = link_check(poly).residuals
        expected = _link_residuals_reference(poly)
        assert list(residuals) == list(expected)
        assert [float(v).hex() for v in residuals.values()] == [
            float(v).hex() for v in expected.values()]


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


def _meshgrid_grid_oracle(resolution, objective_of, func, margin, infeasible=""):
    """The grid oracle evaluated in one call on two full meshgrid copies of the centres."""
    step = (PI / 2) / resolution
    centers = (np.arange(resolution) + 0.5) * step
    objective = objective_of(*np.meshgrid(centers, centers, indexing="ij"))
    i, j = np.unravel_index(np.argmin(objective), objective.shape)
    best = objective[i, j]
    if best == np.inf:
        raise DomainError(f"every cell of the resolution-{resolution} grid is inf{infeasible}")
    objective[i, j] = np.inf
    unique = bool(objective.min() > best + margin * step * step)
    point = (float(centers[i]), float(centers[j]))
    return polygon.OracleResult(point, tuple(polygon._solve_system(func, point)), step, unique)


def _recorded(grid_oracle, objectives):
    """grid_oracle with a copy of every objective_of value array appended to objectives."""
    def oracle(resolution, objective_of, *args):
        def objective(alpha, gamma):
            values = objective_of(alpha, gamma)
            objectives.append(values.copy())
            return values
        return grid_oracle(resolution, objective, *args)
    return oracle


def _outcome(call):
    """call()'s result, or the type and message of the ArithmeticError or DomainError it raised."""
    try:
        return call()
    except (ArithmeticError, DomainError) as error:
        return type(error), str(error)


@pytest.mark.parametrize("oracle", (g4_grid_oracle, g6_grid_oracle))
def test_broadcast_grid_oracle_equals_meshgrid_reference(monkeypatch, oracle):
    streamed_oracle = polygon._grid_oracle
    edge = math.isqrt(polygon._ORACLE_BLOCK)  # the largest resolution whose grid is one block
    for resolution in (1, 2, 3, 101, 721, 1001, edge - 1, edge, edge + 1):
        blocks, meshgrid = [], []
        monkeypatch.setattr(polygon, "_grid_oracle", _recorded(streamed_oracle, blocks))
        streamed = _outcome(lambda: oracle(resolution))
        monkeypatch.setattr(polygon, "_grid_oracle", _recorded(_meshgrid_grid_oracle, meshgrid))
        assert streamed == _outcome(lambda: oracle(resolution)), resolution
        rows = max(1, polygon._ORACLE_BLOCK // resolution)
        assert [block.shape for block in blocks] == [
            (min(rows, resolution - first), resolution) for first in range(0, resolution, rows)]
        assert np.array_equal(np.concatenate(blocks), meshgrid[0]), resolution


def _table_objective(table):
    """An objective_of that reads each cell's value from a square table."""
    table = np.array(table, dtype=float)
    step = (PI / 2) / len(table)

    def objective_of(alpha, gamma):
        return table[np.rint(alpha / step - 0.5).astype(int),
                     np.rint(gamma / step - 0.5).astype(int)]
    return objective_of


@pytest.mark.parametrize("block", (1, polygon._ORACLE_BLOCK))  # 1: one row per block
@pytest.mark.parametrize("table, cell, unique", (
    ([[7.0]], (0, 0), True),  # one cell: no other cell, so the second value is inf
    ([[np.inf]], (0, 0), False),  # all inf: no start to polish, so a DomainError
    ([[np.inf] * 3] * 3, (0, 0), False),
    ([[3.0, 1.0], [1.0, 3.0]], (0, 1), False),  # a tie: the first cell in row-major order
    ([[4.0, 2.0, 4.0], [4.0, 4.0, 4.0], [4.0, 1.0, 4.0]], (2, 1), True),
    ([[4.0, 1.2, 4.0], [4.0, 4.0, 4.0], [4.0, 1.0, 4.0]], (2, 1), False),  # within the margin
))
def test_grid_oracle_keeps_the_first_minimum_and_the_second_value(monkeypatch, block, table,
                                                                  cell, unique):
    monkeypatch.setattr(polygon, "_ORACLE_BLOCK", block)
    monkeypatch.setattr(polygon, "_solve_system", lambda func, point: point)
    if np.isinf(table).all():
        for oracle in (polygon._grid_oracle, _meshgrid_grid_oracle):
            with pytest.raises(DomainError, match=f"^every cell of the resolution-{len(table)} "
                                                  "grid is inf$"):
                oracle(len(table), _table_objective(table), None, 1.0)
        return
    result = polygon._grid_oracle(len(table), _table_objective(table), None, 1.0)
    centers = (np.arange(len(table)) + 0.5) * result.cell_size
    assert result.grid_minimum == tuple(centers[list(cell)]) and result.unique_cell is unique
    assert result == _meshgrid_grid_oracle(len(table), _table_objective(table), None, 1.0)


@pytest.mark.parametrize("block", (1, polygon._ORACLE_BLOCK))
def test_g4_oracle_breaks_the_resolution_2_tie_by_row_major_order(monkeypatch, block):
    blocks = []
    monkeypatch.setattr(polygon, "_ORACLE_BLOCK", block)  # 1: the tied cells lie in two blocks
    monkeypatch.setattr(polygon, "_grid_oracle", _recorded(polygon._grid_oracle, blocks))
    result = g4_grid_oracle(2)
    values = np.concatenate(blocks)
    assert values[0, 1] == values[1, 0] == values.min()
    assert result.grid_minimum == (PI / 8, 3 * PI / 8) and not result.unique_cell


@pytest.mark.parametrize("resolution", (0, -1))
@pytest.mark.parametrize("oracle", (g4_grid_oracle, g6_grid_oracle))
def test_grid_oracle_rejects_a_resolution_below_one(oracle, resolution):
    with pytest.raises(DomainError, match=f"got {resolution}$"):
        oracle(resolution)


# resolution 1 has the one cell (pi/4, pi/4), whose beta is 0; at margin 0.5 every cell leaves
# a gap of at most 0.5, since the three gaps sum to pi/2 < 1.5
@pytest.mark.parametrize("resolution, gap_margin", ((1, 0.02), (1, 0.5), (3, 0.5)))
def test_all_inf_g6_grid_raises_before_polishing(monkeypatch, resolution, gap_margin):
    def no_polish(func, point):
        raise AssertionError("an all-inf grid has no start to polish")

    monkeypatch.setattr(polygon, "_solve_system", no_polish)
    with pytest.raises(DomainError, match=(
            rf"^every cell of the resolution-{resolution} grid is inf: each leaves a gap "
            rf"at most gap_margin = {gap_margin}$")):
        g6_grid_oracle(resolution, gap_margin)


@pytest.mark.parametrize("resolution", (721, 2001))
@pytest.mark.parametrize("oracle", (g4_grid_oracle, g6_grid_oracle))
def test_grid_oracle_traced_peak_stays_under_4_mib(oracle, resolution):
    oracle(resolution)  # fill the module caches outside the trace
    tracemalloc.start()
    try:
        oracle(resolution)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def _exp_g4_objective(alpha, gamma):
    """The g = 4 grid objective with one complex exp per cell, as before the per-axis form."""
    res_sq = np.abs(2.0 * (1.0 + np.exp(2j * (alpha + gamma)))) ** 2
    return res_sq + ((PI / 2 - alpha) + gamma - PI / 2) ** 2


@pytest.mark.parametrize("resolution", (101, 301, 721, 1001))
def test_per_axis_g4_objective_equals_exp_reference(monkeypatch, resolution):
    objectives = []
    grid_oracle = polygon._grid_oracle

    def recording(resolution, objective_of, *args):
        objectives.append(objective_of)
        return grid_oracle(resolution, objective_of, *args)

    monkeypatch.setattr(polygon, "_grid_oracle", recording)
    result = g4_grid_oracle(resolution)
    (objective_of,) = objectives
    centers = (np.arange(resolution) + 0.5) * (PI / 2) / resolution
    new = objective_of(centers[:, None], centers[None, :])
    old = _exp_g4_objective(centers[:, None], centers[None, :])
    assert (result == grid_oracle(resolution, _exp_g4_objective, polygon._g4_system, 0.25)
            and np.all(np.abs(new - old) <= 1e-14 * np.maximum(1.0, np.abs(old))))


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


def _complex_g6_objective(alpha, gamma, gap_margin=0.02):
    """The g = 6 grid objective in complex form, as before the real per-axis identity."""
    beta = PI / 2 - alpha - gamma
    w1 = np.exp(2j * alpha)
    w3 = np.exp(2j * gamma)
    values = np.abs(2 * (w1 * w3 + 1) - (w1 + w3)) ** 2 + (gamma - alpha) ** 2
    values[(beta <= gap_margin) | (alpha <= gap_margin) | (gamma <= gap_margin)] = np.inf
    return values


@pytest.mark.parametrize("resolution", (101, 301, 721, 1001))
def test_real_g6_objective_equals_complex_reference(monkeypatch, resolution):
    objectives = []
    grid_oracle = polygon._grid_oracle

    def recording(resolution, objective_of, *args):
        objectives.append(objective_of)
        return grid_oracle(resolution, objective_of, *args)

    monkeypatch.setattr(polygon, "_grid_oracle", recording)
    g6_grid_oracle(resolution)
    (objective_of,) = objectives
    centers = (np.arange(resolution) + 0.5) * (PI / 2) / resolution
    new = objective_of(centers[:, None], centers[None, :])
    old = _complex_g6_objective(centers[:, None], centers[None, :])
    finite = np.isfinite(old)
    assert np.array_equal(np.isfinite(new), finite)
    assert np.all(np.abs(new[finite] - old[finite]) <= 1e-14 * np.maximum(1.0, np.abs(old[finite])))
    assert np.array_equal(new, new.T)  # mirror cells tie bit for bit


def test_unique_g6_cell_lies_on_the_diagonal(monkeypatch):
    # judge the grid alone; resolution 1, whose one cell is infeasible, raises (tested above)
    monkeypatch.setattr(polygon, "_solve_system", lambda func, point: point)
    for resolution in range(2, 201):
        result = g6_grid_oracle(resolution)
        alpha, gamma = result.grid_minimum
        assert alpha == gamma or not result.unique_cell, resolution


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

def _reference_normalize(poly):
    """The per-polygon boost solve that the closed form replaced, kept as the reference.

    Levenberg-Marquardt over the two boost parameters from m = 0 (feasible for
    |m| < 0.999) until the antipodal residual is at most 1e-12, one polygon of a
    stack at a time, then the same re-anchoring of vertex 1.
    """
    g, phis = poly.g, poly.vertex_angles

    def boost(row):
        def constraints(m):
            feasible = np.hypot(m[:, 0], m[:, 1]) < 0.999
            with np.errstate(invalid="ignore", divide="ignore"):  # rows with |m| >= 1
                new = polygon._transform_positions(row, 0.0, m[:, 0] + 1j * m[:, 1])
                return polygon._wrap(new[:, g:g + 2] - new[:, :2] - PI), feasible

        p, r = polygon._levenberg_polish(constraints, [(0.0, 0.0)])
        assert len(p) and np.abs(r).max() <= 1e-12
        return p[0]

    m = np.array([boost(row) for row in phis.reshape(-1, 2 * g)]).reshape(phis.shape[:-1] + (2,))
    mboost = m[..., 0] + 1j * m[..., 1]
    moved = polygon._transform_positions(phis, 0.0, mboost)
    chi = polygon._wrap(phis[..., 0] - moved[..., 0])
    return (CircleMobius.from_parameters(chi, mboost),
            polygon_from_positions(g, polygon._transform_positions(phis, chi, mboost)))


def _assert_agrees_with_reference(poly, tol):
    mapped, normalized = conformal_normalize(poly)
    ref_map, ref = _reference_normalize(poly)
    assert np.abs(mapped.matrix - ref_map.matrix).max() <= tol
    assert np.abs(polygon._wrap(normalized.vertex_angles - ref.vertex_angles)).max() <= tol
    return mapped, normalized


def test_conformal_normalize_identity_on_normalized():
    poly = build_parallel_polygon(4, 0.1)
    mapped, out = conformal_normalize(poly)
    assert abs(mapped.matrix[2, 0]) <= 1e-10 and abs(mapped.matrix[2, 1]) <= 1e-10
    assert np.abs(out.vertex_angles - poly.vertex_angles).max() <= 1e-10


def test_conformal_normalize_recovers_perturbed_dodecagon():
    base = build_parallel_polygon(6, 0.05)
    perturb = CircleMobius.from_parameters(0.4, 0.25 + 0.1j)
    phis = np.array([_moved_angle(perturb, p) for p in base.vertex_angles])
    moved = polygon_from_positions(6, phis)
    assert not is_parallel(moved)
    mapped, recovered = _assert_agrees_with_reference(moved, 1e-12)
    for t in (0, 1):
        arc = recovered.vertex_angles[t + 6] - recovered.vertex_angles[t]
        assert abs(arc - PI) <= 1e-8
    before = polygon_lie_curvature(moved, 1, "psi_nu").value
    after = polygon_lie_curvature(recovered, 1, "psi_nu").value
    assert abs(before - after) <= 1e-8
    assert abs(after + 1.0) <= 1e-8


@pytest.mark.parametrize("g", (4, 6))
def test_boosted_parallel_polygons_normalize_to_the_parallel_polygon(g):
    # 21 thetas, each moved by 20 seeded maps with |m| < 0.9 and a random rotation
    bound = PI / (2 * g)
    thetas = np.repeat(np.linspace(-0.85 * bound, 0.85 * bound, 21), 20)
    rng = np.random.default_rng(20 + g)
    boosts = rng.uniform(0.0, 0.9, thetas.size) * np.exp(1j * rng.uniform(-PI, PI, thetas.size))
    maps = CircleMobius.from_parameters(rng.uniform(-PI, PI, thetas.size), boosts)
    base = build_parallel_polygon(g, thetas)
    points = np.concatenate([base.vertex_points(), np.ones(base.vertex_angles.shape + (1,))],
                            axis=-1)
    image = points @ maps.matrix.swapaxes(-1, -2)
    moved = polygon_from_positions(g, np.arctan2(image[..., 1], image[..., 0]))
    assert not polygon._parallel(moved.radius_table).any()
    _, normalized = _assert_agrees_with_reference(moved, 1e-11)
    phis = normalized.vertex_angles
    assert np.abs(polygon._wrap(phis[..., g:g + 2] - phis[..., :2] - PI)).max() <= 1e-12
    # up to rotation it is the parallel polygon it was moved from
    turn = polygon._wrap((phis - phis[..., :1]) - (base.vertex_angles - base.vertex_angles[..., :1]))
    assert np.abs(turn).max() <= 1e-12
    assert np.abs(normalized.radius_table - base.radius_table).max() <= 1e-12


def test_circle_mobius_is_o21():
    mapped = CircleMobius.from_parameters(0.3, 0.2 - 0.35j)
    from liesphere.indefinite import Signature, is_lie_transform
    ok, _ = is_lie_transform(mapped.matrix, Signature(2, 1), 1e-9)
    assert ok
    # the map is its matrix alone: no second copy of its entries to disagree with it
    assert [f.name for f in dataclasses.fields(CircleMobius)] == ["matrix"]
    with pytest.raises(ValueError, match=r"^not in O\(2,1\): residual "):
        CircleMobius(2.0 * np.eye(3))


@pytest.mark.parametrize("make, cls", [
    (lambda: build_parallel_polygon(4, np.array([0.0, 0.1])), GeodesicPolygon),
    (lambda: CircleMobius.from_parameters(0.3, 0.2 + 0.1j), CircleMobius),
    (lambda: isometry_reduction(4, build_parallel_polygon(4, 0.05), 1, 1),
     polygon.IsometryReduction),
])
def test_records_of_arrays_compare_by_identity(make, cls):
    a, b = make(), make()
    assert type(a) is cls and a == a and a != b and not a == b
    assert len({a, b, a}) == 2


def test_isometry_reduction_g6_minimal():
    poly = build_parallel_polygon(6, 0.0)
    result = isometry_reduction(6, poly, 1, 1)
    assert result.closed_form_gap <= 1e-13
    values = {c.name: c.expression_value for c in result.certificates}
    assert abs(values["H_minus_K_lambda"] + 6 * (2 + ROOT3)) <= 1e-9
    assert abs(values["H_minus_K_tau"] - 6 * (2 + ROOT3)) <= 1e-9


def test_isometry_reduction_g4():
    poly = build_parallel_polygon(4, 0.05)
    result = isometry_reduction(4, poly, 1, 1)
    assert result.closed_form_gap <= 1e-13
    assert dji.CERTIFICATE_MARGIN == 1e-6  # the margin every clears() in this file judges by
    assert all(cert.clears() for cert in result.certificates)


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
            assert result.closed_form_gap <= 1e-13
            assert all(c.clears() for c in result.certificates)


@pytest.mark.parametrize("g, m1, m2", ((4, 0, 3), (4, 2, 0), (6, 0, 0), (6, 1, 2)))
def test_isometry_reduction_rejects_bad_multiplicities(g, m1, m2):
    with pytest.raises(DomainError):
        isometry_reduction(g, build_parallel_polygon(g, 0.0), m1, m2)


def test_isometry_reduction_rejects_non_parallel():
    skew = angle_table(4, AngleGaps(4, (0.8, 0.76, 0.78, PI - 2.34),
                                    (0.79, 0.77, 0.8, PI - 2.36)), 0.3)
    with pytest.raises(DomainError):
        isometry_reduction(4, skew, 1, 1)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _one(stack, k):
    """Member k of a polygon stack as one polygon."""
    return GeodesicPolygon(stack.g, stack.vertex_angles[k], stack.radius_table[k])


def _reduction_bits(result):
    return [result.closed_form_gap, result.matrix, result.mean_curvature,
            *(c.expression_value for c in result.certificates)]


@pytest.mark.parametrize("g", (4, 6))
def test_reduction_path_on_a_stack_equals_one_polygon_at_a_time(g):
    # every step of the reduction gives each member of a stack the bits of its own call;
    # the members are boosted, so the normalization solves a boost away from m = 0
    rng = np.random.default_rng(g)
    thetas = rng.uniform(-0.9, 0.9, 6) * PI / (2 * g)
    built = build_parallel_polygon(g, thetas)
    for k, theta in enumerate(thetas):
        one = build_parallel_polygon(g, float(theta))
        assert _same_bits(built.vertex_angles[k], one.vertex_angles)
        assert _same_bits(built.radius_table[k], one.radius_table)
    boosts = rng.uniform(-0.25, 0.25, 6) + 1j * rng.uniform(-0.25, 0.25, 6)
    chis = rng.uniform(-1.0, 1.0, 6)
    maps = CircleMobius.from_parameters(chis, boosts)
    phis = np.array([[_moved_angle(CircleMobius.from_parameters(c, m), p) for p in row]
                     for c, m, row in zip(chis, boosts, built.vertex_angles)])
    moved = polygon_from_positions(g, phis)
    mapped, normalized = conformal_normalize(moved)
    for k in range(6):
        one_map = CircleMobius.from_parameters(chis[k], boosts[k])
        assert _same_bits(maps.matrix[k], one_map.matrix)
        assert _same_bits(moved.radius_table[k], polygon_from_positions(g, phis[k]).radius_table)
        alone_map, alone = conformal_normalize(_one(moved, k))
        assert not is_parallel(_one(moved, k))
        for stacked, single in ((mapped.matrix, alone_map.matrix),
                                (normalized.vertex_angles, alone.vertex_angles),
                                (normalized.radius_table, alone.radius_table)):
            assert _same_bits(stacked[k], single)
    for m1, m2 in ((1, 1), (2, 2), (4, 5)) if g == 4 else ((1, 1), (2, 2)):
        result = isometry_reduction(g, normalized, m1, m2)
        assert result.matrix.shape == (6, 2, 2) and result.trace_multiplicity == (m1 + m2) * g / 2
        for k in range(6):
            alone = isometry_reduction(g, _one(normalized, k), m1, m2)
            assert all(_same_bits(stacked[k], single) for stacked, single
                       in zip(_reduction_bits(result), _reduction_bits(alone)))


def test_stacked_checks_name_the_first_bad_member():
    bound = PI / 8
    with pytest.raises(DomainError, match=r"theta must lie in \(-pi/8, pi/8\) at stack index 2"):
        build_parallel_polygon(4, [0.0, 0.1, bound, -bound])
    with pytest.raises(DomainError, match=r"^theta must lie in \(-pi/8, pi/8\)$"):
        build_parallel_polygon(4, bound)
    with pytest.raises(DomainError, match=r"\|m\| < 1 at stack index 1"):
        CircleMobius.from_parameters([0.0, 0.0], [0.5, 1.0])
    polys = build_parallel_polygon(4, np.array([0.0, 0.05, 0.1]))
    skew = angle_table(4, AngleGaps(4, (0.8, 0.76, 0.78, PI - 2.34),
                                    (0.79, 0.77, 0.8, PI - 2.36)), 0.3)
    table = polys.radius_table.copy()
    table[1] = skew.radius_table
    angles = polys.vertex_angles.copy()
    angles[1] = skew.vertex_angles
    with pytest.raises(DomainError, match="polygon must be parallel at stack index 1"):
        isometry_reduction(4, GeodesicPolygon(4, angles, table), 1, 1)
    with pytest.raises(DomainError, match="antipodally normalized at stack index 0"):
        isometry_reduction(4, GeodesicPolygon(4, angles[[0]] + np.repeat([0.0, 0.01], 4),
                                              polys.radius_table[[0]]), 1, 1)


def test_solve_stack_splits_around_a_singular_member(monkeypatch):
    # one singular member of 16 costs the halves that hold it, not 16 single solves
    rng = np.random.default_rng(11)
    a = rng.normal(size=(16, 5, 5)) + 4 * np.eye(5)
    a[9] = 0.0
    b = rng.normal(size=(16, 5))
    solve, calls = np.linalg.solve, []

    def counting_solve(*args):
        calls.append(len(args[0]))
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    rows = polygon._solve_stack(a, b)
    assert len(calls) <= 9 and calls[0] == 16
    assert np.isnan(rows[9]).all() and not np.isnan(np.delete(rows, 9, axis=0)).any()
    for s in range(16):
        if s != 9:
            assert _same_bits(rows[s], solve(a[s:s + 1], b[s:s + 1, :, None])[0, :, 0])


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


@pytest.mark.parametrize("g, m1, m2", ((3, 0, 0), (3, 1, 2), (4, 0, 1), (6, 2, 1)))
def test_search_rejects_bad_multiplicities(g, m1, m2):
    with pytest.raises(DomainError):
        constraint_search(g, ("cmc",), 5, 0, m1=m1, m2=m2)


def test_search_deterministic():
    a = constraint_search(4, ("cmc", "clc"), 8, 3)
    b = constraint_search(4, ("cmc", "clc"), 8, 3)
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.gaps == y.gaps and x.theta1 == y.theta1


# ---------------------------------------------------------------------------
# the stacked solver against the scalar loop it replaced
# ---------------------------------------------------------------------------

def _reference_polish(func, params, max_iter=120):
    """The scalar Levenberg loop, kept as the reference; func(p) is a residual or None."""
    p = np.array(params, dtype=float)
    r = func(p)
    if r is None or r.size == 0:
        return None, None
    f = float(r @ r)
    damp = 1e-3
    n = len(p)
    for _ in range(max_iter):
        if f < 1e-28:
            break
        jac = np.empty((len(r), n))
        valid = True
        for d in range(n):
            pp = p.copy()
            pp[d] += 1e-7
            rr = func(pp)
            if rr is None:
                pp[d] -= 2e-7
                rr = func(pp)
                if rr is None:
                    valid = False
                    break
                jac[:, d] = (r - rr) / 1e-7
            else:
                jac[:, d] = (rr - r) / 1e-7
        if not valid:
            break
        stepped = False
        for _ in range(40):
            try:
                dp = np.linalg.solve(jac.T @ jac + damp * np.eye(n), -jac.T @ r)
            except np.linalg.LinAlgError:
                damp *= 10
                continue
            rn = func(p + dp)
            if rn is not None and float(rn @ rn) < f:
                p, r, f = p + dp, rn, float(rn @ rn)
                damp = max(damp * 0.3, 1e-13)
                stepped = True
                break
            damp *= 10
            if damp > 1e12:
                break
        if not stepped:
            break
    return p, r


def _one_row(stacked):
    """The scalar form of a stacked residual: one row, or None where infeasible."""
    def func(p):
        r, feasible = stacked(p[None])
        return r[0] if feasible[0] else None
    return func


def _assert_polish_matches_reference(func, starts, max_iter=120):
    points, residuals = polygon._levenberg_polish(func, starts, max_iter)
    expected = [_reference_polish(_one_row(func), start, max_iter) for start in starts]
    expected = [(p, r) for p, r in expected if p is not None]
    assert len(points) == len(residuals) == len(expected)
    for p, r, (p_ref, r_ref) in zip(points, residuals, expected):
        assert (p == p_ref).all() and (r == r_ref).all()
    return len(expected)


_CONSTRAINT_SETS = {3: (("cmc",), ("csc",), ("cmc", "csc")),
                    4: (("cmc",), ("csc",), ("clc",), ("cmc", "csc"), ("cmc", "clc"),
                        ("csc", "clc"), ("cmc", "csc", "clc"))}
_CONSTRAINT_SETS[6] = _CONSTRAINT_SETS[4]


@pytest.mark.parametrize("g", (3, 4, 6))
def test_stacked_polish_equals_scalar_loop_on_search_residual(g):
    rng = np.random.default_rng(g)
    mult = multiplicity_vector(g, 1, 1)
    polished = 0
    for constraints in _CONSTRAINT_SETS[g]:
        free = rng.uniform(0.85, 1.15, (10, 2 * g - 2)) * PI / g
        theta1 = rng.uniform(0.1, 0.9, (10, 1)) * PI / g
        starts = np.concatenate([free, theta1], axis=1)
        starts[0, 0] = PI  # an infeasible start is dropped
        polished += _assert_polish_matches_reference(
            functools.partial(polygon._search_residual, g, constraints, mult), starts)
    assert polished >= 5 * len(_CONSTRAINT_SETS[g])


def test_stacked_polish_equals_scalar_loop_on_angle_systems(monkeypatch):
    # capture the g = 4 and g = 6 systems as the library hands them to the solver
    systems = []
    solver = polygon._levenberg_polish

    def spy(func, *args):
        systems.append(func)
        return solver(func, *args)

    monkeypatch.setattr(polygon, "_levenberg_polish", spy)
    solve_g4_normalized()
    g6_grid_oracle(101)
    g4, _, g6 = systems
    rng = np.random.default_rng(7)
    for func, lo, hi in ((g4, -0.1, 1.7), (g6, -0.1, 1.0)):
        starts = rng.uniform(lo, hi, (40, 2))
        assert 20 <= _assert_polish_matches_reference(func, starts) < 40
    # the stacked 2-D residuals round as the scalar cmath forms did
    for a, c in rng.uniform(0.05, 0.7, (200, 2)):
        e = [cmath.exp(2j * x) for x in (a, c, -(PI / 2 - c), -(PI / 2 - a), a + c)]
        r4 = 2.0 * (1.0 + e[4]) - e[0] - e[1] - e[2] - e[3]
        r6 = 2 * (e[0] * e[1] + 1) - (e[0] + e[1])
        assert (_one_row(g4)(np.array([a, c])) == [r4.real, r4.imag, (PI / 2 - a) + c - PI / 2]).all()
        assert (_one_row(g6)(np.array([a, c])) == [r6.real, r6.imag, c - a]).all()


def _reference_draws(seed, grid, ndim):
    """The per-start draw loop, kept as the reference: integers, then uniforms, per start."""
    rng = np.random.default_rng(seed)
    levels, jitter = zip(*[(rng.integers(0, grid, ndim), rng.uniform(-0.4, 0.4, ndim))
                           for _ in range(grid * grid)])
    return np.array(levels), np.array(jitter)


def _reference_search(g, constraints, grid, seed):
    """The per-start search loop over the scalar solver, kept as the reference."""
    mult = multiplicity_vector(g, 1, 1)
    func = _one_row(functools.partial(polygon._search_residual, g, frozenset(constraints), mult))
    ndim = 2 * g - 1
    lo = np.concatenate([np.full(2 * g - 2, 0.08), [0.04]])
    hi = np.concatenate([np.full(2 * g - 2, 2.0 * PI / g), [1.4 * PI / g]])
    found = {}
    for levels, jitter in zip(*_reference_draws(seed, grid, ndim)):
        p, r = _reference_polish(func, lo + (levels + 0.5 + jitter) * (hi - lo) / grid)
        if p is None or float(np.abs(r).max()) > 1e-6:
            continue
        found.setdefault(tuple(np.round(p, 6)), (p, float(np.abs(r).max())))
    return [(AngleGaps.from_free(g, p[:g - 1], p[g - 1:2 * g - 2]), float(p[-1]), resid)
            for p, resid in (found[key] for key in sorted(found))]


@pytest.mark.parametrize("g, constraints, grid", ((3, ("cmc",), 9), (4, ("cmc", "csc"), 9),
                                                   (6, ("cmc", "clc"), 12)))
def test_search_equals_per_start_reference_loop(g, constraints, grid):
    for seed in range(4):
        survivors = constraint_search(g, constraints, grid, seed)
        assert [(s.gaps, s.theta1, s.residual) for s in survivors] == \
            _reference_search(g, constraints, grid, seed)


def _count_integer_draws(monkeypatch):
    """Make default_rng hand out generators whose integers() calls are recorded."""
    calls, make = [], np.random.default_rng

    class Spy:
        def __init__(self, seed):
            rng = make(seed)
            self.bit_generator, self.uniform = rng.bit_generator, rng.uniform
            self._integers = rng.integers

        def integers(self, *args):
            calls.append(args)
            return self._integers(*args)

    monkeypatch.setattr(np.random, "default_rng", Spy)
    return calls


# (g, grid, seed) of searches in which a Lemire draw is rejected
_REJECTING_SEARCHES = ((3, 55, 83), (6, 45, 1383), (6, 59, 2975))


@pytest.mark.parametrize("g", (3, 4, 6))
def test_start_draws_equal_per_start_loop(g):
    for grid in (1, 2, 5, 15, 25, 35, 40, 60):
        for seed in range(8):
            levels, jitter = polygon._start_draws(seed, grid, 2 * g - 1)
            ref_levels, ref_jitter = _reference_draws(seed, grid, 2 * g - 1)
            assert levels.dtype == ref_levels.dtype and jitter.dtype == ref_jitter.dtype
            assert np.array_equal(levels, ref_levels) and np.array_equal(jitter, ref_jitter)


@pytest.mark.parametrize("g, grid, seed", _REJECTING_SEARCHES)
def test_rejected_draw_falls_back_to_the_per_start_loop(monkeypatch, g, grid, seed):
    ref_levels, ref_jitter = _reference_draws(seed, grid, 2 * g - 1)
    calls = _count_integer_draws(monkeypatch)
    levels, jitter = polygon._start_draws(seed, grid, 2 * g - 1)
    assert len(calls) == grid * grid
    assert np.array_equal(levels, ref_levels) and np.array_equal(jitter, ref_jitter)


def test_search_without_rejection_never_draws_integers(monkeypatch):
    calls = _count_integer_draws(monkeypatch)
    for g, constraints, grid, seed in ((3, ("cmc",), 40, 0), (4, ("cmc", "csc"), 25, 1),
                                       (6, ("cmc", "clc"), 25, 2)):
        constraint_search(g, constraints, grid, seed)
    assert calls == []


def test_rejecting_search_equals_the_per_start_draws(monkeypatch):
    survivors = constraint_search(3, ("cmc",), 55, 83)
    monkeypatch.setattr(polygon, "_start_draws", _reference_draws)
    assert survivors and survivors == constraint_search(3, ("cmc",), 55, 83)


def _toy_system(p):
    # rows with p2 > 10 have a rank-1 residual near 1e20; rows with p2 < -10 are
    # feasible only within 5e-8 of p0 = 0.3; the rest solve p = (1, 2, 3)
    big = (p[:, 0] + p[:, 1])[:, None] * np.full(3, 1e20)
    r = np.where(p[:, 2:] > 10, big, p - [1.0, 2.0, 3.0])
    return r, (p[:, 2] > -10) | (np.abs(p[:, 0] - 0.3) < 5e-8)


def test_singular_member_does_not_disturb_the_stack():
    starts = np.array([[0.1, 0.2, 0.3], [0.5, 0.5, 20.0], [2.0, -1.0, 5.0],
                       [0.3, 0.0, -20.0], [0.5, 0.0, -20.0]])
    jac = np.full((3, 3), 1e20)  # the rank-1 member's Jacobian, up to rounding
    jac[:, 2] = 0.0
    with pytest.raises(np.linalg.LinAlgError):  # its first damping trials are singular
        np.linalg.solve(jac.T @ jac + 1e-3 * np.eye(3), np.ones(3))
    points, residuals = polygon._levenberg_polish(_toy_system, starts)
    assert len(points) == 4  # the last start is infeasible
    for start, p, r in zip(starts, points, residuals):
        (p_one,), (r_one,) = polygon._levenberg_polish(_toy_system, [start])
        assert (p == p_one).all() and (r == r_one).all()
    assert (points[3] == starts[3]).all()  # both steps of p0 are infeasible: no Jacobian
    assert np.abs(points[[0, 2]] - [1.0, 2.0, 3.0]).max() <= 1e-12
    assert _assert_polish_matches_reference(_toy_system, starts) == 4


def _edge_system(p):
    # r = 1e6 (p0^2 - 2), feasible below p0 = 2 + 5e-8, and where p1 > 0 only above 1.95
    feasible = (p[:, 0] < 2.0 + 5e-8) & ((p[:, 1] <= 0) | (p[:, 0] > 1.95))
    return 1e6 * (p[:, :1] ** 2 - 2.0), feasible


def test_backward_differences_and_the_damping_cap():
    # the first two starts difference backward at the edge; the second and last only
    # stay feasible with damping past 1e12, where the trials end, so they do not move
    starts = np.array([[1.99999996, 0.0], [2.0, 1.0], [1.7, 0.0], [1.97, 1.0]])
    points, residuals = polygon._levenberg_polish(_edge_system, starts)
    assert _assert_polish_matches_reference(_edge_system, starts) == 4
    # after one step the point still carries the backward difference's last bits
    assert _assert_polish_matches_reference(_edge_system, starts, max_iter=1) == 4
    assert (points[[1, 3]] == starts[[1, 3]]).all()
    assert np.abs(points[[0, 2], 0] - math.sqrt(2.0)).max() <= 1e-15


def test_polish_without_feasible_start_returns_nothing():
    points, residuals = polygon._levenberg_polish(_toy_system, [[0.5, 0.0, -20.0]] * 3)
    assert points.shape == (0, 3) and residuals.shape == (0, 3)


def test_search_without_constraints_returns_nothing():
    assert constraint_search(4, (), 5, 0) == []


# ---------------------------------------------------------------------------
# the damping ladder: trials formed in two rounds against the trial-by-trial loop
# ---------------------------------------------------------------------------

def _half_line(p):
    # r = p0 where p0 > p1; p1 is a fixed threshold that r does not depend on. The
    # trial with damp d lands near p0 d / (1 + d), so p1 / p0 sets which trial first
    # stays feasible
    return p[:, :1].copy(), p[:, 0] > p[:, 1]


def _trial_damps(count):
    return np.multiply.accumulate(np.array([1e-3] + [10.0] * (count - 1)))


def _threshold_for_trial(k):
    # between where trials k - 1 and k land from p0 = 1
    land = [d / (1 + d) for d in _trial_damps(k + 1)]
    return (land[k - 1] + land[k]) / 2 if k else land[0] / 2


def _first_step_trial(system, start):
    """The damping trial at which the first iteration stepped, read off where it landed."""
    (p1, *_), _ = polygon._levenberg_polish(system, [start], max_iter=1)
    if p1[0] == start[0]:
        return None
    return round(math.log10(p1[0] / (start[0] - p1[0]) / 1e-3))


def test_ladder_steps_at_each_trial_of_both_rounds():
    trials = (0, 1, 2, 3, 7, 15)  # round 1 holds trials 0-2, round 2 the rest
    starts = np.array([[1.0, _threshold_for_trial(k)] for k in trials])
    assert [_first_step_trial(_half_line, s) for s in starts] == list(trials)
    assert _assert_polish_matches_reference(_half_line, starts, max_iter=1) == len(trials)
    assert _assert_polish_matches_reference(_half_line, starts) == len(trials)


def test_ladder_ends_at_the_cap_in_either_round():
    # from (1, 1 - ulp) every trial lands below the threshold or back on p0 = 1: the
    # ladder climbs to the cap inside round 2 and the start ends with no step
    stuck = np.array([1.0, np.nextafter(1.0, 0.0)])
    assert _first_step_trial(_half_line, stuck) is None
    # a threshold one ulp under where trial 15 (damp 1e12) lands: iteration 1 steps
    # there and leaves damp 3e11, so iteration 2 fails trial 0 and crosses the cap
    # inside round 1
    loose = np.array([1.0, _threshold_for_trial(15)])
    ((landed, _),), _ = polygon._levenberg_polish(_half_line, [loose], max_iter=1)
    tight = np.array([1.0, np.nextafter(landed, 0.0)])
    assert _first_step_trial(_half_line, tight) == 15
    once, _ = polygon._levenberg_polish(_half_line, [tight], max_iter=1)
    twice, _ = polygon._levenberg_polish(_half_line, [tight], max_iter=2)
    assert (once == twice).all() and (once[0] == [landed, tight[1]]).all()
    starts = np.array([stuck, tight, loose])
    points, _ = polygon._levenberg_polish(_half_line, starts)
    assert (points[0] == stuck).all()
    for max_iter in (1, 2, 120):
        assert _assert_polish_matches_reference(_half_line, starts, max_iter) == 3


def _rank_one(scale, p):
    # r = scale (p0 + p1) + 1, scale a power of two: from p = 0 the difference Jacobian
    # is exactly (scale, scale), so J^T J + d I is exactly singular while d is below
    # half an ulp of scale^2
    return scale * (p[:, :1] + p[:, 1:2]) + 1.0, np.ones(len(p), dtype=bool)


def _singular_trials(system, start, count):
    (jac,), _ = polygon._difference_jacobians(system, start, system(start)[0])
    singular = []
    for d in _trial_damps(count):
        try:
            np.linalg.solve(jac.T @ jac + d * np.eye(len(jac.T)), np.ones(len(jac.T)))
            singular.append(False)
        except np.linalg.LinAlgError:
            singular.append(True)
    return jac, singular


def test_singular_trials_inside_round_two():
    start = np.zeros((1, 2))
    jac, singular = _singular_trials(functools.partial(_rank_one, 2.0 ** 33), start, 16)
    assert (jac == 2.0 ** 33).all()
    assert singular == [True] * 7 + [False] * 9  # trials 3-6 of round 2 are singular
    # at 2^87 all 40 trials are singular, and only a 41st would solve
    jac, singular = _singular_trials(functools.partial(_rank_one, 2.0 ** 87), start, 41)
    assert (jac == 2.0 ** 87).all() and singular == [True] * 40 + [False]
    (moved,), _ = polygon._levenberg_polish(functools.partial(_rank_one, 2.0 ** 33), start,
                                            max_iter=1)
    assert (moved != start[0]).any()
    (stuck,), _ = polygon._levenberg_polish(functools.partial(_rank_one, 2.0 ** 87), start)
    assert (stuck == start[0]).all()

    def mixed(p):  # p2 picks the system: rank one at 2^33 or 2^87, or the half line
        r1, ok1 = _rank_one(2.0 ** 33, p)
        r2, ok2 = _rank_one(2.0 ** 87, p)
        r3, ok3 = _half_line(p)
        pick = np.digitize(p[:, 2], [0.5, 1.5])
        return (np.choose(pick[:, None], [r1, r2, r3]), np.choose(pick, [ok1, ok2, ok3]))

    # beside a start that steps in round 1 and one that the cap stops in round 2
    stacked = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [1.0, _threshold_for_trial(1), 2.0],
                        [1.0, np.nextafter(1.0, 0.0), 2.0]])
    for max_iter in (1, 120):
        assert _assert_polish_matches_reference(mixed, stacked, max_iter) == 4


def test_search_makes_at_most_two_trial_calls_per_iteration(monkeypatch):
    # log: "J" per Jacobian, "j" per residual call inside it, "t" per other residual call
    log, inside = [], [False]
    residual, jacobians = polygon._search_residual, polygon._difference_jacobians

    def counted(*args):
        log.append("j" if inside[0] else "t")
        return residual(*args)

    def jacobian(*args):
        log.append("J")
        inside[0] = True
        try:
            return jacobians(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(polygon, "_search_residual", counted)
    monkeypatch.setattr(polygon, "_difference_jacobians", jacobian)
    survivors = constraint_search(4, ("cmc", "csc"), 15, 0)
    assert survivors and all(s.parallel for s in survivors)
    iterations = "".join(log).split("J")[1:]
    assert len(iterations) >= 10
    for calls in iterations:
        # one Jacobian call plus its backward steps, then one or two trial rounds
        assert 1 <= calls.count("j") <= 2 and calls.count("t") <= 2
        assert calls == "j" * calls.count("j") + "t" * calls.count("t")
    assert any(calls.endswith("tt") for calls in iterations)  # round 2 does run


# ---------------------------------------------------------------------------
# the stacked survivor pass and the difference Jacobians against the code they replaced
# ---------------------------------------------------------------------------

def _reference_survivors(g, points, residuals):
    """The per-survivor loop, kept as the reference: one angle_table and is_parallel each."""
    found = {}
    for p, r in zip(points, residuals):
        if np.abs(r).max() <= polygon.SEARCH_FILTER_TOL:
            found.setdefault(tuple(np.round(p, 6)), (p, float(np.abs(r).max())))
    survivors = []
    for key in sorted(found):
        p, resid = found[key]
        gaps = AngleGaps.from_free(g, p[:g - 1], p[g - 1:2 * g - 2])
        poly = angle_table(g, gaps, float(p[-1]))
        survivors.append(polygon.SearchSurvivor(gaps, float(p[-1]), resid, is_parallel(poly)))
    return survivors


def _polish_with_extra_roots(monkeypatch, extra_of):
    """Patch the polish to append extra_of(starts) = (points, residuals) to its result."""
    polish, captured = polygon._levenberg_polish, []

    def patched(func, starts):
        points, residuals = polish(func, starts)
        extra_points, extra_residuals = extra_of(starts)
        captured[:] = [np.concatenate([points, extra_points]),
                       np.concatenate([residuals, extra_residuals])]
        return captured[0], captured[1]

    monkeypatch.setattr(polygon, "_levenberg_polish", patched)
    return captured


@pytest.mark.parametrize("grid, seed", ((15, 0), (25, 1), (35, 2)))
def test_stacked_survivors_equal_per_survivor_tables(monkeypatch, grid, seed):
    # g = 4 cmc-only roots are all parallel, so feasible starts (not parallel) are passed
    # off as roots too: one repeated, whose first copy must win, and one above the filter
    def extra_of(starts):
        points = np.concatenate([starts[:6], starts[:1], starts[6:7]])
        residuals = np.full((8, 7), 1e-7) * np.arange(1, 9)[:, None]
        residuals[-1] = 2e-6
        return points, residuals

    captured = _polish_with_extra_roots(monkeypatch, extra_of)
    survivors = constraint_search(4, ("cmc",), grid, seed)
    assert survivors == _reference_survivors(4, *captured)
    assert sum(not s.parallel for s in survivors) == 6 and any(s.parallel for s in survivors)
    assert all(type(s.theta1) is float and type(s.residual) is float
               and type(s.parallel) is bool for s in survivors)


def test_out_of_range_survivor_raises_the_angle_table_error(monkeypatch):
    root = np.array([PI / 4] * 6 + [2.5])  # regular gaps, but theta1 + 3 pi/4 > pi
    _polish_with_extra_roots(monkeypatch, lambda starts: (root[None], np.zeros((1, 7))))
    with pytest.raises(DomainError) as stacked:
        constraint_search(4, ("cmc",), 5, 0)
    with pytest.raises(DomainError) as single:
        angle_table(4, AngleGaps.from_free(4, root[:3], root[3:6]), root[-1])
    assert str(stacked.value) == str(single.value)
    assert str(stacked.value) == "configuration leaves (0, pi): radius table invalid"


def _reference_difference_jacobians(func, p, r):
    """The masked difference Jacobians, kept as the reference for both paths."""
    k, n = p.shape
    steps = p[:, None, :] + np.eye(n) * 1e-7
    rs, ok = func(steps.reshape(k * n, n))
    rs, ok = rs.reshape(k, n, -1), ok.reshape(k, n)
    h = np.where(ok, 1e-7, -1e-7)
    if not ok.all():
        s, d = np.nonzero(~ok)
        steps[s, d, d] -= 2e-7
        rs[s, d], ok[s, d] = func(steps[s, d])
    cols = np.zeros(rs.shape)
    cols[ok] = (rs[ok] - np.broadcast_to(r[:, None], rs.shape)[ok]) / h[ok][:, None]
    return np.ascontiguousarray(np.swapaxes(cols, 1, 2)), ok.all(axis=1)


def _assert_jacobians_match_reference(func, p):
    calls = []

    def counted(q):
        calls.append(len(q))
        return func(q)

    r, feasible = func(p)
    assert feasible.all()
    jac, has_jac = polygon._difference_jacobians(counted, p, r)
    jac_ref, has_jac_ref = _reference_difference_jacobians(func, p, r)
    assert np.array_equal(jac, jac_ref) and jac.flags.c_contiguous
    assert np.array_equal(has_jac, has_jac_ref)
    return calls, has_jac


@pytest.mark.parametrize("g", (3, 4, 6))
def test_difference_jacobians_equal_the_masked_path(g):
    rng = np.random.default_rng(40 + g)
    mult = multiplicity_vector(g, 1, 1)
    for constraints in _CONSTRAINT_SETS[g]:
        func = functools.partial(polygon._search_residual, g, frozenset(constraints), mult)
        free = rng.uniform(0.9, 1.1, (40, 2 * g - 2)) * PI / g
        p = np.concatenate([free, rng.uniform(0.3, 0.7, (40, 1)) * PI / g], axis=1)
        p = p[func(p)[1]][:12]  # feasible rows
        calls, has_jac = _assert_jacobians_match_reference(func, p)
        assert calls == [12 * (2 * g - 1)] and has_jac.all()  # all forward: one call
        # every third row shifted up until its largest radius sits 5e-8 under the
        # pi - 1e-3 ceiling: its forward theta1 step leaves, so it steps backward
        gaps = np.concatenate([p[:, :g - 1], PI - p[:, :g - 1].sum(axis=1, keepdims=True),
                               p[:, g - 1:-1], PI - p[:, g - 1:-1].sum(axis=1, keepdims=True)],
                              axis=1)
        top = polygon._radius_table(g, gaps, p[:, -1]).max(axis=(1, 2))
        p[::3, -1] += PI - 1e-3 - 5e-8 - top[::3]
        calls, has_jac = _assert_jacobians_match_reference(func, p)
        assert len(calls) == 2 and 4 <= calls[1] and has_jac.all()


def test_difference_jacobians_equal_the_masked_path_without_a_jacobian():
    # the toy start [0.3, 0, -20] is feasible only within 5e-8 of p0 = 0.3: both of its
    # p0 steps fail, so it has no Jacobian; the edge starts step backward
    calls, has_jac = _assert_jacobians_match_reference(
        _toy_system, np.array([[0.1, 0.2, 0.3], [0.3, 0.0, -20.0], [2.0, -1.0, 5.0]]))
    assert len(calls) == 2 and has_jac.tolist() == [True, False, True]
    calls, has_jac = _assert_jacobians_match_reference(
        _edge_system, np.array([[1.99999996, 0.0], [2.0, 1.0], [1.7, 0.0]]))
    assert calls == [6, 3] and has_jac.all()


# ---------------------------------------------------------------------------
# the radius-table kernel against the array code it replaced
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("plan", [pytest.param(functools.partial(polygon._table_plan, g),
                                              id=f"table_plan{g}") for g in (3, 4, 6)]
                         + [pytest.param(functools.partial(polygon._unit_steps, n),
                                         id=f"unit_steps{n}") for n in (2, 5, 11)]
                         + [pytest.param(lambda g=g, k=k: polygon._clc_plan(g)[k],
                                         id=f"g{g}_phi_{part}")
                            for g in (4, 6) for k, part in ((0, "h"), (2, "target"))])
def test_shared_plans_are_read_only(plan):
    # every caller reads the same array, cached or built at import, so a write must raise
    with pytest.raises(ValueError, match="read-only"):
        plan()[0] = 0
    assert plan() is plan()


def _reference_radius_table(g, odd, even, theta1, theta2):
    """The table from separate gap cycles by cumsum, kept as the reference."""
    odd = np.asarray(odd, dtype=float)
    even = np.asarray(even, dtype=float)
    steps = np.empty(odd.shape[:-1] + (2 * g - 1,))
    steps[..., 0] = theta1
    steps[..., 1::2] = odd[..., :-1]
    steps[..., 2::2] = -even[..., :0:-1]
    base = np.repeat(np.cumsum(steps, axis=-1)[..., 0::2], 2, axis=-1)
    base[..., 1] = theta2
    k = np.arange(g)
    shifted = np.zeros(odd.shape[:-1] + (2 * g, g))
    shifted[..., 0::2, 1:] = odd[..., (k[:, None] + k) % g][..., :-1]
    shifted[..., 1::2, 1:] = even[..., (k - k[:, None]) % g][..., :-1]
    return base[..., None] + np.cumsum(shifted, axis=-1)


def _reference_search_residual(g, constraints, mult, params):
    """The search residual with four feasibility reductions, kept as the reference."""
    odd, even = params[:, :g - 1], params[:, g - 1:2 * g - 2]
    odd_full = np.concatenate([odd, PI - odd.sum(axis=1, keepdims=True)], axis=1)
    even_full = np.concatenate([even, PI - even.sum(axis=1, keepdims=True)], axis=1)
    table = _reference_radius_table(g, odd_full, even_full, params[:, -1], params[:, -1])
    feasible = ((odd_full.min(axis=1) > 1e-3) & (even_full.min(axis=1) > 1e-3)
                & (table.min(axis=(1, 2)) > 1e-3) & (table.max(axis=(1, 2)) < PI - 1e-3))
    out = [np.zeros((len(params), 0))]
    with np.errstate(all="ignore"):
        lam = 1.0 / np.tan(table)
        if "cmc" in constraints:
            h = lam @ mult
            out.append(h[:, 1:] - h[:, :1])
        if "csc" in constraints:
            s = (lam * lam) @ mult
            out.append(s[:, 1:] - s[:, :1])
        if "clc" in constraints:
            if g == 4:
                l1, l2, l3, l4 = np.moveaxis(lam, -1, 0)
                out.append((l1 - l2) * (l3 - l4) / ((l1 - l4) * (l3 - l2)) + 1.0)
            else:
                for h_idx, target in {3: -1.0, 4: -1.0 / 3.0, 6: 1.0 / 3.0}.items():
                    l1, l2, lh, l5 = (lam[..., i - 1] for i in (1, 2, h_idx, 5))
                    out.append((l1 - l2) * (lh - l5) / ((l1 - l5) * (lh - l2)) - target)
    return np.concatenate(out, axis=1), feasible


def _random_params(rng, g, count):
    # rows near the regular configuration, most of them feasible, and rows anywhere
    # around the search box, most of them not
    wide = rng.uniform(0, 1, count) < 0.5
    free = np.where(wide[:, None], rng.uniform(-0.05, 2.2, (count, 2 * g - 2)),
                    rng.uniform(0.9, 1.1, (count, 2 * g - 2))) * PI / g
    theta1 = np.where(wide, rng.uniform(-0.1, 1.5, count), rng.uniform(0.1, 0.9, count))
    return np.concatenate([free, theta1[:, None] * PI / g], axis=1)


@pytest.mark.parametrize("g", (3, 4, 6))
def test_radius_table_equals_reference(g):
    rng = np.random.default_rng(20 + g)
    for shape in ((), (1,), (40,), (3, 5)):
        odd, even = rng.uniform(-0.2, 1.5, (2,) + shape + (g,))
        theta1 = rng.uniform(-0.1, 1.0, shape)
        expected = _reference_radius_table(g, odd, even, theta1, theta1)
        gaps = np.concatenate([odd, even], axis=-1)
        table = polygon._radius_table(g, gaps, theta1)
        assert table.shape == shape + (2 * g, g) and (table == expected).all()
        assert table.flags.c_contiguous
        # the kernel itself, stack-last: entry [i, t, ...] is row t, column i
        last = polygon._stack_last_table(g, np.moveaxis(gaps, -1, 0), theta1)
        assert last.shape == (g, 2 * g) + shape
        assert (np.moveaxis(last, (0, 1), (-1, -2)) == expected).all()
    gaps = random_gaps(rng, g)  # scalar base radii, as angle_table passes them
    assert (polygon._radius_table(g, gaps.odd + gaps.even, 0.3)
            == _reference_radius_table(g, gaps.odd, gaps.even, 0.3, 0.3)).all()


@pytest.mark.parametrize("g", (3, 4, 6))
def test_search_residual_equals_reference(g):
    # the reference sums the cmc and csc rows by BLAS gemv; isoparam's
    # test_multiplicity_sum_equals_gemv pins that order on this kind of host
    rng = np.random.default_rng(30 + g)
    feasible_rows = infeasible_rows = 0
    for m1, m2 in ((1, 1), (2, 2)) + (((1, 2),) if g == 4 else ()):
        mult = multiplicity_vector(g, m1, m2)
        for constraints in _CONSTRAINT_SETS[g]:
            constraints = frozenset(constraints)
            for count in (0, 1, 2, 300):
                params = _random_params(rng, g, count)
                r, ok = polygon._search_residual(g, constraints, mult, params)
                r_ref, ok_ref = _reference_search_residual(g, constraints, mult, params)
                assert (ok == ok_ref).all() and r.shape == r_ref.shape
                assert np.array_equal(r, r_ref, equal_nan=True) and r.flags.c_contiguous
                feasible_rows += ok.sum()
                infeasible_rows += (~ok).sum()
    assert feasible_rows >= 50 and infeasible_rows >= 50


@pytest.mark.parametrize("g", (4, 6))
def test_search_clc_rows_hold_the_table_values_on_the_family(g):
    # a parallel polygon is a family member: every vertex holds each Phi_c of dji.CLC_PHI
    d, phis = CLC_PHI[g]
    theta1 = PI / (2 * g) + np.linspace(-0.8, 0.8, 9) * PI / (2 * g)
    params = np.column_stack([np.full((9, 2 * g - 2), PI / g), theta1])
    residual, feasible = polygon._search_residual(g, frozenset({"clc"}), np.ones(g), params)
    assert feasible.all() and residual.shape == (9, len(phis) * 2 * g)
    lam = 1.0 / np.tan(polygon._search_tables(g, params)[0])  # (g, 2g, 9)
    for k, (c, target) in enumerate(phis.items()):
        phi = lie_curvature_of_values(lam[[0, 1, c - 1, d - 1]], PAPER6_12_34).value
        block = residual[:, k * 2 * g:(k + 1) * 2 * g]
        assert np.abs(block - (phi - target).T).max() <= 1e-12
        assert np.abs(block).max() <= 1e-12
