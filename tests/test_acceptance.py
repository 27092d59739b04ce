"""Acceptance gate: every stated criterion at its stated tolerance.

Each test prints one line so a -s run reads as a checklist. Criterion 10's
final clause (a non-parallel survivor for the g=4 mean-curvature-only
search) is asserted exactly as stated; a polynomial collapse argument
(documented in the README and in the failing test below) shows it cannot
hold for this configuration space, so that one test stays red by design.
"""

import cmath
import math
import time

import numpy as np

import liesphere as ls

ROOT2 = math.sqrt(2.0)
ROOT3 = math.sqrt(3.0)
PI = math.pi


def announce(number, name, started, detail=""):
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number:>2} {name}: PASS ({elapsed:.2f}s) {detail}")


def test_acceptance_01_minimal_principal_curvatures():
    started = time.perf_counter()
    pc4 = ls.principal_curvatures(ls.IsoparametricFamily(4, 1, 1, 0.0))
    err4 = np.abs(pc4 - [ROOT2 + 1, ROOT2 - 1, -(ROOT2 - 1), -(ROOT2 + 1)]).max()
    pc6 = ls.principal_curvatures(ls.IsoparametricFamily(6, 1, 1, 0.0))
    err6 = np.abs(pc6 - [2 + ROOT3, 1.0, 2 - ROOT3,
                         -(2 - ROOT3), -1.0, -(2 + ROOT3)]).max()
    assert err4 <= 1e-12 and err6 <= 1e-12
    announce(1, "minimal principal curvatures", started,
             f"max err {max(err4, err6):.2e}")


def test_acceptance_02_lie_curvature_constants():
    started = time.perf_counter()
    worst = 0.0
    for theta in np.linspace(-0.95, 0.95, 200) * (PI / 8):
        pcs = ls.principal_curvatures(ls.IsoparametricFamily(4, 1, 1, float(theta)))
        worst = max(worst, abs(ls.lie_curvature_of_values(pcs, "paper6_12_34").value + 1.0))
    for theta in np.linspace(-0.95, 0.95, 200) * (PI / 12):
        pcs = ls.principal_curvatures(ls.IsoparametricFamily(6, 1, 1, float(theta)))
        psi = ls.lie_curvature_of_values((pcs[0], pcs[1], pcs[2], pcs[4]),
                                         "paper6_12_34").value
        worst = max(worst, abs(psi + 1.0))
    assert worst <= 1e-10
    announce(2, "Lie curvature constants Phi = Psi_nu = -1", started,
             f"max dev {worst:.2e}")


def test_acceptance_03_lie_invariance():
    started = time.perf_counter()
    sig = ls.Signature(4, 2)
    ce = ls.legendre_lift(np.array([1.0, 0, 0, 0]), np.array([0.0, 1, 0, 0]))
    base = ls.principal_curvatures(ls.IsoparametricFamily(4, 1, 1, 0.09))
    phi_std = ls.lie_curvature_of_values(base, "standard_13_24").value
    phi_p6 = ls.lie_curvature_of_values(base, "paper6_12_34").value
    worst = 0.0
    for seed in range(1000):
        transform = ls.random_lie_transform(sig, seed, 0.5)
        a, b, c, d = ls.moebius_coefficients(transform, ce)
        moved = [ls.moebius_curvature(a, b, c, d, ls.ProjectiveCurvature.from_value(v))
                 for v in base]
        worst = max(worst,
                    abs(ls.lie_curvature(*moved, ordering="standard_13_24").value - phi_std),
                    abs(ls.lie_curvature(*moved, ordering="paper6_12_34").value - phi_p6))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-8
    assert elapsed < 5.0
    announce(3, "Lie invariance over 1000 group actions", started,
             f"max dev {worst:.2e}")


def test_acceptance_04_parallel_transformation_law():
    started = time.perf_counter()
    xis = np.linspace(0.2, PI - 0.2, 100)
    thetas = np.linspace(-1.2, 1.2, 100)
    worst_value, worst_angle, checked = 0.0, 0.0, 0
    for theta in thetas:
        a, b, c, d = math.cos(theta), math.sin(theta), -math.sin(theta), math.cos(theta)
        for xi in xis:
            out = ls.moebius_curvature(a, b, c, d, ls.ProjectiveCurvature.from_angle(xi))
            target = (xi + theta) % PI
            if abs(math.sin(xi + theta)) >= 0.15:
                worst_value = max(worst_value, abs(out.value - 1.0 / math.tan(xi + theta)))
            # angle-space comparison is pole-free and covers every grid point
            angle = np.arctan2(out.u, out.v) % PI
            angle_dev = min(abs(angle - target), PI - abs(angle - target))
            worst_angle = max(worst_angle, angle_dev)
            checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 10_000
    assert worst_value <= 1e-10
    assert worst_angle <= 1e-12
    assert elapsed < 1.5
    announce(4, "parallel law cot(xi) -> cot(xi + theta)", started,
             f"max dev {worst_value:.2e}")


def test_acceptance_05_cross_ratio_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    worst, produced = 0.0, 0
    while produced < 10_000:
        thetas = np.sort(rng.uniform(0.02, PI - 0.02, 4))
        if np.diff(thetas).min() < 1e-3:
            continue
        phi = ls.lie_curvature(*(ls.ProjectiveCurvature.from_angle(t) for t in thetas),
                               ordering="standard_13_24").value
        zcr = ls.cross_ratio(*(cmath.exp(2j * t) for t in thetas))
        worst = max(worst, abs(zcr - phi))
        produced += 1
    elapsed = time.perf_counter() - started
    assert worst <= 1e-10
    assert elapsed < 4.0
    announce(5, "cross-ratio/curvature identity (10^4 quadruples)", started,
             f"max dev {worst:.2e}")


def test_acceptance_06_angle_solvers_and_oracles():
    started = time.perf_counter()
    g4 = ls.solve_g4_normalized()
    dev4 = max(abs(x - PI / 4) for x in g4.odd + g4.even)
    oracle4 = ls.g4_grid_oracle(721)
    odev4 = max(abs(v - PI / 4) for v in oracle4.polished)
    g6 = ls.solve_g6_normalized()
    dev6 = max(abs(x - PI / 6) for x in g6.odd + g6.even)
    oracle6 = ls.g6_grid_oracle(721)
    odev6 = max(abs(v - PI / 6) for v in oracle6.polished)
    elapsed = time.perf_counter() - started
    assert dev4 <= 1e-10 and dev6 <= 1e-10
    assert oracle4.unique_cell and oracle6.unique_cell
    assert odev4 <= 1e-6 and odev6 <= 1e-6
    assert elapsed < 30.0
    announce(6, "angle solvers reproduce pi/4 and pi/6", started,
             f"solver dev {max(dev4, dev6):.2e}, oracle dev {max(odev4, odev6):.2e}")


def test_acceptance_07_scalar_curvature_formulas():
    started = time.perf_counter()
    combos = ((3, 1, 1), (3, 2, 2), (3, 4, 4), (3, 8, 8),
              (4, 1, 1), (4, 2, 2), (4, 1, 4), (4, 4, 5), (4, 2, 3),
              (6, 1, 1), (6, 2, 2))
    worst = 0.0
    for g, m1, m2 in combos:
        bound = PI / (2 * g)
        for theta in np.linspace(-0.9 * bound, 0.9 * bound, 60):
            fam = ls.IsoparametricFamily(g, m1, m2, float(theta))
            inv = ls.scalar_curvature(fam)  # closed form recomputed independently below
            general = ((fam.ambient_dim - 1) * (fam.ambient_dim - 2)
                       + inv.mean_curvature ** 2 - inv.second_moment)
            if g == 3:
                closed = 9 * m1 * (m1 - 1) * (1 + 1 / math.tan(3 * fam.theta1) ** 2)
            elif g == 4:
                t = 1 / math.tan(2 * fam.theta1)
                closed = 4 * (m1 * (m1 - 1) * (1 + t * t)
                              + m2 * (m2 - 1) * (1 + 1 / (t * t)))
            else:
                closed = 36 * m1 * (m1 - 1) * (1 + 1 / math.tan(6 * fam.theta1) ** 2)
            worst = max(worst, abs(closed - general) / max(1.0, abs(general)))
    # minimal-case closed forms
    for m1, m2 in ((1, 1), (2, 2), (4, 5)):
        theta = ls.minimal_theta(4, m1, m2)
        inv = ls.scalar_curvature(ls.IsoparametricFamily(4, m1, m2, theta))
        worst = max(worst, abs(inv.scalar_curvature - 4 * (m1 + m2) * (m1 + m2 - 2)))
    for m in (1, 2):
        inv = ls.scalar_curvature(ls.IsoparametricFamily(6, m, m, 0.0))
        worst = max(worst, abs(inv.scalar_curvature - 36 * m * (m - 1)))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-8
    assert elapsed < 1.0
    announce(7, "scalar curvature closed forms", started, f"max dev {worst:.2e}")


def test_acceptance_certificate_margin_is_1e_minus_6():
    # every clears() below judges by this one margin, so the gate cannot loosen silently
    assert ls.dji.CERTIFICATE_MARGIN == 1e-6


def test_acceptance_08_derivative_system_kernels_and_certificates():
    started = time.perf_counter()
    systems = ((4, ("cmc", "csc"), 1, 1), (4, ("cmc", "csc"), 2, 2),
               (4, ("cmc", "csc"), 4, 5), (4, ("cmc", "clc"), 1, 1),
               (6, ("cmc", "clc"), 1, 1), (6, ("cmc", "clc"), 2, 2))
    for g, constraints, m1, m2 in systems:
        pcs = ls.principal_curvatures(ls.IsoparametricFamily(g, m1, m2, 0.0))
        system = ls.build_system(g, pcs, m1, m2, constraints,
                                 ls.critical_point_pinning(g))
        assert ls.kernel_analysis(system).dimension == 0, (g, constraints)
    pcs4 = ls.principal_curvatures(ls.IsoparametricFamily(4, 1, 1, 0.0))
    pcs6 = ls.principal_curvatures(ls.IsoparametricFamily(6, 1, 1, 0.0))
    for g, pcs in ((4, pcs4), (6, pcs6)):
        for cert in ls.sign_certificates(g, pcs):
            assert cert.clears(), cert
    values = {c.name: c.expression_value for c in ls.sign_certificates(6, pcs6)}
    assert abs(values["g6_one_minus_v_over_w"] - (9 - 2 * ROOT3)) <= 1e-10
    assert abs(ls.g6_d5_obstruction(pcs6) - (-12 - 24 * ROOT3)) <= 1e-10
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    announce(8, "derivative-system kernels and sign certificates", started)


def test_acceptance_09_isometry_reduction():
    started = time.perf_counter()
    worst = 0.0
    for g, m1, m2 in ((4, 1, 1), (4, 2, 2), (4, 4, 5), (6, 1, 1), (6, 2, 2)):
        bound = PI / (2 * g)
        for theta in np.linspace(-0.85 * bound, 0.85 * bound, 21):
            poly = ls.build_parallel_polygon(g, float(theta))
            result = ls.isometry_reduction(g, poly, m1, m2)
            worst = max(worst, result.closed_form_gap)
            assert all(c.clears() for c in result.certificates)
    elapsed = time.perf_counter() - started
    assert worst <= 1e-10
    assert elapsed < 1.0
    announce(9, "isometry reduction (x, y) = (0, 0)", started, f"max closed-form gap {worst:.2e}")


def test_acceptance_10_falsification_searches_parallel_only():
    started = time.perf_counter()
    specs = ((4, ("cmc", "csc"), 25), (4, ("cmc", "clc"), 25), (6, ("cmc", "clc"), 25))
    counts = []
    for g, constraints, resolution in specs:
        survivors = ls.constraint_search(g, constraints, resolution, 0)
        assert survivors, (g, constraints)
        assert all(s.parallel for s in survivors), (g, constraints)
        counts.append(len(survivors))
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    announce(10, "constraint searches return only parallel survivors", started,
             f"survivor counts {counts}")


def test_acceptance_10b_cmc_only_nonparallel_survivor():
    # Stated expectation: the g=4 mean-curvature-only search admits a non-parallel
    # survivor. It cannot: writing P and Q for the monic polynomials whose roots
    # are the even/odd vertex sets, equal vertex sums force z (P - Q)' = 0 and
    # z (P + Q)' - g (P + Q) = const, so P and Q are both of the form z^g - A and
    # the two vertex g-gons are regular, i.e. the polygon is parallel. The
    # assertion is kept as stated rather than weakened, so it stays red.
    survivors = ls.constraint_search(4, ("cmc",), 25, 0)
    assert survivors
    nonparallel = [s for s in survivors if not s.parallel]
    assert nonparallel, (
        "no non-parallel survivor: equal vertex mean-curvature sums already force "
        "both vertex g-gons of a table-structured polygon to be regular (the "
        "P - Q = const collapse in the README), so the stated expectation "
        "cannot be met")


def test_acceptance_11_theta_roundtrip():
    started = time.perf_counter()
    worst = 0.0
    for g, m1, m2 in ((1, 1, 1), (2, 1, 2), (2, 2, 2), (3, 1, 1), (3, 2, 2),
                      (3, 4, 4), (3, 8, 8), (4, 1, 1), (4, 2, 2), (4, 1, 4),
                      (4, 4, 5), (6, 1, 1), (6, 2, 2)):
        bound = PI / (2 * g)
        for theta in np.linspace(-0.9 * bound, 0.9 * bound, 40):
            fam = ls.IsoparametricFamily(g, m1, m2, float(theta))
            back = ls.theta_from_mean_curvature(g, m1, m2, ls.mean_curvature(fam))
            worst = max(worst, abs(back - theta))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-10
    assert elapsed < 1.5
    announce(11, "theta-from-H roundtrip", started, f"max dev {worst:.2e}")
