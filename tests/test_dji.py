import math

import numpy as np
import pytest

from liesphere.dji import (build_system, critical_point_pinning, g6_d5_obstruction,
                           kernel_analysis, recover_pair, sign_certificates)
from liesphere.errors import DomainError, InconsistentData
from liesphere.isoparam import IsoparametricFamily, mean_curvature, principal_curvatures
from liesphere.polygon import build_parallel_polygon

ROOT2 = math.sqrt(2.0)
ROOT3 = math.sqrt(3.0)


def family_pcs(g, m1=1, m2=1, theta=0.0):
    return principal_curvatures(IsoparametricFamily(g, m1, m2, theta))


def test_recover_pair_minimal_octagon():
    mu, tau = recover_pair(ROOT2 + 1, -(ROOT2 - 1), 0.0, 1, 1)
    assert abs(mu - (ROOT2 - 1)) <= 1e-12
    assert abs(tau + (ROOT2 + 1)) <= 1e-12


def test_recover_pair_across_family():
    for m1, m2 in ((1, 1), (2, 2), (2, 3)):
        for theta in np.linspace(-0.3, 0.3, 25) * (math.pi / 8):
            fam = IsoparametricFamily(4, m1, m2, float(theta))
            lam, mu, nu, tau = principal_curvatures(fam)
            h = mean_curvature(fam)
            mu_rec, tau_rec = recover_pair(lam, nu, h, m1, m2)
            assert abs(mu_rec - mu) <= 1e-10
            assert abs(tau_rec - tau) <= 1e-10


def test_recover_pair_from_polygon_vertices():
    for theta in np.linspace(-0.3, 0.3, 11) * (math.pi / 8):
        poly = build_parallel_polygon(4, float(theta))
        cot = poly.curvatures()
        h = float(cot[0].sum())
        for t in range(8):
            lam, mu, nu, tau = cot[t]
            mu_rec, tau_rec = recover_pair(lam, nu, h, 1, 1)
            assert abs(mu_rec - mu) <= 1e-10
            assert abs(tau_rec - tau) <= 1e-10


def test_recover_pair_negative_discriminant():
    # disc = (A - (lambda+nu))^2 - (lambda-nu)^2, so H = 2 m2 (lambda+nu) + m1 (lambda+nu)
    # puts A on top of lambda+nu and nearly equal inputs force a negative discriminant
    with pytest.raises(InconsistentData):
        recover_pair(1.0, 0.9, 3.8, 1, 1)


def test_build_system_cmc_row_content():
    pcs = family_pcs(4)
    system = build_system(4, pcs, 1, 2, ("cmc", "csc"), critical_point_pinning(4))
    row = dict(zip(system.row_labels, system.rows))["cmc[j=2]"]
    by_label = dict(zip(system.unknown_labels, row))
    # with d_21 pinned the row reads m1 d_23 + m2 d_24 = 0
    assert by_label[(2, 3)] == 1.0
    assert by_label[(2, 4)] == 2.0
    assert all(v == 0.0 for k, v in by_label.items() if k not in ((2, 3), (2, 4)))


def test_build_system_counts_g6():
    pcs = family_pcs(6)
    system = build_system(6, pcs, 1, 1, ("cmc",), critical_point_pinning(6))
    assert len(system.unknown_labels) == 24          # 30 minus the 6 pinned
    assert system.rows.shape[0] == 6                 # one cmc row per direction
    assert len(system.unknown_labels) - system.rows.shape[0] == 18
    full = build_system(6, pcs, 1, 1, ("cmc", "clc"), critical_point_pinning(6))
    phi_rows = [name for name in full.row_labels if name.startswith("clc_phi")]
    assert len(phi_rows) == 18                       # three Lie curvatures, six directions


def test_build_system_empty_constraints():
    pcs = family_pcs(4)
    system = build_system(4, pcs, 1, 1, ())
    assert system.rows.shape == (0, 12)


def test_build_system_g6_rows_unmultiplied():
    pcs = family_pcs(6, 2, 2)
    system = build_system(6, pcs, 2, 2, ("cmc",))
    row = dict(zip(system.row_labels, system.rows))["cmc[j=1]"]
    assert set(np.unique(row)) == {0.0, 1.0}
    from liesphere.errors import DomainError
    with pytest.raises(DomainError):
        build_system(6, pcs, 1, 2, ("cmc",))


def test_kernel_dimensions_zero_for_paper_systems():
    cases = ((4, ("cmc", "csc"), 1, 1), (4, ("cmc", "csc"), 2, 2),
             (4, ("cmc", "csc"), 4, 5), (4, ("cmc", "clc"), 1, 1),
             (6, ("cmc", "clc"), 1, 1), (6, ("cmc", "clc"), 2, 2))
    for g, constraints, m1, m2 in cases:
        pcs = family_pcs(g, m1, m2)
        system = build_system(g, pcs, m1, m2, constraints, critical_point_pinning(g))
        assert kernel_analysis(system).dimension == 0, (g, constraints, m1, m2)


def test_kernel_positive_for_cmc_alone():
    # one row per direction cannot pin two or three unknowns: the extra
    # csc/clc hypotheses are what make the kernels trivial
    pcs = family_pcs(4)
    system = build_system(4, pcs, 1, 1, ("cmc",), critical_point_pinning(4))
    assert kernel_analysis(system).dimension > 0


def test_kernel_full_without_constraints():
    pcs = family_pcs(6)
    system = build_system(6, pcs, 1, 1, ())
    analysis = kernel_analysis(system)
    assert analysis.dimension == len(system.unknown_labels)
    assert analysis.basis.shape == (30, 30)


def test_kernel_stability_under_pcs_perturbation():
    pcs = family_pcs(6)
    base = kernel_analysis(build_system(6, pcs, 1, 1, ("cmc", "clc"),
                                        critical_point_pinning(6))).dimension
    bumped = kernel_analysis(build_system(6, pcs + 1e-8 * np.arange(1, 7), 1, 1,
                                          ("cmc", "clc"),
                                          critical_point_pinning(6))).dimension
    assert base == bumped == 0


def test_rows_have_no_accidental_zero_coefficients():
    # perturbing any single unknown must move some row by at least eps * min |coef|
    pcs = family_pcs(6)
    system = build_system(6, pcs, 1, 1, ("cmc", "clc"), critical_point_pinning(6))
    eps = 1e-4
    for col in range(len(system.unknown_labels)):
        column = system.rows[:, col]
        nonzero = np.abs(column[np.abs(column) > 0])
        assert nonzero.size > 0
        vec = np.zeros(len(system.unknown_labels))
        vec[col] = eps
        assert np.abs(system.rows @ vec).max() >= eps * nonzero.min() * (1 - 1e-12)


def test_zero_vector_satisfies_all_rows():
    pcs = family_pcs(4)
    system = build_system(4, pcs, 1, 1, ("cmc", "csc", "clc"), critical_point_pinning(4))
    assert np.abs(system.rows @ np.zeros(len(system.unknown_labels))).max() == 0.0


def test_sign_certificates_hold_with_margin():
    for g in (4, 6):
        for cert in sign_certificates(g, family_pcs(g)):
            assert cert.holds, cert
            assert cert.margin > 1e-6, cert


def test_g6_certificate_closed_forms():
    certs = {c.name: c.expression_value for c in sign_certificates(6, family_pcs(6))}
    assert abs(certs["g6_one_minus_v_over_w"] - (9 - 2 * ROOT3)) <= 1e-12
    assert certs["g6_step2_coefficient"] > 5.0
    assert abs(certs["g6_step2_coefficient"] - 9 * (2 + ROOT3) / 2) <= 1e-12
    assert certs["g6_step3_coefficient"] < 0.0
    assert abs(certs["g6_step3_coefficient"] - (-6 - 4 * ROOT3)) <= 1e-12
    assert abs(certs["g6_d5_linear_coefficient"] - (9 - 6 * ROOT3)) <= 1e-12
    assert abs(certs["g6_psi_check_ratio_mu"] + 2.0) <= 1e-12
    assert abs(certs["g6_psi_check_ratio_sigma"] - 2.0) <= 1e-12
    assert abs(certs["g6_psi_check_ratio_tau"] - 4.0) <= 1e-12
    assert abs(certs["g6_psi_bar_ratio_mu"] - 3.0) <= 1e-12
    assert abs(certs["g6_psi_bar_ratio_sigma"] + 1.0) <= 1e-12
    assert abs(certs["g6_psi_bar_ratio_tau"] + 3.0) <= 1e-12


def test_d5_obstruction_minimal_value():
    value = g6_d5_obstruction(family_pcs(6))
    assert abs(value - (-12 - 24 * ROOT3)) <= 1e-12


def test_d5_obstruction_terms_negative_at_minimal():
    certs = {c.name: c for c in sign_certificates(6, family_pcs(6))}
    for name in ("g6_d5_obstruction_term_mu", "g6_d5_obstruction_term_nu",
                 "g6_d5_obstruction_term_rho"):
        assert certs[name].expression_value < 0


def _d5_reference(row):
    """The per-term loop that g6_d5_obstruction vectorizes, kept as the reference."""
    lam, sig, tau = float(row[0]), float(row[4]), float(row[5])
    total = 0.0
    for h in row[1:4]:
        total += (float(h) - tau) * (lam - float(h)) * (sig - float(h))
    return total


def test_d5_obstruction_batch_equals_rows_exactly():
    rng = np.random.default_rng(4)
    batch = np.sort(rng.uniform(-8, 8, (200, 6)))[:, ::-1]
    values = g6_d5_obstruction(batch)
    assert values.shape == (200,)
    assert (values == [g6_d5_obstruction(row) for row in batch]).all()
    assert (values == [_d5_reference(row) for row in batch]).all()
    assert (g6_d5_obstruction(batch.reshape(20, 10, 6)) == values.reshape(20, 10)).all()


def test_d5_obstruction_batch_rejects_one_bad_row():
    batch = np.sort(np.random.default_rng(5).uniform(-8, 8, (50, 6)))[:, ::-1]
    underflow = batch.copy()
    # strictly decreasing, but the mu term underflows to -0.0, which is not negative
    underflow[7] = [3e-160, 2e-160, 1e-160, 0.0, -1e-160, -2e-160]
    with pytest.raises(InconsistentData):
        g6_d5_obstruction(underflow)
    unordered = batch.copy()
    unordered[31, [1, 2]] = unordered[31, [2, 1]]
    with pytest.raises(DomainError):
        g6_d5_obstruction(unordered)


def test_d5_obstruction_always_negative():
    rng = np.random.default_rng(0)
    count = 0
    while count < 10_000:
        sample = np.sort(rng.uniform(-9, 9, 6))[::-1]
        if np.abs(np.diff(sample)).min() < 1e-3:
            continue
        assert g6_d5_obstruction(sample) < 0
        count += 1
