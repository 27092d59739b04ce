import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liesphere import dji, quadric, report
from liesphere.dji import (G6_AUX_FAMILIES, NEGATIVE, POSITIVE,
                           DerivativeSystem, KernelAnalysis, SignCertificate,
                           _cross_ratio_log_row,
                           build_system, critical_point_pinning, g6_d5_obstruction,
                           kernel_analysis, recover_pair, sign_certificates)
from liesphere.errors import DegenerateConfiguration, DomainError, InconsistentData
from liesphere.isoparam import (IsoparametricFamily, mean_curvature, multiplicity_vector,
                                principal_curvatures)
from liesphere.polygon import build_parallel_polygon

ROOT2 = math.sqrt(2.0)
ROOT3 = math.sqrt(3.0)
# the curvature quadruples of the g = 6 Phi_h rows, written out apart from dji.CLC_PHI
G6_PHI_QUADS = {h: (1, 2, h, 5) for h in (3, 4, 6)}


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


@pytest.mark.parametrize("analyse", (False, True))
def test_records_of_arrays_compare_by_identity(analyse):
    def make():
        system = build_system(4, family_pcs(4), 1, 1, ("cmc",), critical_point_pinning(4))
        return kernel_analysis(system) if analyse else system

    a, b = make(), make()
    assert type(a) is (KernelAnalysis if analyse else DerivativeSystem)
    assert a == a and a != b and not a == b
    assert len({a, b, a}) == 2


def test_build_system_cmc_row_content():
    pcs = family_pcs(4)
    system = build_system(4, pcs, 1, 2, ("cmc", "csc"), critical_point_pinning(4))
    row = dict(zip(system.row_labels, system.rows))["cmc[j=2]"]
    by_label = dict(zip(system.unknown_labels, row))
    # with d_21 pinned the row reads m1 d_23 + m2 d_24 = 0
    assert by_label[(2, 3)] == 1.0
    assert by_label[(2, 4)] == 2.0
    assert all(v == 0.0 for k, v in by_label.items() if k not in ((2, 3), (2, 4)))


@pytest.mark.parametrize("g, m1, m2", ((4, 0, 1), (4, 1, 0), (6, 0, 0), (6, 1, 2)))
def test_build_system_rejects_bad_multiplicities(g, m1, m2):
    with pytest.raises(DomainError):
        build_system(g, family_pcs(g), m1, m2, ("cmc",), critical_point_pinning(g))


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


def test_build_system_g2_weights_rows_by_multiplicity():
    # g = 2 admits distinct multiplicities: row j holds m_i at d_ji
    system = build_system(2, family_pcs(2, 1, 2), 1, 2, ("cmc",))
    assert system.unknown_labels == ((1, 2), (2, 1))
    assert system.row_labels == ("cmc[j=1]", "cmc[j=2]")
    assert np.array_equal(system.rows, [[2.0, 0.0], [0.0, 1.0]])


def _weighted_rows_before(system, g, pcs, m1, m2):
    """cmc and csc rows under the earlier rule: weights m_i for g = 4, 1 for every other g."""
    weights = multiplicity_vector(g, m1, m2) if g == 4 else np.ones(g)
    index = {lab: k for k, lab in enumerate(system.unknown_labels)}
    rows = {}
    for j in range(1, g + 1):
        for name, coeffs in (("cmc", weights), ("csc", weights * pcs)):
            row = np.zeros(len(index))
            for i in range(1, g + 1):
                if (j, i) in index:
                    row[index[(j, i)]] = coeffs[i - 1]
            rows[f"{name}[j={j}]"] = row
    return rows


@pytest.mark.parametrize("g, constraints, m1, m2", report._KERNEL_SYSTEMS)
def test_kernel_suite_systems_unchanged_by_multiplicity_rule(g, constraints, m1, m2):
    pcs = family_pcs(g, m1, m2)
    system = build_system(g, pcs, m1, m2, constraints, critical_point_pinning(g))
    before = _weighted_rows_before(system, g, pcs, m1, m2)
    weighted = [(label, row) for label, row in zip(system.row_labels, system.rows)
                if label.startswith(("cmc[", "csc["))]
    assert len(weighted) == g * len({"cmc", "csc"} & set(constraints))
    for label, row in weighted:
        assert np.array_equal(row, before[label]), label


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
    assert dji.CERTIFICATE_MARGIN == 1e-6  # the margin every clears() in this file judges by
    for g in (4, 6):
        for cert in sign_certificates(g, family_pcs(g)):
            assert cert.clears(), cert


def test_sign_certificates_list_claims_in_its_order():
    for g in (4, 6):
        assert [(c.name, c.claimed_sign) for c in sign_certificates(g, family_pcs(g))] == list(
            dji.CLAIMS[g].items())
    assert (len(dji.CLAIMS[4]), len(dji.CLAIMS[6])) == (5, 21)


@pytest.mark.parametrize("change", ("missing", "extra"))
def test_sign_certificates_raise_on_a_name_outside_claims(monkeypatch, change):
    values = dji._g6_values

    def changed(pcs):
        found = values(pcs)
        if change == "missing":
            del found["g6_w6"]
        else:
            found["g6_w7"] = 1.0
        return found

    monkeypatch.setattr(dji, "_g6_values", changed)
    with pytest.raises(ValueError, match=r"certificate names differ from CLAIMS: \['g6_w"):
        sign_certificates(6, family_pcs(6))


def test_sign_certificate_rejects_an_unknown_claim(monkeypatch):
    monkeypatch.setattr(dji, "CERTIFICATE_MARGIN", 0.0)
    assert SignCertificate("x", 1.0, POSITIVE).clears()
    assert not SignCertificate("x", 0.0, NEGATIVE).clears()
    with pytest.raises(ValueError, match="unknown claimed sign 'postive'"):
        SignCertificate("x", 0.0, "postive").clears()
    with pytest.raises(ValueError, match="unknown claimed sign 'postive'"):
        SignCertificate("x", np.array([1.0, -1.0]), "postive").clears()


_EDGE_VALUES = (0.0, -0.0, math.inf, -math.inf, math.nan, 1e-6, -1e-6, 1.0, -1.0, 0.5, -0.5,
                2.0, -2.0, 1e-7, -1e-7)


@pytest.mark.parametrize("margin", (0.0, 1e-6, 1.0))
@pytest.mark.parametrize("claim", (POSITIVE, NEGATIVE))
def test_clears_is_the_sign_and_margin_predicate_elementwise(monkeypatch, claim, margin):
    # the predicate that SignCertificate's holds and margin properties made, written out;
    # clears() reads CERTIFICATE_MARGIN at each call
    monkeypatch.setattr(dji, "CERTIFICATE_MARGIN", margin)
    values = np.array(_EDGE_VALUES)
    holds = values > 0 if claim == POSITIVE else values < 0
    expected = holds & (np.abs(values) > margin)
    assert (SignCertificate("x", values, claim).clears() == expected).all()
    assert [SignCertificate("x", v, claim).clears() for v in _EDGE_VALUES] == list(expected)
    stack = SignCertificate("x", values.reshape(3, 5), claim).clears()
    assert (stack == expected.reshape(3, 5)).all()


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


def test_d5_factor_signs_give_each_terms_claimed_sign():
    # on a strictly decreasing sextuple pcs[i] - pcs[j] has the sign of j - i
    assert list(dji.D5_FACTORS) == [f"g6_d5_obstruction_term_{h}" for h in ("mu", "nu", "rho")]
    for name, factors in dji.D5_FACTORS.items():
        assert len(factors) == 3 and all(i != j for i, j in factors)
        sign = math.prod(1 if j > i else -1 for i, j in factors)
        assert {1: POSITIVE, -1: NEGATIVE}[sign] == dji.CLAIMS[6][name], name


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


# ---------------------------------------------------------------------------
# references: build_system, _cross_ratio_log_row, sign_certificates and _g6_uvw
# as they were written before the rows went through one grid and each
# certificate formula was written once; the library must match them bit for bit,
# except the 11 g = 6 certificates now read off the rows (_ROW_READ), up to rounding.
# Each cross-ratio row entry is one quotient, (lb - ld)/((la - lb)(la - ld)) where it was
# 1/(la - lb) - 1/(la - ld), in the reference as in the library
# ---------------------------------------------------------------------------

def _ref_cross_ratio_log_row(pcs, j, ia, ib, ic, id_):
    la, lb, lc, ld = pcs[ia - 1], pcs[ib - 1], pcs[ic - 1], pcs[id_ - 1]
    co: dict[int, float] = {}
    co[ia] = (lb - ld) / ((la - lb) * (la - ld))  # 1/(la - lb) - 1/(la - ld)
    co[ib] = (la - lc) / ((la - lb) * (lc - lb))  # -1/(la - lb) + 1/(lc - lb)
    co[ic] = (ld - lb) / ((lc - ld) * (lc - lb))  # 1/(lc - ld) - 1/(lc - lb)
    co[id_] = (lc - la) / ((la - ld) * (lc - ld))  # -1/(lc - ld) + 1/(la - ld)
    return co


def _ref_build_system(g, pcs, m1, m2, constraints, assumed_zero=frozenset()):
    pcs = np.asarray(pcs, dtype=float)
    if len(pcs) != g:
        raise ValueError("need g principal curvatures")
    if not np.all(np.diff(pcs) < 0):
        raise DomainError("principal curvatures must be strictly decreasing")
    constraints = set(constraints)
    unknown = set(constraints) - {"cmc", "csc", "clc"}
    if unknown:
        raise ValueError(f"unknown constraints {sorted(unknown)}")
    assumed_zero = frozenset(assumed_zero)
    labels = tuple((j, i) for j in range(1, g + 1) for i in range(1, g + 1)
                   if i != j and (j, i) not in assumed_zero)
    index = {lab: k for k, lab in enumerate(labels)}
    mult = multiplicity_vector(g, m1, m2)
    if g in (1, 3, 6):
        mult = np.ones(g)

    rows: list[np.ndarray] = []
    names: list[str] = []

    def add(j, coeffs, name):
        row = np.zeros(len(labels))
        for i, val in coeffs.items():
            if i != j and (j, i) not in assumed_zero:
                row[index[(j, i)]] = val
        rows.append(row)
        names.append(name)

    if "cmc" in constraints:
        for j in range(1, g + 1):
            add(j, {i: mult[i - 1] for i in range(1, g + 1)}, f"cmc[j={j}]")
    if "csc" in constraints:
        for j in range(1, g + 1):
            add(j, {i: mult[i - 1] * pcs[i - 1] for i in range(1, g + 1)}, f"csc[j={j}]")
    if "clc" in constraints:
        if g == 4:
            for j in range(1, 5):
                add(j, _ref_cross_ratio_log_row(pcs, j, 1, 2, 3, 4), f"clc_phi[j={j}]")
        elif g == 6:
            for h, quad in G6_PHI_QUADS.items():
                for j in range(1, 7):
                    add(j, _ref_cross_ratio_log_row(pcs, j, *quad), f"clc_phi{h}[j={j}]")
            for family, j, quads in G6_AUX_FAMILIES:
                for quad in quads:
                    add(j, _ref_cross_ratio_log_row(pcs, j, *quad),
                        f"clc_{family}{quad[2]}[j={j}]")
        else:
            raise DomainError("clc rows are defined for g = 4 and g = 6")

    matrix = np.array(rows) if rows else np.zeros((0, len(labels)))
    return DerivativeSystem(g, labels, matrix, tuple(names),
                            {"pcs": pcs, "m1": m1, "m2": m2,
                             "constraints": frozenset(constraints)},
                            assumed_zero)


def _ref_g6_uvw(curv):
    lam, mu, sig = curv[0], curv[1], curv[4]
    u = {h: (lam - curv[h - 1]) / ((curv[h - 1] - mu) * (lam - mu)) for h in (3, 4, 6)}
    v = {h: (curv[h - 1] - lam) / ((lam - sig) * (curv[h - 1] - sig)) for h in (3, 4, 6)}
    w = {h: (sig - mu) / ((curv[h - 1] - sig) * (curv[h - 1] - mu)) for h in (3, 4, 6)}
    return u, v, w


def _ref_g6_row_read(curv):
    """The hand formulas of the 11 g = 6 certificates that sign_certificates reads off the
    rows, by name, on six floats or six sympy symbols."""
    lam, mu, nu, rho, sig, tau = curv
    _, v, w = _ref_g6_uvw(curv)
    formulas = {f"g6_{name}{h}": values[h] for name, values in (("v", v), ("w", w))
                for h in (3, 4, 6)}
    formulas["g6_one_minus_v_over_w"] = 1.0 - v[3] / w[3] - v[4] / w[4] - v[6] / w[6]
    denom2 = (lam - rho) * (nu - rho)
    step2 = 1.0 + ((lam - mu) * (nu - mu) + (lam - sig) * (nu - sig)
                   + (lam - tau) * (nu - tau)) / denom2
    denom3 = (lam - nu) * (rho - nu)
    step3 = 1.0 + ((lam - mu) * (rho - mu) + (lam - sig) * (rho - sig)
                   + (lam - tau) * (rho - tau)) / denom3
    denom4 = (lam - nu) * (tau - nu)
    step4 = 1.0 + ((lam - mu) * (tau - mu) + (lam - rho) * (tau - rho)
                   + (lam - sig) * (tau - sig)) / denom4
    denom5 = (lam - mu) * (sig - mu)
    step5 = 1.0 + ((lam - nu) * (sig - nu) + (lam - rho) * (sig - rho)
                   + (lam - tau) * (sig - tau)) / denom5
    formulas.update(g6_step2_coefficient=step2, g6_step3_coefficient=step3,
                    g6_step4_coefficient=step4, g6_d5_linear_coefficient=step5)
    return formulas


_ROW_READ = tuple(_ref_g6_row_read([6.0, 5.0, 4.0, 3.0, 2.0, 1.0]))


def _ref_sign_certificates(g, pcs):
    pcs = np.asarray(pcs, dtype=float)
    if not np.all(np.diff(pcs) < 0):
        raise DomainError("principal curvatures must be strictly decreasing")
    certs: list[SignCertificate] = []
    if g == 4:
        lam, mu, nu, tau = (float(v) for v in pcs)
        certs += [
            SignCertificate("g4_d23_ratio", (tau - mu) / (nu - mu), POSITIVE),
            SignCertificate("g4_d24_ratio", (nu - lam) / (lam - tau), NEGATIVE),
            SignCertificate("g4_d42_ratio", (lam - nu) / (lam - mu), POSITIVE),
            SignCertificate("g4_d43_ratio", (tau - mu) / (nu - tau), NEGATIVE),
            SignCertificate("g4_one_minus_ratio_sq",
                            1.0 - ((nu - mu) / (nu - tau)) ** 2, POSITIVE),
        ]
        return certs
    if g != 6:
        raise DomainError("sign certificates are defined for g = 4 and g = 6")
    lam, mu, nu, rho, sig, tau = curv = [float(v) for v in pcs]
    row_read = _ref_g6_row_read(curv)
    certs += [
        SignCertificate("g6_v3", row_read["g6_v3"], NEGATIVE),
        SignCertificate("g6_v4", row_read["g6_v4"], NEGATIVE),
        SignCertificate("g6_v6", row_read["g6_v6"], POSITIVE),
        SignCertificate("g6_w3", row_read["g6_w3"], POSITIVE),
        SignCertificate("g6_w4", row_read["g6_w4"], POSITIVE),
        SignCertificate("g6_w6", row_read["g6_w6"], NEGATIVE),
        SignCertificate("g6_one_minus_v_over_w", row_read["g6_one_minus_v_over_w"], POSITIVE),
    ]
    certs += [
        SignCertificate("g6_psi_check_ratio_mu",
                        (lam - rho) * (nu - mu) / ((lam - mu) * (nu - rho)), NEGATIVE),
        SignCertificate("g6_psi_check_ratio_sigma",
                        (lam - rho) * (nu - sig) / ((lam - sig) * (nu - rho)), POSITIVE),
        SignCertificate("g6_psi_check_ratio_tau",
                        (lam - rho) * (nu - tau) / ((lam - tau) * (nu - rho)), POSITIVE),
        SignCertificate("g6_psi_bar_ratio_mu",
                        (lam - nu) * (rho - mu) / ((lam - mu) * (rho - nu)), POSITIVE),
        SignCertificate("g6_psi_bar_ratio_sigma",
                        (lam - nu) * (rho - sig) / ((lam - sig) * (rho - nu)), NEGATIVE),
        SignCertificate("g6_psi_bar_ratio_tau",
                        (lam - nu) * (rho - tau) / ((lam - tau) * (rho - nu)), NEGATIVE),
    ]
    certs += [
        SignCertificate("g6_step2_coefficient", row_read["g6_step2_coefficient"], POSITIVE),
        SignCertificate("g6_step3_coefficient", row_read["g6_step3_coefficient"], NEGATIVE),
        SignCertificate("g6_step4_coefficient", row_read["g6_step4_coefficient"], POSITIVE),
        SignCertificate("g6_d5_linear_coefficient", row_read["g6_d5_linear_coefficient"],
                        NEGATIVE),
    ]
    for name, h in (("mu", mu), ("nu", nu), ("rho", rho)):
        certs.append(SignCertificate(f"g6_d5_obstruction_term_{name}",
                                     (h - tau) * (lam - h) * (sig - h), NEGATIVE))
    certs.append(SignCertificate("g6_d5_obstruction_total", float(g6_d5_obstruction(pcs)),
                                 NEGATIVE))
    return certs


_REF_MULTIPLICITIES = {2: ((1, 1), (1, 2), (3, 2)), 3: ((1, 1), (2, 2), (4, 4)),
                       4: ((1, 1), (2, 2), (4, 5), (1, 2)), 6: ((1, 1), (2, 2))}
_REF_CONSTRAINTS = tuple(tuple(c for c, on in zip(("cmc", "csc", "clc"), bits) if on)
                         for bits in np.ndindex(2, 2, 2))


def _outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the comparison covers every raise
        return type(exc), str(exc)


def _assert_same_system(new, ref):
    if isinstance(ref, tuple):
        assert new == ref
        return
    assert new.g == ref.g and new.assumed_zero == ref.assumed_zero
    assert new.unknown_labels == ref.unknown_labels
    assert new.row_labels == ref.row_labels
    assert new.rows.shape == ref.rows.shape and np.array_equal(new.rows, ref.rows)
    assert new.rows.tobytes() == ref.rows.tobytes()


def _assert_same_certificates(new, ref):
    """Names and claims equal; values hex-equal, but the row-read ones equal up to rounding."""
    if isinstance(ref, tuple):
        assert new == ref
        return
    assert [(c.name, c.claimed_sign) for c in new] == [(c.name, c.claimed_sign) for c in ref]
    for got, want in zip((c.expression_value for c in new), ref):
        if want.name in _ROW_READ:  # read off the rows now: same sign where it is clear
            assert abs(got - want.expression_value) <= 1e-12 * max(1.0, abs(want.expression_value))
            assert abs(want.expression_value) <= 1e-12 or (got > 0) == (want.expression_value > 0)
        else:
            assert float(got).hex() == float(want.expression_value).hex(), want.name


def _systems_agree(g, pcs, m1, m2):
    for constraints in _REF_CONSTRAINTS:
        for pinned in (frozenset(), critical_point_pinning(g)):
            args = (g, pcs, m1, m2, constraints, pinned)
            _assert_same_system(_outcome(build_system, *args), _outcome(_ref_build_system, *args))


@pytest.mark.parametrize("g", sorted(_REF_MULTIPLICITIES))
def test_build_system_and_certificates_match_reference_over_family(g):
    thetas = np.linspace(-1.0, 1.0, 43)[1:-1] * (math.pi / (2 * g))
    for m1, m2 in _REF_MULTIPLICITIES[g]:
        for pcs in principal_curvatures(IsoparametricFamily(g, m1, m2, thetas)):
            _systems_agree(g, pcs, m1, m2)
            _assert_same_certificates(_outcome(sign_certificates, g, pcs),
                                      _outcome(_ref_sign_certificates, g, pcs))


@pytest.mark.parametrize("g", sorted(_REF_MULTIPLICITIES))
def test_build_system_and_certificates_match_reference_on_random_tuples(g):
    tuples = np.sort(np.random.default_rng(150 + g).uniform(-8.0, 8.0, (1000, g)))[:, ::-1]
    for pcs in tuples[:60]:
        for m1, m2 in _REF_MULTIPLICITIES[g][:2]:
            _systems_agree(g, pcs, m1, m2)
    for pcs in tuples:
        _assert_same_certificates(_outcome(sign_certificates, g, pcs),
                                  _outcome(_ref_sign_certificates, g, pcs))


def test_cross_ratio_row_matches_reference():
    pcs = np.sort(np.random.default_rng(15).uniform(-8.0, 8.0, (200, 6)))[:, ::-1]
    quads = (*G6_PHI_QUADS.values(), *(q for _, _, qs in G6_AUX_FAMILIES for q in qs))
    for row in pcs:
        for quad in quads:
            ref = _ref_cross_ratio_log_row(row, 1, *quad)
            expected = np.zeros(6)
            expected[[i - 1 for i in ref]] = list(ref.values())
            assert _cross_ratio_log_row(row, *quad).tobytes() == expected.tobytes()


_PCS4 = (3.0, 1.0, -1.0, -3.0)


@pytest.mark.parametrize("args, raised", (
    # a wrong length is named before the ordering
    ((4, (1.0, 2.0, 3.0), 1, 1, ("cmc",)), (ValueError, "need g principal curvatures")),
    # an unordered tuple is named before an unknown constraint
    ((4, (1.0, 3.0, -1.0, -3.0), 1, 1, ("cmc", "xyz")),
     (DomainError, "principal curvatures must be strictly decreasing")),
    # an unknown constraint is named before a bad multiplicity
    ((4, _PCS4, 0, 1, ("xyz", "cmc")), (ValueError, "unknown constraints ['xyz']")),
    # clc has no rows at g = 3; a bad multiplicity there is named first
    ((3, (2.0, 0.0, -2.0), 1, 1, ("cmc", "clc")),
     (DomainError, "clc rows are defined for g = 4 and g = 6")),
    ((3, (2.0, 0.0, -2.0), 1, 2, ("clc",)),
     (DomainError, "g = 3 forces a common multiplicity")),
))
def test_build_system_raises_as_reference(args, raised):
    assert _outcome(build_system, *args) == raised
    assert _outcome(_ref_build_system, *args) == raised


@pytest.mark.parametrize("g, pcs, raised", (
    (3, (2.0, 0.0, -2.0), (DomainError, "sign certificates are defined for g = 4 and g = 6")),
    (3, (0.0, 2.0, -2.0), (DomainError, "principal curvatures must be strictly decreasing")),
    (6, (3e-160, 2e-160, 1e-160, 0.0, -1e-160, -2e-160),
     (InconsistentData, "obstruction term not negative; input not admissible")),
))
def test_sign_certificates_raise_as_reference(g, pcs, raised):
    assert _outcome(sign_certificates, g, pcs) == raised
    assert _outcome(_ref_sign_certificates, g, pcs) == raised


@pytest.mark.parametrize("pcs, cause", (
    # gaps of 1e-12: lie_curvature_of_values judges the curvatures to coincide
    ([3e-12, 2e-12, 1e-12, 0.0, -1e-12, -2e-12], DegenerateConfiguration),
    # a gap of 1e-310: a quotient in the rows overflows
    ([3.0, 2.0, 1.0, 1e-310, 0.0, -1.0], FloatingPointError),
    # gaps of 1e200: a denominator product of the rows overflows
    ([3e200, 2e200, 1e200, 0.0, -1e200, -2e200], FloatingPointError),
))
def test_sign_certificates_name_the_curvatures_they_cannot_evaluate(pcs, cause):
    # raised as DomainError under filterwarnings = error, so no numpy warning escaped
    match = rf"cannot be evaluated at curvatures \[{re.escape(str(pcs[0]))}, "
    with pytest.raises(DomainError, match=match) as info:
        sign_certificates(6, pcs)
    assert isinstance(info.value.__cause__, cause)


def test_sign_certificates_name_an_underflowing_denominator():
    # gaps near 1e-170: a denominator product of the rows underflows to 0 in float arithmetic
    pcs = [3e-170, 2e-170, 1e-170, 0.0, -1e-170, -2e-170]
    with pytest.raises(DomainError, match=r"cannot be evaluated at curvatures \[3e-170, ") as info:
        sign_certificates(6, pcs)
    assert isinstance(info.value.__cause__, FloatingPointError)
    # the reference copy raises the bare ZeroDivisionError that the message replaces
    with pytest.raises(ZeroDivisionError):
        _ref_sign_certificates(6, pcs)


def test_sign_certificates_keep_a_row_entry_that_a_difference_of_reciprocals_loses():
    # at tau = -1e17 the d_26 coefficient of clc_phi6[j=2], 1/(tau - sigma) - 1/(tau - mu),
    # is 0 in float arithmetic; its one quotient (sigma - mu)/((tau - sigma)(tau - mu)) is not
    pcs = [3.0, 2.0, 1.0, 0.0, -1.0, -1e17]
    certificates = sign_certificates(6, pcs)
    _assert_same_certificates(certificates, _ref_sign_certificates(6, pcs))
    assert next(c for c in certificates if c.name == "g6_w6").expression_value == -3e-34


def _g6_system(pcs):
    return build_system(6, pcs, 1, 1, ("cmc", "clc"), critical_point_pinning(6))


def test_g6_certificates_are_read_off_the_rows(monkeypatch):
    pcs = family_pcs(6)
    before = {c.name: c.expression_value for c in sign_certificates(6, pcs)}

    def scaled(*args):
        system = build_system(*args)
        system.rows[system.row_labels.index("clc_phi3[j=2]")] *= 3.0
        return system

    monkeypatch.setattr(dji, "build_system", scaled)
    after = {c.name: c.expression_value for c in sign_certificates(6, pcs)}
    assert after["g6_v3"] == 3.0 * before["g6_v3"] and after["g6_w3"] == 3.0 * before["g6_w3"]
    assert abs(after["g6_one_minus_v_over_w"] - before["g6_one_minus_v_over_w"]) <= 1e-14
    assert all(after[name] == before[name] for name in before
               if name not in ("g6_v3", "g6_w3", "g6_one_minus_v_over_w"))


# (direction j, family, kept unknown) of the eliminations whose pivots are certificates
_ELIMINATIONS = {"g6_one_minus_v_over_w": (2, "phi", 5),
                 "g6_step2_coefficient": (3, "psi_check", 4),
                 "g6_step3_coefficient": (4, "psi_bar", 3),
                 "g6_step4_coefficient": (6, "psi_tilde", 3),
                 "g6_d5_linear_coefficient": (5, "psi_sigma", 2)}


def _row_read(system):
    """The 11 row-read certificates of a g = 6 (cmc, clc) system, by name: v_h and w_h the
    coefficients of row clc_phi<h>[j=2] on d_25 and d_2h, and the five pivots."""
    rows, col = dict(zip(system.row_labels, system.rows)), system.unknown_labels.index
    return {**{f"g6_v{h}": rows[f"clc_phi{h}[j=2]"][col((2, 5))] for h in (3, 4, 6)},
            **{f"g6_w{h}": rows[f"clc_phi{h}[j=2]"][col((2, h))] for h in (3, 4, 6)},
            **{name: dji._pivot(system, *spec) for name, spec in _ELIMINATIONS.items()}}


def test_each_elimination_leaves_only_its_pivot():
    for pcs in (family_pcs(6), family_pcs(6, theta=-0.2),
                np.sort(np.random.default_rng(23).uniform(-8.0, 8.0, 6))[::-1]):
        system = _g6_system(pcs)
        rows = dict(zip(system.row_labels, system.rows))
        for j, family, keep in (*_ELIMINATIONS.values(), (5, "phi", 2)):
            reduced = rows[f"cmc[j={j}]"].copy()
            k = system.unknown_labels.index((j, keep))
            for h in sorted({2, 3, 4, 5, 6} - {j, keep}):
                row, other = rows[f"clc_{family}{h}[j={j}]"], system.unknown_labels.index((j, h))
                assert set(np.flatnonzero(row)) == {k, other}  # its two free unknowns
                reduced = reduced - reduced[other] / row[other] * row
            pivot = dji._pivot(system, j, family, keep)
            assert np.abs(np.delete(reduced, k)).max() <= 1e-12
            assert abs(reduced[k] - pivot) <= 1e-13 * max(1.0, abs(pivot))


def _symbolic_g6_system(sp, lam):
    """The system of _g6_system with every clc row the sympy derivative of log X."""
    numeric = _g6_system(family_pcs(6))

    def log_row(a, b, c, d):
        la, lb, lc, ld = (lam[i - 1] for i in (a, b, c, d))
        log_x = sp.log((la - lb) * (lc - ld) / ((la - ld) * (lc - lb)))
        return [sp.cancel(sp.diff(log_x, symbol)) for symbol in lam]

    families = [("cmc", [sp.Integer(1)] * 6, range(1, 7))]
    families += [(f"clc_phi{h}", log_row(*quad), range(1, 7))
                 for h, quad in G6_PHI_QUADS.items()]
    families += [(f"clc_{family}{quad[2]}", log_row(*quad), (j,))
                 for family, j, quads in G6_AUX_FAMILIES for quad in quads]
    rows = [(f"{prefix}[j={j}]", j, coeffs) for prefix, coeffs, js in families for j in js]
    assert tuple(label for label, _, _ in rows) == numeric.row_labels
    grid = np.array([[coeffs[i - 1] if row_j == j else sp.Integer(0)
                      for row_j, i in numeric.unknown_labels] for _, j, coeffs in rows])
    return DerivativeSystem(6, numeric.unknown_labels, grid, numeric.row_labels, {},
                            numeric.assumed_zero)


def test_row_read_certificates_are_the_hand_formulas():
    """Each of the 11 certificates that sign_certificates reads off the rows equals its formula
    of _ref_sign_certificates as a rational function of the six curvatures, and so does the
    pivot on d_52 that the Phi rows of direction 5 leave: the sign change of
    g6_d5_linear_coefficient is the step's own."""
    sp = pytest.importorskip("sympy")
    # _row_read reads the values that sign_certificates reports, to the bit
    pcs = family_pcs(6, theta=0.1)
    reported = {c.name: c.expression_value for c in sign_certificates(6, pcs)}
    assert {name: float(value) for name, value in _row_read(_g6_system(pcs)).items()} == {
        name: reported[name] for name in _ROW_READ}
    lam = sp.symbols("lambda mu nu rho sigma tau")
    system = _symbolic_g6_system(sp, lam)
    # the symbolic rows are build_system's rows
    pcs = np.sort(np.random.default_rng(7).uniform(-8.0, 8.0, 6))[::-1]
    values = sp.Matrix(system.rows).subs(dict(zip(lam, pcs.tolist())))
    assert np.allclose(np.array(values, dtype=float), _g6_system(pcs).rows, rtol=1e-12, atol=0)
    derived, formulas = _row_read(system), _ref_g6_row_read(lam)
    for name in _ROW_READ:
        assert sp.cancel(sp.nsimplify(derived[name] - formulas[name])) == 0, name
    other_order = dji._pivot(system, 5, "phi", 2)
    assert sp.cancel(sp.nsimplify(other_order - formulas["g6_d5_linear_coefficient"])) == 0


# ---------------------------------------------------------------------------
# the rank verdict and its margin; non-finite values are errors
# ---------------------------------------------------------------------------

def _g4_cmc_csc(pcs):
    return build_system(4, pcs, 1, 1, ("cmc", "csc"), critical_point_pinning(4))


def test_kernel_margin_is_the_decades_from_the_threshold_to_the_nearest_singular_value():
    analysis = kernel_analysis(_g4_cmc_csc(family_pcs(4)))
    s = analysis.singular_values
    threshold = dji.SVD_RELATIVE_THRESHOLD * s[0]
    assert analysis.margin == np.abs(np.log10(s) - np.log10(threshold)).min()
    assert 8 < analysis.margin < 9
    assert kernel_analysis(build_system(6, family_pcs(6), 1, 1, ())).margin == math.inf


def test_g3_csc_kernel_keeps_its_rounding_noise_row_below_the_threshold():
    # lambda_2 = cot(pi/2) is 6e-17 in floats: a unit-length row would lift it over the
    # threshold and read dimension 0; the exact dimension with lambda_2 = 0 is 1
    analysis = kernel_analysis(build_system(3, family_pcs(3), 1, 1, ("csc",),
                                            critical_point_pinning(3)))
    assert analysis.dimension == 1
    assert 7 < analysis.margin < 8


@pytest.mark.parametrize("scale", (1e8, 1e9))
def test_kernel_near_the_threshold_is_undecided(scale):
    # each 2 x 2 block determinant is m_a m_b (lambda_b - lambda_a) != 0, so the exact
    # dimension is 0; scaled csc rows put a singular value within a decade of the threshold
    system = _g4_cmc_csc(family_pcs(4) * scale)
    with pytest.raises(DomainError, match=r"^rank undecided: a singular value lies 0\.\d\d "
                                          r"decades from the SVD threshold "):
        kernel_analysis(system)


@pytest.mark.parametrize("scale", (1e155, 1e-170))
def test_build_system_names_the_curvatures_of_a_row_that_is_not_finite(scale):
    # x 1e155 a denominator product overflows; x 1e-170 it underflows and a quotient divides by 0
    pcs = family_pcs(6) * scale
    with pytest.raises(DomainError, match=r"^the derivative rows cannot be evaluated at "
                                          rf"curvatures \[{re.escape(str(pcs[0]))}, ") as info:
        build_system(6, pcs, 1, 1, ("cmc", "clc"), critical_point_pinning(6))
    assert isinstance(info.value.__cause__, FloatingPointError)


@pytest.mark.parametrize("pcs", ([math.inf, 1.0, 0.0, -1.0], [1.0, 0.0, -1.0, -math.inf]))
def test_curvatures_must_be_finite(pcs):
    with pytest.raises(DomainError, match="principal curvatures must be finite"):
        build_system(4, pcs, 1, 1, ("csc",))
    with pytest.raises(DomainError, match="principal curvatures must be finite"):
        sign_certificates(4, pcs)
    with pytest.raises(DomainError, match="of finite curvatures"):
        g6_d5_obstruction(pcs[:2] + [-2.0, -3.0, -4.0, -5.0] if pcs[0] == math.inf
                          else [5.0, 4.0, 3.0, 2.0] + pcs[-2:])


def test_build_system_raises_no_lapack_message_in_a_fresh_process():
    # before, x 1e-170 left inf in the rows and LAPACK printed a DLASCL complaint
    script = (
        "from liesphere import dji, isoparam\n"
        "from liesphere.errors import DomainError\n"
        "pcs = isoparam.principal_curvatures(isoparam.IsoparametricFamily(6, 1, 1, 0.0))\n"
        "for scale in (1e155, 1e-170):\n"
        "    try:\n"
        "        system = dji.build_system(6, pcs * scale, 1, 1, ('cmc', 'clc'),\n"
        "                                  dji.critical_point_pinning(6))\n"
        "        print('kernel_dim', dji.kernel_analysis(system).dimension)\n"
        "    except DomainError as exc:\n"
        "        print('error:', exc)\n")
    env = dict(os.environ)
    src = str(Path(dji.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "" and "DLASCL" not in proc.stdout
    assert proc.stdout.count("error: the derivative rows cannot be evaluated") == 2


def test_d5_obstruction_that_overflows_is_a_domain_error():
    pcs = [3e110, 2e110, 1e110, -1e110, -2e110, -3e110]
    with pytest.raises(DomainError, match=r"^the d5 obstruction cannot be evaluated at "
                                          r"curvatures \[3e\+110, ") as info:
        g6_d5_obstruction(pcs)
    assert isinstance(info.value.__cause__, FloatingPointError)


@pytest.mark.parametrize("ordering", quadric.ORDERINGS)
def test_lie_curvature_of_values_that_overflows_is_a_domain_error(ordering):
    with pytest.raises(DomainError, match=r"^a Lie curvature cannot be evaluated at "
                                          r"curvatures 3e\+200, 2e\+200, ") as info:
        quadric.lie_curvature_of_values([3e200, 2e200, -2e200, -3e200], ordering)
    assert isinstance(info.value.__cause__, FloatingPointError)


def test_sign_certificates_name_coinciding_curvatures_by_their_sextuple_positions():
    # psi_check [lambda, nu; rho, mu] is the first quadruple to coincide: its curvatures
    # 1 and 2 are lambda and nu, positions 1 and 3 of the sextuple
    with pytest.raises(DomainError, match="cannot be evaluated at curvatures") as info:
        sign_certificates(6, [3e-12, 2e-12, 1e-12, 0.0, -1e-12, -2e-12])
    cause = info.value.__cause__
    assert isinstance(cause, DegenerateConfiguration)
    assert str(cause) == "curvatures 1 and 3 of the sextuple coincide"
    assert str(cause.__cause__) == "curvatures 1 and 2 coincide at stack index 0"


_LIESPHERE_ERRORS = (DomainError, DegenerateConfiguration, InconsistentData)
_CONSTRAINT_SETS = {3: (("cmc",), ("csc",), ("cmc", "csc"))}
_CONSTRAINT_SETS[4] = _CONSTRAINT_SETS[6] = _CONSTRAINT_SETS[3] + (
    ("clc",), ("cmc", "clc"), ("csc", "clc"), ("cmc", "csc", "clc"))


def _public_calls(g, pcs):
    """(name, call) of every public dji and quadric function that takes these curvatures."""
    m2 = 2 if g == 4 else 1
    calls = [(f"kernel {constraints} pinned={pinned}", lambda c=constraints, p=pinned:
              kernel_analysis(build_system(g, pcs, 1, m2, c, critical_point_pinning(g) if p
                                           else frozenset())).singular_values)
             for constraints in _CONSTRAINT_SETS[g] for pinned in (True, False)]
    calls += [(f"lie_curvature_of_values {k} {ordering}",
               lambda k=k, o=ordering: quadric.lie_curvature_of_values(pcs[k:k + 4], o).value)
              for k in range(g - 3) for ordering in quadric.ORDERINGS]
    if g in (4, 6):
        calls.append(("sign_certificates",
                      lambda: [c.expression_value for c in sign_certificates(g, pcs)]))
    if g == 4:
        calls.append(("recover_pair", lambda: recover_pair(pcs[0], pcs[2], pcs.sum(), 1, 1)))
    if g == 6:
        calls.append(("g6_d5_obstruction", lambda: g6_d5_obstruction(pcs)))
    # cross_ratio takes numpy values and Python floats along different arithmetic
    calls += [(f"cross_ratio {k} {kind.__name__}",
               lambda k=k, kind=kind: quadric.cross_ratio(*map(kind, pcs[k:k + 4])))
              for k in range(g - 3) for kind in (np.float64, float)]
    return calls


def _assert_finite_or_liesphere_error(g, pcs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a bare numpy warning fails the property
        for name, call in _public_calls(g, np.asarray(pcs, dtype=float)):
            try:
                value = call()
            except _LIESPHERE_ERRORS:
                continue
            assert np.isfinite(np.asarray(value, dtype=complex)).all(), (name, pcs, value)


@st.composite
def _decreasing_tuples(draw):
    """(g, curvatures): a start of magnitude 1e-300..1e300 (or 0), then g - 1 gaps of that range."""
    g = draw(st.sampled_from((3, 4, 6)))
    magnitude = st.floats(-300, 300).map(lambda e: 10.0 ** e)
    values = [draw(st.sampled_from((-1.0, 0.0, 1.0))) * draw(magnitude)]
    for _ in range(g - 1):
        values.append(values[-1] - draw(magnitude))
    return g, values


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_decreasing_tuples())
def test_public_functions_on_decreasing_tuples_return_finite_values_or_raise(case):
    _assert_finite_or_liesphere_error(*case)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from((3, 4, 6)), st.floats(-(1 - 1e-12), 1 - 1e-12))
def test_public_functions_on_family_members_return_finite_values_or_raise(g, fraction):
    # out to 1 - 1e-12 of each end of (-pi/(2g), pi/(2g)), where lambda_1 or lambda_g grows
    _assert_finite_or_liesphere_error(g, family_pcs(g, theta=fraction * math.pi / (2 * g)))
