import math

import numpy as np
import pytest

from liesphere import report
from liesphere.dji import (G6_AUX_FAMILIES, G6_PHI_INDICES, NEGATIVE, POSITIVE,
                           DerivativeSystem, SignCertificate, _cross_ratio_log_row,
                           build_system, critical_point_pinning, g6_d5_obstruction,
                           kernel_analysis, recover_pair, sign_certificates)
from liesphere.errors import DomainError, InconsistentData
from liesphere.isoparam import (IsoparametricFamily, mean_curvature, multiplicity_vector,
                                principal_curvatures)
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


# ---------------------------------------------------------------------------
# references: build_system, _cross_ratio_log_row, sign_certificates and _g6_uvw
# as they were written before the rows went through one grid and each
# certificate formula was written once; the library must match them bit for bit
# ---------------------------------------------------------------------------

def _ref_cross_ratio_log_row(pcs, j, ia, ib, ic, id_):
    la, lb, lc, ld = pcs[ia - 1], pcs[ib - 1], pcs[ic - 1], pcs[id_ - 1]
    co: dict[int, float] = {}

    def acc(i, val):
        co[i] = co.get(i, 0.0) + val

    acc(ia, 1.0 / (la - lb))
    acc(ib, -1.0 / (la - lb))
    acc(ic, 1.0 / (lc - ld))
    acc(id_, -1.0 / (lc - ld))
    acc(ia, -1.0 / (la - ld))
    acc(id_, 1.0 / (la - ld))
    acc(ic, -1.0 / (lc - lb))
    acc(ib, 1.0 / (lc - lb))
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
            for h, quad in G6_PHI_INDICES.items():
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


def _ref_g6_uvw(pcs):
    lam, mu, sig = float(pcs[0]), float(pcs[1]), float(pcs[4])
    pcs = [float(v) for v in pcs]
    u = {h: (lam - pcs[h - 1]) / ((pcs[h - 1] - mu) * (lam - mu)) for h in (3, 4, 6)}
    v = {h: (pcs[h - 1] - lam) / ((lam - sig) * (pcs[h - 1] - sig)) for h in (3, 4, 6)}
    w = {h: (sig - mu) / ((pcs[h - 1] - sig) * (pcs[h - 1] - mu)) for h in (3, 4, 6)}
    return u, v, w


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
    lam, mu, nu, rho, sig, tau = (float(v) for v in pcs)
    u, v, w = _ref_g6_uvw(pcs)
    certs += [
        SignCertificate("g6_v3", v[3], NEGATIVE),
        SignCertificate("g6_v4", v[4], NEGATIVE),
        SignCertificate("g6_v6", v[6], POSITIVE),
        SignCertificate("g6_w3", w[3], POSITIVE),
        SignCertificate("g6_w4", w[4], POSITIVE),
        SignCertificate("g6_w6", w[6], NEGATIVE),
        SignCertificate("g6_one_minus_v_over_w",
                        1.0 - v[3] / w[3] - v[4] / w[4] - v[6] / w[6], POSITIVE),
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
    certs += [
        SignCertificate("g6_step2_coefficient", step2, POSITIVE),
        SignCertificate("g6_step3_coefficient", step3, NEGATIVE),
        SignCertificate("g6_step4_coefficient", step4, POSITIVE),
        SignCertificate("g6_d5_linear_coefficient", step5, NEGATIVE),
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
    if isinstance(ref, tuple):
        assert new == ref
        return
    assert [(c.name, c.claimed_sign) for c in new] == [(c.name, c.claimed_sign) for c in ref]
    assert ([float(c.expression_value).hex() for c in new]
            == [float(c.expression_value).hex() for c in ref])


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
    quads = (*G6_PHI_INDICES.values(), *(q for _, _, qs in G6_AUX_FAMILIES for q in qs))
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


def test_sign_certificates_name_an_underflowing_denominator():
    # gaps near 1e-170: a g = 6 denominator product underflows to 0 in float arithmetic
    pcs = [3e-170, 2e-170, 1e-170, 0.0, -1e-170, -2e-170]
    with pytest.raises(DomainError, match=r"underflows to 0 at curvatures \[3e-170, ") as info:
        sign_certificates(6, pcs)
    assert isinstance(info.value.__cause__, ZeroDivisionError)
    # the reference copy raises the bare ZeroDivisionError that the message replaces
    with pytest.raises(ZeroDivisionError):
        _ref_sign_certificates(6, pcs)
