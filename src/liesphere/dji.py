"""Linear systems in the curvature derivatives d_ji = e_j(lambda_i).

Constancy of the mean curvature, the squared shape-operator norm, and the
Lie curvatures each impose one linear row per direction e_j:

    cmc:  sum_i m_i d_ji = 0
    csc:  sum_i m_i lambda_i d_ji = 0
    clc:  e_j(log X) = 0 for each constant cross ratio X of the curvatures

The diagonal entries d_jj vanish identically (each curvature is constant
along its own curvature direction), and critical-point hypotheses pin
further unknowns to zero (all d_j1 plus d_12 at the standard critical
point). For g = 6, the three generating cross ratios use curvature indices
(1, 2, h, 5) for h in {3, 4, 6}; the auxiliary families used to eliminate
the remaining unknowns are also exposed as rows. Kernel dimensions are
decided by SVD with a relative threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InconsistentData
from .isoparam import multiplicity_vector

POSITIVE = "positive"
NEGATIVE = "negative"
ZERO = "zero"

SVD_RELATIVE_THRESHOLD = 1e-9
CERTIFICATE_MARGIN = 1e-6


@dataclass(frozen=True)
class SignCertificate:
    """A named scalar whose sign the argument depends on."""

    name: str
    expression_value: float
    claimed_sign: str

    @property
    def holds(self) -> bool:
        if self.claimed_sign == POSITIVE:
            return self.expression_value > 0
        if self.claimed_sign == NEGATIVE:
            return self.expression_value < 0
        return self.expression_value == 0.0

    @property
    def margin(self) -> float:
        return abs(self.expression_value)


@dataclass(frozen=True)
class CurvatureQuadratic:
    """t^2 - A t + B = 0 with A = mu + tau, B = mu tau."""

    a: float
    b: float

    @property
    def discriminant(self) -> float:
        return self.a * self.a - 4.0 * self.b

    def roots(self) -> tuple[float, float]:
        disc = self.discriminant
        if disc <= 0:
            raise InconsistentData(f"non-positive discriminant {disc}")
        sq = math.sqrt(disc)
        return (self.a + sq) / 2.0, (self.a - sq) / 2.0


def recover_pair(lam: float, nu: float, h: float, m1: int, m2: int) -> tuple[float, float]:
    """(mu, tau) from (lambda, nu, H) under the g=4 constraints H const and Phi = -1.

    A = mu + tau = (H - m1 (lambda + nu)) / m2 and Phi = -1 gives
    B = mu tau = (A (lambda + nu) - 2 lambda nu) / 2; the pair solves
    t^2 - A t + B = 0 and interlaces lambda > mu > nu > tau.
    """
    if lam <= nu:
        raise DomainError("requires lambda > nu")
    a = (h - m1 * (lam + nu)) / m2
    b = 0.5 * (a * (lam + nu) - 2.0 * lam * nu)
    mu, tau = CurvatureQuadratic(a, b).roots()
    if not (lam > mu > nu > tau):
        raise InconsistentData(f"recovered pair does not interlace: "
                               f"{lam} > {mu} > {nu} > {tau} fails")
    return mu, tau


@dataclass(frozen=True)
class DerivativeSystem:
    g: int
    unknown_labels: tuple
    rows: np.ndarray
    row_labels: tuple
    context: dict = field(compare=False)
    assumed_zero: frozenset = frozenset()

    def __post_init__(self):
        if self.rows.size and self.rows.shape[1] != len(self.unknown_labels):
            raise ValueError("row width does not match unknown count")
        pcs = self.context["pcs"]
        if not np.all(np.diff(pcs) < 0):
            raise DomainError("context curvatures must be strictly decreasing")


def critical_point_pinning(g: int) -> frozenset:
    """d_j1 = 0 for all j plus d_12 = 0: the standard critical-point hypothesis."""
    return frozenset({(j, 1) for j in range(2, g + 1)} | {(1, 2)})


def _cross_ratio_log_row(pcs, j, ia, ib, ic, id_):
    """Coefficients of e_j log[(la-lb)(lc-ld)/((la-ld)(lc-lb))] on d_ji, i = 1..g."""
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


# curvature-index quadruples (ia, ib, ic, id) of the g=6 cross-ratio families,
# keyed by the direction j whose derivatives they eliminate
G6_PHI_INDICES = {h: (1, 2, h, 5) for h in (3, 4, 6)}
G6_AUX_FAMILIES = (
    ("psi_check", 3, tuple((3, 4, h, 1) for h in (2, 5, 6))),
    ("psi_bar", 4, tuple((4, 3, h, 1) for h in (2, 5, 6))),
    ("psi_tilde", 6, tuple((6, 3, h, 1) for h in (2, 4, 5))),
    ("psi_sigma", 5, tuple((5, 2, h, 1) for h in (3, 4, 6))),
)


def build_system(g: int, pcs, m1: int, m2: int, constraints,
                 assumed_zero=frozenset()) -> DerivativeSystem:
    """Assemble the constraint rows over the non-pinned unknowns d_ji."""
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
    if g == 4:
        mult = multiplicity_vector(g, m1, m2)
    else:
        # common multiplicity divides out of every row; store rows unmultiplied
        if m1 != m2:
            raise DomainError(f"g = {g} forces a common multiplicity")
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
                add(j, _cross_ratio_log_row(pcs, j, 1, 2, 3, 4), f"clc_phi[j={j}]")
        elif g == 6:
            for h, quad in G6_PHI_INDICES.items():
                for j in range(1, 7):
                    add(j, _cross_ratio_log_row(pcs, j, *quad), f"clc_phi{h}[j={j}]")
            for family, j, quads in G6_AUX_FAMILIES:
                for quad in quads:
                    add(j, _cross_ratio_log_row(pcs, j, *quad),
                        f"clc_{family}{quad[2]}[j={j}]")
        else:
            raise DomainError("clc rows are defined for g = 4 and g = 6")

    matrix = np.array(rows) if rows else np.zeros((0, len(labels)))
    return DerivativeSystem(g, labels, matrix, tuple(names),
                            {"pcs": pcs, "m1": m1, "m2": m2,
                             "constraints": frozenset(constraints)},
                            assumed_zero)


@dataclass(frozen=True)
class KernelAnalysis:
    dimension: int
    basis: np.ndarray            # columns span the kernel
    singular_values: np.ndarray
    warnings: tuple


def kernel_analysis(sys: DerivativeSystem) -> KernelAnalysis:
    """Rank-revealing SVD with relative threshold; reports near-threshold values."""
    n = len(sys.unknown_labels)
    if sys.rows.shape[0] == 0:
        return KernelAnalysis(n, np.eye(n), np.zeros(0), ())
    _, s, vt = np.linalg.svd(sys.rows)
    threshold = SVD_RELATIVE_THRESHOLD * s[0] if s.size else 0.0
    rank = int((s > threshold).sum())
    warnings = tuple(f"singular value {val:.3e} within 10x of threshold {threshold:.3e}"
                     for val in s if threshold / 10 < val < threshold * 10)
    basis = vt[rank:].T if rank < n else np.zeros((n, 0))
    return KernelAnalysis(n - rank, basis, s, warnings)


def _g6_uvw(pcs):
    lam, mu, sig = float(pcs[0]), float(pcs[1]), float(pcs[4])
    pcs = [float(v) for v in pcs]
    u = {h: (lam - pcs[h - 1]) / ((pcs[h - 1] - mu) * (lam - mu)) for h in (3, 4, 6)}
    v = {h: (pcs[h - 1] - lam) / ((lam - sig) * (pcs[h - 1] - sig)) for h in (3, 4, 6)}
    w = {h: (sig - mu) / ((pcs[h - 1] - sig) * (pcs[h - 1] - mu)) for h in (3, 4, 6)}
    return u, v, w


def sign_certificates(g: int, pcs) -> list[SignCertificate]:
    """Evaluate the named coefficient expressions whose signs the kernel arguments use."""
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
    u, v, w = _g6_uvw(pcs)
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
    # Lie-curvature ratio constants of the elimination families
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


def g6_d5_obstruction(pcs):
    """sum over h in {mu, nu, rho} of (h - tau)(lambda - h)(sigma - h); each term negative.

    pcs is one sextuple or a (..., 6) stack of them; raises if any row is inadmissible.
    """
    pcs = np.asarray(pcs, dtype=float)
    if pcs.shape[-1:] != (6,) or not np.all(np.diff(pcs) < 0):
        raise DomainError("need a strictly decreasing sextuple")
    lam, h, sig, tau = pcs[..., :1], pcs[..., 1:4], pcs[..., 4:5], pcs[..., 5:]
    terms = (h - tau) * (lam - h) * (sig - h)
    if np.any(terms >= 0):
        raise InconsistentData("obstruction term not negative; input not admissible")
    t_mu, t_nu, t_rho = np.moveaxis(terms, -1, 0)
    return t_mu + t_nu + t_rho
