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
(1, 2, h, 5) for h in {3, 4, 6}, and auxiliary families eliminate the other
unknowns; 11 g = 6 sign certificates are entries of these rows or pivots
(_pivot). Kernel dimensions are decided by SVD with a relative threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateConfiguration, DomainError, InconsistentData
from .isoparam import multiplicity_vector
from .quadric import lie_curvature_of_values

POSITIVE = "positive"
NEGATIVE = "negative"

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
        raise ValueError(f"unknown claimed sign {self.claimed_sign!r}")

    @property
    def margin(self) -> float:
        return abs(self.expression_value)


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
    disc = a * a - 4.0 * b
    if disc <= 0:
        raise InconsistentData(f"non-positive discriminant {disc}")
    sq = math.sqrt(disc)
    mu, tau = (a + sq) / 2.0, (a - sq) / 2.0
    if not (lam > mu > nu > tau):
        raise InconsistentData(f"recovered pair does not interlace: "
                               f"{lam} > {mu} > {nu} > {tau} fails")
    return mu, tau


@dataclass(frozen=True, eq=False)
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


def critical_point_pinning(g: int) -> frozenset:
    """d_j1 = 0 for all j plus d_12 = 0: the standard critical-point hypothesis."""
    return frozenset({(j, 1) for j in range(2, g + 1)} | {(1, 2)})


def _require_decreasing(pcs):
    if not np.all(np.diff(pcs) < 0):
        raise DomainError("principal curvatures must be strictly decreasing")


def _cross_ratio_log_row(pcs, ia, ib, ic, id_):
    """Coefficients of e_j log[(la-lb)(lc-ld)/((la-ld)(lc-lb))] on d_j1..d_jg, for any j, one
    quotient each: 1/(la-lb) - 1/(la-ld) = (lb-ld)/((la-lb)(la-ld)) cancels no digits."""
    la, lb, lc, ld = pcs[ia - 1], pcs[ib - 1], pcs[ic - 1], pcs[id_ - 1]
    row = np.zeros(len(pcs))
    row[[ia - 1, ib - 1, ic - 1, id_ - 1]] = (
        (lb - ld) / ((la - lb) * (la - ld)), (la - lc) / ((la - lb) * (lc - lb)),
        (ld - lb) / ((lc - ld) * (lc - lb)), (lc - la) / ((la - ld) * (lc - ld)))
    return row


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
    """Assemble the constraint rows over the non-pinned unknowns d_ji.

    A row of direction j is written into row j of a g x g grid; the grid's free
    entries (off the diagonal, not pinned), in (j, i) order, are the row's coefficients.
    """
    pcs = np.asarray(pcs, dtype=float)
    if len(pcs) != g:
        raise ValueError("need g principal curvatures")
    _require_decreasing(pcs)
    constraints = set(constraints)
    unknown = constraints - {"cmc", "csc", "clc"}
    if unknown:
        raise ValueError(f"unknown constraints {sorted(unknown)}")
    assumed_zero = frozenset(assumed_zero)
    mult = multiplicity_vector(g, m1, m2)
    if g in (1, 3, 6):
        # multiplicity_vector forces a common multiplicity here; it divides out of every row
        mult = np.ones(g)

    directions = range(1, g + 1)
    families = []  # (row-name prefix, coefficients on d_j1..d_jg, directions j)
    if "cmc" in constraints:
        families.append(("cmc", mult, directions))
    if "csc" in constraints:
        families.append(("csc", mult * pcs, directions))
    if "clc" in constraints:
        if g == 4:
            families.append(("clc_phi", _cross_ratio_log_row(pcs, 1, 2, 3, 4), directions))
        elif g == 6:
            families += [(f"clc_phi{h}", _cross_ratio_log_row(pcs, *quad), directions)
                         for h, quad in G6_PHI_INDICES.items()]
            families += [(f"clc_{family}{quad[2]}", _cross_ratio_log_row(pcs, *quad), (j,))
                         for family, j, quads in G6_AUX_FAMILIES for quad in quads]
        else:
            raise DomainError("clc rows are defined for g = 4 and g = 6")
    rows = [(f"{prefix}[j={j}]", j, coeffs) for prefix, coeffs, js in families for j in js]

    free = np.array([[i != j and (j, i) not in assumed_zero for i in directions]
                     for j in directions])
    grid = np.zeros((len(rows), g, g))
    for k, (_, j, coeffs) in enumerate(rows):
        grid[k, j - 1] = coeffs
    labels = tuple(map(tuple, (np.argwhere(free) + 1).tolist()))
    return DerivativeSystem(g, labels, grid[:, free], tuple(name for name, _, _ in rows),
                            {"pcs": pcs, "m1": m1, "m2": m2,
                             "constraints": frozenset(constraints)},
                            assumed_zero)


@dataclass(frozen=True, eq=False)
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


def sign_certificates(g: int, pcs) -> list[SignCertificate]:
    """Evaluate the named coefficient expressions whose signs the kernel arguments use."""
    pcs = np.asarray(pcs, dtype=float)
    _require_decreasing(pcs)
    if g == 4:
        lam, mu, nu, tau = (float(v) for v in pcs)
        return [
            SignCertificate("g4_d23_ratio", (tau - mu) / (nu - mu), POSITIVE),
            SignCertificate("g4_d24_ratio", (nu - lam) / (lam - tau), NEGATIVE),
            SignCertificate("g4_d42_ratio", (lam - nu) / (lam - mu), POSITIVE),
            SignCertificate("g4_d43_ratio", (tau - mu) / (nu - tau), NEGATIVE),
            SignCertificate("g4_one_minus_ratio_sq",
                            1.0 - ((nu - mu) / (nu - tau)) ** 2, POSITIVE),
        ]
    if g != 6:
        raise DomainError("sign certificates are defined for g = 4 and g = 6")
    try:  # a division by zero, an overflow or an invalid operation raises in there
        return _g6_certificates(pcs)
    except (FloatingPointError, DegenerateConfiguration) as exc:
        raise DomainError(f"a g = 6 certificate cannot be evaluated at curvatures "
                          f"{pcs.tolist()}") from exc


def _pivot(system: DerivativeSystem, j: int, family: str, keep: int):
    """The coefficient left on d_j,keep of row cmc[j=<j>] once each other free d_jh is
    eliminated by row clc_<family><h>[j=<j>], whose free unknowns are d_jh and d_j,keep."""
    rows, k = dict(zip(system.row_labels, system.rows)), system.unknown_labels.index((j, keep))
    pivot = rows[f"cmc[j={j}]"][k]
    for other, (row_j, h) in enumerate(system.unknown_labels):
        if row_j == j and h != keep:
            row = rows[f"clc_{family}{h}[j={j}]"]
            pivot = pivot - rows[f"cmc[j={j}]"][other] * row[k] / row[other]
    return pivot


@np.errstate(divide="raise", over="raise", invalid="raise")
def _g6_certificates(pcs: np.ndarray) -> list[SignCertificate]:
    system = build_system(6, pcs, 1, 1, ("cmc", "clc"), critical_point_pinning(6))
    total = g6_d5_obstruction(pcs)  # underflowing d5 terms are named before a psi coincidence
    rows, col = dict(zip(system.row_labels, system.rows)), system.unknown_labels.index
    v = {h: rows[f"clc_phi{h}[j=2]"][col((2, 5))] for h in (3, 4, 6)}
    w = {h: rows[f"clc_phi{h}[j=2]"][col((2, h))] for h in (3, 4, 6)}
    # psi_check [lambda, nu; rho, x] and psi_bar [lambda, rho; nu, x], x = mu, sigma, tau
    psi = lie_curvature_of_values(pcs[[[0, 0, 0, 0, 0, 0], [2, 2, 2, 3, 3, 3], [3, 3, 3, 2, 2, 2],
                                       [1, 4, 5, 1, 4, 5]]]).value
    return [SignCertificate(name, float(value), claim) for name, value, claim in (
        ("g6_v3", v[3], NEGATIVE), ("g6_v4", v[4], NEGATIVE), ("g6_v6", v[6], POSITIVE),
        ("g6_w3", w[3], POSITIVE), ("g6_w4", w[4], POSITIVE), ("g6_w6", w[6], NEGATIVE),
        ("g6_one_minus_v_over_w", _pivot(system, 2, "phi", 5), POSITIVE),
        *zip((f"g6_psi_{f}_ratio_{x}" for f in ("check", "bar") for x in ("mu", "sigma", "tau")),
             psi, (NEGATIVE, POSITIVE, POSITIVE, POSITIVE, NEGATIVE, NEGATIVE), strict=True),
        ("g6_step2_coefficient", _pivot(system, 3, "psi_check", 4), POSITIVE),
        ("g6_step3_coefficient", _pivot(system, 4, "psi_bar", 3), NEGATIVE),
        ("g6_step4_coefficient", _pivot(system, 6, "psi_tilde", 3), POSITIVE),
        ("g6_d5_linear_coefficient", _pivot(system, 5, "psi_sigma", 2), NEGATIVE),
        *((f"g6_d5_obstruction_term_{x}", term, NEGATIVE)
          for x, term in zip(("mu", "nu", "rho"), _d5_term(pcs[0], pcs[1:4], pcs[4], pcs[5]))),
        ("g6_d5_obstruction_total", total, NEGATIVE))]


def _d5_term(lam, h, sig, tau):
    """(h - tau)(lambda - h)(sigma - h), the d5 obstruction term of h; floats or arrays."""
    return (h - tau) * (lam - h) * (sig - h)


def g6_d5_obstruction(pcs):
    """sum over h in {mu, nu, rho} of (h - tau)(lambda - h)(sigma - h); each term negative.

    pcs is one sextuple or a (..., 6) stack of them; raises if any row is inadmissible.
    """
    pcs = np.asarray(pcs, dtype=float)
    if pcs.shape[-1:] != (6,) or not np.all(np.diff(pcs) < 0):
        raise DomainError("need a strictly decreasing sextuple")
    terms = _d5_term(pcs[..., :1], pcs[..., 1:4], pcs[..., 4:5], pcs[..., 5:])
    if np.any(terms >= 0):
        raise InconsistentData("obstruction term not negative; input not admissible")
    t_mu, t_nu, t_rho = np.moveaxis(terms, -1, 0)
    return t_mu + t_nu + t_rho
