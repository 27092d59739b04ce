"""Linear systems in the curvature derivatives d_ji = e_j(lambda_i).

Constancy of the mean curvature, the squared shape-operator norm, and the
Lie curvatures each impose one linear row per direction e_j:

    cmc:  sum_i m_i d_ji = 0
    csc:  sum_i m_i lambda_i d_ji = 0
    clc:  e_j(log X) = 0 for each constant cross ratio X of the curvatures

The diagonal entries d_jj vanish identically (each curvature is constant
along its own curvature direction), and critical-point hypotheses pin
further unknowns to zero (all d_j1 plus d_12 at the standard critical
point). The Lie curvatures that clc holds constant, with their family
values, are one table, CLC_PHI; for g = 6 auxiliary families eliminate the
other unknowns, and 11 g = 6 sign certificates are entries of these rows or
pivots (_pivot). The certificates and their claimed signs are one table,
CLAIMS, and the factors of the three d5 obstruction terms are another,
D5_FACTORS. Kernel dimensions are decided by SVD with a relative threshold; a
singular value within a decade of it leaves the rank undecided, and
kernel_analysis raises instead of returning a dimension. A row entry or a
certificate that overflows, divides by zero or is not finite raises DomainError
naming the curvatures, as the curvatures themselves must be finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateConfiguration, DomainError, InconsistentData, float_errors_raise
from .isoparam import multiplicity_vector
from .quadric import lie_curvature_of_values

POSITIVE = "positive"
NEGATIVE = "negative"

SVD_RELATIVE_THRESHOLD = 1e-9
CERTIFICATE_MARGIN = 1e-6

# g -> {certificate name: claimed sign}, in the order sign_certificates lists them
CLAIMS = {
    4: {"g4_d23_ratio": POSITIVE, "g4_d24_ratio": NEGATIVE, "g4_d42_ratio": POSITIVE,
        "g4_d43_ratio": NEGATIVE, "g4_one_minus_ratio_sq": POSITIVE},
    6: {"g6_v3": NEGATIVE, "g6_v4": NEGATIVE, "g6_v6": POSITIVE, "g6_w3": POSITIVE,
        "g6_w4": POSITIVE, "g6_w6": NEGATIVE, "g6_one_minus_v_over_w": POSITIVE,
        "g6_psi_check_ratio_mu": NEGATIVE, "g6_psi_check_ratio_sigma": POSITIVE,
        "g6_psi_check_ratio_tau": POSITIVE, "g6_psi_bar_ratio_mu": POSITIVE,
        "g6_psi_bar_ratio_sigma": NEGATIVE, "g6_psi_bar_ratio_tau": NEGATIVE,
        "g6_step2_coefficient": POSITIVE, "g6_step3_coefficient": NEGATIVE,
        "g6_step4_coefficient": POSITIVE, "g6_d5_linear_coefficient": NEGATIVE,
        "g6_d5_obstruction_term_mu": NEGATIVE, "g6_d5_obstruction_term_nu": NEGATIVE,
        "g6_d5_obstruction_term_rho": NEGATIVE, "g6_d5_obstruction_total": NEGATIVE},
}

# each d5 term (h - tau)(lambda - h)(sigma - h) as its factors pcs[i] - pcs[j], in product order
D5_FACTORS = {"g6_d5_obstruction_term_mu": ((1, 5), (0, 1), (4, 1)),
              "g6_d5_obstruction_term_nu": ((2, 5), (0, 2), (4, 2)),
              "g6_d5_obstruction_term_rho": ((3, 5), (0, 3), (4, 3))}
_D5_INDEX = np.array(list(D5_FACTORS.values()))  # (term, factor, i or j)


@dataclass(frozen=True)
class SignCertificate:
    """A named scalar, or a stack of them, whose sign the argument depends on."""

    name: str
    expression_value: float
    claimed_sign: str

    def clears(self):
        """The one judge: the claimed sign holds with |value| > CERTIFICATE_MARGIN.

        Elementwise on stacks. The margin is read at each call: it is the one margin."""
        sign = {POSITIVE: 1.0, NEGATIVE: -1.0}.get(self.claimed_sign)
        if sign is None:
            raise ValueError(f"unknown claimed sign {self.claimed_sign!r}")
        return ((sign * self.expression_value > 0)
                & (abs(self.expression_value) > CERTIFICATE_MARGIN))


def recover_pair(lam: float, nu: float, h: float, m1: int, m2: int) -> tuple[float, float]:
    """(mu, tau) from (lambda, nu, H) under the g=4 constraints H const and Phi = -1.

    A = mu + tau = (H - m1 (lambda + nu)) / m2 and Phi = -1 gives
    B = mu tau = (A (lambda + nu) - 2 lambda nu) / 2; the pair solves
    t^2 - A t + B = 0 and interlaces lambda > mu > nu > tau. It is computed in Python
    floats, so a value that overflows reads inf and fails that check, with no warning.
    """
    lam, nu, h = float(lam), float(nu), float(h)
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
    if not np.isfinite(pcs).all():
        raise DomainError(f"principal curvatures must be finite, got {pcs.tolist()}")


def _cross_ratio_log_row(pcs, ia, ib, ic, id_):
    """Coefficients of e_j log[(la-lb)(lc-ld)/((la-ld)(lc-lb))] on d_j1..d_jg, for any j, one
    quotient each: 1/(la-lb) - 1/(la-ld) = (lb-ld)/((la-lb)(la-ld)) cancels no digits."""
    la, lb, lc, ld = pcs[ia - 1], pcs[ib - 1], pcs[ic - 1], pcs[id_ - 1]
    row = np.zeros(len(pcs))
    row[[ia - 1, ib - 1, ic - 1, id_ - 1]] = (
        (lb - ld) / ((la - lb) * (la - ld)), (la - lc) / ((la - lb) * (lc - lb)),
        (ld - lb) / ((lc - ld) * (lc - lb)), (lc - la) / ((la - ld) * (lc - ld)))
    return row


# Lie curvatures held constant by (iii) and (iv): g -> (d, {c: family value of Phi_c}), where
# Phi_c = [l1, l2; lc, ld] = (l1-l2)(lc-ld)/((l1-ld)(lc-l2)), the paper6_12_34 ordering
CLC_PHI = {4: (4, {3: -1.0}), 6: (5, {3: -1.0, 4: -1 / 3, 6: 1 / 3})}
# curvature-index quadruples (ia, ib, ic, id) of the auxiliary g=6 cross-ratio families,
# keyed by the direction j whose derivatives they eliminate
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
    if "clc" in constraints and g not in CLC_PHI:
        raise DomainError("clc rows are defined for g = 4 and g = 6")
    with float_errors_raise("the derivative rows cannot be evaluated at curvatures {}", pcs):
        if "csc" in constraints:
            families.append(("csc", mult * pcs, directions))
        if "clc" in constraints:
            d, phis = CLC_PHI[g]  # a lone Phi's rows are clc_phi[j=..], several clc_phi<c>
            families += [(f"clc_phi{c if len(phis) > 1 else ''}",
                          _cross_ratio_log_row(pcs, 1, 2, c, d), directions) for c in phis]
            if g == 6:
                families += [(f"clc_{family}{quad[2]}", _cross_ratio_log_row(pcs, *quad), (j,))
                             for family, j, quads in G6_AUX_FAMILIES for quad in quads]
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
    singular_values: np.ndarray
    margin: float  # decades from the SVD threshold to the nearest singular value


def kernel_analysis(sys: DerivativeSystem) -> KernelAnalysis:
    """Rank-revealing SVD: the rank counts the singular values above SVD_RELATIVE_THRESHOLD
    times the largest. The margin is inf with no rows; a zero singular value is infinitely
    far from the threshold. A margin of at most one decade (a singular value within 10x of
    the threshold) raises DomainError ("rank undecided") instead of returning a dimension.
    """
    s = np.linalg.svd(sys.rows, compute_uv=False)
    threshold = SVD_RELATIVE_THRESHOLD * s.max(initial=0.0)
    with np.errstate(divide="ignore"):  # log10(0) = -inf: a zero lies infinitely far away
        margin = float(np.abs(np.log10(s[s > 0]) - np.log10(threshold)).min(initial=math.inf))
    if margin <= 1.0:
        raise DomainError(f"rank undecided: a singular value lies {margin:.2f} decades from the "
                          f"SVD threshold {threshold:.3e}, at most 1")
    return KernelAnalysis(len(sys.unknown_labels) - int((s > threshold).sum()), s, margin)


def sign_certificates(g: int, pcs) -> list[SignCertificate]:
    """Evaluate the named coefficient expressions whose signs the kernel arguments use.

    Lists the certificates of CLAIMS[g] in its order; a value missing from it or extra raises.
    """
    pcs = np.asarray(pcs, dtype=float)
    _require_decreasing(pcs)
    if g not in CLAIMS:
        raise DomainError("sign certificates are defined for g = 4 and g = 6")
    with float_errors_raise(f"a g = {g} certificate cannot be evaluated at curvatures {{}}", pcs,
                            also=(DegenerateConfiguration,)):
        if g == 4:
            lam, mu, nu, tau = pcs
            values = {"g4_d23_ratio": (tau - mu) / (nu - mu),
                      "g4_d24_ratio": (nu - lam) / (lam - tau),
                      "g4_d42_ratio": (lam - nu) / (lam - mu),
                      "g4_d43_ratio": (tau - mu) / (nu - tau),
                      "g4_one_minus_ratio_sq": 1.0 - ((nu - mu) / (nu - tau)) ** 2}
        else:
            values = _g6_values(pcs)
    if values.keys() != CLAIMS[g].keys():
        raise ValueError(f"g = {g} certificate names differ from CLAIMS: "
                         f"{sorted(values.keys() ^ CLAIMS[g].keys())}")
    return [SignCertificate(name, float(values[name]), claim) for name, claim in CLAIMS[g].items()]


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


# the sextuple positions (from 0) of psi_check [lambda, nu; rho, x] and psi_bar
# [lambda, rho; nu, x], x = mu, sigma, tau: row k is the k-th curvature of each quadruple
_PSI_GATHER = np.array([[0, 0, 0, 0, 0, 0], [2, 2, 2, 3, 3, 3], [3, 3, 3, 2, 2, 2],
                        [1, 4, 5, 1, 4, 5]])


def _g6_values(pcs: np.ndarray) -> dict:
    system = build_system(6, pcs, 1, 1, ("cmc", "clc"), critical_point_pinning(6))
    total = g6_d5_obstruction(pcs)  # underflowing d5 terms are named before a psi coincidence
    rows, col = dict(zip(system.row_labels, system.rows)), system.unknown_labels.index
    v = {f"g6_v{h}": rows[f"clc_phi{h}[j=2]"][col((2, 5))] for h in (3, 4, 6)}
    w = {f"g6_w{h}": rows[f"clc_phi{h}[j=2]"][col((2, h))] for h in (3, 4, 6)}
    try:
        psi = lie_curvature_of_values(pcs[_PSI_GATHER]).value
    except DegenerateConfiguration as exc:  # name the pair by its positions in the sextuple
        (k,), pair = exc.index, exc.values
        first, second = (_PSI_GATHER[p - 1, k] + 1 for p in pair)
        raise DegenerateConfiguration(f"curvatures {first} and {second} of the sextuple "
                                      f"coincide") from exc
    return {**v, **w, "g6_one_minus_v_over_w": _pivot(system, 2, "phi", 5),
            **dict(zip((f"g6_psi_{f}_ratio_{x}" for f in ("check", "bar")
                        for x in ("mu", "sigma", "tau")), psi, strict=True)),
            "g6_step2_coefficient": _pivot(system, 3, "psi_check", 4),
            "g6_step3_coefficient": _pivot(system, 4, "psi_bar", 3),
            "g6_step4_coefficient": _pivot(system, 6, "psi_tilde", 3),
            "g6_d5_linear_coefficient": _pivot(system, 5, "psi_sigma", 2),
            **dict(zip(D5_FACTORS, _d5_terms(pcs), strict=True)),
            "g6_d5_obstruction_total": total}


def _d5_terms(pcs: np.ndarray) -> np.ndarray:
    """The D5_FACTORS terms of a (..., 6) stack, (..., 3); factors multiply in table order."""
    factors = pcs[..., _D5_INDEX[..., 0]] - pcs[..., _D5_INDEX[..., 1]]
    return factors[..., 0] * factors[..., 1] * factors[..., 2]


def g6_d5_obstruction(pcs):
    """The sum of the D5_FACTORS terms (h - tau)(lambda - h)(sigma - h), h = mu, nu, rho.

    pcs is one sextuple or a (..., 6) stack of them. Raises DomainError if any row is
    inadmissible or a term or the sum overflows, and InconsistentData if a term, negative
    by its factor signs, is not (an underflow to -0.0).
    """
    pcs = np.asarray(pcs, dtype=float)
    if pcs.shape[-1:] != (6,) or not np.all(np.diff(pcs) < 0) or not np.isfinite(pcs).all():
        raise DomainError("need a strictly decreasing sextuple of finite curvatures")
    with float_errors_raise("the d5 obstruction cannot be evaluated at curvatures {}", pcs):
        terms = _d5_terms(pcs)
        total = terms[..., 0] + terms[..., 1] + terms[..., 2]
    if np.any(terms >= 0):
        raise InconsistentData("obstruction term not negative; input not admissible")
    return total
