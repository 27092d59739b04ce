"""Normal-geodesic 2g-gons: angle tables, link relations, angle systems, conformal reduction.

A hypersurface with g curvatures meets a normal geodesic circle in 2g
points p^1..p^2g (cyclic order). At each vertex the g curvature spheres
cut the circle at the other vertices: from an odd vertex the i-th sphere
meets the circle at half-arc theta^t_i counterclockwise, from an even
vertex clockwise, and the shared leaf gives the pairing

    partner(t, i) = t + 2i - 1   (odd t),    t - 2i + 1   (even t),  mod 2g.

The radius table is generated from two gap cycles. Row p^(2k+1) uses the
odd gaps rotated left by k, row p^(2k+2) the even gaps rotated right by k,
with base radii chained by theta^(2k+1)_1 = theta^(2k-1)_1 + odd[k-1] -
even[(g-k) mod g] (and theta^(2k+2)_1 = theta^(2k+1)_1). With that
chaining, every one of the g^2 link pairings holds identically in the
gaps, so link_check measures genuine corruption, not construction error.

The isoparametric member at family parameter theta is the polygon with
all gaps pi/g and base radius pi/(2g) + theta; its vertex gaps alternate
2 theta_1 and 2(pi/g - theta_1). A polygon is parallel exactly when all
radius rows coincide.

Two solved angle systems reproduce the closed-form solutions pi/4 (g=4)
and pi/6 (g=6); brute-force grid oracles confirm each solution cell is
unique. The conformal machinery maps polygons by the O(2,1) action on
the circle and reduces a constrained conformal map to an isometry via a
2x2 homogeneous system whose nonsingularity is certified by signs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .dji import NEGATIVE, POSITIVE, SignCertificate
from .errors import CertificateFailure, DomainError, NormalizationFailure
from .indefinite import Signature, is_lie_transform
from .isoparam import multiplicity_vector
from .quadric import (PAPER6_12_34, STANDARD_13_24, LieCurvatureValue,
                      ProjectiveCurvature, cross_ratio, lie_curvature)

SUPPORTED_G = (3, 4, 6)
LINK_TOL = 1e-9
PARALLEL_TOL = 1e-9
SEARCH_FILTER_TOL = 1e-6

# family values of the g=6 Lie curvatures Phi_h (theta-independent)
G6_FAMILY_PHI = {3: -1.0, 4: -1.0 / 3.0, 6: 1.0 / 3.0}

# (curvature indices, cross-ratio ordering) of the named polygon invariants
PATTERNS = {
    "phi_standard": ((1, 2, 3, 4), STANDARD_13_24),
    "phi_paper6": ((1, 2, 3, 4), PAPER6_12_34),
    "psi_nu": ((1, 2, 3, 5), PAPER6_12_34),
    "phi_4": ((1, 2, 4, 5), PAPER6_12_34),
    "phi_6": ((1, 2, 6, 5), PAPER6_12_34),
}


@dataclass(frozen=True)
class AngleGaps:
    """Two gap cycles of g positive reals, each summing to pi (last entries close the sums)."""

    g: int
    odd: tuple
    even: tuple

    def __post_init__(self):
        if self.g not in SUPPORTED_G:
            raise DomainError(f"g must be one of {SUPPORTED_G}")
        odd = tuple(float(x) for x in self.odd)
        even = tuple(float(x) for x in self.even)
        object.__setattr__(self, "odd", odd)
        object.__setattr__(self, "even", even)
        for name, gaps in (("odd", odd), ("even", even)):
            if len(gaps) != self.g:
                raise DomainError(f"{name} gaps must have length {self.g}")
            if any(not 0.0 < x < math.pi for x in gaps):
                raise DomainError(f"{name} gaps must lie in (0, pi)")
            if abs(sum(gaps) - math.pi) > 1e-12:
                raise DomainError(f"{name} gaps must sum to pi")

    @classmethod
    def regular(cls, g: int) -> "AngleGaps":
        return cls(g, (math.pi / g,) * g, (math.pi / g,) * g)

    @classmethod
    def from_free(cls, g: int, odd_free, even_free) -> "AngleGaps":
        """Append the dependent closers pi - sum(head) to each cycle."""
        odd = tuple(odd_free) + (math.pi - sum(odd_free),)
        even = tuple(even_free) + (math.pi - sum(even_free),)
        return cls(g, odd, even)


def link_partner(g: int, t, i):
    """Vertex cut by the i-th curvature sphere at vertex t (1-based); broadcasts over t, i."""
    return np.where(t % 2 == 1, (t + 2 * i - 2) % (2 * g), (t - 2 * i) % (2 * g)) + 1


def _radius_table(g: int, odd, even, theta1: float, theta2: float) -> np.ndarray:
    odd = np.asarray(odd, dtype=float)
    even = np.asarray(even, dtype=float)
    # odd-row base radii: every other partial sum of theta1, odd[0], -even[g-1], odd[1], ...
    steps = np.empty(2 * g - 1)
    steps[0] = theta1
    steps[1::2] = odd[:-1]
    steps[2::2] = -even[:0:-1]
    base = np.repeat(np.cumsum(steps)[0::2], 2)
    base[1] = theta2
    k = np.arange(g)
    shifted = np.zeros((2 * g, g))
    shifted[0::2, 1:] = odd[(k[:, None] + k) % g][:, :-1]
    shifted[1::2, 1:] = even[(k - k[:, None]) % g][:, :-1]
    return base[:, None] + np.cumsum(shifted, axis=1)


@dataclass(frozen=True)
class GeodesicPolygon:
    """2g vertex angles (strictly increasing, one turn) plus the 2g x g radius table."""

    g: int
    vertex_angles: np.ndarray
    radius_table: np.ndarray

    def __post_init__(self):
        if self.g not in SUPPORTED_G:
            raise DomainError(f"g must be one of {SUPPORTED_G}")
        phis = np.asarray(self.vertex_angles, dtype=float)
        table = np.asarray(self.radius_table, dtype=float)
        object.__setattr__(self, "vertex_angles", phis)
        object.__setattr__(self, "radius_table", table)
        if phis.shape != (2 * self.g,):
            raise DomainError("need 2g vertex angles")
        gaps = np.diff(phis)
        if np.any(gaps <= 0) or phis[-1] - phis[0] >= 2 * math.pi:
            raise DomainError("vertex angles must increase strictly through one turn")
        if table.shape != (2 * self.g, self.g):
            raise DomainError("radius table must be 2g x g")
        if np.any(table <= 0) or np.any(table >= math.pi):
            raise DomainError("radii must lie in (0, pi)")
        if np.any(np.diff(table, axis=1) <= 0):
            raise DomainError("each radius row must be strictly increasing")

    def curvatures(self) -> np.ndarray:
        return 1.0 / np.tan(self.radius_table)

    def vertex_points(self) -> np.ndarray:
        """(2g, 2) unit-circle coordinates."""
        return np.stack([np.cos(self.vertex_angles), np.sin(self.vertex_angles)], axis=1)

    def vertex_normals(self) -> np.ndarray:
        """Unit normals: positions rotated +pi/2 at odd vertices, -pi/2 at even ones."""
        pts = self.vertex_points()
        normals = np.empty_like(pts)
        normals[0::2] = np.stack([-pts[0::2, 1], pts[0::2, 0]], axis=1)
        normals[1::2] = np.stack([pts[1::2, 1], -pts[1::2, 0]], axis=1)
        return normals


def _one_turn(phis: np.ndarray) -> np.ndarray:
    """The angles re-anchored to one increasing turn that starts at phis[0]."""
    rel = (phis - phis[0]) % (2 * math.pi)
    rel[0] = 0.0
    return phis[0] + rel


def _positions_from_table(g: int, table: np.ndarray, phi1: float) -> np.ndarray:
    phis = np.empty(2 * g)
    phis[0] = phi1
    phis[1::2] = phi1 + 2 * table[0]
    phis[2::2] = phis[1] - 2 * table[1, :0:-1]
    # bring the clockwise-constructed odd vertices into the increasing turn from phi1
    return _one_turn(phis)


def angle_table(g: int, gaps: AngleGaps, theta1: float,
                theta2: float | None = None) -> GeodesicPolygon:
    """Polygon from the Table-1/2 shift pattern with link-relation base radii.

    theta2 defaults to theta1 (the lambda-leaf link); passing a different
    value produces a deliberately inconsistent table for link_check tests.
    """
    if gaps.g != g:
        raise DomainError("gap cycle length does not match g")
    if theta2 is None:
        theta2 = theta1
    table = _radius_table(g, gaps.odd, gaps.even, theta1, theta2)
    if np.any(table <= 0) or np.any(table >= math.pi):
        raise DomainError("configuration leaves (0, pi): radius table invalid")
    phi1 = math.pi / 2 - theta1
    return GeodesicPolygon(g, _positions_from_table(g, table, phi1), table)


def build_parallel_polygon(g: int, theta: float) -> GeodesicPolygon:
    """Isoparametric member: all gaps pi/g, base radius pi/(2g) + theta."""
    bound = math.pi / (2 * g)
    if not -bound < theta < bound:
        raise DomainError(f"theta must lie in (-pi/{2 * g}, pi/{2 * g})")
    return angle_table(g, AngleGaps.regular(g), bound + theta)


def polygon_from_positions(g: int, vertex_angles) -> GeodesicPolygon:
    """Rebuild the radius table from vertex positions via the pairing map."""
    phis = np.asarray(vertex_angles, dtype=float)
    if phis.shape != (2 * g,):
        raise DomainError("need 2g vertex angles")
    phis = _one_turn(phis)
    if np.any(np.diff(phis) <= 0):
        raise DomainError("vertex angles are not in cyclic order")
    t = np.arange(1, 2 * g + 1)[:, None]
    near, far = phis[t - 1], phis[link_partner(g, t, np.arange(1, g + 1)) - 1]
    arcs = np.where(t % 2 == 1, far - near, near - far) % (2 * math.pi)
    return GeodesicPolygon(g, phis, arcs / 2.0)


@dataclass(frozen=True)
class LinkReport:
    ok: bool
    max_residual: float
    residuals: dict


def link_check(poly: GeodesicPolygon, tol: float = LINK_TOL) -> LinkReport:
    """Residuals |cot theta^t_i - cot theta^s_i| of every leaf pairing."""
    cot = poly.curvatures()
    residuals = {}
    for t in range(1, 2 * poly.g + 1):
        for i in range(1, poly.g + 1):
            s = link_partner(poly.g, t, i)
            if s < t:
                continue
            residuals[(t, i, s)] = abs(cot[t - 1, i - 1] - cot[s - 1, i - 1])
    worst = max(residuals.values())
    return LinkReport(worst <= tol, worst, residuals)


def is_parallel(poly: GeodesicPolygon, tol: float = PARALLEL_TOL) -> bool:
    """True iff every radius row equals row 1 (vertex-independent radii)."""
    return bool(np.abs(poly.radius_table - poly.radius_table[0]).max() <= tol)


def polygon_lie_curvature(poly: GeodesicPolygon, vertex: int, pattern: str) -> LieCurvatureValue:
    """Cross ratio of four curvature-sphere radii at a vertex, named by index pattern.

    Evaluated projectively from the cotangents. That it equals the cross
    ratio of the circle points e^(2i theta) is the identity the
    cross_ratio_identity suite checks.
    """
    if pattern not in PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}; choose from {sorted(PATTERNS)}")
    indices, ordering = PATTERNS[pattern]
    if max(indices) > poly.g:
        raise DomainError(f"pattern {pattern!r} needs g >= {max(indices)}")
    if not 1 <= vertex <= 2 * poly.g:
        raise DomainError("vertex out of range")
    thetas = [poly.radius_table[vertex - 1, i - 1] for i in indices]
    return lie_curvature(*(ProjectiveCurvature.from_angle(th) for th in thetas),
                         ordering=ordering)


# ---------------------------------------------------------------------------
# damped least squares, shared by the angle systems, the boost and the search
# ---------------------------------------------------------------------------

def _levenberg_polish(func, params, max_iter=120):
    """Levenberg-damped Gauss-Newton with a forward-difference Jacobian.

    func(p) returns the residual vector, or None where p is infeasible; a
    difference step that lands there is taken backward instead. Returns the
    polished point and its residual vector, or (None, None) when the start
    is infeasible or there is nothing to solve.
    """
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


# ---------------------------------------------------------------------------
# g = 4 angle system
# ---------------------------------------------------------------------------

def g4_residual(gaps: AngleGaps) -> complex:
    """2(1 + e^(2i(a+c))) - e^(2ia) - e^(2ic) - e^(-2id) - e^(-2ib) on the odd gaps.

    Vanishes exactly when the paper6-ordered Lie curvature of the vertex
    equals -1.
    """
    if gaps.g != 4:
        raise DomainError("g4_residual needs g = 4 gaps")
    a, b, c, d = gaps.odd
    return (2.0 * (1.0 + cmath.exp(2j * (a + c))) - cmath.exp(2j * a) - cmath.exp(2j * c)
            - cmath.exp(-2j * d) - cmath.exp(-2j * b))


def _g4_system(p: np.ndarray):
    # residual of (6.9) under beta = pi/2 - alpha, delta = pi/2 - gamma, plus the
    # antipodal-closure incidence beta + gamma = pi/2 (lambda*nu = -1 at every vertex)
    alpha, gamma = p
    if not (0 < alpha < math.pi / 2 and 0 < gamma < math.pi / 2):
        return None
    beta = math.pi / 2 - alpha
    delta = math.pi / 2 - gamma
    r = g4_residual(AngleGaps(4, (alpha, beta, gamma, delta), (math.pi / 4,) * 4))
    return np.array([r.real, r.imag, beta + gamma - math.pi / 2])


def _solve_angle_system(func, start) -> np.ndarray:
    p, r = _levenberg_polish(func, start)
    norm = math.inf if p is None else float(np.abs(r).max())
    if norm > 1e-13:
        raise ArithmeticError(f"angle system did not converge: residual {norm:.3e}")
    return p


def solve_g4_normalized() -> AngleGaps:
    """Solve the normalized g=4 angle system; the unique solution is all-pi/4.

    Imposed: the (6.9) residual, the normalization alpha+beta = pi/2 =
    gamma+delta, and the antipodal closure of the normalized configuration
    (lambda*nu = -1 at every vertex, i.e. beta+gamma = pi/2). Without the
    closure the first two conditions only pin alpha + gamma = pi/2.
    """
    odd = _solve_angle_system(_g4_system, (0.55, 1.05))
    even = _solve_angle_system(_g4_system, (1.1, 0.5))
    a_o, g_o = odd
    a_e, g_e = even
    return AngleGaps(4,
                     (a_o, math.pi / 2 - a_o, g_o, math.pi / 2 - g_o),
                     (a_e, math.pi / 2 - a_e, g_e, math.pi / 2 - g_e))


@dataclass(frozen=True)
class OracleResult:
    grid_minimum: tuple
    polished: tuple
    cell_size: float
    unique_cell: bool


def _grid_oracle(resolution: int, objective_of, func, margin: float) -> OracleResult:
    """Grid minimum of objective_of(alpha, gamma) over (0, pi/2)^2, polished by func.

    The cells are resolution^2 centres of side step. The minimizing cell is
    unique when every other cell's objective exceeds the best by more than
    margin * step^2; its centre starts the polish of the angle system func.
    """
    step = (math.pi / 2) / resolution
    centers = (np.arange(resolution) + 0.5) * step
    objective = objective_of(*np.meshgrid(centers, centers, indexing="ij"))
    i, j = np.unravel_index(np.argmin(objective), objective.shape)
    best = objective[i, j]
    objective[i, j] = np.inf
    unique = bool(objective.min() > best + margin * step * step)
    point = (float(centers[i]), float(centers[j]))
    return OracleResult(point, tuple(_solve_angle_system(func, point)), step, unique)


def g4_grid_oracle(resolution: int = 721) -> OracleResult:
    """Brute-force grid over (alpha, gamma) in (0, pi/2)^2 for the normalized system."""
    def objective(alpha, gamma):
        # |(6.9) residual|^2 under the normalization collapses to |2(1+e^(2i(a+c)))|^2
        res_sq = np.abs(2.0 * (1.0 + np.exp(2j * (alpha + gamma)))) ** 2
        return res_sq + ((math.pi / 2 - alpha) + gamma - math.pi / 2) ** 2

    return _grid_oracle(resolution, objective, _g4_system, 0.25)


# ---------------------------------------------------------------------------
# g = 6 angle system
# ---------------------------------------------------------------------------

def psi_values(gaps: AngleGaps) -> tuple:
    """The cross-ratio values (Psi^1, Psi^5, Psi^11) of normalized g=6 odd gaps.

    Evaluated both by the closed forms in w_k = e^(2i gap_k) and directly as
    cross ratios of the even vertex positions. Returns (values, route_gap):
    the real parts of the closed forms, and max |closed - direct| over the
    three. The direct cross ratios of concircular points are real, so a
    small route_gap also bounds the dropped imaginary parts; the
    angle_solvers/g6_psi_triple case judges it.
    """
    if gaps.g != 6:
        raise DomainError("psi_values needs g = 6 gaps")
    a, b, c, d, z, e = gaps.odd
    if abs(a + b + c - math.pi / 2) > 1e-9 or abs(d + z + e - math.pi / 2) > 1e-9:
        raise DomainError("odd gaps must satisfy the half-turn normalization")
    w = [cmath.exp(2j * x) for x in gaps.odd]
    w1, w2, w3, w4, w5, w6 = w
    closed = (
        (1 - w1) * (1 - w3 * w4) / ((1 + w4) * (1 + w1 * w3)),
        (1 - w3) * (1 - w5 * w6) / ((1 + w3) * (1 + w5 * w6)),
        (1 - w6) * (1 - w2 * w3) / ((1 + w6) * (1 + w2 * w3)),
    )
    cum = np.concatenate([[0.0], np.cumsum(gaps.odd[:-1])])
    zpt = {2 * (i + 1): cmath.exp(2j * cum[i]) for i in range(6)}
    direct = (
        cross_ratio(zpt[2], zpt[6], zpt[4], zpt[10]),
        cross_ratio(zpt[6], zpt[10], zpt[8], zpt[2]),
        cross_ratio(zpt[12], zpt[4], zpt[2], zpt[8]),
    )
    route_gap = max(abs(cval - dval) for cval, dval in zip(closed, direct))
    return tuple(cval.real for cval in closed), route_gap


@dataclass(frozen=True)
class G6Branch:
    description: str
    x: float | None
    accepted: bool
    reason: str


def g6_branches() -> list:
    """Case analysis of (x+y)(5(x+y)-4(xy+1)) = 0 and (x-y)(5(x+y)-4(xy+1)) = 0.

    The last entry is the common-factor branch 5(x+y) = 4(xy+1) with x != y:
    every Lie curvature takes the family value along it, so nothing in the
    cross-ratio data alone rejects it; the antipodal closure of the
    normalized configuration (lambda * rho = -1 at every odd vertex, i.e.
    x = y) is what removes it.
    """
    branches = [
        G6Branch("x = y = 0 (both factors x+y and x-y vanish)", 0.0, False,
                 "alpha = gamma = pi/4 forces beta = 0"),
        G6Branch("x + y = 0, x - y != 0: 4(x^2 - 1) = 0, x = +1", 1.0, False,
                 "alpha = 0 leaves the open interval"),
        G6Branch("x + y = 0, x - y != 0: 4(x^2 - 1) = 0, x = -1", -1.0, False,
                 "alpha = pi/2 leaves the open interval"),
        G6Branch("x = y, x + y != 0: -2(2x-1)(x-2) = 0, x = 2", 2.0, False,
                 "|cos 2 alpha| <= 1 fails"),
        G6Branch("x != +/-y on the curve 5(x+y) = 4(xy+1)", None, False,
                 "violates the antipodal closure x = y"),
        G6Branch("x = y, x + y != 0: -2(2x-1)(x-2) = 0, x = 1/2", 0.5, True,
                 "alpha = gamma = pi/6"),
    ]
    return branches


def solve_g6_normalized() -> AngleGaps:
    """Solve the normalized g=6 angle system; the unique solution is all-pi/6.

    Psi^5 = -1 forces gamma = delta, Psi^11 = -1 forces alpha = eta (hence
    beta = zeta), the antipodal closure of the normalized configuration
    (lambda * rho = -1 at every odd vertex) forces alpha = gamma, and
    Psi^1 = -1 then reduces to 2(w1 w3 + 1) = w1 + w3 with x = y, whose
    single surviving branch is x = cos 2 alpha = 1/2. Without the closure
    the system retains a spurious one-parameter family along
    5(x+y) = 4(xy+1). The gaps are built from the one accepted branch of
    g6_branches; the angle_solvers cases g6_solution_pi6 and g6_psi_triple
    judge them against pi/6 and against the Psi system.
    """
    (branch,) = [b for b in g6_branches() if b.accepted]
    alpha = math.acos(branch.x) / 2.0
    gamma = alpha
    beta = math.pi / 2 - alpha - gamma
    odd = (alpha, beta, gamma, gamma, beta, alpha)
    return AngleGaps(6, odd, odd)


def g6_grid_oracle(resolution: int = 721, gap_margin: float = 0.02) -> OracleResult:
    """2-D grid + polish over (alpha, gamma) with gamma = delta, alpha = eta imposed.

    The objective combines the Psi^1 condition with the antipodal-closure
    incidence (gamma - alpha)^2; without the closure the Psi system keeps a
    spurious solution curve 5(x+y) = 4(xy+1). Cells with a gap below
    gap_margin are infeasible (degenerate polygon).
    """
    def objective(alpha, gamma):
        beta = math.pi / 2 - alpha - gamma
        w1 = np.exp(2j * alpha)
        w3 = np.exp(2j * gamma)
        values = np.abs(2 * (w1 * w3 + 1) - (w1 + w3)) ** 2 + (gamma - alpha) ** 2
        values[(beta <= gap_margin) | (alpha <= gap_margin) | (gamma <= gap_margin)] = np.inf
        return values

    def func(p):
        a, c = p
        if not (0 < a < math.pi / 2 and 0 < c < math.pi / 2 and a + c < math.pi / 2):
            return None
        val = 2 * (cmath.exp(2j * a) * cmath.exp(2j * c) + 1) \
            - (cmath.exp(2j * a) + cmath.exp(2j * c))
        return np.array([val.real, val.imag, c - a])

    return _grid_oracle(resolution, objective, func, 0.0)


# ---------------------------------------------------------------------------
# circle Moebius group O(2,1) and the conformal reduction
# ---------------------------------------------------------------------------

def _su11_params(chi: float, m: complex):
    s = 1.0 / math.sqrt(1.0 - abs(m) ** 2)
    a = cmath.exp(1j * chi / 2) * s
    b = cmath.exp(1j * chi / 2) * m * s
    return a, b


def _so21_matrix(a: complex, b: complex) -> np.ndarray:
    # coords (x, y, t) <-> Hermitian [[t, x+iy], [x-iy, t]]; action H -> g H g^dagger
    gmat = np.array([[a, b], [b.conjugate(), a.conjugate()]])
    basis = (np.array([[0, 1], [1, 0]], dtype=complex),
             np.array([[0, 1j], [-1j, 0]], dtype=complex),
             np.eye(2, dtype=complex))
    cols = []
    for h in basis:
        hp = gmat @ h @ gmat.conj().T
        cols.append([hp[0, 1].real, hp[0, 1].imag, hp[0, 0].real])
    return np.array(cols).T


@dataclass(frozen=True)
class CircleMobius:
    """O(2,1) element acting on the geodesic circle; (x, y, alpha_check) is its bottom row."""

    matrix: np.ndarray
    x: float
    y: float
    alpha_check: float

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", matrix)
        ok, residual = is_lie_transform(matrix, Signature(2, 1), 1e-9)
        if not ok:
            raise ValueError(f"not in O(2,1): residual {residual:.3e}")

    @classmethod
    def from_parameters(cls, chi: float, m: complex) -> "CircleMobius":
        if abs(m) >= 1.0:
            raise DomainError("boost parameter must satisfy |m| < 1")
        matrix = _so21_matrix(*_su11_params(chi, m))
        return cls(matrix, matrix[2, 0], matrix[2, 1], matrix[2, 2])

    @classmethod
    def identity(cls) -> "CircleMobius":
        return cls.from_parameters(0.0, 0.0)

    def apply_angle(self, phi: float) -> float:
        z = self.matrix @ np.array([math.cos(phi), math.sin(phi), 1.0])
        return math.atan2(z[1], z[0])


def _transform_positions(phis: np.ndarray, chi: float, m: complex) -> np.ndarray:
    a, b = _su11_params(chi, m)
    z = np.exp(1j * phis)
    return _one_turn(np.angle((a * z + b) / (b.conjugate() * z + a.conjugate())))


def _wrap(angle: float) -> float:
    return (angle + math.pi) % (2 * math.pi) - math.pi


def conformal_normalize(poly: GeodesicPolygon):
    """O(2,1) map making vertices 1, 2 antipodal to vertices g+1, g+2.

    For g = 4 that makes the lambda leaves of p^1, p^5 antipodally symmetric
    (with the nu leaves parallel); for g = 6 it does the same for the
    lambda leaves of p^1, p^7. Solved by the search's Levenberg polish over
    the two boost parameters (kept to |m| < 0.999), with the rotation gauge
    fixed by re-anchoring vertex 1. The rotation keeps vertex differences,
    so the antipodal condition solved for holds on the result;
    isometry_reduction checks it on its input. Returns (map, transformed
    polygon).
    """
    g = poly.g
    if g not in (4, 6):
        raise DomainError("conformal normalization is defined for g = 4 and g = 6")
    phis = poly.vertex_angles

    def constraints(m: np.ndarray):
        if math.hypot(*m) >= 0.999:
            return None
        new = _transform_positions(phis, 0.0, complex(m[0], m[1]))
        return np.array([_wrap(new[g] - new[0] - math.pi),
                         _wrap(new[g + 1] - new[1] - math.pi)])

    m, r = _levenberg_polish(constraints, np.zeros(2))
    norm = float(np.abs(r).max())
    if norm > 1e-12:
        raise NormalizationFailure(f"boost solve did not converge: residual {norm:.3e}")
    mboost = complex(m[0], m[1])
    moved = _transform_positions(phis, 0.0, mboost)
    chi = _wrap(phis[0] - moved[0])
    mapped = CircleMobius.from_parameters(chi, mboost)
    return mapped, polygon_from_positions(g, _transform_positions(phis, chi, mboost))


@dataclass(frozen=True)
class IsometryReduction:
    x: float
    y: float
    matrix: np.ndarray
    certificates: tuple
    mean_curvature: float
    trace_multiplicity: float


def isometry_reduction(g: int, poly: GeodesicPolygon, m1: int, m2: int) -> IsometryReduction:
    """Show the conformal factor of a normalized parallel polygon must be an isometry.

    Assembles the two vertex mean-curvature differences as a homogeneous
    2x2 system in the O(2,1) parameters (x, y); the certified signs make
    it nonsingular, so the unique solution is (0, 0). The certificates are
    returned, not judged: the isometry_reduction suite checks their
    margins. Raises CertificateFailure only when the system is singular.
    """
    if g not in (4, 6):
        raise DomainError("isometry reduction is defined for g = 4 and g = 6")
    if poly.g != g:
        raise DomainError("polygon does not match g")
    if not is_parallel(poly, 1e-8):
        raise DomainError("polygon must be parallel")
    phis = poly.vertex_angles
    for t in (0, 1):
        if abs(_wrap(phis[t + g] - phis[t] - math.pi)) > 1e-8:
            raise DomainError("polygon must be antipodally normalized")
    # rotate to the standard gauge p^1 = (sin theta_1, cos theta_1)
    theta1 = poly.radius_table[0, 0]
    gauge = math.pi / 2 - theta1 - phis[0]
    poly = GeodesicPolygon(g, phis + gauge, poly.radius_table)

    mult = multiplicity_vector(g, m1, m2)
    cot_row = 1.0 / np.tan(poly.radius_table[0])
    h_hat = float(mult @ cot_row)
    k_trace = float(mult.sum())
    pts = poly.vertex_points()
    normals = poly.vertex_normals()

    pairs = ((1, 2), (1, 3)) if g == 4 else ((1, 2), (4, 5))
    matrix = np.empty((2, 2))
    for r, (t, s) in enumerate(pairs):
        dp = pts[t - 1] - pts[s - 1]
        dn = normals[t - 1] - normals[s - 1]
        matrix[r] = dp * h_hat + dn * k_trace

    u_hat, v_hat = pts[0]
    lam_hat = cot_row[0]
    tau_hat = cot_row[-1]
    certs = [SignCertificate("H_minus_K_lambda", h_hat - k_trace * lam_hat, NEGATIVE),
             SignCertificate("H_minus_K_tau", h_hat - k_trace * tau_hat, POSITIVE)]
    if g == 4:
        certs.append(SignCertificate("tau_side_g4",
                                     (v_hat - u_hat) * (h_hat - tau_hat * k_trace), POSITIVE))
        expected = np.array([[2 * u_hat * (h_hat - lam_hat * k_trace), 0.0],
                             [(u_hat + v_hat) * h_hat + (u_hat - v_hat) * k_trace,
                              (v_hat - u_hat) * h_hat + (u_hat + v_hat) * k_trace]])
    else:
        l_hat = pts[3][1]
        certs.append(SignCertificate("tau_side_g6",
                                     l_hat * (h_hat - tau_hat * k_trace), POSITIVE))
        expected = np.array([[2 * u_hat * (h_hat - lam_hat * k_trace), 0.0],
                             [0.0, 2 * l_hat * (h_hat - tau_hat * k_trace)]])
    if np.abs(matrix - expected).max() > 1e-8 * max(1.0, np.abs(expected).max()):
        raise ArithmeticError("assembled system disagrees with its closed form")
    det = float(np.linalg.det(matrix))
    if abs(det) <= 1e-12:
        raise CertificateFailure("reduction system is singular")
    solution = np.linalg.solve(matrix, np.zeros(2))
    return IsometryReduction(float(solution[0]), float(solution[1]), matrix,
                             tuple(certs), h_hat, k_trace)


# ---------------------------------------------------------------------------
# falsification search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchSurvivor:
    gaps: AngleGaps
    theta1: float
    residual: float
    parallel: bool


def _search_residual(g: int, params: np.ndarray, constraints, mult: np.ndarray):
    odd = params[:g - 1]
    even = params[g - 1:2 * g - 2]
    theta1 = params[-1]
    odd_full = np.append(odd, math.pi - odd.sum())
    even_full = np.append(even, math.pi - even.sum())
    if odd_full.min() <= 1e-3 or even_full.min() <= 1e-3:
        return None
    table = _radius_table(g, odd_full, even_full, theta1, theta1)
    if table.min() <= 1e-3 or table.max() >= math.pi - 1e-3:
        return None
    lam = 1.0 / np.tan(table)
    out = []
    if "cmc" in constraints:
        h = lam @ mult
        out.append(h[1:] - h[0])
    if "csc" in constraints:
        s = (lam * lam) @ mult
        out.append(s[1:] - s[0])
    if "clc" in constraints:
        if g == 4:
            l1, l2, l3, l4 = lam.T
            out.append((l1 - l2) * (l3 - l4) / ((l1 - l4) * (l3 - l2)) + 1.0)
        else:
            for h_idx, target in G6_FAMILY_PHI.items():
                l1, l2, lh, l5 = lam[:, 0], lam[:, 1], lam[:, h_idx - 1], lam[:, 4]
                out.append((l1 - l2) * (lh - l5) / ((l1 - l5) * (lh - l2)) - target)
    return np.concatenate(out) if out else np.zeros(0)


def constraint_search(g: int, constraints, grid_resolution: int, seed: int,
                      m1: int = 1, m2: int = 1) -> list:
    """Grid + seeded-jitter multistart falsification search.

    Enumerates Table-structured configurations, polishes each start, keeps
    configurations whose selected constraint residuals are all <= 1e-6, and
    reports each survivor with its is_parallel verdict. Deterministic for a
    fixed seed; survivors are merged in parameter order.
    """
    if g not in SUPPORTED_G:
        raise DomainError(f"g must be one of {SUPPORTED_G}")
    constraints = frozenset(constraints)
    if not constraints <= {"cmc", "csc", "clc"}:
        raise ValueError(f"unknown constraints {sorted(constraints - {'cmc', 'csc', 'clc'})}")
    if not 1 <= grid_resolution <= 60:
        raise DomainError("grid_resolution must be in 1..60 (desk scale)")
    if "clc" in constraints and g == 3:
        raise DomainError("clc filtering needs g = 4 or g = 6")
    mult = multiplicity_vector(g, m1, m2)
    ndim = 2 * g - 1
    # free gaps centered on pi/g so that most sampled cycles close with a positive gap
    lo = np.concatenate([np.full(2 * g - 2, 0.08), [0.04]])
    hi = np.concatenate([np.full(2 * g - 2, 2.0 * math.pi / g), [1.4 * math.pi / g]])
    rng = np.random.default_rng(seed)
    n_starts = grid_resolution * grid_resolution
    found = {}
    for _ in range(n_starts):
        levels = rng.integers(0, grid_resolution, ndim)
        jitter = rng.uniform(-0.4, 0.4, ndim)
        start = lo + (levels + 0.5 + jitter) * (hi - lo) / grid_resolution
        p, r = _levenberg_polish(lambda q: _search_residual(g, q, constraints, mult), start)
        if p is None or float(np.abs(r).max()) > SEARCH_FILTER_TOL:
            continue
        key = tuple(np.round(p, 6))
        if key not in found:
            found[key] = (p, float(np.abs(r).max()))
    survivors = []
    for key in sorted(found):
        p, resid = found[key]
        gaps = AngleGaps.from_free(g, p[:g - 1], p[g - 1:2 * g - 2])
        poly = angle_table(g, gaps, float(p[-1]))
        survivors.append(SearchSurvivor(gaps, float(p[-1]), resid, is_parallel(poly)))
    return survivors
