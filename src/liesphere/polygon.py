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
2x2 homogeneous system, lower triangular in closed form, whose diagonal
is certified nonzero by signs. The search's clc rows hold each Lie
curvature of dji.CLC_PHI at its family value.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .dji import CLC_PHI, NEGATIVE, POSITIVE, SignCertificate
from .errors import DomainError, raise_where
from .indefinite import Signature, is_lie_transform
from .isoparam import multiplicity_sum, multiplicity_vector
from .quadric import (PAPER6_12_34, STANDARD_13_24, LieCurvatureValue,
                      ProjectiveCurvature, cross_ratio, lie_curvature)


def _read_only(array: np.ndarray) -> np.ndarray:
    """array, flagged so that a write raises: a cached or module-level plan has many readers."""
    array.flags.writeable = False
    return array


SUPPORTED_G = (3, 4, 6)
PARALLEL_TOL = 1e-9
SEARCH_FILTER_TOL = 1e-6
_SCREEN_BLOCK = 256  # starts per screening call: a whole 35^2 grid of g = 6 tables is ~1.3 MB
_ORACLE_BLOCK = 1 << 15  # cells per grid-oracle objective call: 256 KiB per float64 array
_unit_steps = functools.cache(lambda n: _read_only(np.eye(n) * 1e-7))  # row d steps p_d

_TABLE_OUT_OF_RANGE = "configuration leaves (0, pi): radius table invalid"

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


@functools.cache
def _table_plan(g: int) -> np.ndarray:
    """Gather indices (g - 1, 2g) into a gap array (2g, ...), the odd cycle then the even.

    Entry [i, t] is the gap that radius row t adds at its (i + 1)-th step from its
    base radius: row 2k steps through odd[k], odd[k + 1], ..., row 2k + 1 through
    even[-k], even[1 - k], ... (indices mod g).
    """
    k = np.arange(g)
    plan = np.empty((g - 1, 2 * g), dtype=int)
    plan[:, 0::2] = ((k[:, None] + k) % g)[:, :-1].T
    plan[:, 1::2] = g + ((k - k[:, None]) % g)[:, :-1].T
    return _read_only(plan)


def _stack_last_table(g: int, gaps: np.ndarray, theta1) -> np.ndarray:
    """The radius tables (g, 2g, ...) of gap arrays (2g, ...) and base radii (...).

    Stack-last: entry [i, t] is theta^(t+1)_(i+1), and every term is a contiguous slab.
    The base radii chain is one accumulate over theta1, odd[0], -even[g-1], odd[1], ...
    (x + (-y) is x - y in IEEE); the running sums of the steps go slab by slab, since an
    accumulate over that axis pays an inner loop per lane, 15 times the cost at S = 1000.
    """
    stack = gaps.shape[1:]
    chain = np.empty((2 * g - 1,) + stack)
    chain[0] = theta1
    chain[1::2] = gaps[:g - 1]
    np.negative(gaps[:g:-1], chain[2::2])
    np.add.accumulate(chain, 0, None, chain)
    table = np.empty((g, 2 * g) + stack)
    table[0].reshape((g, 2) + stack)[...] = chain[::2, None]
    run = gaps.take(_table_plan(g), 0, table[1:], "clip")  # the steps, summed in place
    for i in range(1, g - 1):
        run[i] += run[i - 1]
    run += table[0]
    return table


def _radius_table(g: int, gaps, theta1) -> np.ndarray:
    """The 2g x g table of a gap array (..., 2g) and base radii (...); broadcasts over stacks.

    The stack-first view of _stack_last_table, copied to a C-ordered array (..., 2g, g).
    """
    gaps = np.asarray(gaps, dtype=float)
    stack = np.broadcast(gaps[..., 0], theta1).shape
    last = tuple(range(len(stack)))
    table = _stack_last_table(g, np.broadcast_to(gaps, stack + (2 * g,)).transpose((-1,) + last),
                              theta1)
    return table.transpose(tuple(d + 2 for d in last) + (1, 0)).copy()


@dataclass(frozen=True, eq=False)
class GeodesicPolygon:
    """2g vertex angles (strictly increasing, one turn) plus the 2g x g radius table.

    A stack of polygons of one g holds angles (..., 2g) and tables (..., 2g, g),
    checked at once; the methods broadcast over it.
    """

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
        if phis.shape[-1:] != (2 * self.g,):
            raise DomainError("need 2g vertex angles")
        _check_polygons(phis, table)

    def curvatures(self) -> np.ndarray:
        return 1.0 / np.tan(self.radius_table)

    def vertex_points(self) -> np.ndarray:
        """(..., 2g, 2) unit-circle coordinates."""
        return np.stack([np.cos(self.vertex_angles), np.sin(self.vertex_angles)], axis=-1)

    def vertex_normals(self) -> np.ndarray:
        """Unit normals: positions rotated +pi/2 at odd vertices, -pi/2 at even ones."""
        pts = self.vertex_points()
        normals = np.empty_like(pts)
        normals[..., 0::2, 0], normals[..., 0::2, 1] = -pts[..., 0::2, 1], pts[..., 0::2, 0]
        normals[..., 1::2, 0], normals[..., 1::2, 1] = pts[..., 1::2, 1], -pts[..., 1::2, 0]
        return normals


def _check_radii(table: np.ndarray, message: str = "radii must lie in (0, pi)") -> None:
    if np.any(table <= 0) or np.any(table >= math.pi):
        raise DomainError(message)


def _check_polygons(phis: np.ndarray, table: np.ndarray) -> None:
    """GeodesicPolygon's checks, on one polygon or a stack: angles (..., 2g), tables (..., 2g, g)."""
    if np.any(np.diff(phis) <= 0) or np.any(phis[..., -1] - phis[..., 0] >= 2 * math.pi):
        raise DomainError("vertex angles must increase strictly through one turn")
    if table.shape != phis.shape + (phis.shape[-1] // 2,):
        raise DomainError("radius table must be 2g x g")
    _check_radii(table)
    if np.any(np.diff(table) <= 0):
        raise DomainError("each radius row must be strictly increasing")


def _one_turn(phis: np.ndarray) -> np.ndarray:
    """The angles re-anchored to one increasing turn that starts at phis[..., 0]."""
    rel = (phis - phis[..., :1]) % (2 * math.pi)
    rel[..., 0] = 0.0
    return phis[..., :1] + rel


def _positions_from_table(table: np.ndarray, phi1) -> np.ndarray:
    """Vertex angles (..., 2g) of radius tables (..., 2g, g) with vertex 1 at phi1 (...)."""
    phi1 = np.asarray(phi1)[..., None]
    phis = np.empty(table.shape[:-1])
    phis[..., :1] = phi1
    phis[..., 1::2] = phi1 + 2 * table[..., 0, :]
    phis[..., 2::2] = phis[..., 1:2] - 2 * table[..., 1, :0:-1]
    # bring the clockwise-constructed odd vertices into the increasing turn from phi1
    return _one_turn(phis)


def angle_table(g: int, gaps: AngleGaps, theta1) -> GeodesicPolygon:
    """Polygon from the Table-1/2 shift pattern with link-relation base radii.

    Rows p^1 and p^2 share the base radius theta1 (the lambda-leaf link).
    An array of base radii gives a stack of polygons.
    """
    if gaps.g != g:
        raise DomainError("gap cycle length does not match g")
    table = _radius_table(g, gaps.odd + gaps.even, theta1)
    _check_radii(table, _TABLE_OUT_OF_RANGE)
    return GeodesicPolygon(g, _positions_from_table(table, math.pi / 2 - theta1), table)


def build_parallel_polygon(g: int, theta) -> GeodesicPolygon:
    """Isoparametric member: all gaps pi/g, base radius pi/(2g) + theta; a stack for an array."""
    bound = math.pi / (2 * g)
    theta = np.asarray(theta, dtype=float)
    raise_where(~((-bound < theta) & (theta < bound)), DomainError,
                f"theta must lie in (-pi/{2 * g}, pi/{2 * g})")
    return angle_table(g, AngleGaps.regular(g), bound + theta)


def polygon_from_positions(g: int, vertex_angles) -> GeodesicPolygon:
    """Rebuild the radius table from vertex positions (..., 2g) via the pairing map."""
    phis = np.asarray(vertex_angles, dtype=float)
    if phis.shape[-1:] != (2 * g,):
        raise DomainError("need 2g vertex angles")
    phis = _one_turn(phis)
    if np.any(np.diff(phis) <= 0):
        raise DomainError("vertex angles are not in cyclic order")
    t = np.arange(1, 2 * g + 1)[:, None]
    near, far = phis[..., t - 1], phis[..., link_partner(g, t, np.arange(1, g + 1)) - 1]
    arcs = np.where(t % 2 == 1, far - near, near - far) % (2 * math.pi)
    return GeodesicPolygon(g, phis, arcs / 2.0)


@dataclass(frozen=True)
class LinkReport:
    max_residual: float
    residuals: dict


def link_check(poly: GeodesicPolygon) -> LinkReport:
    """Residuals |cot theta^t_i - cot theta^s_i| of every leaf pairing, keyed by (t, i, s),
    and their maximum: a measurement, which the caller judges."""
    cot = poly.curvatures()
    t, i = np.arange(1, 2 * poly.g + 1)[:, None], np.arange(1, poly.g + 1)
    s = link_partner(poly.g, t, i)
    gaps = np.abs(cot - cot[s - 1, i - 1])
    first = s >= t  # each pairing once, from its lower vertex
    t, i = np.broadcast_arrays(t, i)
    residuals = dict(zip(zip(t[first].tolist(), i[first].tolist(), s[first].tolist()),
                         gaps[first].tolist()))
    return LinkReport(max(residuals.values()), residuals)


def _parallel(tables: np.ndarray, tol: float = PARALLEL_TOL) -> np.ndarray:
    """is_parallel of each radius table of a stack (..., 2g, g)."""
    return np.abs(tables - tables[..., :1, :]).max(axis=(-2, -1)) <= tol


def is_parallel(poly: GeodesicPolygon) -> bool:
    """True iff every radius row equals row 1 within PARALLEL_TOL (vertex-independent radii)."""
    return bool(_parallel(poly.radius_table))


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
# damped least squares, shared by the angle systems and the search
# ---------------------------------------------------------------------------

def _sum_squares(r: np.ndarray) -> np.ndarray:  # r @ r per row, by the same dot product
    return (r[:, None, :] @ r[:, :, None])[:, 0, 0]


def _difference_jacobians(func, p: np.ndarray, r: np.ndarray):
    """Forward-difference Jacobians (k, m, n) at k feasible points, and which exist.

    One func call takes all k n forward steps; when all are feasible (623 of the 765
    calls of the seed-0 search_sweep) the columns are formed in place. Else a second call
    steps the infeasible ones backward; a start where that fails too has no Jacobian.
    """
    k, n = p.shape
    steps = p[:, None, :] + _unit_steps(n)  # steps[s, d]: p[s] with p[s, d] + 1e-7
    rs, ok = func(steps.reshape(k * n, n))
    rs, ok = rs.reshape(k, n, -1), ok.reshape(k, n)
    if ok.all():  # jac[s, :, d] = (rs[s, d] - r[s]) / 1e-7
        jac = np.subtract(rs.swapaxes(1, 2), r[:, :, None], np.empty((k, rs.shape[2], n)))
        return np.divide(jac, 1e-7, jac), ok[:, 0]
    # (rb - r) / -h is (r - rb) / h to the bit: IEEE subtraction and division are odd
    h = np.where(ok, 1e-7, -1e-7)
    s, d = np.nonzero(~ok)
    steps[s, d, d] -= 2e-7
    rs[s, d], ok[s, d] = func(steps[s, d])
    cols = np.zeros(rs.shape)
    cols[ok] = (rs[ok] - np.broadcast_to(r[:, None], rs.shape)[ok]) / h[ok][:, None]
    return np.ascontiguousarray(cols.swapaxes(1, 2)), ok.all(axis=1)


def _solve_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solutions (k, n) of a[s] x = b[s]; NaN rows where a[s] is singular.

    One singular member fails the whole call, so a failed stack is solved again
    as two halves: a single singular member costs O(log k) calls, and each row
    keeps the bits of its member solved alone.
    """
    try:
        return np.linalg.solve(a, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.full(b.shape, np.nan)
        half = len(a) // 2
        return np.concatenate([_solve_stack(a[:half], b[:half]), _solve_stack(a[half:], b[half:])])


def _levenberg_polish(func, starts, max_iter=120):
    """Levenberg-damped Gauss-Newton (Moré 1978) on a stack of starts.

    func(P) maps an (S, n) stack to (residuals (S, m), feasible (S,)); rows of
    infeasible points are never read. Each start keeps its own damping, stop
    rules and floating-point path: per iteration a difference Jacobian, then up
    to 40 damping trials of (J^T J + damp I) dp = -J^T r, damp growing tenfold,
    until a feasible step lowers |r|^2 (damp then shrinks by 0.3, to no less
    than 1e-13). A singular trial goes on to the next; any other failed trial
    ends the ladder once its next damp passes 1e12. The loop stops below
    |r|^2 = 1e-28, without a Jacobian or a step, or after max_iter iterations.

    J and r are fixed within an iteration, so the trials of a start are formed
    before any is judged, in rounds: round 1 solves and evaluates trials 0-2
    of every start at once, round 2 the rest of the ladder, up to the cap, of
    the starts still without a step; each start of a round makes the trials that
    the lowest damp reaches before the cap. The first trial that lowers |r|^2 is
    the one the trial-by-trial loop takes, to the bit. Round 1 is 3 wide because
    most iterations end there: 596 of the 765 of the seed-0 search_sweep, and
    169 take round 2. Most of those climb to the cap from a point at its
    floating-point floor. Only a singular trial past the cap needs a further round.
    So an iteration makes one or two func calls for the Jacobian and one per round;
    a boolean re-index that would drop nothing, or a round with no start left, is skipped.

    Returns the points (k, n) and residuals (k, m) of the k feasible starts in
    order; k = 0 when m = 0.
    """
    p = np.array(starts, dtype=float)
    r, feasible = func(p)
    p, r = p[feasible], r[feasible]
    if r.shape[1] == 0:
        return p[:0], r[:0]
    f, damp, live = _sum_squares(r), np.full(len(p), 1e-3), np.arange(len(p))
    # per-polish constants; take and compress index as [] does, at a third of its call cost
    eye, no_row = np.eye(p.shape[1]), np.array([-1])
    for _ in range(max_iter):
        live = live.compress(f.take(live) >= 1e-28)
        if not live.size:
            break
        r_live = r.take(live, 0)
        jac, has_jac = _difference_jacobians(func, p.take(live, 0), r_live)
        if not has_jac.all():  # each re-index below is skipped when it would drop nothing
            live, jac, r_live = live[has_jac], jac[has_jac], r_live[has_jac]
            if not live.size:
                break
        jt = jac.swapaxes(1, 2)
        normal, grad = jt @ jac, (-jt @ r_live[:, :, None])[:, :, 0]
        # s: the starts still without a step, each with `left` trials allowed, the next at
        # damp `start`; normal and grad follow s. A round makes at most `most` trials of each.
        s, start, left, most, stepped = live, damp.take(live), 40, 3, []
        while True:
            # ladder[i, j]: the damp after j failed trials, by the loop's own * 10
            ladder = np.full((s.size, most + 1), 10.0)
            ladder[:, 0] = start
            np.multiply.accumulate(ladder, 1, None, ladder)
            # every start makes the trials that the lowest damp reaches before the cap; past
            # its own cap a start goes on only through a singular trial
            width = 1 + ladder[start.argmin(), 1:most].searchsorted(1e12, "right")
            ladder = ladder[:, :width + 1]
            trial = ladder[:, :-1].ravel()  # trial j of s[i] at i * width + j
            a = normal.repeat(width, 0)
            a += trial[:, None, None] * eye
            dp = _solve_stack(a, grad.repeat(width, 0))
            # a ladder ends at its first solved trial that steps or leaves damp past the cap
            who, capped = s.repeat(width), (ladder[:, 1:] > 1e12).ravel()
            singular = np.isnan(dp[:, 0])
            if singular.any():  # evaluated at its start, which it cannot lower, it goes on
                dp[singular], capped[singular] = 0.0, False
            cand = p.take(who, 0) + dp
            rn, ok = func(cand)
            if ok.all():
                fn = _sum_squares(rn)
            else:
                fn = np.full(who.size, np.inf)
                fn[ok] = _sum_squares(rn.compress(ok, 0))
            better = fn < f.take(who)
            ends = (better | capped).nonzero()[0]
            ended = ends // width  # the row in s of each end
            first = ended != np.concatenate((no_row, ended[:-1]))  # first end of its ladder
            c = ends.compress(first & better.take(ends))
            t = who.take(c)
            p[t], r[t] = cand.take(c, 0), rn.take(c, 0)
            f.put(t, fn.take(c))
            damp.put(t, np.maximum(trial.take(c) * 0.3, 1e-13))
            stepped.append(t)
            left -= width
            if t.size == s.size or not left:
                break
            more = np.ones(s.size, dtype=bool)
            more.put(ended, False)
            s, most = s.compress(more), left
            if not s.size:
                break
            start = ladder[:, -1].compress(more)
            normal, grad = normal.compress(more, 0), grad.compress(more, 0)
        live = stepped[0] if len(stepped) == 1 else np.sort(np.concatenate(stepped))
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
    return complex(_g4_odd_residual(*gaps.odd))


def _g4_odd_residual(a, b, c, d):
    # only sums and real multiples of the exponentials: arrays round as scalars do
    return (2.0 * (1.0 + np.exp(2j * (a + c))) - np.exp(2j * a) - np.exp(2j * c)
            - np.exp(-2j * d) - np.exp(-2j * b))


def _g4_system(p: np.ndarray):
    # residual of (6.9) under beta = pi/2 - alpha, delta = pi/2 - gamma, plus the
    # antipodal-closure incidence beta + gamma = pi/2 (lambda*nu = -1 at every vertex)
    alpha, gamma = p[:, 0], p[:, 1]
    beta = math.pi / 2 - alpha
    delta = math.pi / 2 - gamma
    r = _g4_odd_residual(alpha, beta, gamma, delta)
    feasible = (0 < alpha) & (alpha < math.pi / 2) & (0 < gamma) & (gamma < math.pi / 2)
    return np.stack([r.real, r.imag, beta + gamma - math.pi / 2], axis=1), feasible


def _solve_system(func, start) -> np.ndarray:
    """Polish one start of a small system; raise ArithmeticError when |r| stays above 1e-13."""
    p, r = _levenberg_polish(func, [start])
    norm = float(np.abs(r).max()) if len(p) else math.inf
    if norm > 1e-13:
        raise ArithmeticError(f"solve did not converge: residual {norm:.3e}")
    return p[0]


def solve_g4_normalized() -> AngleGaps:
    """Solve the normalized g=4 angle system; the unique solution is all-pi/4.

    Imposed: the (6.9) residual, the normalization alpha+beta = pi/2 =
    gamma+delta, and the antipodal closure of the normalized configuration
    (lambda*nu = -1 at every vertex, i.e. beta+gamma = pi/2). Without the
    closure the first two conditions only pin alpha + gamma = pi/2.
    """
    odd = _solve_system(_g4_system, (0.55, 1.05))
    even = _solve_system(_g4_system, (1.1, 0.5))
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

    def residuals(self, g: int) -> tuple[float, float]:
        """Residuals against pi/g: the polished angles' largest deviation, and 0.0 if the
        minimizing cell is unique with its centre within one cell_size of pi/g, else 1.0."""
        target = math.pi / g
        near = max(abs(v - target) for v in self.grid_minimum) <= self.cell_size
        return (max(abs(v - target) for v in self.polished),
                0.0 if self.unique_cell and near else 1.0)


def _grid_oracle(resolution: int, objective_of, func, margin: float, infeasible="") -> OracleResult:
    """Grid minimum of objective_of(alpha, gamma) over (0, pi/2)^2, polished by func.

    The cells are resolution^2 centres of side step. They are evaluated in
    blocks of max(1, _ORACLE_BLOCK // resolution) whole rows, so no objective
    array holds more than _ORACLE_BLOCK cells unless one row does.
    objective_of gets a block's centres as a column alpha (rows, 1) and all
    centres as a row gamma (1, resolution) and broadcasts them to the block,
    so a term of one angle alone is evaluated once per centre and block, not
    once per cell. Across the blocks the oracle keeps the first minimum in
    row-major order and the second-smallest value (inf on a one-cell grid,
    which has no other cell). The minimizing cell is unique when that second
    value exceeds the best by more than margin * step^2; its centre starts
    the polish of the angle system func. An all-inf grid has no start: it
    raises DomainError naming the resolution, then the text infeasible.
    """
    if resolution < 1:
        raise DomainError(f"grid oracle resolution must be at least 1, got {resolution}")
    step = (math.pi / 2) / resolution
    centers = (np.arange(resolution) + 0.5) * step
    rows = max(1, _ORACLE_BLOCK // resolution)
    best = second = math.inf
    for first in range(0, resolution, rows):
        values = objective_of(centers[first:first + rows, None], centers[None, :])
        k = int(np.argmin(values))
        low = values.flat[k]
        values.flat[k] = np.inf
        if low < best:
            best, second, where = low, min(best, values.min()), first * resolution + k
        else:  # the rest of this block is >= low
            second = min(second, low)
    if best == math.inf:
        raise DomainError(f"every cell of the resolution-{resolution} grid is inf{infeasible}")
    unique = bool(second > best + margin * step * step)
    i, j = divmod(where, resolution)
    point = (float(centers[i]), float(centers[j]))
    return OracleResult(point, tuple(_solve_system(func, point)), step, unique)


def g4_grid_oracle(resolution: int = 721) -> OracleResult:
    """Brute-force grid over (alpha, gamma) in (0, pi/2)^2 for the normalized system."""
    def objective(alpha, gamma):
        # |(6.9) residual|^2 under the normalization collapses to |2(1+e^(2i(a+c)))|^2,
        # that is 16 cos^2(a+c), with cos(a+c) from the per-axis cosines and sines
        cos_sum = np.cos(alpha) * np.cos(gamma) - np.sin(alpha) * np.sin(gamma)
        return 16.0 * cos_sum * cos_sum + ((math.pi / 2 - alpha) + gamma - math.pi / 2) ** 2

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
    gap_margin are infeasible (degenerate polygon). With w1 = e^(2i alpha)
    and w3 = e^(2i gamma) the Psi^1 term is the real per-axis identity

        |2(w1 w3 + 1) - (w1 + w3)|^2
            = 10 - 8(cos 2a + cos 2c) + 10 cos 2a cos 2c - 6 sin 2a sin 2c,

    written so that swapping alpha and gamma gives the same bits. The gap
    mask is symmetric too at every resolution from 1 to 2001, so there mirror
    cells tie exactly and a unique minimizing cell lies on the diagonal.
    """
    def objective(alpha, gamma):
        beta = math.pi / 2 - alpha - gamma
        cos_a, sin_a = np.cos(2.0 * alpha), np.sin(2.0 * alpha)
        cos_c, sin_c = np.cos(2.0 * gamma), np.sin(2.0 * gamma)
        values = (10.0 - 8.0 * (cos_a + cos_c) + 10.0 * (cos_a * cos_c)
                  - 6.0 * (sin_a * sin_c) + (gamma - alpha) ** 2)
        values[(beta <= gap_margin) | (alpha <= gap_margin) | (gamma <= gap_margin)] = np.inf
        return values

    def func(p):
        a, c = p[:, 0], p[:, 1]
        w1, w3 = np.exp(2j * a), np.exp(2j * c)
        # 2(w1 w3 + 1) - (w1 + w3), with the product spelled out: numpy fuses its multiply-adds
        re = 2 * (w1.real * w3.real - w1.imag * w3.imag + 1) - (w1.real + w3.real)
        im = 2 * (w1.real * w3.imag + w1.imag * w3.real) - (w1.imag + w3.imag)
        feasible = (0 < a) & (0 < c) & (a + c < math.pi / 2)
        return np.stack([re, im, c - a], axis=1), feasible

    return _grid_oracle(resolution, objective, func, 0.0,
                        f": each leaves a gap at most gap_margin = {gap_margin}")


# ---------------------------------------------------------------------------
# circle Moebius group O(2,1) and the conformal reduction
# ---------------------------------------------------------------------------

def _su11_params(chi, m):
    # np.hypot rounds as abs() of a Python complex; broadcasts over arrays of chi and m
    x, y = np.real(m), np.imag(m)
    s = 1.0 / np.sqrt(1.0 - np.hypot(x, y) ** 2)
    e = np.exp(1j * chi / 2)
    # e m with the product spelled out: numpy's array loop fuses the multiply-adds of a
    # complex product and its scalar one does not, so one map and a stack would differ
    b = (e.real * x - e.imag * y) + 1j * (e.real * y + e.imag * x)
    return e * s, b * s


# the Hermitian forms of the coordinates x, y, t: [[t, x+iy], [x-iy, t]]
_SO21_BASIS = np.array([[[0, 1], [1, 0]], [[0, 1j], [-1j, 0]], [[1, 0], [0, 1]]])


def _so21_matrix(a, b) -> np.ndarray:
    """The (..., 3, 3) matrices of the action H -> g H g^dagger of g = [[a, b], [b*, a*]]."""
    gmat = np.stack([np.stack([a, b], axis=-1), np.stack([np.conj(b), np.conj(a)], axis=-1)],
                    axis=-2)[..., None, :, :]
    hp = gmat @ _SO21_BASIS @ np.conj(gmat).swapaxes(-1, -2)  # (..., basis, 2, 2)
    return np.stack([hp[..., 0, 1].real, hp[..., 0, 1].imag, hp[..., 0, 0].real], axis=-2)


@dataclass(frozen=True, eq=False)
class CircleMobius:
    """O(2,1) element acting on the geodesic circle, held only as its matrix.

    A stack holds matrices (..., 3, 3). Membership is judged at indefinite.GROUP_TOL.
    """

    matrix: np.ndarray

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", matrix)
        ok, residual = is_lie_transform(matrix, Signature(2, 1))
        raise_where(~ok, ValueError, "not in O(2,1): residual {:.3e}", residual)

    @classmethod
    def from_parameters(cls, chi, m) -> "CircleMobius":
        """The map of rotation chi and boost m; arrays of them give a stack."""
        raise_where(np.abs(m) >= 1.0, DomainError, "boost parameter must satisfy |m| < 1")
        return cls(_so21_matrix(*_su11_params(chi, m)))


def _transform_positions(phis: np.ndarray, chi, m) -> np.ndarray:
    """The angles phis (..., 2g) moved by the maps (chi, m) of shape (...)."""
    a, b = (np.asarray(x)[..., None] for x in _su11_params(chi, m))
    z = np.exp(1j * phis)
    return _one_turn(np.angle((a * z + b) / (b.conjugate() * z + a.conjugate())))


def _wrap(angle):
    return (angle + math.pi) % (2 * math.pi) - math.pi


def conformal_normalize(poly: GeodesicPolygon):
    """O(2,1) map making vertices 1, 2 antipodal to vertices g+1, g+2.

    For g = 4 that makes the lambda leaves of p^1, p^5 antipodally symmetric
    (with the nu leaves parallel); for g = 6 it does the same for the
    lambda leaves of p^1, p^7. The pairs are antipodal exactly when the
    chords z1-z(g+1) and z2-z(g+2), geodesics of the Klein model, are
    diameters, so the boost m = -p sends their crossing k, at p = k / (1 +
    sqrt(1 - |k|^2)) in the Poincare disc, to 0 (Beardon, The Geometry of
    Discrete Groups, 1983). The chords cross inside the disc because vertices
    1 < 2 < g+1 < g+2 are in cyclic order, so every polygon has this map,
    unique up to the rotation that re-anchoring vertex 1 fixes. k is formed
    in real arithmetic, which rounds alike for one polygon and a stack.
    Returns (map, transformed polygon); a stack gives a stack of each.
    """
    g = poly.g
    if g not in (4, 6):
        raise DomainError("conformal normalization is defined for g = 4 and g = 6")
    phis = poly.vertex_angles
    x, y = np.cos(phis), np.sin(phis)
    ux, uy = x[..., g] - x[..., 0], y[..., g] - y[..., 0]  # chord z1-z(g+1)
    vx, vy = x[..., g + 1] - x[..., 1], y[..., g + 1] - y[..., 1]  # chord z2-z(g+2)
    # their crossing k = z1 + t u, by Cramer's rule on z1 + t u = z2 + s v
    t = ((x[..., 1] - x[..., 0]) * vy - (y[..., 1] - y[..., 0]) * vx) / (ux * vy - uy * vx)
    kx, ky = x[..., 0] + t * ux, y[..., 0] + t * uy
    shrink = 1.0 + np.sqrt(1.0 - (kx * kx + ky * ky))  # the Poincare point is k / shrink
    mboost = -(kx / shrink) - 1j * (ky / shrink)
    moved = _transform_positions(phis, 0.0, mboost)
    chi = _wrap(phis[..., 0] - moved[..., 0])
    mapped = CircleMobius.from_parameters(chi, mboost)
    return mapped, polygon_from_positions(g, _transform_positions(phis, chi, mboost))


@dataclass(frozen=True, eq=False)
class IsometryReduction:
    """The reduction of one polygon; of a stack, each field but trace_multiplicity is a stack."""

    closed_form_gap: float
    matrix: np.ndarray
    certificates: tuple
    mean_curvature: float
    trace_multiplicity: float


def isometry_reduction(g: int, poly: GeodesicPolygon, m1: int, m2: int) -> IsometryReduction:
    """Show the conformal factor of a normalized parallel polygon must be an isometry.

    Assembles the two vertex mean-curvature differences as a homogeneous
    2x2 system M in the O(2,1) parameters (x, y). Its closed form is lower
    triangular with diagonal 2 sin(theta_1) (H - K lambda) and the
    tau_side_g<g> certificate (twice it for g = 6), so where the three
    certificates clear their margin M is nonsingular and (x, y) = (0, 0).
    Returns closed_form_gap = max |M - closed form| / max(1, max |closed
    form|) and the certificates, neither judged here: the isometry_reduction
    suite judges both. A stack of polygons is reduced as one stack, and its
    first polygon that breaks a precondition raises, naming its stack index.
    """
    if g not in (4, 6):
        raise DomainError("isometry reduction is defined for g = 4 and g = 6")
    if poly.g != g:
        raise DomainError("polygon does not match g")
    raise_where(~_parallel(poly.radius_table, 1e-8), DomainError, "polygon must be parallel")
    phis = poly.vertex_angles
    raise_where((np.abs(_wrap(phis[..., g:g + 2] - phis[..., :2] - math.pi)) > 1e-8).any(axis=-1),
                DomainError, "polygon must be antipodally normalized")
    # rotate to the standard gauge p^1 = (sin theta_1, cos theta_1)
    theta1 = poly.radius_table[..., 0, 0]
    gauge = math.pi / 2 - theta1 - phis[..., 0]
    poly = GeodesicPolygon(g, phis + gauge[..., None], poly.radius_table)

    mult = multiplicity_vector(g, m1, m2)
    cot_row = 1.0 / np.tan(poly.radius_table[..., 0, :])
    h_hat = multiplicity_sum(np.moveaxis(cot_row * mult, -1, 0))
    k_trace = float(mult.sum())
    pts = poly.vertex_points()
    normals = poly.vertex_normals()

    # rows: vertex pairs (1, 2), (1, 3) for g = 4 and (1, 2), (4, 5) for g = 6
    t, s = ([0, 0], [1, 2]) if g == 4 else ([0, 3], [1, 4])
    dp = pts[..., t, :] - pts[..., s, :]
    dn = normals[..., t, :] - normals[..., s, :]
    matrix = dp * h_hat[..., None, None] + dn * k_trace

    u_hat, v_hat = pts[..., 0, 0], pts[..., 0, 1]
    lam_hat = cot_row[..., 0]
    tau_hat = cot_row[..., -1]
    certs = [SignCertificate("H_minus_K_lambda", h_hat - k_trace * lam_hat, NEGATIVE),
             SignCertificate("H_minus_K_tau", h_hat - k_trace * tau_hat, POSITIVE)]
    expected = np.zeros(matrix.shape)
    expected[..., 0, 0] = 2 * u_hat * (h_hat - lam_hat * k_trace)
    if g == 4:
        certs.append(SignCertificate("tau_side_g4",
                                     (v_hat - u_hat) * (h_hat - tau_hat * k_trace), POSITIVE))
        expected[..., 1, 0] = (u_hat + v_hat) * h_hat + (u_hat - v_hat) * k_trace
        expected[..., 1, 1] = (v_hat - u_hat) * h_hat + (u_hat + v_hat) * k_trace
    else:
        l_hat = pts[..., 3, 1]
        certs.append(SignCertificate("tau_side_g6",
                                     l_hat * (h_hat - tau_hat * k_trace), POSITIVE))
        expected[..., 1, 1] = 2 * l_hat * (h_hat - tau_hat * k_trace)
    scale = np.maximum(1.0, np.abs(expected).max(axis=(-2, -1)))
    gap = np.abs(matrix - expected).max(axis=(-2, -1)) / scale
    return IsometryReduction(gap[()], matrix, tuple(certs), h_hat, k_trace)


# ---------------------------------------------------------------------------
# falsification search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchSurvivor:
    gaps: AngleGaps
    theta1: float
    residual: float
    parallel: bool


@functools.cache
def _clc_plan(g: int):
    """dji.CLC_PHI[g] for the search: 0-based c of each Phi_c (k,), 0-based d, values (k, 1, 1)."""
    d, phis = CLC_PHI[g]
    return (_read_only(np.array([c - 1 for c in phis])), d - 1,
            _read_only(np.array(list(phis.values()))[:, None, None]))


def _search_tables(g: int, params: np.ndarray):
    """Radius tables (g, 2g, S) and feasibility (S,) of rows (free odd, free even gaps, theta1)."""
    count = len(params)
    cycles = np.empty((2, g, count))  # each gap cycle: its free gaps, then its closer
    cycles[:, :-1] = params[:, :-1].T.reshape(2, g - 1, count)
    np.subtract(math.pi, np.add.reduce(cycles[:, :-1], 1), cycles[:, -1])
    gaps, theta1 = cycles.reshape(2 * g, count), params[:, -1]
    table = _stack_last_table(g, gaps, theta1)
    # with every gap positive a row only grows: its ends bound it
    feasible = ((np.minimum(gaps, table[0]) > 1e-3) & (table[-1] < math.pi - 1e-3)).all(axis=0)
    return table, feasible


def _search_residual(g: int, constraints, mult: np.ndarray, params: np.ndarray):
    """Residuals (S, m) and feasibility (S,) of rows (free odd gaps, free even gaps, theta1)."""
    table, feasible = _search_tables(g, params)
    count = len(params)
    blocks = [np.empty((0, count))]  # stack-last; the (S, 0) result when no constraint is set
    # in place where a stack-sized array is dead: a fresh one costs page faults at 1000s of rows
    with np.errstate(all="ignore"):  # only rows already infeasible overflow or divide by 0
        lam, mult, w = np.divide(1.0, np.tan(table, table), table), mult[:, None, None], None
        if "cmc" in constraints:
            w = lam * mult
            h = multiplicity_sum(w)
            blocks.append(h[1:] - h[:1])
        if "csc" in constraints:
            w = np.multiply(lam, lam, w)
            s = multiplicity_sum(np.multiply(w, mult, w))
            blocks.append(s[1:] - s[:1])
        if "clc" in constraints:  # (lc - ld)(l1 - l2) / ((lc - l2)(l1 - ld)) - Phi_c, every c
            cs, d, target = _clc_plan(g)
            lc = lam.take(cs, 0)
            phi = np.multiply(lc - lam[d], lam[0] - lam[1])
            phi /= np.multiply(np.subtract(lc, lam[1], lc), lam[0] - lam[d], lc)
            phi -= target
            blocks.append(phi.reshape(len(cs) * 2 * g, count))
    out = np.empty((count, sum(map(len, blocks))))
    np.concatenate(blocks, out=out.T)
    return out, feasible


def _start_draws(seed: int, grid_resolution: int, ndim: int):
    """Levels (S, ndim) and jitter (S, ndim) of S = grid_resolution^2 search starts.

    Equal to drawing start by start, rng.integers(0, n, ndim) then
    rng.uniform(-0.4, 0.4, ndim) with rng = default_rng(seed), but read from
    one array of raw PCG64 words. A 32-bit draw takes the low half of a fresh
    word and leaves the high half for the next 32-bit draw; a uniform takes a
    whole word w as -0.4 + 0.8 (w >> 11) 2^-53. An integer in [0, n) is the
    high word of x n (Lemire), so with ndim odd two starts read
    [ndim + 1 halves | ndim uniforms | ndim - 1 halves | ndim uniforms] and
    n = 1 reads no halves. Where Lemire rejects a draw, x n mod 2^32 <
    (2^32 - n) mod n, it takes one more half and shifts the layout; then the
    starts are drawn one by one as the generator does.
    """
    n, count = grid_resolution, grid_resolution * grid_resolution
    first, second = ((ndim + 1) // 2, (ndim - 1) // 2) if n > 1 else (0, 0)  # integer words
    width = first + second + 2 * ndim  # words of a pair of starts
    words = np.random.default_rng(seed).bit_generator.random_raw((count + 1) // 2 * width)
    words = words.reshape(-1, width)
    uniform_words = np.concatenate([words[:, first:first + ndim],
                                    words[:, first + ndim + second:]], axis=1)
    jitter = -0.4 + 0.8 * ((uniform_words >> 11) * 2.0 ** -53).reshape(-1, ndim)[:count]
    if n == 1:
        return np.zeros((count, ndim), dtype=np.int64), jitter
    int_words = np.concatenate([words[:, :first], words[:, first + ndim:first + ndim + second]],
                               axis=1)
    halves = np.stack([int_words & 0xFFFFFFFF, int_words >> 32], axis=-1)
    wide = halves.reshape(-1, ndim)[:count] * np.uint64(n)
    if ((wide & 0xFFFFFFFF) < (2 ** 32 - n) % n).any():
        rng = np.random.default_rng(seed)
        levels, jitter = zip(*[(rng.integers(0, n, ndim), rng.uniform(-0.4, 0.4, ndim))
                               for _ in range(count)])
        return np.array(levels), np.array(jitter)
    return (wide >> 32).astype(np.int64), jitter


def constraint_search(g: int, constraints, grid_resolution: int, seed: int,
                      m1: int = 1, m2: int = 1) -> list:
    """Grid + seeded-jitter multistart falsification search.

    Draws grid_resolution^2 jittered grid starts, screens them for
    feasibility, polishes all feasible ones in one stacked solve, keeps
    configurations whose selected constraint residuals are all <= 1e-6, and
    reports each survivor with its is_parallel verdict. Deterministic for a
    fixed seed; survivors are merged in parameter order. Their polygons are
    built as one radius-table stack, which runs the checks of angle_table and
    GeodesicPolygon (same DomainError messages) and gives every parallel verdict.

    The starts are those of a per-start loop over default_rng(seed), each
    start its integer levels and then its uniform jitter, but drawn in one
    array pass from the raw stream (_start_draws); the loop itself runs only
    for a search in which a bounded-integer draw is rejected.

    The screening forms only the radius tables (_search_tables). Each polish
    iteration costs one Jacobian call of the residual (two when a forward step
    is infeasible: 142 of 765 over the 21 searches of grids 5, 15 and 35 at
    seed 0) and one or two trial calls: the damping trials 0-2 of every start
    in one, the rest of the ladder of the starts still without a step in the
    other. Three trials end most iterations (596 of the 765); most of the rest
    are starts at their floating-point floor, whose damping climbs to the cap.
    Those 21 searches make 49 screening calls and 1862 residual calls of 37
    rows on average.
    """
    if g not in SUPPORTED_G:
        raise DomainError(f"g must be one of {SUPPORTED_G}")
    constraints = frozenset(constraints)
    if not constraints <= {"cmc", "csc", "clc"}:
        raise ValueError(f"unknown constraints {sorted(constraints - {'cmc', 'csc', 'clc'})}")
    if not 1 <= grid_resolution <= 60:
        raise DomainError("grid_resolution must be in 1..60 (desk scale)")
    if "clc" in constraints and g not in CLC_PHI:
        raise DomainError("clc filtering needs g = 4 or g = 6")
    mult = multiplicity_vector(g, m1, m2)
    ndim = 2 * g - 1
    # free gaps centered on pi/g so that most sampled cycles close with a positive gap
    lo = np.concatenate([np.full(2 * g - 2, 0.08), [0.04]])
    hi = np.concatenate([np.full(2 * g - 2, 2.0 * math.pi / g), [1.4 * math.pi / g]])
    levels, jitter = _start_draws(seed, grid_resolution, ndim)
    starts = lo + (levels + 0.5 + jitter) * (hi - lo) / grid_resolution
    feasible = np.concatenate([_search_tables(g, starts[k:k + _SCREEN_BLOCK])[1]
                               for k in range(0, len(starts), _SCREEN_BLOCK)])
    points, res = _levenberg_polish(functools.partial(_search_residual, g, constraints, mult),
                                    starts[feasible])
    worst = np.abs(res).max(axis=1, initial=0.0)  # initial: res is (0, 0) without constraints
    kept = np.flatnonzero(worst <= SEARCH_FILTER_TOL)
    found = {}  # the first polished point of each rounded parameter vector
    for key, k in zip(map(tuple, np.round(points[kept], 6).tolist()), kept.tolist()):
        found.setdefault(key, k)
    picked = [found[key] for key in sorted(found)]
    gaps = [AngleGaps.from_free(g, p[:g - 1], p[g - 1:2 * g - 2]) for p in points[picked]]
    # the polygons angle_table would build (same gaps, same kernel), as one stack through its checks
    theta1, tables = points[picked, -1], _search_tables(g, points[picked])[0].transpose(2, 1, 0)
    _check_radii(tables, _TABLE_OUT_OF_RANGE)
    _check_polygons(_positions_from_table(tables, math.pi / 2 - theta1), tables)
    return [SearchSurvivor(*survivor) for survivor in zip(
        gaps, theta1.tolist(), worst[picked].tolist(), _parallel(tables).tolist())]
