"""Principal curvatures of a contact element in the projective quadric model.

A point of the Lie quadric is the projective class of a null vector for
the signature-(n+1, 2) form, and two points are in oriented contact iff
their indefinite inner product vanishes. A pointed unit normal (p, n)
lifts to the contact element (k1, k2) = ((p,1,0), (n,0,1)): the point
sphere at p and the great sphere with pole n, both null and in contact.
The curvature sphere for a principal curvature lambda = v/u = cot(xi) is
v k1 + u k2. A group element maps principal curvatures by the Moebius rule
lambda -> (a lambda + c)/(b lambda + d), so curvatures are kept as
projective pairs (v, u) and poles are exact.

Curvatures, the Moebius action, parallel transformations, cross ratios and
Lie curvatures broadcast over stacks; a degenerate member raises once and
the error names its stack index.

Lie curvatures are cross ratios of four curvatures; the two index
conventions that appear in practice are named explicitly because silent
convention drift is the main correctness hazard:

    standard_13_24:  (l1-l3)(l2-l4) / ((l1-l4)(l2-l3))
    paper6_12_34:    (l1-l2)(l3-l4) / ((l1-l4)(l3-l2))
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (ContactViolation, DegenerateConfiguration, DomainError, float_errors_raise,
                     raise_where)
from .indefinite import LieTransform, Signature, SignedVector, inner

QUADRIC_TOL = 1e-9
PROJECTIVE_TOL = 1e-10

STANDARD_13_24 = "standard_13_24"
PAPER6_12_34 = "paper6_12_34"
ORDERINGS = (STANDARD_13_24, PAPER6_12_34)


@dataclass(frozen=True, eq=False)
class QuadricPoint:
    """Projective class [z] of a null vector, given by a nonzero representative z."""

    rep: SignedVector

    def __post_init__(self):
        z = self.rep.coords
        norm2 = float(np.dot(z, z))
        if norm2 == 0.0:
            raise ValueError("representative must be nonzero")
        if abs(inner(self.rep, self.rep)) > QUADRIC_TOL * norm2:
            raise DomainError("representative is not on the quadric")


@dataclass(frozen=True, eq=False)
class ContactElement:
    """Legendre pair (k1, k2): point sphere and great sphere in oriented contact."""

    k1: QuadricPoint
    k2: QuadricPoint

    def __post_init__(self):
        a, b = self.k1.rep.coords, self.k2.rep.coords
        scale = np.linalg.norm(a) * np.linalg.norm(b)
        if abs(inner(self.k1.rep, self.k2.rep)) > QUADRIC_TOL * scale:
            raise ContactViolation("k1 and k2 are not in oriented contact")
        if abs(abs(np.dot(a, b)) - scale) <= 1e-12 * scale:
            raise ContactViolation("k1 and k2 must be linearly independent")


@dataclass(frozen=True, eq=False)
class ProjectiveCurvature:
    """Curvature lambda = v/u = cot(xi) as a projective pair (v, u scalars or arrays)."""

    v: float
    u: float

    def __post_init__(self):
        raise_where((self.v == 0.0) & (self.u == 0.0), ValueError, "(v, u) must be nonzero")

    @classmethod
    def from_value(cls, lam) -> "ProjectiveCurvature":
        return cls(np.asarray(lam, dtype=float)[()], 1.0)

    @classmethod
    def from_angle(cls, xi) -> "ProjectiveCurvature":
        return cls(np.cos(xi), np.sin(xi))

    @property
    def is_infinite(self):
        return np.abs(self.u) <= PROJECTIVE_TOL * np.abs(self.v)

    @property
    def value(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(self.is_infinite, np.copysign(np.inf, self.v),
                            np.divide(self.v, self.u))[()]


def legendre_lift(p: np.ndarray, n: np.ndarray) -> ContactElement:
    """Contact element ((p,1,0), (n,0,1)) of a pointed unit normal."""
    p = np.asarray(p, dtype=float)
    n = np.asarray(n, dtype=float)
    if abs(np.linalg.norm(p) - 1.0) > 1e-10 or abs(np.linalg.norm(n) - 1.0) > 1e-10:
        raise ContactViolation("p and n must be unit vectors")
    if abs(float(np.dot(p, n))) > 1e-10:
        raise ContactViolation("p and n must be orthogonal")
    sig = Signature(len(p), 2)
    k1 = QuadricPoint(SignedVector(np.concatenate([p, [1.0, 0.0]]), sig))
    k2 = QuadricPoint(SignedVector(np.concatenate([n, [0.0, 1.0]]), sig))
    return ContactElement(k1, k2)


def curvature_sphere(ce: ContactElement, lam: ProjectiveCurvature) -> QuadricPoint:
    """v k1 + u k2: the oriented sphere of radius xi = arccot(v/u) through the contact element."""
    rep = lam.v * ce.k1.rep.coords + lam.u * ce.k2.rep.coords
    return QuadricPoint(SignedVector(rep, ce.k1.rep.signature))


def moebius_curvature(a, b, c, d, lam: ProjectiveCurvature) -> ProjectiveCurvature:
    """lambda -> (a lambda + c)/(b lambda + d), applied projectively so poles are exact."""
    det = a * d - b * c
    scale = functools.reduce(np.maximum, (abs(a), abs(b), abs(c), abs(d), 1e-300))
    raise_where(abs(det) <= 1e-12 * scale * scale, DegenerateConfiguration,
                "moebius coefficient matrix is singular")
    return ProjectiveCurvature(a * lam.v + c * lam.u, b * lam.v + d * lam.u)


def parallel_transform(theta, sig: Signature) -> LieTransform:
    """Identity on the plus block, rotation by theta on the two minus slots.

    Its induced curvature action is cot(xi) -> cot(xi + theta).
    """
    if sig.minus_count != 2:
        raise ValueError("parallel transformations need a (n+1, 2) signature")
    m = np.broadcast_to(np.eye(sig.dim), np.shape(theta) + (sig.dim, sig.dim)).copy()
    ct, st = np.cos(theta), np.sin(theta)
    m[..., -2, -2] = m[..., -1, -1] = ct
    m[..., -2, -1], m[..., -1, -2] = -st, st
    return LieTransform(m, sig)


def moebius_coefficients(l: LieTransform, ce: ContactElement):
    """(a, b, c, d) of the curvature action of l on a contact element.

    The images L k1 = (q, a, b), L k2 = (m, c, d) decompose exactly in the
    image frame (point sphere, great sphere), so the coefficients are just
    the last two coordinates of the images.
    """
    w1 = l.matrix @ ce.k1.rep.coords
    w2 = l.matrix @ ce.k2.rep.coords
    a, b, c, d = w1[..., -2], w1[..., -1], w2[..., -2], w2[..., -1]
    raise_where(np.abs(a * d - b * c) <= 1e-12, DegenerateConfiguration,
                "transformed frame is degenerate")
    return a, b, c, d


def cross_ratio(w1, w2, w3, w4):
    """[w1, w2; w3, w4] = (w1-w3)(w2-w4) / ((w1-w4)(w2-w3)).

    Real iff the four points are concircular or collinear. The denominator's
    two differences are formed once, for the degeneracy test and the quotient.
    The points may be Python numbers or arrays, and are used as given: a value
    that overflows, in numpy or in Python arithmetic, raises DomainError naming
    the points, and a cross ratio that is not finite (as from a nan point)
    raises DomainError naming its stack index.
    """
    with float_errors_raise("a cross ratio cannot be evaluated at points {}, {}, {}, {}",
                            w1, w2, w3, w4, also=(ZeroDivisionError, OverflowError)):
        scale = functools.reduce(np.maximum, (abs(w1), abs(w2), abs(w3), abs(w4), 1.0))
        d14, d23 = w1 - w4, w2 - w3
        raise_where((abs(d14) <= 1e-12 * scale) | (abs(d23) <= 1e-12 * scale),
                    DegenerateConfiguration, "cross ratio denominator vanishes")
        value = (w1 - w3) * (w2 - w4) / (d14 * d23)
    raise_where(~np.isfinite(value), DomainError, "the cross ratio {} is not finite", value)
    return value


@dataclass(frozen=True, eq=False)
class LieCurvatureValue:
    value: float
    ordering: str = STANDARD_13_24

    def __post_init__(self):
        if self.ordering not in ORDERINGS:
            raise ValueError(f"unknown ordering {self.ordering!r}")


# the six pairs (i, j), i < j, of four curvatures, numbered from 1: 12, 13, 14, 23, 24, 34
_PAIRS = np.array([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)], dtype=np.uint8)


def lie_curvature(l1: ProjectiveCurvature, l2: ProjectiveCurvature,
                  l3: ProjectiveCurvature, l4: ProjectiveCurvature,
                  ordering: str = STANDARD_13_24) -> LieCurvatureValue:
    """Cross ratio of four curvatures, computed projectively so infinity is admissible.

    Each difference l_i - l_j is d_ij = v_i u_j - v_j u_i over a common
    projective denominator, and the pair coincides where |d_ij| <= PROJECTIVE_TOL
    |(v_i, u_i)| |(v_j, u_j)|. Operands broadcast; the value has their broadcast
    shape (a numpy scalar when they are scalars), and the kernel holds one array
    per pair difference and per norm, never a stacked copy of the operands.
    """
    v = [np.asarray(lam.v) for lam in (l1, l2, l3, l4)]
    u = [np.asarray(lam.u) for lam in (l1, l2, l3, l4)]
    dtype = np.result_type(*v, *u)  # the one dtype all eight operands are computed in
    v, u = ([x.astype(dtype, copy=False) for x in xs] for xs in (v, u))
    diff = {(i, j): v[i - 1] * u[j - 1] - v[j - 1] * u[i - 1] for i, j in _PAIRS.tolist()}
    norm = [np.hypot(vk, uk) for vk, uk in zip(v, u)]
    coincide = np.stack(np.broadcast_arrays(*(
        np.abs(d) / (norm[i - 1] * norm[j - 1]) <= PROJECTIVE_TOL
        for (i, j), d in diff.items())), axis=-1)
    first = _PAIRS[np.argmax(coincide, axis=-1)]
    raise_where(coincide.any(axis=-1), DegenerateConfiguration, "curvatures {} and {} coincide",
                first[..., 0], first[..., 1])
    if ordering == STANDARD_13_24:
        num, den = diff[1, 3] * diff[2, 4], diff[1, 4] * diff[2, 3]
    else:
        num, den = diff[1, 2] * diff[3, 4], diff[1, 4] * -diff[2, 3]
    return LieCurvatureValue((num / den)[()], ordering)


def lie_curvature_of_values(values, ordering: str = STANDARD_13_24) -> LieCurvatureValue:
    """lie_curvature of four finite curvature values, taken position-first.

    `values` has shape (4, ...): values[k] is the k-th curvature, a scalar or
    an array, and the four broadcast. A value that overflows or is not finite
    raises DomainError naming the curvatures.
    """
    with float_errors_raise("a Lie curvature cannot be evaluated at curvatures {}, {}, {}, {}",
                            *values):
        return lie_curvature(*(ProjectiveCurvature.from_value(v) for v in values),
                             ordering=ordering)
