"""Isoparametric families M_theta in S^n: curvatures, mean and scalar curvature.

The g distinct principal curvatures of the family member at parameter
theta in (-pi/(2g), pi/(2g)) are

    lambda_i = cot(theta_1 + (i-1) pi/g),   theta_1 = pi/(2g) + theta,

strictly decreasing with lambda_1 > cot(pi/g). Multiplicities are common
for g in {1, 3, 6} and alternate (m1, m2) for g in {2, 4}. The mean
curvature (trace of the shape operator, no averaging) is

    H = (g/2) (m1 t - m2 / t),   t = cot(g theta_1 / 2) > 0,

strictly decreasing in theta and onto R, so t, and theta, is the positive root
of m1 t^2 - (2H/g) t - m2 = 0. R = (n-1)(n-2) + H^2 - S, S = sum m_i lambda_i^2,
comes with its closed form (g/2)^2 [m1 (m1 - 1)(1 + t^2) + m2 (m2 - 1)(1 + 1/t^2)].
Each closed form is one expression in t for every admissible g; the
isoparametric_formulas suite cross-checks both against the direct sums. Every sum of m_i x_i in
the package (S, the suite's direct H, the search's cmc and csc rows and the H of
the isometry reduction) is a multiplicity_sum: one fixed order of additions, so a
member and a stack agree to the bit, whatever BLAS kernel the CPU would pick.

A family, and every function of it, takes theta as a float or as an array
of thetas; the curvatures then come as (..., g) and H, S and R as (...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, raise_where

ADMISSIBLE_G = (1, 2, 3, 4, 6)


def multiplicity_vector(g: int, m1: int, m2: int) -> np.ndarray:
    """Multiplicities of the g curvatures: (m1, m2, m1, m2, ...) for even g, else all m1.

    Raises DomainError unless g is admissible, both multiplicities are
    positive and, for g in {1, 3, 6}, equal.
    """
    if g not in ADMISSIBLE_G:
        raise DomainError(f"g must be one of {ADMISSIBLE_G}")
    if m1 < 1 or m2 < 1:
        raise DomainError("multiplicities must be positive")
    if g in (1, 3, 6) and m1 != m2:
        raise DomainError(f"g = {g} forces a common multiplicity")
    if g % 2 == 0:
        return np.array([m1, m2] * (g // 2), dtype=float)
    return np.full(g, float(m1))


def multiplicity_sum(w):
    """sum_i w[i] over the g terms of the first axis: (w1 + w3) + (w2 + w4) (+ (w5 + w6)).

    Left to right for g < 4: the order in which x86-64 OpenBLAS's gemv adds a row
    of g = 3, 4 or 6 terms, so `lam @ mult` gave these bits on such a host.
    """
    if len(w) >= 4:
        pairs = w[:2] + w[2:4]  # w1 + w3 and w2 + w4
        total = pairs[0] + pairs[1]
        return total + (w[4] + w[5]) if len(w) == 6 else total
    return sum((w[i] for i in range(1, len(w))), w[0])


@dataclass(frozen=True)
class IsoparametricFamily:
    """The member at theta, or the members at an array of thetas, validated at once."""

    g: int
    m1: int
    m2: int
    theta: float | np.ndarray

    def __post_init__(self):
        multiplicity_vector(self.g, self.m1, self.m2)
        if np.ndim(self.theta):
            object.__setattr__(self, "theta", np.asarray(self.theta, dtype=float))
        bound = math.pi / (2 * self.g)
        raise_where(~(np.abs(self.theta) < bound), DomainError,
                    f"theta {{}} must lie in (-pi/{2 * self.g}, pi/{2 * self.g})", self.theta)

    @property
    def theta1(self):
        return math.pi / (2 * self.g) + self.theta

    @property
    def multiplicities(self) -> np.ndarray:
        return multiplicity_vector(self.g, self.m1, self.m2)

    @property
    def ambient_dim(self) -> int:
        """n, with dim M = n - 1 = sum of multiplicities."""
        return int(self.multiplicities.sum()) + 1


@dataclass(frozen=True)
class FamilyInvariants:
    dimension_ambient: int
    mean_curvature: float
    second_moment: float
    scalar_curvature: float
    closed_form: float  # R in t = cot(g theta_1 / 2)

    def __post_init__(self):
        n, h, s, r = (self.dimension_ambient, self.mean_curvature,
                      self.second_moment, self.scalar_curvature)
        expected = (n - 1) * (n - 2) + h * h - s
        raise_where(abs(r - expected) > 1e-9 * np.maximum(1.0, abs(expected)), ValueError,
                    "scalar curvature inconsistent with (n-1)(n-2) + H^2 - S")


def principal_curvatures(fam: IsoparametricFamily) -> np.ndarray:
    """cot(theta_1 + (i-1) pi/g), i = 1..g, along the last axis; strictly decreasing."""
    angles = np.asarray(fam.theta1)[..., None] + np.arange(fam.g) * math.pi / fam.g
    return 1.0 / np.tan(angles)


def _mean_curvature_raw(g: int, m1: int, m2: int, theta1):
    t = 1.0 / np.tan(g * theta1 / 2.0)
    return (g / 2.0) * (m1 * t - m2 / t)


def mean_curvature(fam: IsoparametricFamily):
    """Closed-form H; the isoparametric_formulas suite checks it against sum m_i lambda_i."""
    return _mean_curvature_raw(fam.g, fam.m1, fam.m2, fam.theta1)


def minimal_theta(g: int, m1: int, m2: int) -> float:
    """The unique theta with H = 0: cot^2(g theta_1 / 2) = m2/m1."""
    theta = theta_from_mean_curvature(g, m1, m2, 0.0)
    residual = mean_curvature(IsoparametricFamily(g, m1, m2, theta))
    if abs(residual) > 1e-10:
        raise ArithmeticError(f"minimal theta residual {residual:.3e}")
    return theta


def theta_from_mean_curvature(g: int, m1: int, m2: int, h):
    """The theta with mean curvature h (a float or an array), in closed form.

    t = cot(g theta_1 / 2) is the positive root of m1 t^2 - 2a t - m2 = 0,
    a = h/g, taken in the form without cancellation for the sign of a; the
    result is clamped 1e-13 inside the open theta interval. Raises
    ArithmeticError for a non-finite h.
    """
    multiplicity_vector(g, m1, m2)
    a = np.asarray(h, dtype=float) / g
    raise_where(~np.isfinite(a), ArithmeticError, "mean curvature {} is not finite", h)
    # past |a| = 1e200 the root is far inside the clamp below; capping a keeps a + root finite
    a = np.clip(a, -1e200, 1e200)
    root = np.hypot(a, math.sqrt(m1 * m2))  # sqrt(a^2 + m1 m2) without overflow
    t = np.empty_like(root)
    up = a >= 0
    t[up] = (a[up] + root[up]) / m1
    t[~up] = m2 / (root[~up] - a[~up])
    bound = math.pi / (2 * g)
    theta = (2.0 / g) * np.arctan2(1.0, t) - bound
    return np.clip(theta, -bound + 1e-13, bound - 1e-13)[()]


def scalar_curvature(fam: IsoparametricFamily) -> FamilyInvariants:
    """General R = (n-1)(n-2) + H^2 - S, with its closed form in t beside it."""
    n = fam.ambient_dim
    h = mean_curvature(fam)
    s = multiplicity_sum(np.moveaxis(principal_curvatures(fam) ** 2 * fam.multiplicities, -1, 0))
    r = (n - 1) * (n - 2) + h * h - s
    m1, m2, t = fam.m1, fam.m2, 1.0 / np.tan(fam.g * fam.theta1 / 2.0)
    closed = m1 * (m1 - 1) * (1 + t * t) + m2 * (m2 - 1) * (1 + 1.0 / (t * t))
    return FamilyInvariants(n, h, s, r, (fam.g / 2.0) ** 2 * closed)
