"""Dense linear algebra over R^(p+q) with the indefinite form sum(x_i y_i) - sum(x_j y_j).

The ambient space of the quadric model is R^(n+3) with signature (n+1, 2);
the conformal subgroup acting on a normal geodesic circle lives in signature
(2, 1). A matrix L belongs to O(p, q) iff  L^T Ibar L = Ibar  where Ibar is
the diagonal signature matrix diag(+1 ... +1, -1 ... -1).

Random group elements are generated as exp(X) of Ibar-skew generators
(X^T Ibar + Ibar X = 0), which guarantees membership up to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, SignatureMismatch, raise_where

GROUP_TOL = 1e-9
COMPOSE_TOL = 1e-8


@dataclass(frozen=True)
class Signature:
    """Signature (plus_count, minus_count) of the ambient bilinear form."""

    plus_count: int
    minus_count: int

    def __post_init__(self):
        if self.plus_count < 1:
            raise ValueError("plus_count must be >= 1")
        if self.minus_count not in (1, 2):
            raise ValueError("minus_count must be 1 or 2")

    @property
    def dim(self) -> int:
        return self.plus_count + self.minus_count

    def matrix(self) -> np.ndarray:
        return np.diag(np.concatenate([np.ones(self.plus_count), -np.ones(self.minus_count)]))


@dataclass(frozen=True)
class SignedVector:
    """A vector of R^(p+q) tagged with its Signature."""

    coords: np.ndarray
    signature: Signature

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        object.__setattr__(self, "coords", coords)
        if coords.shape != (self.signature.dim,):
            raise ShapeError(f"expected {self.signature.dim} coordinates, got {coords.shape}")
        if not np.all(np.isfinite(coords)):
            raise ValueError("coordinates must be finite")


def inner(x: SignedVector, y: SignedVector) -> float:
    """Indefinite inner product; raises SignatureMismatch on incompatible operands."""
    if x.signature != y.signature:
        raise SignatureMismatch(f"{x.signature} vs {y.signature}")
    p = x.signature.plus_count
    return float(np.dot(x.coords[:p], y.coords[:p]) - np.dot(x.coords[p:], y.coords[p:]))


def is_lie_transform(matrix: np.ndarray, sig: Signature, tol: float = GROUP_TOL):
    """Membership test for O(p, q): max-abs residual of L^T Ibar L - Ibar.

    Takes one matrix or a stack (..., n, n) and returns (ok, residual) per
    matrix; the residual is always reported.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim < 2 or matrix.shape[-1] != matrix.shape[-2]:
        raise ShapeError(f"expected a square matrix, got shape {matrix.shape}")
    if matrix.shape[-1] != sig.dim:
        raise ShapeError(f"matrix of size {matrix.shape[-1]} does not match dim {sig.dim}")
    ibar = sig.matrix()
    residual = np.abs(np.swapaxes(matrix, -1, -2) @ ibar @ matrix - ibar).max(axis=(-2, -1))
    return residual <= tol, residual


@dataclass(frozen=True)
class LieTransform:
    """An element of O(p, q), or a stack (..., n, n) of them, validated once on construction."""

    matrix: np.ndarray
    signature: Signature

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", matrix)
        ok, residual = is_lie_transform(matrix, self.signature, COMPOSE_TOL)
        raise_where(~ok, ValueError, f"not in O({self.signature.plus_count},"
                    f"{self.signature.minus_count}): residual {{:.3e}}", residual)
        det = np.linalg.det(matrix)
        raise_where(np.abs(np.abs(det) - 1.0) > 1e-6, ValueError,
                    "determinant {} not of unit modulus", det)


def _expm(x: np.ndarray) -> np.ndarray:
    # scaling and squaring: 10 squarings, degree-8 Taylor core; broadcasts over (..., n, n)
    squarings = 10
    t = x / float(2 ** squarings)
    acc = np.eye(x.shape[-1])
    term = np.eye(x.shape[-1])
    for k in range(1, 9):
        term = term @ t / k
        acc = acc + term
    for _ in range(squarings):
        acc = acc @ acc
    return acc


def random_lie_transform(sig: Signature, seed, scale: float = 0.5, count=None) -> LieTransform:
    """exp of a seeded Ibar-skew generator with Frobenius norm = scale, or `count` of them.

    The entries are default_rng(seed).uniform(-1, 1, width); with `count`, the rows
    of one uniform(-1, 1, (count, width)) draw, exponentiated as one stack whose row
    0 is the call without count. default_rng checks the seed (a negative one raises
    ValueError, a non-integer one TypeError); a non-scalar seed raises TypeError.
    """
    if scale < 0:
        raise ValueError("scale must be >= 0")
    if np.ndim(seed) != 0:
        raise TypeError(f"seed must be one integer, not an array of shape {np.shape(seed)}")
    p, q = sig.plus_count, sig.minus_count
    # each row in the order of three: a (p, p), then d (q, q), then b (p, q)
    width = p * p + q * q + p * q
    draws = np.random.default_rng(seed).uniform(-1.0, 1.0, (1 if count is None else count, width))
    a = draws[:, :p * p].reshape(-1, p, p)
    d = draws[:, p * p:p * p + q * q].reshape(-1, q, q)
    b = draws[:, p * p + q * q:].reshape(-1, p, q)
    x = np.zeros((len(draws), p + q, p + q))
    x[:, :p, :p] = a - np.swapaxes(a, 1, 2)
    x[:, p:, p:] = d - np.swapaxes(d, 1, 2)
    x[:, :p, p:] = b
    x[:, p:, :p] = np.swapaxes(b, 1, 2)
    # the Frobenius norm as np.linalg.norm takes it: one dot product of the flattened matrix
    flat = x.reshape(len(draws), 1, (p + q) ** 2)
    norm = np.sqrt(flat @ np.swapaxes(flat, 1, 2))
    x *= np.divide(scale, norm, out=np.zeros_like(norm), where=norm > 0)
    return LieTransform(_expm(x[0] if count is None else x), sig)


def compose(a: LieTransform, b: LieTransform) -> LieTransform:
    if a.signature != b.signature:
        raise SignatureMismatch(f"{a.signature} vs {b.signature}")
    return LieTransform(a.matrix @ b.matrix, a.signature)


def invert(a: LieTransform) -> LieTransform:
    # group inverse Ibar L^T Ibar, exact up to roundoff
    ibar = a.signature.matrix()
    return LieTransform(ibar @ np.swapaxes(a.matrix, -1, -2) @ ibar, a.signature)
