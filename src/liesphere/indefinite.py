"""Dense linear algebra over R^(p+q) with the indefinite form sum(x_i y_i) - sum(x_j y_j).

The ambient space of the quadric model is R^(n+3) with signature (n+1, 2);
the conformal subgroup acting on a normal geodesic circle lives in signature
(2, 1). A matrix L belongs to O(p, q) iff  L^T Ibar L = Ibar  where Ibar is
the diagonal signature matrix diag(+1 ... +1, -1 ... -1).

Random group elements are generated as exp(X) of Ibar-skew generators
(X^T Ibar + Ibar X = 0), which guarantees membership up to roundoff.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, SignatureMismatch, raise_where

GROUP_TOL = 1e-9
COMPOSE_TOL = 1e-8

# numpy's default_rng(seed) = PCG64(SeedSequence(seed)), read for a whole seed stack at once
_HASH_A = (0x43B0D7E5, 0x931E8875)  # SeedSequence INIT_A, MULT_A: the chain that fills the pool
_HASH_B = (0x8B51F9DD, 0x58F38DED)  # INIT_B, MULT_B: the chain of generate_state
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # the 128-bit LCG multiplier of PCG64
_LOW32 = np.uint64(0xFFFFFFFF)


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


def _hash_chain(init: int, mult: int, count: int) -> np.ndarray:
    """Column (count + 1, 1) of the uint32 hash constants init * mult^k mod 2^32."""
    return np.array([[init * pow(mult, k, 1 << 32) % (1 << 32)] for k in range(count + 1)],
                    dtype=np.uint32)


@functools.cache
def _seed_plan():
    """SeedSequence's hash constants for a pool of four words, as (xor, multiplier) columns.

    Its k-th hash takes v -> (v ^ c_k) c_(k+1), then v ^= v >> 16, along a chain c
    that does not depend on the seed. Hashes 0-3 fill the pool from the entropy
    words; hashes 4 + 3i + (0, 1, 2) hash pool word i for the three other words,
    source by source. generate_state's chain then hashes the pool words 0-3, 0-3.
    """
    a, b = _hash_chain(*_HASH_A, 16), _hash_chain(*_HASH_B, 8)
    sources = [([j for j in range(4) if j != i], a[4 + 3 * i:7 + 3 * i], a[5 + 3 * i:8 + 3 * i])
               for i in range(4)]
    return (a[:4], a[1:5]), sources, (b[:8], b[1:9])


@functools.cache
def _jump_tables(width: int):
    """Limbs of the maps from a PCG64 seeding to the states of its first `width` draws.

    Seeding sets s = 0, steps s -> M s + inc, adds the seed's state word and steps
    again; draw k (0-based) reads the state k + 1 steps later. So that state is
    M^(k+2) init + (1 + M + ... + M^(k+2)) inc mod 2^128. Row 0 holds the first
    factor and row 1 the second, each as (high word, low word, and the low word's
    high and low halves), shaped (2, 1, width) to broadcast over a seed stack.
    """
    powers = [pow(_PCG_MULT, k, 1 << 128) for k in range(width + 2)]
    sums = np.cumsum(np.array(powers, dtype=object)) % (1 << 128)
    factors = np.array([powers[2:], sums[2:]], dtype=object)[:, None, :]
    low = factors & 0xFFFFFFFFFFFFFFFF
    return tuple(limb.astype(np.uint64)
                 for limb in (factors >> 64, low, low >> 32, low & 0xFFFFFFFF))


def _hash(words: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    mixed = (words ^ xor) * mult
    return mixed ^ (mixed >> 16)


def _uniform_draws(seeds: np.ndarray, width: int) -> np.ndarray:
    """default_rng(s).uniform(-1, 1, width) for each seed s of an array, (*seeds.shape, width).

    SeedSequence hashes a seed's uint32 words, low word first, into a pool of
    four words (a seed below 2^32 hashes as if its high word were 0) and expands
    the pool into the 128-bit state and increment of PCG64. Each draw is the XSL-RR
    output w of its state, jumped to by the cached tables, as -1 + 2 (w >> 11) 2^-53.
    Seeds must lie in [0, 2^64); uint64 arithmetic wraps as the generator's does.
    """
    if seeds.dtype.kind not in "iu":
        raise TypeError(f"seed must be an integer in [0, 2**64) or an array of them, "
                        f"not of dtype {seeds.dtype}")
    if seeds.dtype.kind == "i" and (seeds < 0).any():
        raise ValueError("expected non-negative integer")
    flat = seeds.reshape(-1).astype(np.uint64)
    (fill_xor, fill_mult), sources, (state_xor, state_mult) = _seed_plan()
    pool = np.zeros((4, flat.size), dtype=np.uint32)
    pool[0], pool[1] = flat & _LOW32, flat >> 32
    pool = _hash(pool, fill_xor, fill_mult)
    for i, (others, xor, mult) in enumerate(sources):
        mixed = pool[others] * _MIX_L - _hash(pool[i], xor, mult) * _MIX_R
        pool[others] = mixed ^ (mixed >> 16)
    words = _hash(pool[[0, 1, 2, 3, 0, 1, 2, 3]], state_xor, state_mult).astype(np.uint64)
    init_hi, init_lo, inc_hi, inc_lo = words[0::2] | (words[1::2] << 32)
    # rows (init, inc) with inc = (increment word << 1) | 1, by (seed, 1)
    x_hi = np.stack([init_hi, (inc_hi << 1) | (inc_lo >> 63)])[..., None]
    x_lo = np.stack([init_lo, (inc_lo << 1) | 1])[..., None]
    y_hi, y_lo, y_lo1, y_lo0 = _jump_tables(width)
    # x y mod 2^128 in 64-bit limbs: the low product's high word from 32-bit halves
    x_lo1, x_lo0 = x_lo >> 32, x_lo & _LOW32
    cross = x_lo1 * y_lo0 + ((x_lo0 * y_lo0) >> 32)
    carry = ((cross & _LOW32) + x_lo0 * y_lo1) >> 32
    hi = x_lo1 * y_lo1 + (cross >> 32) + carry + x_hi * y_lo + x_lo * y_hi
    lo = x_lo * y_lo
    state_lo = lo[0] + lo[1]
    state_hi = hi[0] + hi[1] + (state_lo < lo[0])
    # XSL-RR: the high word xor the low word, rotated right by the top six bits
    folded, turn = state_hi ^ state_lo, state_hi >> 58
    out = (folded >> turn) | (folded << ((64 - turn) & 63))
    return (-1.0 + 2.0 * ((out >> 11) * 2.0 ** -53)).reshape(seeds.shape + (width,))


def random_lie_transform(sig: Signature, seed, scale: float = 0.5) -> LieTransform:
    """exp of a seeded Ibar-skew generator with Frobenius norm = scale.

    `seed` is an integer in [0, 2^64), or an array of them for a stack of
    transforms with one generator per seed, exponentiated together.
    Deterministic: identical seeds give bitwise-identical matrices, stacked or
    not. A seed's generator entries are those of
    default_rng(seed).uniform(-1, 1, width), read for every seed in one array
    pass (_uniform_draws), not by a generator per seed. A negative seed raises
    ValueError and a non-integer one TypeError, as default_rng does.
    """
    if scale < 0:
        raise ValueError("scale must be >= 0")
    p, q = sig.plus_count, sig.minus_count
    seeds = np.asarray(seed)
    # one draw per seed in the order of three: a (p, p), then d (q, q), then b (p, q)
    width = p * p + q * q + p * q
    draws = _uniform_draws(seeds, width).reshape(seeds.size, width)
    a = draws[:, :p * p].reshape(-1, p, p)
    d = draws[:, p * p:p * p + q * q].reshape(-1, q, q)
    b = draws[:, p * p + q * q:].reshape(-1, p, q)
    x = np.zeros((seeds.size, p + q, p + q))
    x[:, :p, :p] = a - np.swapaxes(a, 1, 2)
    x[:, p:, p:] = d - np.swapaxes(d, 1, 2)
    x[:, :p, p:] = b
    x[:, p:, :p] = np.swapaxes(b, 1, 2)
    # the Frobenius norm as np.linalg.norm takes it: one dot product of the flattened matrix
    flat = x.reshape(seeds.size, 1, (p + q) ** 2)
    norm = np.sqrt(flat @ np.swapaxes(flat, 1, 2))
    x *= np.divide(scale, norm, out=np.zeros_like(norm), where=norm > 0)
    return LieTransform(_expm(x.reshape(seeds.shape + x.shape[1:])), sig)


def compose(a: LieTransform, b: LieTransform) -> LieTransform:
    if a.signature != b.signature:
        raise SignatureMismatch(f"{a.signature} vs {b.signature}")
    return LieTransform(a.matrix @ b.matrix, a.signature)


def invert(a: LieTransform) -> LieTransform:
    # group inverse Ibar L^T Ibar, exact up to roundoff
    ibar = a.signature.matrix()
    return LieTransform(ibar @ np.swapaxes(a.matrix, -1, -2) @ ibar, a.signature)
