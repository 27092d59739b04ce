import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liesphere import indefinite
from liesphere.errors import ShapeError, SignatureMismatch
from liesphere.indefinite import (LieTransform, Signature, SignedVector, compose,
                                  inner, invert, is_lie_transform,
                                  random_lie_transform)
from liesphere.quadric import parallel_transform

SIG = Signature(4, 2)


def test_inner_point_sphere_is_null():
    v = SignedVector(np.array([1.0, 0, 0, 0, 1.0, 0.0]), SIG)
    assert inner(v, v) == 0.0


def test_inner_basis_signs():
    e_first = SignedVector(np.eye(6)[0], SIG)
    e_last = SignedVector(np.eye(6)[5], SIG)
    assert inner(e_first, e_first) == 1.0
    assert inner(e_last, e_last) == -1.0


def test_inner_signature_mismatch():
    a = SignedVector(np.zeros(6) + np.eye(6)[0], SIG)
    b = SignedVector(np.array([1.0, 0, 0]), Signature(2, 1))
    with pytest.raises(SignatureMismatch):
        inner(a, b)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=6, max_size=6),
       st.lists(st.floats(-5, 5), min_size=6, max_size=6),
       st.lists(st.floats(-5, 5), min_size=6, max_size=6),
       st.floats(-3, 3), st.floats(-3, 3))
def test_inner_symmetric_bilinear(xs, ys, zs, a, b):
    x = SignedVector(np.array(xs), SIG)
    y = SignedVector(np.array(ys), SIG)
    z = SignedVector(np.array(zs), SIG)
    assert inner(x, y) == inner(y, x)
    combo = SignedVector(a * x.coords + b * y.coords, SIG)
    assert abs(inner(combo, z) - (a * inner(x, z) + b * inner(y, z))) <= 1e-12 * (
        1 + abs(inner(x, z)) + abs(inner(y, z)))


def test_is_lie_transform_identity():
    ok, residual = is_lie_transform(np.eye(6), SIG, 1e-12)
    assert ok and residual == 0.0


def test_is_lie_transform_plus_block_rotation():
    theta = 0.7
    m = np.eye(6)
    m[:2, :2] = [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    ok, _ = is_lie_transform(m, SIG, 1e-12)
    assert ok


def test_is_lie_transform_scaled_diagonal():
    m = np.eye(6)
    m[0, 0] = 1.001
    ok, residual = is_lie_transform(m, SIG, 1e-9)
    assert not ok
    assert abs(residual - 2.001e-3) < 1e-12


def test_is_lie_transform_rejects_non_square():
    with pytest.raises(ShapeError):
        is_lie_transform(np.ones((2, 3)), SIG)


def test_random_scale_zero_is_identity():
    transform = random_lie_transform(SIG, 0, 0.0)
    assert np.array_equal(transform.matrix, np.eye(6))


def test_random_membership_residual():
    transform = random_lie_transform(SIG, 42, 0.5)
    ok, residual = is_lie_transform(transform.matrix, SIG, 1e-9)
    assert ok, residual


def test_random_determinism():
    a = random_lie_transform(SIG, 123, 0.5)
    b = random_lie_transform(SIG, 123, 0.5)
    assert np.array_equal(a.matrix, b.matrix)


def test_stacked_random_transforms_equal_per_seed_calls():
    # one _expm over the (k, n, n) stack, bit for bit the k scalar calls
    seeds = np.arange(1000)
    stack = random_lie_transform(SIG, seeds, 0.5).matrix
    assert stack.shape == (1000, 6, 6)
    assert np.array_equal(stack, [random_lie_transform(SIG, int(s), 0.5).matrix for s in seeds])
    ok, residual = is_lie_transform(stack, SIG, 1e-9)
    assert ok.shape == (1000,) and ok.all(), residual.max()


def _per_seed_transforms(sig, seeds, scale):
    """The generators assembled one seed at a time, each drawn as three uniform blocks.

    This is the per-seed assembly of the earlier random_lie_transform; its
    one draw per seed reads the same stream as the three blocks (a, d, b).
    """
    p, q = sig.plus_count, sig.minus_count
    x = np.zeros((len(seeds), p + q, p + q))
    for k, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1.0, 1.0, (p, p))
        d = rng.uniform(-1.0, 1.0, (q, q))
        b = rng.uniform(-1.0, 1.0, (p, q))
        x[k, :p, :p], x[k, p:, p:], x[k, :p, p:], x[k, p:, :p] = a - a.T, d - d.T, b, b.T
        norm = float(np.linalg.norm(x[k]))
        x[k] *= scale / norm if norm > 0 and scale > 0 else 0.0
    return indefinite._expm(x)


@pytest.mark.parametrize("scale", (0.0, 0.5, 0.6, 2.0))
def test_stacked_assembly_equals_per_seed_reference(scale):
    seeds = np.arange(3181)
    reference = _per_seed_transforms(SIG, seeds, scale)
    assert np.array_equal(random_lie_transform(SIG, seeds, scale).matrix, reference)
    assert all(np.array_equal(random_lie_transform(SIG, int(s), scale).matrix, reference[s])
               for s in seeds)


@pytest.mark.parametrize("scale", (0.0, 0.5, 0.6, 2.0))
def test_one_draw_per_seed_equals_three_block_draws(scale):
    # uniform reads the stream in order, so one draw sliced into a, d, b is the same stream
    seeds = np.arange(3181) * 7919 + 12345
    stack = random_lie_transform(SIG, seeds, scale).matrix
    assert np.array_equal(stack, _per_seed_transforms(SIG, seeds, scale))


def test_stacked_compose_and_invert_equal_per_member():
    a = random_lie_transform(SIG, np.arange(5), 0.7)
    b = random_lie_transform(SIG, np.arange(10, 15), 0.7)
    for k in range(5):
        ak, bk = LieTransform(a.matrix[k], SIG), LieTransform(b.matrix[k], SIG)
        assert np.array_equal(compose(a, b).matrix[k], compose(ak, bk).matrix)
        assert np.array_equal(invert(a).matrix[k], invert(ak).matrix)


def test_lie_transform_stack_names_its_bad_member():
    stack = random_lie_transform(SIG, np.arange(6), 0.5).matrix.copy()
    stack[4] *= 2.0
    with pytest.raises(ValueError, match=r"not in O\(4,2\).* at stack index 4$"):
        LieTransform(stack, SIG)
    with pytest.raises(ValueError, match=r"^not in O\(4,2\): residual [0-9.e+-]+$"):
        LieTransform(stack[4], SIG)


def test_random_membership_and_det_over_seeds():
    for seed in range(1000):
        transform = random_lie_transform(SIG, seed, 0.5)
        ok, _ = is_lie_transform(transform.matrix, SIG, 1e-9)
        assert ok
        assert abs(abs(np.linalg.det(transform.matrix)) - 1.0) <= 1e-9


def test_compose_with_inverse_is_identity():
    transform = random_lie_transform(SIG, 7, 0.8)
    assert np.abs(compose(transform, invert(transform)).matrix - np.eye(6)).max() <= 1e-9


def test_invert_identity():
    ident = LieTransform(np.eye(6), SIG)
    assert np.array_equal(invert(ident).matrix, np.eye(6))


def test_invert_parallel_transform():
    fwd = parallel_transform(0.31, SIG)
    back = parallel_transform(-0.31, SIG)
    assert np.abs(invert(fwd).matrix - back.matrix).max() <= 1e-12


def test_group_closure():
    for seed in range(50):
        a = random_lie_transform(SIG, seed, 0.7)
        b = random_lie_transform(SIG, 1000 + seed, 0.7)
        ok, _ = is_lie_transform(compose(a, b).matrix, SIG, 1e-8)
        assert ok


def test_compose_signature_mismatch():
    a = random_lie_transform(SIG, 1, 0.2)
    b = random_lie_transform(Signature(2, 1), 1, 0.2)
    with pytest.raises(SignatureMismatch):
        compose(a, b)


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature(0, 2)
    with pytest.raises(ValueError):
        Signature(3, 3)


_WIDTH = 28  # p^2 + q^2 + p q entries for Signature(4, 2)


def _default_rng_draws(seeds, width=_WIDTH):
    return np.array([np.random.default_rng(int(s)).uniform(-1.0, 1.0, width)
                     for s in np.ravel(seeds)]).reshape(np.shape(seeds) + (width,))


@pytest.mark.parametrize("seed", (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63 - 1, 2 ** 64 - 2,
                                  2 ** 64 - 1))
def test_uniform_draws_equal_default_rng_at_word_edges(seed):
    # one and two uint32 entropy words, the sign bit of int64, the top of uint64
    drawn = indefinite._uniform_draws(np.asarray(seed), _WIDTH)
    assert drawn.shape == (_WIDTH,)
    assert np.array_equal(drawn, np.random.default_rng(seed).uniform(-1.0, 1.0, _WIDTH))


def test_uniform_draws_equal_default_rng_near_the_top_of_uint64():
    seeds = np.uint64(2 ** 64 - 1) - np.arange(300, dtype=np.uint64)
    assert np.array_equal(indefinite._uniform_draws(seeds, _WIDTH), _default_rng_draws(seeds))


@pytest.mark.parametrize("width", (1, 2, 5, 28, 101))
def test_uniform_draws_keep_shape_of_a_seed_stack(width):
    seeds = np.array([[0, 7919, 100003], [2 ** 32 - 500, 2 ** 62, 12345]])
    drawn = indefinite._uniform_draws(seeds, width)
    assert drawn.shape == (2, 3, width)
    assert np.array_equal(drawn, _default_rng_draws(seeds, width))


def test_uniform_draws_of_an_empty_stack():
    for seeds in (np.arange(0), np.zeros((0, 4), dtype=np.uint64)):
        assert indefinite._uniform_draws(seeds, _WIDTH).shape == seeds.shape + (_WIDTH,)
    assert random_lie_transform(SIG, np.arange(0), 0.5).matrix.shape == (0, 6, 6)


@pytest.mark.parametrize("seed", (-1, [3, -7], np.array([-(2 ** 63)])))
def test_negative_seed_raises_as_default_rng_does(seed):
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        np.random.default_rng(np.ravel(seed)[-1])
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        random_lie_transform(SIG, seed, 0.5)


@pytest.mark.parametrize("seed", (1.5, [2.0, 3.0], np.array([True]), "7"))
def test_non_integer_seed_raises_type_error(seed):
    with pytest.raises(TypeError):
        np.random.default_rng(np.ravel(seed)[-1])
    with pytest.raises(TypeError):
        random_lie_transform(SIG, seed, 0.5)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=8))
def test_uniform_draws_equal_default_rng_over_uint64(seeds):
    stack = np.array(seeds, dtype=np.uint64)
    assert np.array_equal(indefinite._uniform_draws(stack, _WIDTH), _default_rng_draws(stack))


def test_seed_beyond_uint64_raises_type_error():
    # numpy holds such a seed as a Python object, which the one-pass draw does not read
    with pytest.raises(TypeError, match=r"in \[0, 2\*\*64\)"):
        random_lie_transform(SIG, 2 ** 64, 0.5)
