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


def test_stack_row_zero_equals_the_call_without_count():
    # one _expm over the (k, n, n) stack; its first row is the one-transform call bit for bit
    stack = random_lie_transform(SIG, 12345, 0.5, 1000).matrix
    assert stack.shape == (1000, 6, 6)
    assert np.array_equal(stack[0], random_lie_transform(SIG, 12345, 0.5).matrix)
    ok, residual = is_lie_transform(stack, SIG, 1e-9)
    assert ok.shape == (1000,) and ok.all(), residual.max()
    assert random_lie_transform(SIG, 12345, 0.5, 0).matrix.shape == (0, 6, 6)


def _per_seed_transforms(sig, seed, scale, count):
    """`count` generators read from one default_rng(seed) in turn, each alone.

    Each generator is drawn as three uniform blocks (a, d, b), assembled and
    exponentiated on its own: the one-seed assembly of the earlier
    random_lie_transform, repeated. uniform reads the stream in order, so
    generator k reads row k of one (count, width) draw.
    """
    p, q = sig.plus_count, sig.minus_count
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        a = rng.uniform(-1.0, 1.0, (p, p))
        d = rng.uniform(-1.0, 1.0, (q, q))
        b = rng.uniform(-1.0, 1.0, (p, q))
        x = np.zeros((p + q, p + q))
        x[:p, :p], x[p:, p:], x[:p, p:], x[p:, :p] = a - a.T, d - d.T, b, b.T
        norm = float(np.linalg.norm(x))
        x *= scale / norm if norm > 0 and scale > 0 else 0.0
        out.append(indefinite._expm(x))
    return np.array(out)


@pytest.mark.parametrize("scale", (0.0, 0.5, 0.6, 2.0))
def test_stacked_assembly_equals_per_seed_reference(scale):
    # row k of a stack is row k's draws assembled and exponentiated alone
    for seed in (0, 7919, 100003):
        stack = random_lie_transform(SIG, seed, scale, 1000).matrix
        assert np.array_equal(stack, _per_seed_transforms(SIG, seed, scale, 1000))


@pytest.mark.parametrize("scale", (0.0, 0.5, 0.6, 2.0))
def test_one_draw_per_seed_equals_three_block_draws(scale):
    # the call without count slices one draw into a, d, b: the stream of three block draws
    for seed in np.arange(300) * 7919 + 12345:
        assert np.array_equal(random_lie_transform(SIG, seed, scale).matrix,
                              _per_seed_transforms(SIG, seed, scale, 1)[0])


def test_stacked_compose_and_invert_equal_per_member():
    a = random_lie_transform(SIG, 0, 0.7, 5)
    b = random_lie_transform(SIG, 10, 0.7, 5)
    for k in range(5):
        ak, bk = LieTransform(a.matrix[k], SIG), LieTransform(b.matrix[k], SIG)
        assert np.array_equal(compose(a, b).matrix[k], compose(ak, bk).matrix)
        assert np.array_equal(invert(a).matrix[k], invert(ak).matrix)


def test_lie_transform_stack_names_its_bad_member():
    stack = random_lie_transform(SIG, 0, 0.5, 6).matrix.copy()
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


@pytest.mark.parametrize("seed", (-1, np.int64(-7), np.int64(-(2 ** 63))))
def test_negative_seed_raises_as_default_rng_does(seed):
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        np.random.default_rng(seed)
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        random_lie_transform(SIG, seed, 0.5)


@pytest.mark.parametrize("seed", (1.5, np.float32(2.0), np.bool_(True), "7"))
def test_non_integer_seed_raises_type_error(seed):
    with pytest.raises(TypeError):
        np.random.default_rng(seed)
    with pytest.raises(TypeError):
        random_lie_transform(SIG, seed, 0.5)


@pytest.mark.parametrize("seed", ([3, 7], (5,), np.arange(4), np.zeros((0,), dtype=int)))
def test_non_scalar_seed_raises_type_error(seed):
    # default_rng would read an array as entropy words; a stack is asked for with count
    with pytest.raises(TypeError, match="^seed must be one integer"):
        random_lie_transform(SIG, seed, 0.5)
