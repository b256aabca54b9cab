"""Numeric-core checks: shapes, values, and finite-difference gradients for
every primitive."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxalign import autodiff as ad
from cxalign.autodiff import Tensor, backward

from conftest import finite_difference, rel_error


def leaf(rng, *shape):
    return Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)


def check_grad(build, x: Tensor, tol=2e-3):
    """Compare backward() against central differences on leaf x."""
    x.grad = None
    loss = build(x)
    backward(loss)
    analytic = x.grad.astype(np.float64)

    def value(arr):
        return float(build(Tensor(arr.astype(np.float32))).data)

    numeric = finite_difference(value, x.data.astype(np.float64))
    assert rel_error(analytic, numeric) <= tol


# ---------------------------------------------------------------------------
# forward values
# ---------------------------------------------------------------------------


def test_add_broadcasts_and_unbroadcasts(rng):
    a = leaf(rng, 3, 4)
    b = leaf(rng, 4)
    out = ad.add(a, b)
    assert out.shape == (3, 4)
    backward(ad.sum_(out))
    assert b.grad.shape == (4,)
    np.testing.assert_allclose(b.grad, 3.0)


def test_matmul_batched(rng):
    a = leaf(rng, 2, 3, 4)
    b = leaf(rng, 2, 4, 5)
    out = ad.matmul(a, b)
    assert out.shape == (2, 3, 5)
    np.testing.assert_allclose(out.data, a.data @ b.data, rtol=1e-5)


def test_matmul_shape_mismatch_rejected(rng):
    with pytest.raises(ad.ShapeError):
        ad.matmul(leaf(rng, 2, 3), leaf(rng, 4, 2))


def test_softmax_rows_sum_to_one(rng):
    out = ad.softmax(leaf(rng, 5, 7))
    np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)


def test_softmax_handles_large_negative_bias():
    x = Tensor(np.array([[0.0, -1e9, 0.0]], dtype=np.float32))
    out = ad.softmax(x)
    np.testing.assert_allclose(out.data[0], [0.5, 0.0, 0.5], atol=1e-6)


def test_layer_norm_zero_mean_unit_var(rng):
    out = ad.layer_norm(leaf(rng, 4, 16))
    np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-5)
    np.testing.assert_allclose(out.data.std(axis=-1), 1.0, atol=1e-3)


def test_l2_normalize_unit_rows(rng):
    out = ad.l2_normalize(leaf(rng, 6, 8))
    np.testing.assert_allclose(np.linalg.norm(out.data, axis=-1), 1.0, atol=1e-6)


def test_l2_normalize_rejects_zero_row():
    with pytest.raises(ValueError):
        ad.l2_normalize(Tensor(np.zeros((1, 4), dtype=np.float32)))


def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((5, 32), dtype=np.float32), requires_grad=True)
    loss = ad.cross_entropy(logits, np.arange(5))
    assert abs(float(loss.data) - np.log(32)) < 1e-4


def test_embedding_accumulates_repeated_ids(rng):
    table = leaf(rng, 10, 4)
    out = ad.embedding(table, np.array([[1, 1, 2]]))
    backward(ad.sum_(out))
    np.testing.assert_allclose(table.grad[1], 2.0)
    np.testing.assert_allclose(table.grad[2], 1.0)
    np.testing.assert_allclose(table.grad[0], 0.0)


def test_dropout_train_vs_eval(rng):
    x = Tensor(np.ones((100, 10), dtype=np.float32))
    out_eval = ad.dropout(x, 0.3, None, train=False)
    np.testing.assert_array_equal(out_eval.data, x.data)
    out_train = ad.dropout(x, 0.3, np.random.default_rng(0), train=True)
    kept = out_train.data != 0
    assert 0.5 < kept.mean() < 0.9
    np.testing.assert_allclose(out_train.data[kept], 1.0 / 0.7, rtol=1e-6)


def test_clamp_ops():
    x = Tensor(np.array([-2.0, 0.5, 3.0], dtype=np.float32))
    np.testing.assert_array_equal(ad.minimum_const(x, 1.0).data, [-2.0, 0.5, 1.0])


def test_tensor_rejects_nonfinite():
    with pytest.raises(ad.NonFiniteError):
        ad.tensor(np.array([np.nan]))


def test_backward_requires_scalar_root(rng):
    with pytest.raises(ValueError):
        backward(leaf(rng, 2, 2))


def test_backward_unused_leaf_gets_zeros(rng):
    used, unused = leaf(rng, 3), leaf(rng, 3)
    grads = backward(ad.sum_(used), leaves=[used, unused])
    np.testing.assert_array_equal(grads[id(unused)], np.zeros(3, dtype=np.float32))


# ---------------------------------------------------------------------------
# gradients vs. finite differences
# ---------------------------------------------------------------------------


# fixed weights so reductions of gauge-invariant outputs (softmax rows,
# layer_norm rows) keep a nonzero gradient
_W = np.random.default_rng(99).normal(size=(4, 4)).astype(np.float32)


@pytest.mark.parametrize(
    "build",
    [
        lambda x: ad.sum_(ad.mul(x, x)),
        lambda x: ad.sum_(ad.mul(ad.softmax(x), Tensor(_W))),
        lambda x: ad.sum_(ad.mul(ad.layer_norm(x), Tensor(_W))),
        lambda x: ad.sum_(ad.gelu(x)),
        lambda x: ad.sum_(ad.l2_normalize(x)),
        lambda x: ad.sum_(ad.exp(ad.scale(x, 0.3))),
        lambda x: ad.sum_(ad.minimum_const(x, 0.5)),
        lambda x: ad.sum_(ad.transpose(ad.reshape(x, (8, 2)), (1, 0))),
    ],
    ids=["mul", "softmax", "layer_norm", "gelu", "l2_normalize", "exp", "min_const", "reshape_t"],
)
def test_primitive_gradients(rng, build):
    check_grad(build, leaf(rng, 4, 4))


def test_matmul_gradient(rng):
    b = Tensor(rng.normal(size=(4, 3)).astype(np.float32))
    check_grad(lambda x: ad.sum_(ad.mul(ad.matmul(x, b), ad.matmul(x, b))), leaf(rng, 5, 4))


def test_cross_entropy_gradient(rng):
    targets = rng.integers(0, 6, size=5)
    check_grad(lambda x: ad.cross_entropy(x, targets), leaf(rng, 5, 6))


def test_composite_attention_like_gradient(rng):
    """softmax(xᵀx) @ x chained through layer_norm: a transformer-shaped
    composite."""
    w = rng.normal(size=(5, 4)).astype(np.float32)

    def build(x):
        att = ad.softmax(ad.scale(ad.matmul(x, ad.transpose(x, (1, 0))), 0.5))
        return ad.sum_(ad.mul(ad.layer_norm(ad.matmul(att, x)), Tensor(w)))

    check_grad(build, leaf(rng, 5, 4), tol=5e-3)


def test_rotary_gradient(rng):
    from cxalign.towers import rotary_tables

    cos, sin = rotary_tables(5, 4)
    w = Tensor(rng.normal(size=(5, 4)).astype(np.float32))
    check_grad(lambda x: ad.sum_(ad.mul(ad.rotary(x, cos, sin), w)), leaf(rng, 2, 5, 4))


def test_rotary_scores_depend_on_offset_only(rng):
    """q_i . k_j after rotation depends on i - j, not on i and j."""
    from cxalign.towers import rotary_tables

    q, k = rng.normal(size=(2, 8)).astype(np.float32)
    cos, sin = rotary_tables(12, 8)

    def score(i, j):
        qi = ad.rotary(Tensor(q), cos[i], sin[i]).data
        kj = ad.rotary(Tensor(k), cos[j], sin[j]).data
        return float(qi @ kj)

    assert abs(score(3, 1) - score(10, 8)) < 1e-5
    assert abs(score(0, 0) - float(q @ k)) < 1e-5


@pytest.mark.parametrize("shape", [(5, 4), (2, 3, 4)], ids=["2d", "3d"])
def test_linear_gradients(rng, shape):
    x, w, b = leaf(rng, *shape), leaf(rng, 4, 3), leaf(rng, 3)
    probe = Tensor(rng.normal(size=shape[:-1] + (3,)).astype(np.float32))
    check_grad(lambda t: ad.sum_(ad.mul(ad.linear(t, w, b), probe)), x)
    check_grad(lambda t: ad.sum_(ad.mul(ad.linear(x, t, b), probe)), w)
    check_grad(lambda t: ad.sum_(ad.mul(ad.linear(x, w, t), probe)), b)


@pytest.mark.parametrize("shape", [(5, 4), (2, 3, 4)], ids=["2d", "3d"])
def test_linear_matches_matmul_add(rng, shape):
    """Same values and gradients as the unfused ops; the weight gradient
    sums its rows in another order, so a float32 tolerance applies."""
    probe = Tensor(rng.normal(size=shape[:-1] + (3,)).astype(np.float32))
    grads = []
    for fused in (True, False):
        r = np.random.default_rng(1)
        x, w, b = leaf(r, *shape), leaf(r, 4, 3), leaf(r, 3)
        y = ad.linear(x, w, b) if fused else ad.add(ad.matmul(x, w), b)
        backward(ad.sum_(ad.mul(y, probe)))
        grads.append([y.data, x.grad, w.grad, b.grad])
    for fused, ref in zip(*grads):
        np.testing.assert_allclose(fused, ref, rtol=1e-5, atol=1e-6)


def test_linear_frozen_operands_get_no_gradient(rng):
    x, w, b = leaf(rng, 2, 3, 4), Tensor(rng.normal(size=(4, 3)).astype(np.float32)), leaf(rng, 3)
    backward(ad.sum_(ad.linear(x, w, b)))
    assert w.grad is None and x.grad is not None and b.grad is not None
    x, w, b = Tensor(x.data), leaf(rng, 4, 3), Tensor(b.data)
    backward(ad.sum_(ad.linear(x, w, b)))
    assert x.grad is None and b.grad is None and w.grad is not None
    frozen = ad.linear(Tensor(x.data), Tensor(w.data), Tensor(b.data))
    assert not frozen.requires_grad and frozen._bwd is None


def test_linear_rejects_bad_shapes_and_nonfinite(rng):
    with pytest.raises(ad.ShapeError):
        ad.linear(leaf(rng, 2, 4), leaf(rng, 3, 3), leaf(rng, 3))
    with pytest.raises(ad.ShapeError):
        ad.linear(leaf(rng, 2, 4), leaf(rng, 4, 3), leaf(rng, 4))
    for operand in (0, 1):
        args = [rng.normal(size=(2, 4)), rng.normal(size=(4, 3)), np.zeros(3)]
        args[operand][0, 0] = np.nan
        with pytest.raises(ad.NonFiniteError):
            ad.linear(*args)


def test_gelu_matches_tanh_form_without_overflow():
    x = np.linspace(-100.0, 100.0, 20_001).astype(np.float32)
    x64 = x.astype(np.float64)
    ref = 0.5 * x64 * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x64 + 0.044715 * x64**3)))
    with np.errstate(all="raise"):
        out = ad.gelu(x).data
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-6)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 6), st.integers(2, 8), st.integers(0, 10_000))
def test_softmax_gradient_property(rows, cols, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(rows, cols)).astype(np.float32), requires_grad=True)
    w = rng.normal(size=(rows, cols)).astype(np.float32)

    def build(t):
        return ad.sum_(ad.mul(ad.softmax(t), Tensor(w)))

    check_grad(build, x)


# ---------------------------------------------------------------------------
# fused attention and affine layer norm
# ---------------------------------------------------------------------------


def _unfused_attention(q, k, v, heads, cos=None, sin=None, bias=None):
    """The attention chain as separate primitives."""
    B, T, d = q.shape
    dh = d // heads

    def split(t):
        return ad.transpose(ad.reshape(t, (B, T, heads, dh)), (0, 2, 1, 3))

    q, k, v = split(q), split(k), split(v)
    if cos is not None:
        q, k = ad.rotary(q, cos, sin), ad.rotary(k, cos, sin)
    scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
    if bias is not None:
        scores = ad.add(scores, Tensor(bias))
    ctx = ad.matmul(ad.softmax(scores), v)
    return ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (B, T, d))


def _attention_case(bias_kind, rope, B=2, T=5, d=8, heads=2):
    from cxalign.tokenizer import PAD
    from cxalign.towers import attention_bias, rotary_tables

    ids = np.full((B, T), 9, dtype=np.int64)
    ids[0, T - 2 :] = PAD
    bias = {
        "none": None,
        "pad": attention_bias(ids, "bidirectional"),
        "causal": attention_bias(ids, "causal"),
    }[bias_kind]
    cos, sin = rotary_tables(T, d // heads) if rope else (None, None)
    return (B, T, d), dict(heads=heads, cos=cos, sin=sin, bias=bias)


_ATTENTION_CASES = [(b, r) for b in ("none", "pad", "causal") for r in (True, False)]


@pytest.mark.parametrize("bias_kind,rope", _ATTENTION_CASES)
def test_attention_gradients(rng, bias_kind, rope):
    shape, kw = _attention_case(bias_kind, rope)
    q, k, v = leaf(rng, *shape), leaf(rng, *shape), leaf(rng, *shape)
    probe = Tensor(rng.normal(size=shape).astype(np.float32))
    check_grad(lambda t: ad.sum_(ad.mul(ad.attention(t, k, v, **kw), probe)), q, tol=5e-3)
    check_grad(lambda t: ad.sum_(ad.mul(ad.attention(q, t, v, **kw), probe)), k, tol=5e-3)
    check_grad(lambda t: ad.sum_(ad.mul(ad.attention(q, k, t, **kw), probe)), v, tol=5e-3)


@pytest.mark.parametrize("bias_kind,rope", _ATTENTION_CASES)
def test_attention_matches_unfused_chain(bias_kind, rope):
    """Same values and gradients as the chain of primitives, bit for bit."""
    shape, kw = _attention_case(bias_kind, rope, B=3, T=7, d=16, heads=4)
    probe = Tensor(np.random.default_rng(2).normal(size=shape).astype(np.float32))
    results = []
    for op in (ad.attention, _unfused_attention):
        r = np.random.default_rng(1)
        q, k, v = leaf(r, *shape), leaf(r, *shape), leaf(r, *shape)
        y = op(q, k, v, **kw)
        backward(ad.sum_(ad.mul(y, probe)))
        results.append([y.data, q.grad, k.grad, v.grad])
    for fused, ref in zip(*results):
        np.testing.assert_array_equal(fused, ref)


def test_attention_records_one_node_and_skips_frozen_operands(rng):
    q, k = leaf(rng, 1, 4, 8), leaf(rng, 1, 4, 8)
    v = Tensor(rng.normal(size=(1, 4, 8)).astype(np.float32))
    y = ad.attention(q, k, v, heads=2)
    assert y._parents == (q, k, v)
    backward(ad.sum_(y))
    assert v.grad is None and q.grad is not None and k.grad is not None
    frozen = ad.attention(Tensor(q.data), Tensor(k.data), v, heads=2)
    assert not frozen.requires_grad and frozen._bwd is None


def test_attention_rejects_bad_input(rng):
    q = leaf(rng, 1, 4, 8)
    with pytest.raises(ad.ShapeError):
        ad.attention(q, q, leaf(rng, 1, 3, 8), heads=2)
    with pytest.raises(ad.ShapeError):
        ad.attention(q, q, q, heads=3)
    masked = np.zeros((1, 1, 4, 4), dtype=np.float32)
    masked[..., 2, :] = -np.inf
    with pytest.raises(ad.NonFiniteError):
        ad.attention(q, q, q, heads=2, bias=masked)
    bad = q.data.copy()
    bad[0, 1, 3] = np.nan
    with pytest.raises(ad.NonFiniteError):
        ad.attention(Tensor(bad), q, q, heads=2)


@pytest.mark.parametrize("shape", [(5, 4), (2, 3, 4)], ids=["2d", "3d"])
def test_affine_layer_norm_gradients(rng, shape):
    x, g, b = leaf(rng, *shape), leaf(rng, 4), leaf(rng, 4)
    probe = Tensor(rng.normal(size=shape).astype(np.float32))
    check_grad(lambda t: ad.sum_(ad.mul(ad.affine_layer_norm(t, g, b), probe)), x)
    check_grad(lambda t: ad.sum_(ad.mul(ad.affine_layer_norm(x, t, b), probe)), g)
    check_grad(lambda t: ad.sum_(ad.mul(ad.affine_layer_norm(x, g, t), probe)), b)


@pytest.mark.parametrize("shape", [(5, 4), (2, 3, 4)], ids=["2d", "3d"])
def test_affine_layer_norm_matches_unfused_chain(shape):
    probe = Tensor(np.random.default_rng(2).normal(size=shape).astype(np.float32))
    results = []
    for fused in (True, False):
        r = np.random.default_rng(1)
        x, g, b = leaf(r, *shape), leaf(r, 4), leaf(r, 4)
        if fused:
            y = ad.affine_layer_norm(x, g, b)
        else:
            y = ad.add(ad.mul(ad.layer_norm(x), g), b)
        backward(ad.sum_(ad.mul(y, probe)))
        results.append([y.data, x.grad, g.grad, b.grad])
    for fused, ref in zip(*results):
        np.testing.assert_array_equal(fused, ref)


def test_affine_layer_norm_rejects_bad_shapes(rng):
    with pytest.raises(ad.ShapeError):
        ad.affine_layer_norm(leaf(rng, 2, 4), leaf(rng, 3), leaf(rng, 4))
    with pytest.raises(ad.ShapeError):
        ad.affine_layer_norm(leaf(rng, 2, 4), leaf(rng, 4), leaf(rng, 1, 4))
