"""Numeric-core checks: shapes, values, and finite-difference gradients for
every primitive."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxalign import autodiff as ad
from cxalign.autodiff import Tensor, backward

from conftest import finite_difference, graph_bytes, rel_error
from reference_ops import gelu, layer_norm, rotary, softmax, sum_, unfused_attention


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
    backward(sum_(out))
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
    out = softmax(leaf(rng, 5, 7))
    np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)


def test_softmax_handles_large_negative_bias():
    x = Tensor(np.array([[0.0, -1e9, 0.0]], dtype=np.float32))
    out = softmax(x)
    np.testing.assert_allclose(out.data[0], [0.5, 0.0, 0.5], atol=1e-6)


def test_layer_norm_zero_mean_unit_var(rng):
    out = layer_norm(leaf(rng, 4, 16))
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
    backward(sum_(out))
    np.testing.assert_allclose(table.grad[1], 2.0)
    np.testing.assert_allclose(table.grad[2], 1.0)
    np.testing.assert_allclose(table.grad[0], 0.0)


@pytest.mark.parametrize("ids", [[0, 10], [-1, 3], [[2, 10]], [[-1, 0]]])
def test_embedding_refuses_out_of_range_ids(rng, ids):
    """An id below 0 or at the table's row count raises instead of wrapping
    around or reading past the table, for 1-D and 2-D id arrays."""
    table = leaf(rng, 10, 4)
    with pytest.raises(ad.ShapeError, match="out of range"):
        ad.embedding(table, np.array(ids))


def test_embedding_refuses_a_table_that_is_not_2d(rng):
    """Backward scatters (V, d) rows, so a 1-D or 3-D table is refused at
    the gather rather than in backward."""
    for shape in ((10,), (10, 2, 2)):
        with pytest.raises(ad.ShapeError, match="2-D table"):
            ad.embedding(leaf(rng, *shape), np.array([0, 1]))


def test_clamp_ops():
    x = Tensor(np.array([-2.0, 0.5, 3.0], dtype=np.float32))
    np.testing.assert_array_equal(ad.minimum_const(x, 1.0).data, [-2.0, 0.5, 1.0])


def test_backward_requires_scalar_root(rng):
    with pytest.raises(ValueError):
        backward(leaf(rng, 2, 2))


def test_backward_releases_interior_nodes(rng):
    """Once backward has run, interior nodes hold no gradient, backward
    closure or parents; leaves keep their gradients."""
    x, w, b = leaf(rng, 3, 4), leaf(rng, 4, 2), leaf(rng, 2)
    h = ad.linear(x, w, b)
    y = gelu(h)
    loss = sum_(y)
    backward(loss)
    for out in (h, y, loss):
        assert out.node.bwd is None and out.node.parents is None
    assert h.grad is None and y.grad is None and loss.grad is None
    for p in (x, w, b):
        assert p.grad is not None and p.node.parents == ()


def test_unsaved_forward_outputs_die_before_backward(rng):
    """An output that no backward function reads is freed as soon as the
    caller drops it: here the residual stream and the branch output of a
    pre-norm block, which only `add` and layer norm consume."""
    x, g, b = leaf(rng, 2, 5, 8), leaf(rng, 8), leaf(rng, 8)
    w1, b1, w2, b2 = leaf(rng, 8, 16), leaf(rng, 16), leaf(rng, 16, 8), leaf(rng, 8)
    branch = ad.linear(gelu(ad.linear(ad.affine_layer_norm(x, g, b), w1, b1)), w2, b2)
    h = ad.add(x, branch)
    refs = [weakref.ref(branch.data), weakref.ref(h.data)]
    loss = sum_(ad.affine_layer_norm(h, g, b))
    del branch, h
    assert [r() for r in refs] == [None, None]
    backward(loss)
    assert x.grad is not None and w1.grad is not None


def test_second_backward_through_released_graph_raises(rng):
    x = leaf(rng, 3)
    y = ad.exp(x)
    loss = sum_(y)
    backward(loss)
    first = x.grad
    with pytest.raises(ad.GraphReleasedError):
        backward(loss)
    with pytest.raises(ad.GraphReleasedError):
        backward(sum_(ad.mul(y, y)))
    assert x.grad is first
    # a new graph over the same leaf differentiates as before
    backward(sum_(ad.exp(x)))
    np.testing.assert_array_equal(x.grad, first + first)


def test_backward_peak_memory_stays_near_the_graph():
    """Backward over a 4-layer text tower and an 8 x 40 batch peaks less
    than a quarter above the memory traced at its start: each activation
    and interior gradient is freed once the gradient has passed it."""
    import tracemalloc

    from cxalign.pipeline import RunConfig
    from cxalign.towers import init_text_tower, text_forward

    run = RunConfig(layers=4)
    params = init_text_tower(run, 100, np.random.default_rng(0))
    ids = np.random.default_rng(1).integers(7, 100, size=(8, 40))
    probe = Tensor(np.random.default_rng(2).normal(size=(8, 40, run.model_dim)).astype(np.float32))
    tracemalloc.start()
    try:
        loss = sum_(ad.mul(text_forward(params, run, ids), probe))
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < start / 4, (peak - start, start)


# ---------------------------------------------------------------------------
# gradients vs. finite differences
# ---------------------------------------------------------------------------


# fixed weights so reductions of gauge-invariant outputs (softmax rows,
# layer_norm rows) keep a nonzero gradient
_W = np.random.default_rng(99).normal(size=(4, 4)).astype(np.float32)


@pytest.mark.parametrize(
    "build",
    [
        lambda x: sum_(ad.mul(x, x)),
        lambda x: sum_(ad.mul(softmax(x), Tensor(_W))),
        lambda x: sum_(ad.mul(layer_norm(x), Tensor(_W))),
        lambda x: sum_(gelu(x)),
        lambda x: sum_(ad.l2_normalize(x)),
        lambda x: sum_(ad.exp(ad.scale(x, 0.3))),
        lambda x: sum_(ad.minimum_const(x, 0.5)),
        lambda x: sum_(ad.transpose(ad.reshape(x, (8, 2)), (1, 0))),
    ],
    ids=["mul", "softmax", "layer_norm", "gelu", "l2_normalize", "exp", "min_const", "reshape_t"],
)
def test_primitive_gradients(rng, build):
    check_grad(build, leaf(rng, 4, 4))


def test_matmul_gradient(rng):
    b = Tensor(rng.normal(size=(4, 3)).astype(np.float32))
    check_grad(lambda x: sum_(ad.mul(ad.matmul(x, b), ad.matmul(x, b))), leaf(rng, 5, 4))


def test_cross_entropy_gradient(rng):
    targets = rng.integers(0, 6, size=5)
    check_grad(lambda x: ad.cross_entropy(x, targets), leaf(rng, 5, 6))


def test_composite_attention_like_gradient(rng):
    """softmax(xᵀx) @ x chained through layer_norm: a transformer-shaped
    composite."""
    w = rng.normal(size=(5, 4)).astype(np.float32)

    def build(x):
        att = softmax(ad.scale(ad.matmul(x, ad.transpose(x, (1, 0))), 0.5))
        return sum_(ad.mul(layer_norm(ad.matmul(att, x)), Tensor(w)))

    check_grad(build, leaf(rng, 5, 4), tol=5e-3)


def test_rotary_gradient(rng):
    from cxalign.towers import rotary_tables

    cos, sin = rotary_tables(5, 4)
    w = Tensor(rng.normal(size=(5, 4)).astype(np.float32))
    check_grad(lambda x: sum_(ad.mul(rotary(x, cos, sin), w)), leaf(rng, 2, 5, 4))


def test_rotary_scores_depend_on_offset_only(rng):
    """q_i . k_j after rotation depends on i - j, not on i and j."""
    from cxalign.towers import rotary_tables

    q, k = rng.normal(size=(2, 8)).astype(np.float32)
    cos, sin = rotary_tables(12, 8)

    def score(i, j):
        qi = rotary(Tensor(q), cos[i], sin[i]).data
        kj = rotary(Tensor(k), cos[j], sin[j]).data
        return float(qi @ kj)

    assert abs(score(3, 1) - score(10, 8)) < 1e-5
    assert abs(score(0, 0) - float(q @ k)) < 1e-5


@pytest.mark.parametrize("shape", [(5, 4), (2, 3, 4)], ids=["2d", "3d"])
def test_linear_gradients(rng, shape):
    x, w, b = leaf(rng, *shape), leaf(rng, 4, 3), leaf(rng, 3)
    probe = Tensor(rng.normal(size=shape[:-1] + (3,)).astype(np.float32))
    check_grad(lambda t: sum_(ad.mul(ad.linear(t, w, b), probe)), x)
    check_grad(lambda t: sum_(ad.mul(ad.linear(x, t, b), probe)), w)
    check_grad(lambda t: sum_(ad.mul(ad.linear(x, w, t), probe)), b)


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
        backward(sum_(ad.mul(y, probe)))
        grads.append([y.data, x.grad, w.grad, b.grad])
    for fused, ref in zip(*grads):
        np.testing.assert_allclose(fused, ref, rtol=1e-5, atol=1e-6)


def test_linear_frozen_operands_get_no_gradient(rng):
    x, w, b = leaf(rng, 2, 3, 4), Tensor(rng.normal(size=(4, 3)).astype(np.float32)), leaf(rng, 3)
    backward(sum_(ad.linear(x, w, b)))
    assert w.grad is None and x.grad is not None and b.grad is not None
    x, w, b = Tensor(x.data), leaf(rng, 4, 3), Tensor(b.data)
    backward(sum_(ad.linear(x, w, b)))
    assert x.grad is None and b.grad is None and w.grad is not None
    frozen = ad.linear(Tensor(x.data), Tensor(w.data), Tensor(b.data))
    assert not frozen.requires_grad and frozen.node is None


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
        out = gelu(x).data
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-6)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 6), st.integers(2, 8), st.integers(0, 10_000))
def test_softmax_gradient_property(rows, cols, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(rows, cols)).astype(np.float32), requires_grad=True)
    w = rng.normal(size=(rows, cols)).astype(np.float32)

    def build(t):
        return sum_(ad.mul(softmax(t), Tensor(w)))

    check_grad(build, x)


# ---------------------------------------------------------------------------
# fused attention and affine layer norm
# ---------------------------------------------------------------------------


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
_ATTENTION_OPERANDS = ("x", "wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")


def _attention_leaves(r, shape, frozen=()):
    """x and the four projections' weights and biases of a sublayer over a
    (B, T, d) input, in `attention`'s order; the operands named in `frozen`
    require no gradient. Weights at std 0.5 keep the softmax unsaturated."""
    d = shape[-1]
    shapes = {"x": shape, **{n: (d, d) if n[0] == "w" else (d,) for n in _ATTENTION_OPERANDS[1:]}}
    return [
        Tensor(
            (r.normal(size=s) * (0.5 if name[0] == "w" else 1.0)).astype(np.float32),
            requires_grad=name not in frozen,
        )
        for name, s in shapes.items()
    ]


def _attend(operands, kw):
    return ad.attention(*operands, kw["heads"], kw["cos"], kw["sin"], kw["bias"])


def _attend_unfused(operands, kw):
    """The sublayer as three `linear`s, the unfused attention chain and one
    more `linear`."""
    x, wq, bq, wk, bk, wv, bv, wo, bo = operands
    q, k, v = ad.linear(x, wq, bq), ad.linear(x, wk, bk), ad.linear(x, wv, bv)
    return ad.linear(unfused_attention(q, k, v, **kw), wo, bo)


@pytest.mark.parametrize("bias_kind,rope", _ATTENTION_CASES)
def test_attention_gradients(rng, bias_kind, rope):
    """Finite-difference gradients for x and all eight projection operands."""
    shape, kw = _attention_case(bias_kind, rope)
    operands = _attention_leaves(rng, shape)
    probe = Tensor(rng.normal(size=shape).astype(np.float32))
    for i, operand in enumerate(operands):
        def build(t, i=i):
            args = list(operands)
            args[i] = t
            return sum_(ad.mul(_attend(args, kw), probe))

        if rope or _ATTENTION_OPERANDS[i] != "bk":
            check_grad(build, operand, tol=5e-3)
            continue
        # unrotated, bk shifts each score row by a constant, which softmax
        # ignores: its gradient is zero, so compare absolutely
        operand.grad = None
        backward(build(operand))
        numeric = finite_difference(
            lambda a: float(build(Tensor(a.astype(np.float32))).data), operand.data.astype(np.float64)
        )
        assert np.abs(operand.grad).max() < 1e-5 and np.abs(numeric).max() < 5e-3


# stages 1 and 2 train every operand; stage 3 trains the merged text weights
# but no text bias, and its first layer's input comes from the frozen
# embedding table; "output" trains only the output projection
_ATTENTION_FROZEN = {
    "none": (),
    "stage3": ("bq", "bk", "bv", "bo"),
    "stage3-first": ("x", "bq", "bk", "bv", "bo"),
    "output": ("x", "wq", "bq", "wk", "bk", "wv", "bv"),
}


@pytest.mark.parametrize("bias_kind,rope", _ATTENTION_CASES)
def test_attention_matches_unfused_chain(bias_kind, rope):
    """Same values and gradients as the chain of three `linear`s, the
    attention primitives and one more `linear`, bit for bit, with every
    operand trained and with each frozen subset of `_ATTENTION_FROZEN`; a
    frozen operand gets no gradient."""
    shape, kw = _attention_case(bias_kind, rope, B=3, T=7, d=16, heads=4)
    probe = Tensor(np.random.default_rng(2).normal(size=shape).astype(np.float32))
    for frozen in _ATTENTION_FROZEN.values():
        results = []
        for op in (_attend, _attend_unfused):
            operands = _attention_leaves(np.random.default_rng(1), shape, frozen)
            y = op(operands, kw)
            backward(sum_(ad.mul(y, probe)))
            results.append([y.data] + [t.grad for t in operands])
        for fused, ref in zip(*results):
            if ref is None:
                assert fused is None
            else:
                np.testing.assert_array_equal(fused, ref)
        assert sum(g is None for g in results[0][1:]) == len(frozen)


def test_attention_records_one_node_and_skips_frozen_operands(rng):
    shape, kw = _attention_case("none", False, B=1, T=4)
    operands = _attention_leaves(rng, shape, frozen=("wv", "bo"))
    y = _attend(operands, kw)
    assert y.node.parents == tuple(t.node for t in operands)
    assert y.node.parents[5] is None and y.node.parents[8] is None
    backward(sum_(y))
    grads = dict(zip(_ATTENTION_OPERANDS, (t.grad for t in operands)))
    assert grads.pop("wv") is None and grads.pop("bo") is None
    assert all(g is not None for g in grads.values())
    frozen = _attend([Tensor(t.data) for t in operands], kw)
    assert not frozen.requires_grad and frozen.node is None


def test_attention_rejects_bad_input(rng):
    shape, kw = _attention_case("none", False, B=1, T=4)
    operands = _attention_leaves(rng, shape)
    for i, name in enumerate(_ATTENTION_OPERANDS):
        bad = list(operands)
        wrong = (1, 4, 6) if name == "x" else (8, 6) if name[0] == "w" else (6,)
        bad[i] = leaf(rng, *wrong)
        with pytest.raises(ad.ShapeError):
            _attend(bad, kw)
    with pytest.raises(ad.ShapeError):
        _attend([leaf(rng, 4, 8)] + operands[1:], kw)
    with pytest.raises(ad.ShapeError):
        _attend(operands, dict(kw, heads=3))
    masked = np.zeros((1, 1, 4, 4), dtype=np.float32)
    masked[..., 2, :] = -np.inf
    with pytest.raises(ad.NonFiniteError):
        _attend(operands, dict(kw, bias=masked))
    for i in (0, 1, 7):
        bad = list(operands)
        bad[i] = Tensor(operands[i].data.copy())
        bad[i].data.flat[5] = np.nan if i == 0 else np.inf
        with pytest.raises(ad.NonFiniteError):
            _attend(bad, kw)


def test_constant_operands_skip_the_scan(rng, monkeypatch):
    """A `constant` is scanned once, when made; `linear`, `matmul`, `ffn`
    and `attention` then skip it, but still scan their inputs, their
    activations and every Tensor that `constant` did not make."""
    scanned = []

    def spy(a, what, _orig=ad._check_finite):
        scanned.append(what)
        return _orig(a, what)

    monkeypatch.setattr(ad, "_check_finite", spy)
    bad = np.ones((4, 4), dtype=np.float32)
    bad[1, 2] = np.nan
    with pytest.raises(ad.NonFiniteError, match="text.l0.wq"):
        ad.constant(bad, "text.l0.wq")
    shape, kw = _attention_case("pad", True, B=1, T=4)
    operands = _attention_leaves(rng, shape)
    x = operands[0].data
    consts = [ad.constant(t.data, "w") for t in operands[1:]]
    assert all(c.verified for c in consts) and scanned == ["text.l0.wq"] + ["w"] * 8
    calls = {
        "linear": lambda ws: ad.linear(x, ws[0], ws[1]),
        "matmul": lambda ws: ad.matmul(x, ws[0]),
        "ffn": lambda ws: ad.ffn(x, ws[0], ws[1], ws[2], ws[3]),
        "attention": lambda ws: _attend([x] + ws, kw),
    }
    # input only; input and activation; input and context
    expected_const = {"linear": 1, "matmul": 1, "ffn": 2, "attention": 2}
    for name, call in calls.items():
        for ws, expected in ((consts, expected_const[name]), (operands[1:], None)):
            scanned.clear()
            out = call(ws)
            assert not out.verified
            plain = {"linear": 2, "matmul": 2, "ffn": 4, "attention": 6}[name]
            assert len(scanned) == (plain if expected is None else expected), (name, scanned)
    # a verified weight is not a licence for a NaN input
    nan_x = x.copy()
    nan_x[0, 0, 0] = np.nan
    with pytest.raises(ad.NonFiniteError):
        _attend([nan_x] + consts, kw)


def _ffn_leaves(r, shape, frozen=()):
    """x, w1, b1, w2, b2 for an (..., 4) input and 6 hidden units; the
    operands named in `frozen` require no gradient."""
    shapes = {"x": shape, "w1": (4, 6), "b1": (6,), "w2": (6, 3), "b2": (3,)}
    return [
        Tensor(r.normal(size=s).astype(np.float32), requires_grad=name not in frozen)
        for name, s in shapes.items()
    ]


@pytest.mark.parametrize("shape", [(5, 4), (2, 3, 4)], ids=["2d", "3d"])
def test_ffn_gradients(rng, shape):
    x, w1, b1, w2, b2 = _ffn_leaves(rng, shape)
    probe = Tensor(rng.normal(size=shape[:-1] + (3,)).astype(np.float32))
    operands = [x, w1, b1, w2, b2]
    for i, operand in enumerate(operands):
        def build(t, i=i):
            args = list(operands)
            args[i] = t
            return sum_(ad.mul(ad.ffn(*args), probe))

        check_grad(build, operand)


@pytest.mark.parametrize(
    "frozen", [(), ("x",), ("w1", "b1"), ("w2", "b2"), ("x", "w1", "b1")],
    ids=["none", "x", "first", "second", "all-first"],
)
@pytest.mark.parametrize("shape", [(5, 4), (2, 3, 4)], ids=["2d", "3d"])
def test_ffn_matches_unfused_chain(shape, frozen):
    """Same values and all five gradients as linear -> gelu -> linear, bit
    for bit; a frozen operand gets no gradient. With every operand
    trained, the fused node keeps less for backward than the chain."""
    probe = Tensor(np.random.default_rng(2).normal(size=shape[:-1] + (3,)).astype(np.float32))
    results, kept = [], []
    for fused in (True, False):
        operands = _ffn_leaves(np.random.default_rng(1), shape, frozen)
        x, w1, b1, w2, b2 = operands
        if fused:
            y = ad.ffn(x, w1, b1, w2, b2)
        else:
            y = ad.linear(gelu(ad.linear(x, w1, b1)), w2, b2)
        kept.append(sum(graph_bytes(y).values()))
        backward(sum_(ad.mul(y, probe)))
        results.append([y.data] + [t.grad for t in operands])
    for fused, ref in zip(*results):
        if ref is None:
            assert fused is None
        else:
            np.testing.assert_array_equal(fused, ref)
    assert sum(g is None for g in results[0][1:]) == len(frozen)
    # the chain keeps the activation as well
    if not frozen:
        assert kept[0] < kept[1]


def test_ffn_keeps_input_pre_activation_and_tanh(rng):
    x, w1, b1, w2, b2 = _ffn_leaves(rng, (2, 3, 4))
    y = ad.ffn(x, w1, b1, w2, b2)
    rows, hidden = 2 * 3, w1.shape[1]
    # x, the pre-activation and its tanh, plus the two weights
    expected = x.data.nbytes + 2 * rows * hidden * 4 + w1.data.nbytes + w2.data.nbytes
    assert graph_bytes(y) == {"ffn": expected}
    frozen = ad.ffn(*(Tensor(t.data) for t in (x, w1, b1, w2, b2)))
    assert frozen.node is None


def test_ffn_rejects_bad_shapes(rng):
    x, w1, b1, w2, b2 = _ffn_leaves(rng, (5, 4))
    with pytest.raises(ad.ShapeError):
        ad.ffn(x, w1, b1, leaf(rng, 5, 3), b2)
    with pytest.raises(ad.ShapeError):
        ad.ffn(x, w1, leaf(rng, 4), w2, b2)
    with pytest.raises(ad.ShapeError):
        ad.ffn(leaf(rng, 5, 3), w1, b1, w2, b2)


@pytest.mark.parametrize("shape", [(5, 4), (2, 3, 4)], ids=["2d", "3d"])
def test_affine_layer_norm_gradients(rng, shape):
    x, g, b = leaf(rng, *shape), leaf(rng, 4), leaf(rng, 4)
    probe = Tensor(rng.normal(size=shape).astype(np.float32))
    check_grad(lambda t: sum_(ad.mul(ad.affine_layer_norm(t, g, b), probe)), x)
    check_grad(lambda t: sum_(ad.mul(ad.affine_layer_norm(x, t, b), probe)), g)
    check_grad(lambda t: sum_(ad.mul(ad.affine_layer_norm(x, g, t), probe)), b)


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
            y = ad.add(ad.mul(layer_norm(x), g), b)
        backward(sum_(ad.mul(y, probe)))
        results.append([y.data, x.grad, g.grad, b.grad])
    for fused, ref in zip(*results):
        np.testing.assert_array_equal(fused, ref)


def test_affine_layer_norm_rejects_bad_shapes(rng):
    with pytest.raises(ad.ShapeError):
        ad.affine_layer_norm(leaf(rng, 2, 4), leaf(rng, 3), leaf(rng, 4))
    with pytest.raises(ad.ShapeError):
        ad.affine_layer_norm(leaf(rng, 2, 4), leaf(rng, 4), leaf(rng, 1, 4))
