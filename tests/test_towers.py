"""Dual towers: masking semantics, pooling, LoRA equivalences, projection."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import finite_difference, rel_error, unfolded_lora_forward
from cxalign.autodiff import NonFiniteError, ShapeError, Tensor, backward, mul, sum_
from cxalign.pipeline import RunConfig
from cxalign.tokenizer import BOS, EOS, PAD
from cxalign import towers as tw


RUN = RunConfig()
CAUSAL = dataclasses.replace(RUN, mask_mode="causal")
VOCAB = 50


@pytest.fixture(scope="module")
def params():
    return tw.init_text_tower(RUN, VOCAB, np.random.default_rng(0))


@pytest.fixture(scope="module")
def vparams():
    return tw.init_vision_tower(np.random.default_rng(1))


def seq_ids(*tokens):
    return np.array([[BOS, *tokens, EOS]], dtype=np.int64)


def test_causal_position_invariant_to_future(params):
    a = seq_ids(10, 11, 12, 13)
    b = a.copy()
    b[0, 3] = 20  # change a later token
    ha = tw.text_forward(params, CAUSAL, a).data
    hb = tw.text_forward(params, CAUSAL, b).data
    np.testing.assert_allclose(ha[0, :3], hb[0, :3], atol=1e-6)
    assert not np.allclose(ha[0, 3], hb[0, 3])


def test_bidirectional_sees_future(params):
    a = seq_ids(10, 11, 12, 13)
    b = a.copy()
    b[0, 3] = 20
    ha = tw.text_forward(params, RUN, a).data
    hb = tw.text_forward(params, RUN, b).data
    assert not np.allclose(ha[0, 1], hb[0, 1])


def test_pad_positions_do_not_affect_content(params):
    a = seq_ids(10, 11)
    padded = np.concatenate([a, np.full((1, 3), PAD, dtype=np.int64)], axis=1)
    ha = tw.text_forward(params, RUN, a).data
    hb = tw.text_forward(params, RUN, padded).data
    np.testing.assert_allclose(ha[0], hb[0, : a.shape[1]], atol=1e-5)


def test_mask_mode_toggle_preserves_census(params):
    ids = seq_ids(7, 8, 9)
    before = {n: p.shape for n, p in params.items()}
    tw.text_forward(params, CAUSAL, ids)
    tw.text_forward(params, RUN, ids)
    assert {n: p.shape for n, p in params.items()} == before


def test_out_of_range_id_rejected(params):
    with pytest.raises(ShapeError):
        tw.text_forward(params, RUN, seq_ids(VOCAB))


def test_too_long_sequence_rejected(params):
    ids = np.full((1, RUN.max_len + 1), 10, dtype=np.int64)
    with pytest.raises(ShapeError):
        tw.text_forward(params, RUN, ids)


def test_attention_bias_only_when_something_is_masked():
    ids = seq_ids(10, 11, 12)
    assert tw.attention_bias(ids, "bidirectional") is None
    causal = tw.attention_bias(ids, "causal")
    assert causal.shape == (1, 1, 5, 5) and (causal[0, 0, 0, 1:] == tw.NEG_INF).all()
    padded = np.concatenate([ids, np.full((1, 2), PAD, dtype=np.int64)], axis=1)
    bias = tw.attention_bias(padded, "bidirectional")
    assert (bias[0, 0, :, 5:] == tw.NEG_INF).all() and (bias[0, 0, :, :5] == 0).all()


def test_absent_bias_equals_zero_bias_bit_for_bit():
    from cxalign.autodiff import attention

    rng = np.random.default_rng(4)
    q, k, v = (Tensor(rng.normal(size=(2, 65, 64)).astype(np.float32)) for _ in range(3))
    zero = np.zeros((1, 1, 65, 65), dtype=np.float32)
    np.testing.assert_array_equal(
        attention(q, k, v, 4).data, attention(q, k, v, 4, bias=zero).data
    )


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------


def test_mean_pool_identical_rows(params):
    hidden = Tensor(np.broadcast_to(np.arange(8, dtype=np.float32), (1, 5, 8)).copy())
    elig = np.array([[False, True, True, True, False]])
    out = tw.pool(params, hidden, elig, "mean")
    np.testing.assert_allclose(out.data[0], np.arange(8), atol=1e-6)


def test_mean_pool_ignores_excluded_positions(params):
    base = np.random.default_rng(3).normal(size=(1, 4, 64)).astype(np.float32)
    other = base.copy()
    other[0, 0] = 99.0  # excluded position
    elig = np.array([[False, True, True, True]])
    a = tw.pool(params, Tensor(base), elig, "mean").data
    b = tw.pool(params, Tensor(other), elig, "mean").data
    np.testing.assert_array_equal(a, b)


def test_latent_pool_shape_any_length(params):
    for T in (3, 9, 17):
        hidden = Tensor(np.random.default_rng(T).normal(size=(2, T, 64)).astype(np.float32))
        elig = np.ones((2, T), dtype=bool)
        assert tw.pool(params, hidden, elig, "latent").shape == (2, 64)


def test_latent_pool_single_row_latent():
    """r_lat=1: softmax over one key makes attention weights all one."""
    params = tw.init_text_tower(RUN, VOCAB, np.random.default_rng(5))
    params["pool.latent"] = Tensor(np.random.default_rng(5).normal(0, 0.02, (1, 64)).astype(np.float32))
    hidden_a = Tensor(np.random.default_rng(6).normal(size=(1, 4, 64)).astype(np.float32))
    hidden_b = Tensor(np.random.default_rng(7).normal(size=(1, 4, 64)).astype(np.float32))
    elig = np.ones((1, 4), dtype=bool)
    a = tw.pool(params, hidden_a, elig, "latent").data
    b = tw.pool(params, hidden_b, elig, "latent").data
    np.testing.assert_allclose(a, b, atol=1e-5)


def test_pool_all_excluded_rejected(params):
    hidden = Tensor(np.zeros((1, 3, 64), dtype=np.float32))
    with pytest.raises(ValueError):
        tw.pool(params, hidden, np.zeros((1, 3), dtype=bool), "mean")


# ---------------------------------------------------------------------------
# LoRA
# ---------------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_lora_zero_init_and_merge_equivalence(seed):
    rng = np.random.default_rng(seed)
    run = RunConfig(layers=int(rng.integers(1, 3)), lora_rank=int(rng.integers(1, 17)))
    params = tw.init_text_tower(run, 30, rng)
    adapters = tw.init_lora(params, run, rng)
    params.update(adapters)
    ids = rng.integers(7, 30, size=(2, 6))
    base = tw.text_forward(params, run, ids).data
    with_zero_b = tw.text_forward(tw.lora_merge(params, run), run, ids).data
    np.testing.assert_array_equal(base, with_zero_b)

    # train-like perturbation of B, then the fold against the unfolded forward
    for name in adapters:
        if name.endswith(".B"):
            params[name].data += rng.normal(0, 0.02, params[name].shape).astype(np.float32)
    adapted = unfolded_lora_forward(params, run, ids).data
    merged = tw.lora_merge(params, run)
    merged_out = tw.text_forward(merged, run, ids).data
    assert np.abs(adapted - merged_out).max() <= 1e-5


def test_lora_alpha_zero_inert(params):
    run = RunConfig(lora_alpha=0.0)
    rng = np.random.default_rng(8)
    adapters = tw.init_lora(params, run, rng)
    full = dict(params)
    full.update(adapters)
    for name in adapters:
        full[name].data += rng.normal(0, 0.5, full[name].shape).astype(np.float32)
    ids = seq_ids(10, 11, 12)
    np.testing.assert_array_equal(
        unfolded_lora_forward(full, run, ids).data,
        tw.text_forward(tw.lora_merge(full, run), run, ids).data,
    )


def test_lora_gradients_through_merge():
    """Stage 3's gradients: through `lora_merge` and the forward of the
    merged weights, finite differences of a scalar match backward for every
    adapter A and B (B nonzero), at criterion 1's tolerance; the frozen
    base gets no gradient."""
    rng = np.random.default_rng(0)
    run = RunConfig(layers=1, model_dim=8, heads=2, ffn_dim=16, lora_rank=2, lora_alpha=4.0)
    params = tw.init_text_tower(run, 30, rng)
    params.update(tw.init_lora(params, run, rng))
    # larger weights than at init keep layer norm's inputs away from zero
    # variance, where its curvature would swamp the central differences
    for name, p in params.items():
        if p.data.ndim == 2:
            std = 0.1 if name.startswith("lora.") else 0.3
            p.data = rng.normal(0, std, p.shape).astype(np.float32)
    tw.set_trainable(params, lambda n: n.startswith("lora."))
    ids = rng.integers(7, 30, size=(2, 5))
    weights = Tensor(rng.normal(size=(2, 5, run.model_dim)).astype(np.float32))

    def value():
        return sum_(mul(tw.text_forward(tw.lora_merge(params, run), run, ids), weights))

    backward(value())
    adapters = [n for n in params if n.startswith("lora.")]
    assert len(adapters) == 2 * len(tw.LORA_TARGETS)
    for name in adapters:
        x0 = params[name].data.copy()

        def f(v, name=name):
            params[name].data = v.astype(np.float32)
            return float(value().data)

        numeric = finite_difference(f, x0.astype(np.float64), h=1e-2)
        params[name].data = x0
        assert rel_error(params[name].grad, numeric) <= 1e-3, name
    assert all(p.grad is None for n, p in params.items() if n.startswith("text."))


# ---------------------------------------------------------------------------
# vision tower and projection
# ---------------------------------------------------------------------------


def test_patchify_shape():
    imgs = np.arange(2 * 64 * 64, dtype=np.float32).reshape(2, 64, 64)
    patches = tw.patchify(imgs, 8)
    assert patches.shape == (2, 64, 64)
    np.testing.assert_array_equal(patches[0, 0], imgs[0, :8, :8].reshape(-1))


def test_vision_forward_deterministic(vparams):
    img = np.random.default_rng(2).random((1, 64, 64)).astype(np.float32)
    a = tw.vision_forward(vparams, images=img).data
    b = tw.vision_forward(vparams, images=img).data
    np.testing.assert_array_equal(a, b)
    assert a.shape == (1, 64)


def test_vision_zone_perturbation_changes_embedding(vparams):
    img = np.zeros((1, 64, 64), dtype=np.float32)
    other = img.copy()
    other[0, 5:20, 5:20] = 1.0
    a = tw.vision_forward(vparams, images=img).data
    b = tw.vision_forward(vparams, images=other).data
    assert not np.allclose(a, b)


def test_vision_size_mismatch_rejected(vparams):
    with pytest.raises(ShapeError):
        tw.vision_forward(vparams, images=np.zeros((1, 32, 32), dtype=np.float32))


def test_project_unit_norm_and_scale_invariant(rng):
    head = Tensor(rng.normal(size=(64, 16)).astype(np.float32))
    x = Tensor(rng.normal(size=(3, 64)).astype(np.float32))
    out = tw.project(x, head)
    np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-6)
    scaled = tw.project(Tensor(x.data * 5.0), head)
    np.testing.assert_allclose(out.data, scaled.data, atol=1e-5)


def test_project_orthogonality_through_identity(rng):
    head = Tensor(np.eye(4, dtype=np.float32))
    x = Tensor(np.array([[2.0, 0, 0, 0], [0, 3.0, 0, 0]], dtype=np.float32))
    out = tw.project(x, head).data
    assert abs(out[0] @ out[1]) < 1e-6


# ---------------------------------------------------------------------------
# Frozen views
# ---------------------------------------------------------------------------


def test_frozen_views_share_memory_and_record_no_tape(params, vparams):
    view = tw.frozen(params)
    assert all(np.shares_memory(view[n].data, p.data) for n, p in params.items())
    assert not any(v.requires_grad for v in view.values())
    ids = np.concatenate([seq_ids(10, 11, 12), seq_ids(13, 14, 15)])
    hidden = tw.text_forward(view, RUN, ids)
    pooled = tw.pool(view, hidden, tw.eligible_mask(ids, [(0, 0), (0, 0)]), "latent")
    images = np.random.default_rng(2).random((2, 64, 64)).astype(np.float32)
    vision = tw.vision_forward(tw.frozen(vparams), images=images)
    for out in (hidden, pooled, vision):
        assert out._parents == () and not out.requires_grad
    # the same forward over the trainable parameters does record a tape
    assert tw.text_forward(params, RUN, ids)._parents


def test_frozen_forward_still_rejects_non_finite_weights(params):
    bad = {n: Tensor(p.data.copy()) for n, p in params.items()}
    bad["text.l0.wq"].data[0, 0] = np.nan
    with pytest.raises(NonFiniteError):
        tw.text_forward(tw.frozen(bad), RUN, seq_ids(10, 11, 12))
