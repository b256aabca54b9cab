"""Dual towers: masking semantics, pooling, LoRA equivalences, projection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import finite_difference, rel_error
from cxalign.autodiff import NonFiniteError, ShapeError, Tensor, backward, mul, sum_
from cxalign.tokenizer import BOS, EOS, PAD
from cxalign import towers as tw


CFG = tw.TextTowerConfig(vocab_size=50, dropout=0.0)
VCFG = tw.VisionTowerConfig(dropout=0.0)


@pytest.fixture(scope="module")
def params():
    return tw.init_text_tower(CFG, np.random.default_rng(0))


@pytest.fixture(scope="module")
def vparams():
    return tw.init_vision_tower(VCFG, np.random.default_rng(1))


def seq_ids(*tokens):
    return np.array([[BOS, *tokens, EOS]], dtype=np.int64)


def test_default_tower_configs_train_without_dropout():
    """A tower config built directly asks for no dropout, like `RunConfig`."""
    cfg = tw.TextTowerConfig(vocab_size=50)
    params = tw.init_text_tower(cfg, np.random.default_rng(0))
    ids = seq_ids(10, 11, 12, 13)
    trained = tw.text_forward(params, cfg, ids, train=True, rng=np.random.default_rng(1))
    np.testing.assert_array_equal(trained.data, tw.text_forward(params, cfg, ids).data)
    vcfg = tw.VisionTowerConfig()
    vparams = tw.init_vision_tower(vcfg, np.random.default_rng(2))
    img = np.random.default_rng(3).random((1, 64, 64)).astype(np.float32)
    trained = tw.vision_forward(vparams, vcfg, img, train=True, rng=np.random.default_rng(1))
    np.testing.assert_array_equal(trained.data, tw.vision_forward(vparams, vcfg, img).data)


def test_causal_position_invariant_to_future(params):
    a = seq_ids(10, 11, 12, 13)
    b = a.copy()
    b[0, 3] = 20  # change a later token
    ha = tw.text_forward(params, CFG, a, mode="causal").data
    hb = tw.text_forward(params, CFG, b, mode="causal").data
    np.testing.assert_allclose(ha[0, :3], hb[0, :3], atol=1e-6)
    assert not np.allclose(ha[0, 3], hb[0, 3])


def test_bidirectional_sees_future(params):
    a = seq_ids(10, 11, 12, 13)
    b = a.copy()
    b[0, 3] = 20
    ha = tw.text_forward(params, CFG, a, mode="bidirectional").data
    hb = tw.text_forward(params, CFG, b, mode="bidirectional").data
    assert not np.allclose(ha[0, 1], hb[0, 1])


def test_pad_positions_do_not_affect_content(params):
    a = seq_ids(10, 11)
    padded = np.concatenate([a, np.full((1, 3), PAD, dtype=np.int64)], axis=1)
    ha = tw.text_forward(params, CFG, a).data
    hb = tw.text_forward(params, CFG, padded).data
    np.testing.assert_allclose(ha[0], hb[0, : a.shape[1]], atol=1e-5)


def test_mask_mode_toggle_preserves_census(params):
    ids = seq_ids(7, 8, 9)
    before = {n: p.shape for n, p in params.items()}
    tw.text_forward(params, CFG, ids, mode="causal")
    tw.text_forward(params, CFG, ids, mode="bidirectional")
    assert {n: p.shape for n, p in params.items()} == before


def test_out_of_range_id_rejected(params):
    with pytest.raises(ShapeError):
        tw.text_forward(params, CFG, seq_ids(CFG.vocab_size))


def test_too_long_sequence_rejected(params):
    ids = np.full((1, CFG.max_len + 1), 10, dtype=np.int64)
    with pytest.raises(ShapeError):
        tw.text_forward(params, CFG, ids)


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
    cfg = tw.TextTowerConfig(vocab_size=50, latent_rows=1, dropout=0.0)
    params = tw.init_text_tower(cfg, np.random.default_rng(5))
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
    cfg = tw.TextTowerConfig(vocab_size=30, layers=int(rng.integers(1, 3)), dropout=0.0)
    lcfg = tw.LoraConfig(rank=int(rng.integers(1, 17)), dropout=0.0)
    params = tw.init_text_tower(cfg, rng)
    adapters = tw.init_lora(params, cfg, lcfg, rng)
    params.update(adapters)
    ids = rng.integers(7, 30, size=(2, 6))
    base = tw.text_forward(params, cfg, ids, lora=None).data
    with_zero_b = tw.text_forward(params, cfg, ids, lora=lcfg).data
    np.testing.assert_array_equal(base, with_zero_b)

    # train-like perturbation of B, then merge
    for name in adapters:
        if name.endswith(".B"):
            params[name].data += rng.normal(0, 0.02, params[name].shape).astype(np.float32)
    adapted = tw.text_forward(params, cfg, ids, lora=lcfg).data
    merged = tw.lora_merge(params, lcfg)
    merged_out = tw.text_forward(merged, cfg, ids, lora=None).data
    assert np.abs(adapted - merged_out).max() <= 1e-5


def test_lora_alpha_zero_inert(params):
    lcfg = tw.LoraConfig(alpha=0.0, dropout=0.0)
    rng = np.random.default_rng(8)
    adapters = tw.init_lora(params, CFG, lcfg, rng)
    full = dict(params)
    full.update(adapters)
    for name in adapters:
        full[name].data += rng.normal(0, 0.5, full[name].shape).astype(np.float32)
    ids = seq_ids(10, 11, 12)
    np.testing.assert_array_equal(
        tw.text_forward(params, CFG, ids).data, tw.text_forward(full, CFG, ids, lora=lcfg).data
    )


def test_lora_gradients_through_merge():
    """Stage 3's gradients: through `text_forward(..., lora=)`, which merges
    at entry, finite differences of a scalar match backward for every
    adapter A and B (B nonzero), at criterion 1's tolerance; the frozen
    base gets no gradient."""
    rng = np.random.default_rng(0)
    cfg = tw.TextTowerConfig(vocab_size=30, layers=1, model_dim=8, heads=2, ffn_dim=16, dropout=0.0)
    lcfg = tw.LoraConfig(rank=2, alpha=4.0)
    params = tw.init_text_tower(cfg, rng)
    params.update(tw.init_lora(params, cfg, lcfg, rng))
    # larger weights than at init keep layer norm's inputs away from zero
    # variance, where its curvature would swamp the central differences
    for name, p in params.items():
        if p.data.ndim == 2:
            std = 0.1 if name.startswith("lora.") else 0.3
            p.data = rng.normal(0, std, p.shape).astype(np.float32)
    tw.set_trainable(params, lambda n: n.startswith("lora."))
    ids = rng.integers(7, 30, size=(2, 5))
    weights = Tensor(rng.normal(size=(2, 5, cfg.model_dim)).astype(np.float32))

    def value():
        return sum_(mul(tw.text_forward(params, cfg, ids, lora=lcfg), weights))

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


def test_lora_dropout_rejected():
    with pytest.raises(ValueError, match="dropout"):
        tw.LoraConfig(dropout=0.1)
    assert tw.LoraConfig(dropout=0.0).dropout == 0.0


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
    a = tw.vision_forward(vparams, VCFG, img).data
    b = tw.vision_forward(vparams, VCFG, img).data
    np.testing.assert_array_equal(a, b)
    assert a.shape == (1, 64)


def test_vision_zone_perturbation_changes_embedding(vparams):
    img = np.zeros((1, 64, 64), dtype=np.float32)
    other = img.copy()
    other[0, 5:20, 5:20] = 1.0
    a = tw.vision_forward(vparams, VCFG, img).data
    b = tw.vision_forward(vparams, VCFG, other).data
    assert not np.allclose(a, b)


def test_vision_size_mismatch_rejected(vparams):
    with pytest.raises(ShapeError):
        tw.vision_forward(vparams, VCFG, np.zeros((1, 32, 32), dtype=np.float32))


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
    hidden = tw.text_forward(view, CFG, ids)
    pooled = tw.pool(view, hidden, tw.eligible_mask(ids, [(0, 0), (0, 0)]), "latent")
    images = np.random.default_rng(2).random((2, 64, 64)).astype(np.float32)
    vision = tw.vision_forward(tw.frozen(vparams), VCFG, images)
    for out in (hidden, pooled, vision):
        assert out._parents == () and not out.requires_grad
    # the same forward over the trainable parameters does record a tape
    assert tw.text_forward(params, CFG, ids)._parents


def test_frozen_forward_still_rejects_non_finite_weights(params):
    bad = {n: Tensor(p.data.copy()) for n, p in params.items()}
    bad["text.l0.wq"].data[0, 0] = np.nan
    with pytest.raises(NonFiniteError):
        tw.text_forward(tw.frozen(bad), CFG, seq_ids(10, 11, 12))
