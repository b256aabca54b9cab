"""Unfused reference primitives: the ops the fused `attention`,
`affine_layer_norm` and `ffn` must reproduce bit for bit, plus a scalar sum
for building test losses. The program runs none of them, so they live with
the tests. Each is one graph node over autodiff's own math helpers, so a
reference and its fused op share every float operation; `unfused_attention`
chains them with autodiff's own primitives. `reserved_id_pool_mask` is the
pooling rule that the tokenizer's content ranges replaced."""

from __future__ import annotations

import numpy as np

from cxalign import autodiff as ad
from cxalign.autodiff import (
    Tensor,
    _as_tensor,
    _gelu_from_tanh,
    _gelu_grad,
    _gelu_tanh,
    _normalize,
    _normalize_grad,
    _rotate,
    _rotate_grad,
    _softmax_grad,
    _softmax_rows,
    _track,
)
from cxalign.tokenizer import BOS, EOS, PAD, SECTION_FINDINGS, SECTION_IMPRESSION, UNK


def sum_(a) -> Tensor:
    """Sum of every element, as a scalar."""
    a = _as_tensor(a)
    out = a.data.sum()
    sa = a.shape

    def bwd(g):
        return (np.broadcast_to(g, sa),)

    return _track(np.asarray(out, dtype=np.float32), (a,), bwd)


def softmax(a) -> Tensor:
    """Row softmax over the last axis (numerically stable)."""
    a = _as_tensor(a)
    out = _softmax_rows(a.data)

    def bwd(g):
        return (_softmax_grad(out, g),)

    return _track(out, (a,), bwd)


def layer_norm(a) -> Tensor:
    """Normalize the last axis to zero mean, unit variance (no affine)."""
    a = _as_tensor(a)
    out, inv = _normalize(a.data)

    def bwd(g):
        return (_normalize_grad(out, inv, g),)

    return _track(out, (a,), bwd)


def gelu(a) -> Tensor:
    """tanh approximation of GELU, 0.5 x (1 + tanh(c (x + a x^3)))."""
    a = _as_tensor(a)
    x = a.data
    t = _gelu_tanh(x)

    def bwd(g):
        return (_gelu_grad(x, t, g),)

    return _track(_gelu_from_tanh(x, t), (a,), bwd)


def rotary(a, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotary position embedding over the last axis, rotate-half layout:
    feature pairs (i, i + d/2) turn by the angles whose cosines and
    sign-folded sines (first half negated, as `towers.rotary_tables` gives
    them) are the constant arrays `cos` and `sin`, broadcastable to `a`."""
    a = _as_tensor(a)
    out = _rotate(a.data, cos, sin)

    def bwd(g):
        return (_rotate_grad(g, cos, sin),)

    return _track(out, (a,), bwd)


def unfused_attention(q, k, v, heads, cos=None, sin=None, bias=None) -> Tensor:
    """Multi-head attention over projected (B, T, d) queries, keys and
    values as a chain of primitives: head split, rotary, scaled and biased
    softmax, context product and head merge."""
    B, T, d = q.shape
    dh = d // heads

    def split(t):
        return ad.transpose(ad.reshape(t, (B, T, heads, dh)), (0, 2, 1, 3))

    q, k, v = split(q), split(k), split(v)
    if cos is not None:
        q, k = rotary(q, cos, sin), rotary(k, cos, sin)
    scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
    if bias is not None:
        scores = ad.add(scores, Tensor(bias))
    ctx = ad.matmul(softmax(scores), v)
    return ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (B, T, d))


# whether each reserved id 0..UNK may be pooled; every id above UNK is a word
_RESERVED_ELIGIBLE = ~np.isin(
    np.arange(UNK + 1), (PAD, BOS, EOS, SECTION_FINDINGS, SECTION_IMPRESSION)
)


def reserved_id_pool_mask(ids: np.ndarray, instruction_spans) -> np.ndarray:
    """(B, T) positions a reserved-id table lets pool (words, MASK and UNK),
    minus each row's half-open instruction span (lo, hi)."""
    elig = _RESERVED_ELIGIBLE[np.minimum(ids, UNK)]
    for b, (lo, hi) in enumerate(instruction_spans):
        elig[b, lo:hi] = False
    return elig
