"""The two encoders: a decoder-style text transformer with rotary positions
(RoFormer, Su et al., 2021), a causal / bidirectional mask toggle, LoRA
adapters and mean / latent-attention pooling, plus a patch-based vision
transformer with learned absolute positions and projection heads.

Parameters live in flat name -> Tensor dicts so freezing regimes and
checkpoints are just name-prefix games. The text tower's settings come from
`pipeline.RunConfig`, the one place they are written: `init_text_tower`
reads its sizes there, and `text_forward` reads `heads`, `mask_mode` and
`max_len`. Every shape a parameter array holds (vocabulary size, width,
layer count, LoRA rank) is read from the arrays. LoRA has one path,
`lora_merge`: stage 3 trains through the merged weight that validation and
the encoders run, so no layer has an adapter branch.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .autodiff import (
    ShapeError,
    Tensor,
    add,
    affine_layer_norm,
    attention,
    concat,
    embedding,
    gelu,
    l2_normalize,
    linear,
    matmul,
    reshape,
    scale,
    softmax,
    take_rows,
    transpose,
)
from .grammar.image import CANVAS
from .tokenizer import PAD, SECTION_FINDINGS, SECTION_IMPRESSION, BOS, EOS

NEG_INF = -1e9


# rows of the latent-attention pooler's learned dictionary
LATENT_ROWS = 8

# the vision tower reads the grammar's whole canvas, in 8x8 patches
IMAGE_SIZE = CANVAS
PATCH_SIZE = 8
N_PATCHES = (IMAGE_SIZE // PATCH_SIZE) ** 2
VISION_LAYERS = 2
VISION_DIM = 64
VISION_HEADS = 4
VISION_FFN_DIM = 256


def _param(rng, shape, std=0.02):
    return Tensor(rng.normal(0.0, std, shape).astype(np.float32), requires_grad=True)


def _zeros(shape):
    return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=True)


def _ones(shape):
    return Tensor(np.ones(shape, dtype=np.float32), requires_grad=True)


def _init_block(params, prefix, d, f, rng):
    for w in ("wq", "wk", "wv", "wo"):
        params[f"{prefix}.{w}"] = _param(rng, (d, d))
        params[f"{prefix}.b{w[1]}"] = _zeros((d,))
    params[f"{prefix}.w1"] = _param(rng, (d, f))
    params[f"{prefix}.b1"] = _zeros((f,))
    params[f"{prefix}.w2"] = _param(rng, (f, d))
    params[f"{prefix}.b2"] = _zeros((d,))
    for ln in ("ln1", "ln2"):
        params[f"{prefix}.{ln}g"] = _ones((d,))
        params[f"{prefix}.{ln}b"] = _zeros((d,))


def init_text_tower(run, vocab_size: int, rng: np.random.Generator) -> dict:
    """A text tower of `run`'s sizes (a `pipeline.RunConfig`) over a
    vocabulary of `vocab_size` tokens."""
    d = run.model_dim
    params = {
        "text.tok_emb": _param(rng, (vocab_size, d)),
        "text.lnfg": _ones((d,)),
        "text.lnfb": _zeros((d,)),
        "pool.latent": _param(rng, (LATENT_ROWS, d)),
        "pool.w1": _param(rng, (d, d)),
        "pool.b1": _zeros((d,)),
        "pool.w2": _param(rng, (d, d)),
        "pool.b2": _zeros((d,)),
        "mntp.w": _param(rng, (d, vocab_size)),
        "mntp.b": _zeros((vocab_size,)),
    }
    for i in range(run.layers):
        _init_block(params, f"text.l{i}", d, run.ffn_dim, rng)
    return params


def init_vision_tower(rng: np.random.Generator) -> dict:
    d = VISION_DIM
    params = {
        "vision.patch_w": _param(rng, (PATCH_SIZE * PATCH_SIZE, d)),
        "vision.patch_b": _zeros((d,)),
        "vision.cls": _param(rng, (1, 1, d)),
        "vision.pos_emb": _param(rng, (N_PATCHES + 1, d), std=0.01),
        "vision.lnfg": _ones((d,)),
        "vision.lnfb": _zeros((d,)),
    }
    for i in range(VISION_LAYERS):
        _init_block(params, f"vision.l{i}", d, VISION_FFN_DIM, rng)
    return params


def init_projection(name: str, in_dim: int, out_dim: int, rng) -> dict:
    """Projection head: learnable centering vector followed by a linear map.

    `mu` starts at zero (inert); the alignment stage re-initializes it to the
    mean tower feature so the heads start decorrelated — random towers emit
    one dominant shared direction, and without centering the cosine matrix
    starts near-collapsed where the contrastive gradient vanishes.
    """
    return {
        f"{name}.w": _param(rng, (in_dim, out_dim)),
        f"{name}.mu": _zeros((in_dim,)),
    }


LORA_TARGETS = ("wq", "wk", "wv", "wo", "w1", "w2")


def init_lora(params: dict, run, rng) -> dict:
    """Rank-`run.lora_rank` adapter pair per adapted weight of the text tower
    in `params`; B starts at zero so the adapted forward initially equals
    the base forward."""
    out = {}
    for i in range(_layer_count(params, "text")):
        for w in LORA_TARGETS:
            base = f"text.l{i}.{w}"
            in_dim, out_dim = params[base].shape
            out[f"lora.{base}.A"] = _param(rng, (in_dim, run.lora_rank))
            out[f"lora.{base}.B"] = _zeros((run.lora_rank, out_dim))
    return out


def lora_merge(params: dict, run) -> dict:
    """Fold adapters into base weights: W + (alpha/r) * A @ B, with alpha
    from `run` and the rank r read from A, from autodiff primitives, so
    trainable adapters get gradients and frozen ones no tape."""
    merged = {}
    for name, p in params.items():
        if name.startswith("lora."):
            continue
        a_key, b_key = f"lora.{name}.A", f"lora.{name}.B"
        if a_key in params:
            a, b = params[a_key], params[b_key]
            if a.shape[0] != p.shape[0] or b.shape[1] != p.shape[1]:
                raise ShapeError(f"adapter shape mismatch for {name}")
            merged[name] = add(p, scale(matmul(a, b), run.lora_alpha / a.shape[1]))
        else:
            merged[name] = p
    return merged


def _linear(params, name, x):
    prefix, w = name.rsplit(".", 1)
    return linear(x, params[name], params[f"{prefix}.b{w[1]}"])


@lru_cache(maxsize=None)
def rotary_tables(T: int, dh: int) -> tuple:
    """(T, dh) cosines and sines of the rotary angles t * 10000**(-2i/dh)."""
    freqs = 10000.0 ** (-np.arange(0, dh, 2, dtype=np.float64) / dh)
    angles = np.outer(np.arange(T), freqs)
    angles = np.concatenate([angles, angles], axis=1)
    return np.cos(angles).astype(np.float32), np.sin(angles).astype(np.float32)


def _attention(params, prefix, x, bias, heads, rope):
    q = _linear(params, f"{prefix}.wq", x)
    k = _linear(params, f"{prefix}.wk", x)
    v = _linear(params, f"{prefix}.wv", x)
    cos, sin = rotary_tables(x.shape[1], x.shape[2] // heads) if rope else (None, None)
    ctx = attention(q, k, v, heads, cos, sin, bias)
    return _linear(params, f"{prefix}.wo", ctx)


def _ffn(params, prefix, x):
    h = gelu(_linear(params, f"{prefix}.w1", x))
    return _linear(params, f"{prefix}.w2", h)


def _affine_ln(params, prefix, x):
    return affine_layer_norm(x, params[f"{prefix}g"], params[f"{prefix}b"])


def _layer_count(params, tower) -> int:
    """Blocks of `tower` in `params`, by key lookups: one per block."""
    n = 0
    while f"{tower}.l{n}.wq" in params:
        n += 1
    return n


def _blocks(params, tower, x, bias, heads, rope=False):
    for i in range(_layer_count(params, tower)):
        prefix = f"{tower}.l{i}"
        x = add(x, _attention(params, prefix, _affine_ln(params, f"{prefix}.ln1", x), bias, heads, rope))
        x = add(x, _ffn(params, prefix, _affine_ln(params, f"{prefix}.ln2", x)))
    return _affine_ln(params, f"{tower}.lnf", x)


def attention_bias(ids: np.ndarray, mode: str) -> np.ndarray | None:
    """Additive (B, 1, T, T) bias: PAD keys masked; causal adds a future ban.
    None when nothing is masked (bidirectional, no PAD key), so attention
    adds nothing."""
    B, T = ids.shape
    pad_keys = ids == PAD
    if mode != "causal" and not pad_keys.any():
        return None
    bias = np.zeros((B, 1, T, T), dtype=np.float32)
    bias[pad_keys[:, None, None, :].repeat(T, axis=2)] = NEG_INF
    if mode == "causal":
        future = np.triu(np.ones((T, T), dtype=bool), k=1)
        bias[:, :, future] = NEG_INF
    return bias


def text_forward(params: dict, run, ids: np.ndarray) -> Tensor:
    """(B, T, d) hidden states. Token embeddings carry no position; each
    attention layer rotates queries and keys by their position, so scores
    depend only on the offset between query and key.

    `run` (a `pipeline.RunConfig`) supplies `heads`, `mask_mode` and
    `max_len`; every shape comes from `params`. Adapters in `params` are
    not applied: fold them first with `lora_merge`. `ids` stays the third
    positional argument: `perfbench/tracer.py` counts a call's tokens from
    `kwargs["ids"]` or else `args[2]`."""
    ids = np.asarray(ids, dtype=np.int64)
    B, T = ids.shape
    if T > run.max_len:
        raise ShapeError(f"sequence length {T} exceeds max_len {run.max_len}")
    x = embedding(params["text.tok_emb"], ids)
    bias = attention_bias(ids, run.mask_mode)
    return _blocks(params, "text", x, bias, run.heads, rope=True)


def eligible_mask(ids: np.ndarray, instruction_spans) -> np.ndarray:
    """Positions that may contribute to pooling: content tokens only."""
    ids = np.asarray(ids)
    elig = ~np.isin(ids, (PAD, BOS, EOS, SECTION_FINDINGS, SECTION_IMPRESSION))
    for b, (lo, hi) in enumerate(instruction_spans):
        elig[b, lo:hi] = False
    return elig


def pool(params: dict, hidden: Tensor, elig: np.ndarray, mode: str) -> Tensor:
    """Mean or latent-attention pooling over eligible positions."""
    B, T, d = hidden.shape
    counts = elig.sum(axis=1)
    if np.any(counts == 0):
        raise ValueError("pooling: a sequence has no eligible positions")
    weights = (elig / counts[:, None]).astype(np.float32)[:, None, :]  # (B,1,T)
    if mode == "mean":
        pooled = reshape(matmul(Tensor(weights), hidden), (B, d))
        return pooled
    if mode != "latent":
        raise ValueError(f"unknown pooling mode {mode!r}")
    lat = params["pool.latent"]  # (r, d)
    scores = scale(matmul(hidden, transpose(lat, (1, 0))), 1.0 / math.sqrt(d))
    ctx = matmul(softmax(scores), lat)  # (B,T,d)
    h = gelu(linear(ctx, params["pool.w1"], params["pool.b1"]))
    h = linear(h, params["pool.w2"], params["pool.b2"])
    return reshape(matmul(Tensor(weights), h), (B, d))


def patchify(images: np.ndarray, patch: int) -> np.ndarray:
    B, H, W = images.shape
    g = H // patch
    x = images.reshape(B, g, patch, g, patch).transpose(0, 1, 3, 2, 4)
    return x.reshape(B, g * g, patch * patch).astype(np.float32)


def vision_forward(params: dict, images: np.ndarray) -> Tensor:
    """(B, d) image embeddings. Call sites pass `images=` by keyword:
    `perfbench/tracer.py` counts a call's images from that keyword."""
    images = np.asarray(images, dtype=np.float32)
    if images.shape[1:] != (IMAGE_SIZE, IMAGE_SIZE):
        raise ShapeError(f"image shape {images.shape[1:]} != ({IMAGE_SIZE}, {IMAGE_SIZE})")
    B = images.shape[0]
    patches = patchify(images, PATCH_SIZE)
    x = linear(patches, params["vision.patch_w"], params["vision.patch_b"])
    cls = add(Tensor(np.zeros((B, 1, VISION_DIM), dtype=np.float32)), params["vision.cls"])
    x = concat([cls, x], axis=1)
    T = N_PATCHES + 1
    x = add(x, take_rows(params["vision.pos_emb"], np.arange(T)))
    h = _blocks(params, "vision", x, None, VISION_HEADS)
    # readout: the mean over all T tokens, the cls token included
    weights = np.full((B, 1, T), 1.0 / T, dtype=np.float32)
    return reshape(matmul(Tensor(weights), h), (B, VISION_DIM))


def project(emb: Tensor, head_w: Tensor, mu: Tensor | None = None) -> Tensor:
    """Center (optional), map into the shared space, and L2-normalize
    (inner products become cosines)."""
    if emb.shape[-1] != head_w.shape[0]:
        raise ShapeError(f"project: {emb.shape} vs head {head_w.shape}")
    if mu is not None:
        emb = add(emb, scale(mu, -1.0))
    return l2_normalize(matmul(emb, head_w))


def trainable_names(params: dict) -> list:
    return sorted(n for n, p in params.items() if p.requires_grad)


def frozen(params: dict) -> dict:
    """Gradient-free views of `params` for forwards that are never
    differentiated: each view wraps the same array (no copy) with
    `requires_grad=False`, so no primitive records a tape entry."""
    return {name: Tensor(p.data) for name, p in params.items()}


def set_trainable(params: dict, predicate) -> None:
    for name, p in params.items():
        p.requires_grad = bool(predicate(name))
