"""The three losses (masked-token pretraining, instruction-based supervised
contrastive, symmetric image-text contrastive) and contrastive pair
construction from a generated corpus."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    ShapeError,
    Tensor,
    add,
    cross_entropy,
    embedding,
    exp,
    minimum_const,
    matmul,
    mul,
    reshape,
    scale,
    transpose,
)
from .grammar.render import finding_status, status_sentence

TAU_MIN = 0.01
TAU_INIT = 0.07

INSTR_SIMILAR = "Retrieve semantically similar sentences."
INSTR_SUMMARIZE = "Summarize the CXR report."
INSTR_STATUS = "Determine the change or status of the {finding}."
INSTR_IMAGE = "Retrieve the image that best matches the following report for the {section} section."


def init_log_tau() -> Tensor:
    """Learnable temperature, stored as log-temperature, starting at 0.07."""
    return Tensor(np.array([math.log(TAU_INIT)], dtype=np.float32), requires_grad=True)


def inverse_tau(log_tau) -> Tensor:
    """1/tau with tau clamped to >= TAU_MIN (gradient stops when clamped),
    in float32 for a float log-temperature too."""
    if isinstance(log_tau, (int, float)):
        log_tau = Tensor(np.array([log_tau], dtype=np.float32))
    return minimum_const(exp(scale(log_tau, -1.0)), 1.0 / TAU_MIN)


def mntp_loss(logits: Tensor, targets, mask_positions) -> Tensor:
    """Mean cross entropy over masked positions of (B, T, V) logits.

    `mask_positions` holds flat (batch, pos) pairs. A masked token's
    prediction is read at position pos - 1, the next-token convention that
    LLM2Vec keeps, so no masked position may be 0.
    """
    mask_positions = list(mask_positions)
    if not mask_positions:
        raise ValueError("mntp_loss: empty mask set")
    B, T, V = logits.shape
    rows = []
    for b, pos in mask_positions:
        if pos < 1:
            raise ValueError("mntp_loss: shifted read position before sequence start")
        rows.append(b * T + pos - 1)
    flat = reshape(logits, (B * T, V))
    picked = embedding(flat, np.asarray(rows, dtype=np.int64))
    return cross_entropy(picked, np.asarray(targets, dtype=np.int64))


def supcon_loss(anchor_emb: Tensor, positive_emb: Tensor, labels, tau: float = TAU_INIT) -> Tensor:
    """One-directional InfoNCE; candidates sharing the anchor's oracle label
    set are removed from the denominator (neither positive nor negative)."""
    n = anchor_emb.shape[0]
    if n < 2:
        raise ValueError("supcon_loss: need a batch of at least 2")
    if positive_emb.shape != anchor_emb.shape:
        raise ShapeError(f"supcon_loss: {anchor_emb.shape} vs {positive_emb.shape}")
    labels = list(labels)
    if len(labels) != n:
        raise ShapeError("supcon_loss: one label per anchor required")
    mask = np.zeros((n, n), dtype=np.float32)
    for i in range(n):
        for j in range(n):
            if i != j and labels[i] == labels[j]:
                mask[i, j] = -1e9
    logits = add(scale(matmul(anchor_emb, transpose(positive_emb, (1, 0))), 1.0 / tau), Tensor(mask))
    return cross_entropy(logits, np.arange(n))


def clip_loss(v_emb: Tensor, t_emb: Tensor, log_tau) -> Tensor:
    """Symmetric contrastive objective: mean of image->text and text->image
    cross entropies over the similarity matrix divided by tau."""
    if v_emb.shape[0] == 0:
        raise ValueError("clip_loss: empty batch")
    if v_emb.shape != t_emb.shape:
        raise ShapeError(f"clip_loss: {v_emb.shape} vs {t_emb.shape}")
    n = v_emb.shape[0]
    inv = inverse_tau(log_tau)
    sims = matmul(v_emb, transpose(t_emb, (1, 0)))
    logits = mul(sims, inv)
    targets = np.arange(n)
    i2t = cross_entropy(logits, targets)
    t2i = cross_entropy(transpose(logits, (1, 0)), targets)
    return scale(add(i2t, t2i), 0.5)


@dataclass(frozen=True)
class ContrastivePair:
    anchor_text: str
    instruction: str
    positive_text: str
    relation: str  # similar | summarize | status
    label_key: object


def build_contrastive_pairs(studies, rng: np.random.Generator) -> list:
    """Instruction-tagged (anchor, positive) pairs from a rendered corpus.

    Relation (i) pairs a report with one of its variants (including the
    abbreviated form), (ii) pairs findings with impression, (iii) pairs the
    report with a canonical status sentence for one of its findings.
    """
    pairs = []
    for s in studies:
        key = s.latent.label_set()
        variant = ["paraphrase", "split", "prior_omitted", "partitioned", "abbreviated"][
            int(rng.integers(5))
        ]
        text = s.variants[variant]
        if text != s.findings_text:
            pairs.append(ContrastivePair(s.findings_text, INSTR_SIMILAR, text, "similar", key))
        pairs.append(
            ContrastivePair(s.findings_text, INSTR_SUMMARIZE, s.impression_text, "summarize", key)
        )
        if s.latent.findings:
            f = s.latent.findings[int(rng.integers(len(s.latent.findings)))]
            status = finding_status(f)
            pairs.append(
                ContrastivePair(
                    s.findings_text,
                    INSTR_STATUS.format(finding=f.kind.replace("_", " ")),
                    status_sentence(f.kind, status),
                    "status",
                    ("status", f.kind, status),
                )
            )
    order = rng.permutation(len(pairs))
    return [pairs[i] for i in order]


DEFAULT_VARIANT_MIX = {
    # Proportions of the report-variant pool used for masked pretraining.
    "original": 0.29,
    "split": 0.16,
    "prior_omitted": 0.15,
    "partitioned": 0.16,
    "similar": 0.24,
}


def mntp_text_pool(studies) -> list:
    """Texts for masked pretraining, allocated by the `DEFAULT_VARIANT_MIX`
    proportions (largest remainder), plus every impression and abbreviated
    form."""
    mix = DEFAULT_VARIANT_MIX
    total = sum(mix.values())
    n = len(studies)
    source = {
        "original": lambda s: s.findings_text,
        "split": lambda s: s.variants["split"],
        "prior_omitted": lambda s: s.variants["prior_omitted"],
        "partitioned": lambda s: s.variants["partitioned"],
        "similar": lambda s: s.variants["paraphrase"],
    }
    budget = n * len(mix)
    quotas = {k: budget * v / total for k, v in mix.items()}
    counts = {k: int(q) for k, q in quotas.items()}
    remainders = sorted(mix, key=lambda k: quotas[k] - counts[k], reverse=True)
    short = budget - sum(counts.values())
    for k in remainders[:short]:
        counts[k] += 1
    texts = []
    for k, getter in source.items():
        for s in studies[: min(counts[k], n)]:
            texts.append(getter(s))
        # wrap around when the quota exceeds the corpus size
        extra = counts[k] - n
        for s in studies[: max(extra, 0)]:
            texts.append(getter(s))
    for s in studies:
        texts.append(s.impression_text)
        texts.append(s.variants["abbreviated"])
    return texts
