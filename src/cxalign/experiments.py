"""Canned end-to-end experiments: the smoke run and the paired ablations.

These are plain functions so both the acceptance suite and the scripts in
scripts/ can call them; every run is fully determined by (n, seed, config).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import replace

from .evals import (
    DualEncoder,
    EmbeddingIndex,
    TextEncoder,
    hash_embeddings,
    multimodal_eval,
    recall_at_k,
    retrieve_topk,
    task1_prior_omitted,
    task3_error_discrimination,
)
from .grammar.corpus import generate_corpus
from .pipeline import (
    RunConfig,
    split_corpus,
    train_clip,
    train_contrastive,
    train_mntp,
)


def run_smoke(n: int = 2000, seed: int = 4096, run: RunConfig | None = None) -> dict:
    """Full 3-stage pipeline on a fresh corpus; returns held-out metrics
    plus stage results for further inspection."""
    t0 = time.time()
    run = run or RunConfig()
    studies = generate_corpus(n, seed=seed)
    train, val = split_corpus(studies)
    r1 = train_mntp(studies, run)
    r2 = train_contrastive(studies, run, init=r1)
    r3 = train_clip(studies, run, text_init=r2)
    enc = TextEncoder(r2)
    denc = DualEncoder(r3)
    metrics = {
        "task1": task1_prior_omitted(enc, val),
        "task3": task3_error_discrimination(enc, val),
        "multimodal": multimodal_eval(denc, val, train),
        "pool_size": len(val),
        "minutes": (time.time() - t0) / 60.0,
    }
    return {"metrics": metrics, "stages": (r1, r2, r3), "splits": (train, val)}


def ablation_mask_mode(n: int = 500, seed: int = 4096) -> dict:
    """Paired MNTP runs: bidirectional vs. causal validation loss at equal
    budget."""
    studies = generate_corpus(n, seed=seed)
    out = {}
    for mode in ("bidirectional", "causal"):
        run = RunConfig(mask_mode=mode)
        out[mode] = train_mntp(studies, run).final_val_loss()
    return out


def ablation_mntp_init(n: int = 500, seed: int = 4096) -> dict:
    """Paired contrastive runs: MNTP-initialized vs. cold start, scored by
    held-out Task 1 recall@1."""
    studies = generate_corpus(n, seed=seed)
    _, val = split_corpus(studies)
    run = RunConfig()
    warm = train_contrastive(studies, run, init=train_mntp(studies, run))
    cold = train_contrastive(studies, run, init=None)
    return {
        "mntp_init": task1_prior_omitted(TextEncoder(warm), val)["recall@1"],
        "cold_start": task1_prior_omitted(TextEncoder(cold), val)["recall@1"],
    }


def mixed_section_of(study_id: str) -> str:
    """Half the corpus pairs its image with the impression only (by id
    hash), emulating a findings+impression-only mixture."""
    h = int.from_bytes(hashlib.sha256(study_id.encode()).digest()[4:8], "big")
    return "impression" if h % 2 else "findings"


def ablation_section_aware(n: int = 500, seed: int = 4096, epochs_clip: int = 6) -> dict:
    """Paired stage-3 runs on a mixed corpus, compared on image→report
    recall@1 over impression-only held-out queries."""
    studies = generate_corpus(n, seed=seed)
    train, val = split_corpus(studies)
    base_run = RunConfig(epochs_clip=epochs_clip)
    r2 = train_contrastive(studies, base_run, init=train_mntp(studies, base_run))
    val_imp = [s for s in val if mixed_section_of(s.study_id) == "impression"]
    out = {}
    for aware in (True, False):
        run = replace(base_run, section_aware=aware)
        r3 = train_clip(studies, run, text_init=r2, section_of=mixed_section_of)
        key = "section_aware" if aware else "non_sectioned"
        out[key] = multimodal_eval(DualEncoder(r3), val_imp, [], section="impression")["recall@1"]
    return out


def random_baseline_recall(studies, k: int = 1) -> float:
    """Recall@k of hash-seeded random embeddings over the given pool."""
    ids = [s.study_id for s in studies]
    q = EmbeddingIndex(ids, hash_embeddings([s.study_id + "/q" for s in studies], salt="base"))
    p = EmbeddingIndex(ids, hash_embeddings([s.study_id + "/p" for s in studies], salt="base"))
    return recall_at_k(retrieve_topk(q, p, k), ids, ks=(k,))[f"recall@{k}"]
