"""Evaluation harness: the five text-only retrieval tasks, multimodal
retrieval, oracle label metrics, and the deterministic judge-ranking
protocol."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import concat, constant
from .grammar.labels import extract_labels
from .grammar.render import render_report
from .grammar.types import KINDS
from .objectives import INSTR_SUMMARIZE
from .pipeline import GROUP_ROWS, StageResult, clip_text_seq, encode_pooled, section_text
from .tokenizer import encode
from .towers import lora_merge, project, vision_forward

RECALL_KS = (1, 5, 10)


# ---------------------------------------------------------------------------
# Embedding indexes and retrieval
# ---------------------------------------------------------------------------


@dataclass
class EmbeddingIndex:
    ids: list
    matrix: np.ndarray  # (N, d), unit-norm rows
    modality: str = "text"

    id_rank: np.ndarray = field(init=False, repr=False)  # each id's place in sorted order

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float32)
        if len(self.ids) != self.matrix.shape[0]:
            raise ValueError("EmbeddingIndex: id count != row count")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("EmbeddingIndex: duplicate ids")
        # np.allclose's atol + rtol at 1.0, without its per-call cost; a NaN
        # norm fails the comparison
        norms = np.linalg.norm(self.matrix, axis=1)
        if self.matrix.size and not (np.abs(norms - 1.0) <= 2e-5).all():
            raise ValueError("EmbeddingIndex: rows must be unit-norm")
        self.id_rank = np.argsort(np.argsort(self.ids))

    def __len__(self):
        return len(self.ids)


def retrieve_topk(query_index: EmbeddingIndex, pool_index: EmbeddingIndex, k: int) -> list:
    """Top-k pool ids per query, by descending cosine; ties break toward the
    ascending id."""
    if query_index.matrix.shape[1] != pool_index.matrix.shape[1]:
        raise ValueError("retrieve_topk: dimension mismatch")
    if k > len(pool_index):
        raise ValueError(f"retrieve_topk: k={k} exceeds pool size {len(pool_index)}")
    sims = query_index.matrix @ pool_index.matrix.T
    results = []
    for row in sims:
        # lexsort's last key dominates: sort by -sim, then by id rank
        order = np.lexsort((pool_index.id_rank, -row))[:k]
        results.append([pool_index.ids[i] for i in order])
    return results


def recall_at_k(ranked: list, truth: list, ks=RECALL_KS) -> dict:
    out = {}
    for k in ks:
        hits = sum(1 for ids, t in zip(ranked, truth) if t in ids[:k])
        out[f"recall@{k}"] = hits / len(truth)
    return out


# ---------------------------------------------------------------------------
# Encoders
# ---------------------------------------------------------------------------


class TextEncoder:
    """Embeds texts with a trained text tower (no projection: text-only
    tasks compare reports in the tower's own pooled space).

    Inference is tape-free. The build scans a read-only copy of each of the
    result's arrays once (`autodiff.constant`): a NaN weight raises
    `NonFiniteError` there, and training the result further in place does
    not reach an encoder built before. Distinct texts run once each,
    batched by `pipeline.encode_pooled`'s length groups; rows come back in
    input order."""

    def __init__(self, result: StageResult):
        self.params = {}
        for name, p in result.params.items():
            a = p.data.copy()
            a.flags.writeable = False
            self.params[name] = constant(a, name)
        self.vocab = result.vocab
        self.run = result.config

    def embed(self, texts, instruction=None) -> np.ndarray:
        return self._embed([
            encode(t, self.vocab, instruction=instruction, max_len=self.run.max_len) for t in texts
        ])

    def _embed(self, seqs, head=None):
        """(N, d) rows for token sequences, in input order. `head` names the
        projection ("proj_text") that maps rows into the shared space;
        without one, pooled rows are L2-normalized."""
        dim = self.params[f"{head}.w"].shape[1] if head else self.run.model_dim
        if not seqs:
            return np.empty((0, dim), dtype=np.float32)
        # a repeated text runs once, so equal texts get equal rows whatever
        # padding their groups would have had
        unique = {}
        source = [unique.setdefault(tuple(s.ids), (len(unique), s))[0] for s in seqs]
        emb = encode_pooled(
            self.params, self.run, [s for _, s in unique.values()], normalize=head is None,
        )
        if head is not None:
            emb = project(emb, self.params[f"{head}.w"], self.params[f"{head}.mu"])
        return emb.data[np.asarray(source, dtype=np.int64)]


class DualEncoder(TextEncoder):
    """Adds the projection heads and vision tower from a stage-3 result.

    The LoRA adapters fold into the text base once, at the build, by stage
    3's own merge over the snapshot (no tape), so a query runs no adapter
    branch. The fold's outputs are new arrays; each is marked read-only and
    scanned once, and the unfolded weights stay the snapshot's."""

    def __init__(self, result: StageResult):
        super().__init__(result)
        merged = lora_merge(self.params, self.run)
        for name, p in merged.items():
            if p is not self.params[name]:
                p.data.flags.writeable = False
                merged[name] = constant(p.data, name)
        self.params = merged

    def embed_reports(self, texts, section="findings") -> np.ndarray:
        seqs = [clip_text_seq(t, self.vocab, self.run, section) for t in texts]
        return self._embed(seqs, head="proj_text")

    def embed_images(self, images) -> np.ndarray:
        """(N, d) projected rows of images, run through the vision tower in
        chunks of `GROUP_ROWS`, in input order."""
        w, mu = self.params["proj_img.w"], self.params["proj_img.mu"]
        if not len(images):
            return np.empty((0, w.shape[1]), dtype=np.float32)
        emb = concat([
            vision_forward(self.params, images=np.stack(images[i : i + GROUP_ROWS]))
            for i in range(0, len(images), GROUP_ROWS)
        ])
        return project(emb, w, mu).data


def hash_embeddings(keys, dim: int = 64, salt: str = "") -> np.ndarray:
    """Deterministic pseudo-random unit vectors keyed by content: the
    untrained-retrieval baseline."""
    rows = np.empty((len(keys), dim), dtype=np.float32)
    for i, key in enumerate(keys):
        h = hashlib.sha256((salt + str(key)).encode()).digest()
        rng = np.random.default_rng(int.from_bytes(h[:8], "big"))
        v = rng.normal(size=dim)
        rows[i] = (v / np.linalg.norm(v)).astype(np.float32)
    return rows


# ---------------------------------------------------------------------------
# Oracle label metrics
# ---------------------------------------------------------------------------


def _positive_entities(labels) -> set:
    """Non-negated (kind, location, severity) tuples; temporal ignored."""
    return {(k, loc, sev) for (k, loc, sev, neg, _t) in labels if not neg}


def _kind_presence(labels) -> set:
    return {k for (k, _loc, _sev, neg, _t) in labels if not neg}


def macro_f1_kinds(query_labels, retrieved_labels) -> float:
    """Macro-F1 over finding kinds of presence vectors (negation-aware:
    negated findings count as absent)."""
    per_kind = {}
    for kind in KINDS:
        tp = fp = fn = 0
        for q, r in zip(query_labels, retrieved_labels):
            q_has, r_has = kind in _kind_presence(q), kind in _kind_presence(r)
            tp += q_has and r_has
            fp += r_has and not q_has
            fn += q_has and not r_has
        if tp + fp + fn == 0:
            per_kind[kind] = 1.0
        else:
            per_kind[kind] = 2 * tp / (2 * tp + fp + fn)
    return sum(per_kind.values()) / len(per_kind)


def entity_f1(query_labels, retrieved_labels) -> float:
    """Micro-averaged F1 of exact (kind, location, severity) tuple sets."""
    tp = fp = fn = 0
    for q, r in zip(query_labels, retrieved_labels):
        qs, rs = _positive_entities(q), _positive_entities(r)
        tp += len(qs & rs)
        fp += len(rs - qs)
        fn += len(qs - rs)
    if tp + fp + fn == 0:
        return 1.0
    return 2 * tp / (2 * tp + fp + fn)


# ---------------------------------------------------------------------------
# Text-only tasks
# ---------------------------------------------------------------------------


def _recalls(q: EmbeddingIndex, p: EmbeddingIndex) -> dict:
    """recall@k of each query's own id in the same-id pool, for every k in
    `RECALL_KS` the pool can fill."""
    k = min(max(RECALL_KS), len(p))
    ranked = retrieve_topk(q, p, k)
    return recall_at_k(ranked, q.ids, ks=[k2 for k2 in RECALL_KS if k2 <= k])


def _top1_label_agreement(q: EmbeddingIndex, query_studies, p: EmbeddingIndex, pool) -> dict:
    """Oracle label agreement of each query study with its top-1 pool study."""
    by_id = {s.study_id: s for s in pool}
    top1 = [ids[0] for ids in retrieve_topk(q, p, 1)]
    q_labels = [sorted(s.latent.label_set()) for s in query_studies]
    r_labels = [sorted(by_id[i].latent.label_set()) for i in top1]
    return {
        "macro_f1": macro_f1_kinds(q_labels, r_labels),
        "entity_f1": entity_f1(q_labels, r_labels),
    }


def _retrieval_task(encoder, queries, pool_texts, ids, instruction=None) -> dict:
    q = EmbeddingIndex(ids, encoder.embed(queries, instruction=instruction))
    return _recalls(q, EmbeddingIndex(ids, encoder.embed(pool_texts)))


def task1_prior_omitted(encoder, studies) -> dict:
    """Retrieve the original report given its prior-omitted variant."""
    ids = [s.study_id for s in studies]
    return _retrieval_task(
        encoder,
        [s.variants["prior_omitted"] for s in studies],
        [s.findings_text for s in studies],
        ids,
    )


def task2_summarization(encoder, studies) -> dict:
    """Retrieve the matching impression given the findings section."""
    ids = [s.study_id for s in studies]
    return _retrieval_task(
        encoder,
        [s.findings_text for s in studies],
        [s.impression_text for s in studies],
        ids,
        instruction=INSTR_SUMMARIZE,
    )


def task4_acronym(encoder, studies) -> dict:
    """Retrieve the expanded report given its abbreviated form."""
    ids = [s.study_id for s in studies]
    return _retrieval_task(
        encoder,
        [s.variants["abbreviated"] for s in studies],
        [s.findings_text for s in studies],
        ids,
    )


def task3_error_discrimination(encoder, studies) -> dict:
    """Each item: findings anchor vs. {true impression, 3 erroneous}; count
    items where the true impression wins the cosine comparison."""
    usable = [s for s in studies if len(s.errors) == 3]
    excluded = len(studies) - len(usable)
    if not usable:
        raise ValueError("task3: no items with a full candidate set")
    anchors = encoder.embed([s.findings_text for s in usable], instruction=INSTR_SUMMARIZE)
    cands = []
    for s in usable:
        cands += [s.impression_text] + [t for _, t in s.errors]
    emb = encoder.embed(cands).reshape(len(usable), 4, -1)
    sims = np.einsum("icd,id->ic", emb, anchors)
    correct = int((sims.argmax(axis=1) == 0).sum())
    return {"accuracy": correct / len(usable), "excluded": excluded, "items": len(usable)}


def task5_clinical_similarity(encoder, query_studies, pool_studies) -> dict:
    """Cross-style retrieval (verbose queries vs. canonical pool) scored by
    oracle label agreement of the retrieved top-1."""
    if not pool_studies:
        raise ValueError("task5: empty pool")
    queries = [render_report(s.latent, "verbose")[0] for s in query_studies]
    q = EmbeddingIndex([s.study_id for s in query_studies], encoder.embed(queries))
    p = EmbeddingIndex(
        [s.study_id for s in pool_studies],
        encoder.embed([s.findings_text for s in pool_studies]),
    )
    return _top1_label_agreement(q, query_studies, p, pool_studies)


# ---------------------------------------------------------------------------
# Multimodal evaluation
# ---------------------------------------------------------------------------


def multimodal_eval(encoder: DualEncoder, test_studies, pool_studies, section="findings") -> dict:
    """recall@k of image→report retrieval on the test pool, plus label
    metrics of the top-1 report retrieved from the train+val pool."""
    ids = [s.study_id for s in test_studies]
    q = EmbeddingIndex(ids, encoder.embed_images([s.image for s in test_studies]), "image")
    p = EmbeddingIndex(
        ids,
        encoder.embed_reports([section_text(s, section) for s in test_studies], section=section),
    )
    out = _recalls(q, p)
    if pool_studies:
        big = EmbeddingIndex(
            [s.study_id for s in pool_studies],
            encoder.embed_reports(
                [section_text(s, section) for s in pool_studies], section=section
            ),
        )
        out.update(_top1_label_agreement(q, test_studies, big, pool_studies))
    return out


# ---------------------------------------------------------------------------
# Oracle judge
# ---------------------------------------------------------------------------

JUDGE_WEIGHTS = {
    "false_prediction": 4,
    "omission": 3,
    "wrong_location": 2,
    "wrong_severity": 1,
}


def judge_score(truth_labels, candidate_text) -> tuple:
    """Weighted error count of a candidate report against truth labels.

    Returns (score, parseable). Positive findings are matched greedily:
    exact tuple, then same kind+location (severity error), then same kind
    (location error); leftovers are omissions/false predictions. Temporal
    status is ignored.
    """
    extraction = extract_labels(candidate_text)
    if extraction.unparsed:
        return math.inf, False
    truth = sorted(_positive_entities(truth_labels))
    cand = sorted(_positive_entities(extraction.labels))
    score = 0
    for matcher, weight in (
        (lambda t, c: t == c, 0),
        (lambda t, c: t[0] == c[0] and t[1] == c[1], JUDGE_WEIGHTS["wrong_severity"]),
        (lambda t, c: t[0] == c[0], JUDGE_WEIGHTS["wrong_location"]),
    ):
        for t in list(truth):
            for c in list(cand):
                if matcher(t, c):
                    truth.remove(t)
                    cand.remove(c)
                    score += weight
                    break
    score += JUDGE_WEIGHTS["omission"] * len(truth)
    score += JUDGE_WEIGHTS["false_prediction"] * len(cand)
    return score, True


def oracle_judge_rank(truth_labels, candidate_reports) -> tuple:
    """Rank candidates best (1) to worst with shared ranks on ties and the
    following rank skipped (1, 2, 2, 4 scheme). Returns (ranks, flags) where
    flags marks unparseable candidates (forced to the worst score)."""
    scored = [judge_score(truth_labels, text) for text in candidate_reports]
    scores = [s for s, _ in scored]
    flags = [not ok for _, ok in scored]
    ranks = [1 + sum(1 for other in scores if other < s) for s in scores]
    return ranks, flags


def judge_eval(studies) -> dict:
    """Oracle-judge each study's true impression against its tagged-error
    candidates: the truth's mean rank (1 is best) and the number of
    unparseable candidates."""
    if not studies:
        raise ValueError("judge: no studies")
    ranks_truth, flagged = [], 0
    for s in studies:
        ranks, flags = oracle_judge_rank(
            s.latent.label_set(), [s.impression_text] + [t for _, t in s.errors]
        )
        ranks_truth.append(ranks[0])
        flagged += sum(flags)
    return {
        "mean_rank_truth": sum(ranks_truth) / len(ranks_truth),
        "flagged": flagged,
        "items": len(studies),
    }


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class EvalReport:
    tasks: dict
    config_digest: str = ""
    pool_sizes: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def __post_init__(self):
        for task, metrics in self.tasks.items():
            recalls = [
                (int(k.split("@")[1]), v) for k, v in metrics.items() if k.startswith("recall@")
            ]
            recalls.sort()
            values = [v for _, v in recalls]
            if values != sorted(values):
                raise ValueError(f"{task}: recall@k must be non-decreasing in k")
            for name, v in metrics.items():
                if name in ("excluded", "items", "flagged") or name.startswith("mean_rank"):
                    continue
                if not 0.0 <= v <= 1.0:
                    raise ValueError(f"{task}.{name}={v} outside [0, 1]")

    def to_json(self) -> str:
        return json.dumps(
            {
                "tasks": self.tasks,
                "config_digest": self.config_digest,
                "pool_sizes": self.pool_sizes,
                "notes": self.notes,
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        d = json.loads(text)
        keys = ("tasks", "config_digest", "pool_sizes", "notes")
        if not isinstance(d, dict) or not set(keys) <= set(d):
            raise ValueError(f"EvalReport: a report is a JSON object with keys {list(keys)}")
        return cls(*(d[k] for k in keys))

    def table(self) -> str:
        cols = ["task", "@1", "@5", "@10", "acc", "MF1", "EF1"]
        keymap = {
            "@1": "recall@1",
            "@5": "recall@5",
            "@10": "recall@10",
            "acc": "accuracy",
            "MF1": "macro_f1",
            "EF1": "entity_f1",
        }
        rows = [cols]
        for task in sorted(self.tasks):
            row = [task]
            for col in cols[1:]:
                v = self.tasks[task].get(keymap[col])
                row.append("-" if v is None else f"{v:.3f}")
            rows.append(row)
        widths = [max(len(r[i]) for r in rows) for i in range(len(cols))]
        return "\n".join(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in rows
        )
