"""Evaluation harness tests: retrieval mechanics, oracle label metrics,
the judge protocol, report documents, and the random-chance floor."""

import json

import numpy as np
import pytest

from cxalign.evals import (
    DualEncoder,
    EmbeddingIndex,
    EvalReport,
    JUDGE_WEIGHTS,
    entity_f1,
    hash_embeddings,
    judge_eval,
    judge_score,
    macro_f1_kinds,
    multimodal_eval,
    oracle_judge_rank,
    recall_at_k,
    retrieve_topk,
    task3_error_discrimination,
)
from cxalign.grammar.corpus import generate_corpus
from cxalign.grammar.render import render_report
from cxalign.grammar.types import LatentFinding, LatentStudy
from cxalign.objectives import init_log_tau
from cxalign.optim import AdamW
from cxalign.autodiff import l2_normalize
from cxalign.pipeline import GROUP_ROWS, RunConfig, StageResult, corpus_vocab, encode_pooled
from cxalign.tokenizer import encode
from cxalign.towers import (
    frozen,
    init_lora,
    init_projection,
    init_text_tower,
    init_vision_tower,
    lora_merge,
    project,
)


def _unit(rows):
    m = np.asarray(rows, dtype=np.float32)
    return m / np.linalg.norm(m, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# EmbeddingIndex and retrieval
# ---------------------------------------------------------------------------


def test_index_validates_rows():
    with pytest.raises(ValueError, match="unit-norm"):
        EmbeddingIndex(["a"], np.array([[1.0, 1.0]], dtype=np.float32))
    with pytest.raises(ValueError, match="duplicate"):
        EmbeddingIndex(["a", "a"], _unit([[1, 0], [0, 1]]))
    with pytest.raises(ValueError, match="count"):
        EmbeddingIndex(["a"], _unit([[1, 0], [0, 1]]))


def test_retrieve_topk_hand_case():
    pool = EmbeddingIndex(["p0", "p1", "p2"], _unit([[1, 0], [0, 1], [1, 1]]))
    q = EmbeddingIndex(["q"], _unit([[1, 0.1]]))
    assert retrieve_topk(q, pool, 3) == [["p0", "p2", "p1"]]


def test_retrieve_topk_ties_break_to_ascending_id():
    # Two identical pool rows: the lexicographically smaller id must win
    # regardless of insertion order.
    pool = EmbeddingIndex(["zz", "aa"], _unit([[1, 0], [1, 0]]))
    q = EmbeddingIndex(["q"], _unit([[1, 0]]))
    assert retrieve_topk(q, pool, 2) == [["aa", "zz"]]


def test_retrieve_topk_matches_brute_force_with_exact_ties():
    rng = np.random.default_rng(5)
    dim = 6
    # rows drawn from a few basis vectors and one mixed vector, so pools
    # hold many exactly tied rows; basis queries make every cosine exact
    shapes = np.concatenate([np.eye(dim, dtype=np.float32)[:3], _unit([[0.6, 0.8, 0, 0, 0, 0]])])
    ids = [f"s{j:03d}" for j in rng.permutation(40)]
    pool = EmbeddingIndex(ids, shapes[rng.integers(0, len(shapes), size=len(ids))])
    queries = EmbeddingIndex(["q0", "q1", "q2"], np.eye(dim, dtype=np.float32)[:3])
    sims = queries.matrix @ pool.matrix.T
    for k in (1, 10, 40):
        expected = [
            [ids[i] for i in sorted(range(len(ids)), key=lambda i: (-row[i], ids[i]))[:k]]
            for row in sims
        ]
        assert retrieve_topk(queries, pool, k) == expected


def test_retrieve_topk_rejects_oversized_k():
    pool = EmbeddingIndex(["a"], _unit([[1, 0]]))
    with pytest.raises(ValueError, match="exceeds pool"):
        retrieve_topk(pool, pool, 2)


def test_recall_at_k_counts_hits():
    ranked = [["a", "b"], ["c", "d"], ["x", "e"]]
    truth = ["a", "d", "f"]
    out = recall_at_k(ranked, truth, ks=(1, 2))
    assert out == {"recall@1": 1 / 3, "recall@2": 2 / 3}


def test_hash_embeddings_deterministic_and_unit():
    a = hash_embeddings(["x", "y"], dim=16, salt="s")
    b = hash_embeddings(["x", "y"], dim=16, salt="s")
    c = hash_embeddings(["x", "y"], dim=16, salt="t")
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-5)


# ---------------------------------------------------------------------------
# Label metrics
# ---------------------------------------------------------------------------

L = lambda kind, loc, sev, neg=False: (kind, loc, sev, neg, "none")  # noqa: E731


def test_macro_f1_ignores_location_and_severity():
    q = [[L("opacity", "right lower", "mild")]]
    r = [[L("opacity", "left upper", "severe")]]
    assert macro_f1_kinds(q, r) == 1.0


def test_macro_f1_negation_aware():
    q = [[L("opacity", "right lower", "mild")]]
    r = [[L("opacity", "right lower", "mild", neg=True)]]
    # Retrieved report negates the finding: one kind scores 0, the rest 1.
    assert macro_f1_kinds(q, r) < 1.0
    assert macro_f1_kinds(q, [[]]) == macro_f1_kinds(q, r)


def test_entity_f1_hand_case():
    A = L("opacity", "right lower", "mild")
    B = L("consolidation", "left upper", "moderate")
    C = L("atelectasis", "right mid", "mild")
    assert entity_f1([[A, B]], [[A, C]]) == 0.5
    assert entity_f1([[A, B]], [[A, B]]) == 1.0
    assert entity_f1([[A]], [[C]]) == 0.0
    assert entity_f1([[]], [[]]) == 1.0


# ---------------------------------------------------------------------------
# Judge protocol
# ---------------------------------------------------------------------------


@pytest.fixture()
def two_finding_study():
    return LatentStudy(
        "j0",
        1,
        (
            LatentFinding("opacity", "right lower", "mild"),
            LatentFinding("consolidation", "left upper", "moderate"),
        ),
    )


def _text(findings):
    return render_report(LatentStudy("tmp", 1, tuple(findings)))[0]


def test_judge_error_weights(two_finding_study):
    s = two_finding_study
    truth = s.label_set()
    a, b = s.findings
    assert judge_score(truth, _text([a, b])) == (0, True)
    wrong_sev = LatentFinding(a.kind, a.location, "severe")
    assert judge_score(truth, _text([wrong_sev, b]))[0] == JUDGE_WEIGHTS["wrong_severity"]
    wrong_loc = LatentFinding(a.kind, "left lower", a.severity)
    assert judge_score(truth, _text([wrong_loc, b]))[0] == JUDGE_WEIGHTS["wrong_location"]
    assert judge_score(truth, _text([a]))[0] == JUDGE_WEIGHTS["omission"]
    extra = LatentFinding("atelectasis", "right mid", "mild")
    assert judge_score(truth, _text([a, b, extra]))[0] == JUDGE_WEIGHTS["false_prediction"]


def test_judge_unparseable_flagged(two_finding_study):
    score, ok = judge_score(two_finding_study.label_set(), "lorem ipsum dolor")
    assert score == float("inf") and not ok


def test_judge_rank_tie_scheme(two_finding_study):
    s = two_finding_study
    a, b = s.findings
    candidates = [
        _text([a, b]),          # score 0
        _text([a]),             # omission, 3
        _text([b]),             # omission, 3
        "unparseable nonsense", # inf
    ]
    ranks, flags = oracle_judge_rank(s.label_set(), candidates)
    assert ranks == [1, 2, 2, 4]
    assert flags == [False, False, False, True]


def test_judge_eval_ranks_truth_and_rejects_empty_input():
    studies = generate_corpus(20, seed=12)
    metrics = judge_eval(studies)
    ranks = [
        oracle_judge_rank(s.latent.label_set(), [s.impression_text] + [t for _, t in s.errors])
        for s in studies
    ]
    assert metrics == {
        "mean_rank_truth": sum(r[0] for r, _ in ranks) / len(studies),
        "flagged": sum(sum(f) for _, f in ranks),
        "items": len(studies),
    }
    with pytest.raises(ValueError, match="no studies"):
        judge_eval([])


def test_judge_rank_order_invariant(two_finding_study):
    s = two_finding_study
    a, b = s.findings
    cands = [_text([a, b]), _text([a]), "junk", _text([b])]
    ranks, _ = oracle_judge_rank(s.label_set(), cands)
    perm = [2, 0, 3, 1]
    ranks_p, _ = oracle_judge_rank(s.label_set(), [cands[i] for i in perm])
    assert [ranks[i] for i in perm] == ranks_p


def test_judge_prefers_truth_over_tagged_errors():
    studies = generate_corpus(50, seed=21)
    better = total = 0
    for s in studies:
        if len(s.errors) != 3:
            continue
        ranks, flags = oracle_judge_rank(
            s.latent.label_set(), [s.impression_text] + [t for _, t in s.errors]
        )
        assert not any(flags)
        total += 1
        better += ranks[0] == min(ranks)
    assert total > 30
    assert better == total  # the true impression never loses to a tagged error


# ---------------------------------------------------------------------------
# Random-chance floor for Task 3
# ---------------------------------------------------------------------------


class _RandomEncoder:
    """Stand-in encoder emitting i.i.d. random unit vectors: every Task-3
    comparison reduces to a uniform draw over the four candidates."""

    def __init__(self, seed=0, dim=32):
        self.rng = np.random.default_rng(seed)
        self.dim = dim

    def embed(self, texts, instruction=None, section=None, batch=64):
        return _unit(self.rng.normal(size=(len(texts), self.dim)))


def test_task3_chance_level_with_random_embeddings():
    studies = generate_corpus(1100, seed=33)
    out = task3_error_discrimination(_RandomEncoder(seed=5), studies)
    assert out["items"] >= 1000
    assert abs(out["accuracy"] - 0.25) <= 0.05


# ---------------------------------------------------------------------------
# EvalReport
# ---------------------------------------------------------------------------


def test_report_round_trip_and_table():
    rep = EvalReport(
        tasks={
            "task1": {"recall@1": 0.5, "recall@5": 0.7, "recall@10": 0.9},
            "task3": {"accuracy": 0.8, "excluded": 2, "items": 98},
        },
        config_digest="abcd",
        pool_sizes={"val": 100},
    )
    again = EvalReport.from_json(rep.to_json())
    assert again.tasks == rep.tasks and again.config_digest == "abcd"
    table = rep.table()
    lines = table.splitlines()
    assert lines[0].split() == ["task", "@1", "@5", "@10", "acc", "MF1", "EF1"]
    assert "0.500" in lines[1] and "0.800" in lines[2]


def test_report_rejects_non_monotonic_recall():
    with pytest.raises(ValueError, match="non-decreasing"):
        EvalReport(tasks={"t": {"recall@1": 0.9, "recall@5": 0.4}})


def test_report_rejects_out_of_range_metric():
    with pytest.raises(ValueError, match="outside"):
        EvalReport(tasks={"t": {"accuracy": 1.2}})


def test_report_takes_counts_as_counts():
    """The judge's `flagged` is a count of unparseable candidates, not a
    rate, and like `items` and `excluded` it may exceed 1."""
    judge = {"mean_rank_truth": 1.2, "flagged": 2, "items": 5}
    rep = EvalReport(tasks={"judge": judge})
    assert EvalReport.from_json(rep.to_json()).tasks["judge"] == judge


def test_report_json_is_stable():
    rep = EvalReport(tasks={"t": {"accuracy": 0.5}})
    assert json.loads(rep.to_json())["tasks"]["t"]["accuracy"] == 0.5
    assert rep.to_json() == EvalReport.from_json(rep.to_json()).to_json()


# ---------------------------------------------------------------------------
# Encoders
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def dual_encoder():
    """A stage-3 encoder at its random init: no training needed to check
    batching and row order."""
    studies = generate_corpus(30, seed=11)
    run = RunConfig(layers=1, model_dim=32, heads=2, ffn_dim=64, shared_dim=16, lora_rank=4)
    vocab = corpus_vocab(studies)
    rng = np.random.default_rng(0)
    params = init_text_tower(run, len(vocab), rng)
    params.update(init_lora(params, run, rng))
    params.update(init_vision_tower(rng))
    params.update(init_projection("proj_text", run.model_dim, run.shared_dim, rng))
    params.update(init_projection("proj_img", 64, run.shared_dim, rng))
    params["clip.log_tau"] = init_log_tau()
    result = StageResult("clip", params, vocab, run, 0, AdamW(group_lrs={"": 1e-3}))
    return DualEncoder(result), studies


def _stage3_result(run, studies, seed=0):
    """A stage-3 result at random init with nonzero adapters."""
    vocab = corpus_vocab(studies)
    rng = np.random.default_rng(seed)
    params = init_text_tower(run, len(vocab), rng)
    params.update(init_lora(params, run, rng))
    for name, p in params.items():
        if name.startswith("lora.") and name.endswith(".B"):
            p.data = rng.normal(0, 0.05, p.shape).astype(np.float32)
    params.update(init_vision_tower(rng))
    params.update(init_projection("proj_text", run.model_dim, run.shared_dim, rng))
    params.update(init_projection("proj_img", 64, run.shared_dim, rng))
    params["clip.log_tau"] = init_log_tau()
    return StageResult("clip", params, vocab, run, 0, AdamW(group_lrs={"": 1e-3}))


def test_dual_encoder_folds_lora_within_tolerance():
    """Folded inference matches the adapted forward that stage 3 trains
    within criterion 3's 1e-5, and runs no adapter."""
    studies = generate_corpus(20, seed=12)
    run = RunConfig(layers=2, model_dim=32, heads=2, ffn_dim=64, shared_dim=16, lora_rank=4)
    result = _stage3_result(run, studies)
    enc = DualEncoder(result)
    assert not any(name.startswith("lora.") for name in enc.params)
    texts = [s.findings_text for s in studies]
    seqs = [encode(t, result.vocab, max_len=run.max_len) for t in texts]
    view = frozen(result.params)
    adapted = encode_pooled(lora_merge(view, run), run, seqs, normalize=False)
    unfolded = encode_pooled(view, run, seqs, normalize=False)
    assert np.abs(adapted.data - unfolded.data).max() > 1e-3  # the adapters matter
    reports = project(adapted, view["proj_text.w"], view["proj_text.mu"]).data
    assert np.abs(enc.embed_reports(texts) - reports).max() <= 1e-5
    assert np.abs(enc.embed(texts) - l2_normalize(adapted).data).max() <= 1e-5


def test_dual_encoder_fold_records_no_tape(monkeypatch):
    """Building an encoder from a result whose adapters still train folds
    over frozen views: no primitive records a tape node."""
    from cxalign import autodiff

    studies = generate_corpus(4, seed=13)
    run = RunConfig(layers=1, model_dim=32, heads=2, ffn_dim=64, shared_dim=16, lora_rank=4)
    result = _stage3_result(run, studies)
    assert all(p.requires_grad for n, p in result.params.items() if n.startswith("lora."))
    outputs = []

    def spy(*args, _orig=autodiff._track):
        outputs.append(_orig(*args))
        return outputs[-1]

    monkeypatch.setattr(autodiff, "_track", spy)
    enc = DualEncoder(result)
    assert outputs, "the fold ran no primitive"
    assert not any(t.requires_grad for t in outputs)
    assert not any(p.requires_grad for p in enc.params.values())


def _count_calls(monkeypatch, fn):
    """Tape nodes (`_track` calls) and finite checks one call of `fn` makes."""
    from cxalign import autodiff

    counts = {"nodes": 0, "checks": 0}
    for attr, key in (("_track", "nodes"), ("_check_finite", "checks")):
        def spy(*args, _orig=getattr(autodiff, attr), _key=key):
            counts[_key] += 1
            return _orig(*args)

        monkeypatch.setattr(autodiff, attr, spy)
    fn()
    monkeypatch.undo()
    return counts


def test_batch1_query_node_budget(monkeypatch):
    """A batch-1 query of the default 2-layer towers runs one node per
    attention sublayer and per layer norm, and no adapter branch: 32 nodes
    and 28 finite checks per report (120 and 84 with unfolded adapters and
    the unfused chain), 37 nodes and 30 checks per image (73 and 38)."""
    studies = generate_corpus(4, seed=13)
    enc = DualEncoder(_stage3_result(RunConfig(), studies))
    report = _count_calls(monkeypatch, lambda: enc.embed_reports([studies[0].findings_text]))
    image = _count_calls(monkeypatch, lambda: enc.embed_images([studies[0].image]))
    assert report["nodes"] <= 32 and report["checks"] <= 28, report
    assert image["nodes"] <= 37 and image["checks"] <= 30, image


def test_embed_rows_follow_input_order(dual_encoder):
    enc, studies = dual_encoder
    texts = sorted({t for s in studies for t in (s.findings_text, s.impression_text)})
    texts = [texts[j] for j in np.random.default_rng(3).permutation(len(texts))]
    lengths = [len(encode(t, enc.vocab).ids) for t in texts]
    assert len(texts) > 2 * GROUP_ROWS and lengths != sorted(lengths)
    for embed in (enc.embed, enc.embed_reports):
        rows = embed(texts)
        singles = np.concatenate([embed([t]) for t in texts])
        np.testing.assert_allclose(rows, singles, atol=1e-5, rtol=0)
        # distinct texts give distinct rows, so a misplaced row would show
        assert np.abs(rows[:-1] - rows[1:]).max(axis=1).min() > 1e-3
    images = [s.image for s in studies]
    singles = np.concatenate([enc.embed_images([im]) for im in images])
    np.testing.assert_allclose(enc.embed_images(images), singles, atol=1e-5, rtol=0)


def test_repeated_texts_embed_to_identical_rows(dual_encoder):
    enc, studies = dual_encoder
    short = min((s.impression_text for s in studies), key=len)
    texts = [s.findings_text for s in studies] + [short] * (2 * GROUP_ROWS + 3)
    texts = [texts[j] for j in np.random.default_rng(4).permutation(len(texts))]
    rows = enc.embed(texts)
    repeats = rows[[j for j, t in enumerate(texts) if t == short]]
    assert (repeats == repeats[0]).all()


def test_empty_inputs_embed_to_zero_rows(dual_encoder):
    enc, _ = dual_encoder
    assert enc.embed([]).shape == (0, enc.run.model_dim)
    assert enc.embed_reports([]).shape == (0, enc.run.shared_dim)
    assert enc.embed_images([]).shape == (0, enc.run.shared_dim)


def test_multimodal_eval_embeds_reports_in_its_section(monkeypatch):
    """A section-aware encoder tags impression reports as impressions: every
    report `multimodal_eval(section="impression")` embeds, test and pool
    alike, is encoded with the impression section."""
    from cxalign import evals

    studies = generate_corpus(20, seed=12)
    run = RunConfig(
        layers=1, model_dim=32, heads=2, ffn_dim=64, shared_dim=16, lora_rank=4,
        section_aware=True,
    )
    enc = DualEncoder(_stage3_result(run, studies))
    sections = []

    def spy(*args, _orig=evals.encode, **kwargs):
        sections.append(kwargs.get("section"))
        return _orig(*args, **kwargs)

    monkeypatch.setattr(evals, "encode", spy)
    out = multimodal_eval(enc, studies[:8], studies[8:], section="impression")
    assert "recall@1" in out and "macro_f1" in out
    assert sections == ["impression"] * len(studies)
