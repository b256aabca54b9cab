"""Acceptance gate: the nine go/no-go criteria for the whole package, at
their stated tolerances. Everything here is self-contained — it exercises
public interfaces only.

The end-to-end smoke run (criterion 7) and the paired ablations (criterion
8) train real models and dominate the suite's runtime.
"""

import math
import time

import numpy as np
import pytest

from cxalign import objectives as obj
from cxalign.autodiff import Tensor, backward
from cxalign.checkpoint import load_checkpoint, save_checkpoint
from cxalign.evals import task3_error_discrimination
from cxalign.grammar.corpus import generate_corpus, read_corpus, write_corpus
from cxalign.grammar.labels import extract_labels
from cxalign.pipeline import (
    CLIP_TRAINABLE_PREFIXES,
    RunConfig,
    split_corpus,
    train_clip,
    train_contrastive,
    train_mntp,
)
from cxalign.tokenizer import Vocabulary, apply_mntp_mask, build_vocab, encode
from cxalign.towers import init_lora, init_text_tower, lora_merge, text_forward

from conftest import finite_difference, rel_error, unfolded_lora_forward


# ---------------------------------------------------------------------------
# 1. Gradient correctness: >= 50 randomized FD cases, rel err <= 1e-3, < 1 min
# ---------------------------------------------------------------------------


def test_criterion_1_loss_gradients_fd():
    rng = np.random.default_rng(2024)
    start = time.time()
    cases = 0
    for trial in range(18):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(3, 17))

        a0 = rng.normal(size=(n, d)).astype(np.float32)
        b0 = rng.normal(size=(n, d)).astype(np.float32)

        def check(f, x0):
            nonlocal cases
            x = Tensor(x0.copy(), requires_grad=True)
            loss = f(x)
            backward(loss)
            num = finite_difference(lambda v: float(f(Tensor(v)).data), x0, h=1e-2)
            assert rel_error(x.grad, num) <= 1e-3
            cases += 1

        # clip: gradient through each tower input
        log_tau = math.log(0.3)
        check(lambda x: obj.clip_loss(_norm(x), _norm(Tensor(b0)), log_tau), a0)
        check(lambda x: obj.clip_loss(_norm(Tensor(a0)), _norm(x), log_tau), b0)

        # supcon with collision-prone labels
        labels = [int(v) for v in rng.integers(0, max(2, n - 1), size=n)]
        if len(set(labels)) == 1:
            labels[0] = 99
        check(lambda x: obj.supcon_loss(_norm(x), _norm(Tensor(b0)), labels, tau=0.3), a0)

        # mntp on random logits / positions
        V = int(rng.integers(4, 17))
        T = int(rng.integers(2, 9))
        logits0 = rng.normal(size=(n, T, V)).astype(np.float32)
        k = int(rng.integers(1, n * T // 2 + 1))
        flat = rng.choice(n * T, size=k, replace=False)
        # logits row p predicts the token at p + 1
        positions = [(int(i // T), int(i % T) + 1) for i in flat]
        targets = [int(v) for v in rng.integers(0, V, size=k)]
        check(lambda x: obj.mntp_loss(x, targets, positions), logits0)
    assert cases >= 50
    assert time.time() - start < 60.0


def _norm(x):
    from cxalign.autodiff import l2_normalize

    return l2_normalize(x)


# ---------------------------------------------------------------------------
# 2. Eq. 1 identities
# ---------------------------------------------------------------------------


def test_criterion_2_clip_identities():
    lt = obj.init_log_tau()
    one = Tensor(np.array([[1.0, 0.0]], dtype=np.float32))
    assert float(obj.clip_loss(one, one, lt).data) == 0.0

    # uniform similarities -> ln N (orthonormal rows, tau -> cosine 0 off-diag
    # too, so make every inner product equal instead: identical rows are
    # masked by labels only in supcon; here use exact-uniform logits via
    # identical embeddings)
    n = 6
    same = np.tile([1.0, 0.0, 0.0], (n, 1)).astype(np.float32)
    loss = obj.clip_loss(Tensor(same), Tensor(same), math.log(1.0))
    assert abs(float(loss.data) - math.log(n)) < 1e-5

    # N=2 identity-similarity case at tau=1: rows orthonormal
    e = np.eye(2, dtype=np.float32)
    loss = obj.clip_loss(Tensor(e), Tensor(e), math.log(1.0))
    assert abs(float(loss.data) - 0.3132617) < 1e-4

    # symmetry under tower swap
    rng = np.random.default_rng(0)
    v = _unit_rows(rng.normal(size=(5, 8)))
    t = _unit_rows(rng.normal(size=(5, 8)))
    a = float(obj.clip_loss(Tensor(v), Tensor(t), math.log(0.2)).data)
    b = float(obj.clip_loss(Tensor(t), Tensor(v), math.log(0.2)).data)
    assert abs(a - b) < 1e-6

    # permutation invariance (paired permutation of both sides)
    perm = rng.permutation(5)
    c = float(obj.clip_loss(Tensor(v[perm]), Tensor(t[perm]), math.log(0.2)).data)
    assert abs(a - c) < 1e-5


def _unit_rows(m):
    m = np.asarray(m, dtype=np.float32)
    return m / np.linalg.norm(m, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# 3. LoRA regime
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_tower():
    run = RunConfig(layers=2, model_dim=32, heads=2, ffn_dim=64, max_len=32,
                    lora_rank=4, lora_alpha=16.0)
    params = init_text_tower(run, 50, np.random.default_rng(3))
    ids = np.random.default_rng(4).integers(7, 50, size=(3, 9))
    return run, params, ids


def test_criterion_3_lora_zero_init_exact(tiny_tower):
    run, params, ids = tiny_tower
    with_adapters = dict(params)
    with_adapters.update(init_lora(params, run, np.random.default_rng(5)))
    base = text_forward(params, run, ids)
    adapted = text_forward(lora_merge(with_adapters, run), run, ids)
    assert np.array_equal(base.data, adapted.data)


def test_criterion_3_lora_merge_tolerance(tiny_tower):
    run, params, ids = tiny_tower
    with_adapters = dict(params)
    with_adapters.update(init_lora(params, run, np.random.default_rng(5)))
    # give the adapters non-trivial weights
    rng = np.random.default_rng(6)
    for name, p in with_adapters.items():
        if name.startswith("lora."):
            p.data = rng.normal(scale=0.05, size=p.data.shape).astype(np.float32)
    # the reference runs each adapter beside its weight, unfolded
    adapted = unfolded_lora_forward(with_adapters, run, ids)
    merged = lora_merge(with_adapters, run)
    folded = text_forward(merged, run, ids)
    assert np.max(np.abs(adapted.data - folded.data)) <= 1e-5


def test_criterion_3_stage3_census_exact(acceptance_stage3):
    r3 = acceptance_stage3
    trainable = sorted(n for n, p in r3.params.items() if p.requires_grad)
    assert trainable, "no trainable parameters in stage 3"
    for name in trainable:
        assert name.startswith(CLIP_TRAINABLE_PREFIXES), name
    # every declared group is represented
    for prefix in ("lora.", "proj_text", "proj_img", "vision.", "clip.log_tau"):
        assert any(n.startswith(prefix) for n in trainable), prefix
    # and nothing from the text base or pooler is trainable
    assert not any(n.startswith(("text.", "pool.")) for n in trainable)


# ---------------------------------------------------------------------------
# 4. MNTP calibration
# ---------------------------------------------------------------------------


def test_criterion_4_zero_head_loss_is_ln_vocab():
    V = 97
    rng = np.random.default_rng(8)
    logits = Tensor(np.zeros((4, 11, V), dtype=np.float32))
    positions = [(int(b), int(t) + 1) for b in range(4) for t in rng.choice(11, 3, replace=False)]
    targets = [int(v) for v in rng.integers(0, V, size=len(positions))]
    loss = obj.mntp_loss(logits, targets, positions)
    assert abs(float(loss.data) - math.log(V)) <= 1e-4


def test_criterion_4_mask_rate():
    vocab = build_vocab(["alpha beta gamma delta epsilon zeta eta theta"])
    text = "alpha beta gamma delta epsilon zeta eta theta"
    rng = np.random.default_rng(9)
    seq = encode(text, vocab)
    lo, hi = seq.content_range()
    masked = total = 0
    for _ in range(10_000):
        m = apply_mntp_mask(seq, 0.2, rng)
        masked += len(m.mask_positions)
        total += hi - lo
    rate = masked / total
    assert abs(rate - 0.2) <= 0.01


# ---------------------------------------------------------------------------
# 5. Oracle exactness over 1,000 seeded studies
# ---------------------------------------------------------------------------


def test_criterion_5_oracle_round_trip_1000():
    studies = generate_corpus(1000, seed=31337)
    assert len(studies) == 1000
    for s in studies:
        truth = s.latent.label_set()
        no_temporal = frozenset((k, l, v, n, "none") for (k, l, v, n, _t) in truth)
        for text in (s.findings_text,):
            ex = extract_labels(text)
            assert not ex.unparsed, (s.study_id, ex.unparsed)
            assert frozenset(ex.labels) == truth, s.study_id
        for name, text in s.variants.items():
            ex = extract_labels(text)
            assert not ex.unparsed, (s.study_id, name)
            got = frozenset(ex.labels)
            want = no_temporal if name == "prior_omitted" else truth
            assert got == want, (s.study_id, name)
        # every injected error is label-distinct from the true impression
        truth_imp = frozenset(extract_labels(s.impression_text).labels)
        for category, text in s.errors:
            ex = extract_labels(text)
            assert not ex.unparsed, (s.study_id, category)
            assert frozenset(ex.labels) != truth_imp, (s.study_id, category)


# ---------------------------------------------------------------------------
# 6. Chance calibration for Task 3
# ---------------------------------------------------------------------------


class _RandomEncoder:
    def __init__(self, seed=0, dim=32):
        self.rng = np.random.default_rng(seed)
        self.dim = dim

    def embed(self, texts, instruction=None, section=None, batch=64):
        m = self.rng.normal(size=(len(texts), self.dim)).astype(np.float32)
        return m / np.linalg.norm(m, axis=1, keepdims=True)


def test_criterion_6_task3_chance_level():
    studies = generate_corpus(1100, seed=777)
    out = task3_error_discrimination(_RandomEncoder(seed=12), studies)
    assert out["items"] >= 1000
    assert abs(out["accuracy"] - 0.25) <= 0.05


# ---------------------------------------------------------------------------
# 7. End-to-end smoke run (<= 15 min CPU, corpus 2,000, pool ~200)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def smoke_result():
    from cxalign.experiments import run_smoke

    return run_smoke(2000, seed=4096)


@pytest.fixture(scope="module")
def acceptance_stage3(smoke_result):
    return smoke_result["stages"][2]


def test_criterion_7_smoke_metrics(smoke_result):
    m = smoke_result["metrics"]
    assert m["minutes"] <= 15.0, f"smoke run took {m['minutes']:.1f} min"
    assert 150 <= m["pool_size"] <= 250
    assert m["task1"]["recall@1"] >= 0.5, m["task1"]
    assert m["task3"]["accuracy"] >= 0.6, m["task3"]
    assert m["multimodal"]["recall@1"] >= 0.10, m["multimodal"]
    assert m["multimodal"]["recall@10"] >= 0.5, m["multimodal"]


def test_criterion_7_beats_random_baseline(smoke_result):
    from cxalign.experiments import random_baseline_recall

    _, val = smoke_result["splits"]
    random_r1 = random_baseline_recall(val, k=1)
    assert smoke_result["metrics"]["multimodal"]["recall@1"] >= 20 * max(random_r1, 1 / len(val))


# ---------------------------------------------------------------------------
# 8. Ablation trends (paired runs, same seed and budget)
# ---------------------------------------------------------------------------


def test_criterion_8_bidirectional_beats_causal():
    from cxalign.experiments import ablation_mask_mode

    out = ablation_mask_mode(500)
    assert out["bidirectional"] <= out["causal"], out


def test_criterion_8_mntp_init_beats_cold_start():
    from cxalign.experiments import ablation_mntp_init

    out = ablation_mntp_init(500)
    assert out["mntp_init"] >= out["cold_start"], out


def test_criterion_8_section_aware_beats_non_sectioned():
    from cxalign.experiments import ablation_section_aware

    out = ablation_section_aware(500)
    assert out["section_aware"] >= out["non_sectioned"], out


# ---------------------------------------------------------------------------
# 9. Determinism and serialization
# ---------------------------------------------------------------------------


def test_criterion_9_corpus_bit_identical(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_corpus(generate_corpus(120, seed=5), a)
    write_corpus(generate_corpus(120, seed=5), b)
    assert a.read_bytes() == b.read_bytes()
    again = read_corpus(a)
    write_corpus(again, b)
    assert a.read_bytes() == b.read_bytes()


def test_criterion_9_training_bit_identical(tmp_path):
    studies = generate_corpus(80, seed=6)
    run = RunConfig(layers=1, model_dim=32, heads=2, ffn_dim=64,
                    shared_dim=32, lora_rank=4, batch_mntp=8,
                    batch_contrastive=8, batch_clip=8, epochs_clip=1)
    paths = []
    for tag in ("x", "y"):
        r1 = train_mntp(studies, run)
        r2 = train_contrastive(studies, run, init=r1)
        r3 = train_clip(studies, run, text_init=r2)
        p = tmp_path / f"{tag}.cxal"
        r3.save(p)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_criterion_9_checkpoint_round_trip_exact(tmp_path):
    rng = np.random.default_rng(10)
    arrays = {f"p{i}": rng.normal(size=(i + 1, 3)).astype(np.float32) for i in range(5)}
    p = tmp_path / "rt.cxal"
    save_checkpoint(p, "mntp", 3, "f" * 16, arrays)
    ck = load_checkpoint(p)
    for name, arr in arrays.items():
        assert ck.arrays[name].tobytes() == arr.tobytes()
    # vocabulary round-trips exactly too
    vocab = build_vocab(["one two three four five"])
    vp = tmp_path / "vocab.txt"
    vocab.save(vp)
    again = Vocabulary.load(vp)
    assert again.tokens == vocab.tokens
