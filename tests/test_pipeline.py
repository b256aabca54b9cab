"""Pipeline tests: config serialization, splits, checkpoints, resume,
freezing regime, divergence handling, and training logs."""

import hashlib
import json
import math
import struct

import numpy as np
import pytest

from cxalign import pipeline
from cxalign.autodiff import Tensor, add, backward, l2_normalize, matmul
from cxalign.checkpoint import (
    MAGIC,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from cxalign.grammar.corpus import generate_corpus
from cxalign.optim import AdamW, DivergenceError
from cxalign.objectives import build_contrastive_pairs, mntp_loss, supcon_loss
from cxalign.pipeline import (
    CLIP_TRAINABLE_PREFIXES,
    GROUP_ROWS,
    RegimeViolationError,
    RunConfig,
    StageResult,
    TrainLog,
    _assert_regime,
    _check_loss_finite,
    _mntp_step_loss,
    bucketed_batches,
    corpus_vocab,
    encode_pooled,
    load_stage,
    pad_batch,
    save_stage,
    split_corpus,
    stream_rng,
    train_clip,
    train_contrastive,
    train_mntp,
)
from cxalign.tokenizer import PAD, apply_mntp_mask, encode
from cxalign.towers import eligible_mask, init_text_tower, pool, text_forward

from conftest import rel_error


TINY = dict(layers=1, model_dim=32, heads=2, ffn_dim=64, shared_dim=32,
            lora_rank=4, batch_mntp=8, batch_contrastive=8, batch_clip=8,
            epochs_clip=1)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(60, seed=7)


def _param_digest(params):
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(params[name].data.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# RunConfig
# ---------------------------------------------------------------------------


def test_config_json_round_trip():
    run = RunConfig(lr_text=1e-3, epochs_contrastive=3, section_aware=True)
    again = RunConfig.from_json(run.to_json())
    assert again == run
    assert again.digest() == run.digest()


def test_config_digest_changes_with_fields():
    assert RunConfig().digest() != RunConfig(seed=1).digest()
    assert RunConfig().digest() != RunConfig(mask_prob=0.3).digest()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"epochs_mntp": 0},
        {"lr_text": -1.0},
        {"mask_prob": 1.5},
        {"mask_mode": "diagonal"},
        {"pooling": "max"},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        RunConfig(**kwargs)


# ---------------------------------------------------------------------------
# Split and batching
# ---------------------------------------------------------------------------


def test_split_deterministic_and_disjoint(corpus):
    t1, v1 = split_corpus(corpus)
    t2, v2 = split_corpus(corpus)
    assert [s.study_id for s in t1] == [s.study_id for s in t2]
    assert [s.study_id for s in v1] == [s.study_id for s in v2]
    assert not {s.study_id for s in t1} & {s.study_id for s in v1}
    assert len(t1) + len(v1) == len(corpus)
    assert 0 < len(v1) < len(corpus)


def test_split_fraction_near_ten_percent():
    studies = generate_corpus(1000, seed=3)
    _, val = split_corpus(studies)
    assert 0.05 <= len(val) / len(studies) <= 0.15


def test_bucketed_batches_partition_and_determinism():
    lengths = list(np.random.default_rng(0).integers(5, 60, size=101))
    a = bucketed_batches(lengths, 8, stream_rng(1, 30, 0))
    b = bucketed_batches(lengths, 8, stream_rng(1, 30, 0))
    assert [list(x) for x in a] == [list(x) for x in b]
    flat = [i for batch in a for i in batch]
    assert sorted(flat) == list(range(101))
    assert all(len(batch) <= 8 for batch in a)


# ---------------------------------------------------------------------------
# Checkpoint format
# ---------------------------------------------------------------------------


def _arrays():
    rng = np.random.default_rng(5)
    return {
        "w.a": rng.normal(size=(3, 4)).astype(np.float32),
        "w.b": rng.normal(size=(7,)).astype(np.float32),
        "scalar": np.zeros((1,), dtype=np.float32),
    }


def test_checkpoint_round_trip_bit_exact(tmp_path):
    path = tmp_path / "m.cxal"
    arrays = _arrays()
    save_checkpoint(path, "mntp", 42, "deadbeefdeadbeef", arrays)
    ck = load_checkpoint(path)
    assert (ck.stage, ck.step, ck.config_digest) == ("mntp", 42, "deadbeefdeadbeef")
    assert set(ck.arrays) == set(arrays)
    for name, arr in arrays.items():
        got = ck.arrays[name]
        assert got.dtype == np.float32 and got.shape == arr.shape
        assert got.tobytes() == arr.tobytes()


def test_checkpoint_save_is_deterministic(tmp_path):
    arrays = _arrays()
    p1, p2 = tmp_path / "a.cxal", tmp_path / "b.cxal"
    save_checkpoint(p1, "clip", 7, "0123456789abcdef", arrays)
    save_checkpoint(p2, "clip", 7, "0123456789abcdef", arrays)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_truncation_detected(tmp_path):
    path = tmp_path / "m.cxal"
    save_checkpoint(path, "mntp", 1, "0" * 16, _arrays())
    blob = path.read_bytes()
    for cut in (3, len(blob) // 2, len(blob) - 1):
        path.write_bytes(blob[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def test_checkpoint_bad_magic_and_version(tmp_path):
    path = tmp_path / "m.cxal"
    save_checkpoint(path, "mntp", 1, "0" * 16, _arrays())
    blob = path.read_bytes()
    path.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    path.write_bytes(MAGIC + struct.pack("<I", 99) + blob[8:])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_overflowing_shape_raises_checkpoint_error(tmp_path):
    path = tmp_path / "m.cxal"
    save_checkpoint(path, "mntp", 1, "0" * 16, _arrays())
    blob = bytearray(path.read_bytes())
    dims = blob.index(b"w.a") + 3 + 1  # past the name and the ndim byte
    assert blob[dims - 1] == 2
    blob[dims : dims + 8] = struct.pack("<2I", 0xFFFFFFFF, 0xFFFFFFFF)
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="exceeds the file"):
        load_checkpoint(path)


# ---------------------------------------------------------------------------
# Length-grouped text forwards
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tower(corpus):
    run = RunConfig(**TINY)
    vocab = corpus_vocab(corpus)
    cfg = run.text_config(len(vocab))
    params = init_text_tower(cfg, np.random.default_rng(0))
    # distinct sequences of mixed lengths: findings, impressions and
    # instructed anchors, shuffled
    seqs = [encode(s.findings_text, vocab) for s in corpus[:12]]
    seqs += [encode(s.impression_text, vocab) for s in corpus[:12]]
    pairs = build_contrastive_pairs(corpus[:6], np.random.default_rng(1))
    seqs += [encode(p.anchor_text, vocab, instruction=p.instruction) for p in pairs]
    seqs = list({tuple(s.ids): s for s in seqs}.values())
    seqs = [seqs[j] for j in np.random.default_rng(2).permutation(len(seqs))]
    return run, cfg, params, seqs


def _one_batch_pooled(params, cfg, run, seqs):
    """Reference: every sequence in one padded forward."""
    ids, spans = pad_batch(seqs)
    hidden = text_forward(params, cfg, ids)
    return l2_normalize(pool(params, hidden, eligible_mask(ids, spans), run.pooling))


def _one_batch_mntp_loss(params, cfg, run, seqs, step):
    """Reference: the MNTP step loss from one padded forward."""
    rng = stream_rng(run.seed, pipeline._STREAM_MASK, step)
    masked = [apply_mntp_mask(s, run.mask_prob, rng) for s in seqs]
    ids, _ = pad_batch(masked)
    logits = add(matmul(text_forward(params, cfg, ids), params["mntp.w"]), params["mntp.b"])
    positions = [(b, p) for b, s in enumerate(masked) for p in s.mask_positions]
    targets = [t for s in masked for t in s.mask_targets]
    return mntp_loss(logits, targets, positions, shift=run.mntp_shift)


@pytest.mark.parametrize("pooling", ["mean", "latent"])
def test_grouped_rows_match_one_padded_batch(tower, pooling):
    run, cfg, params, seqs = tower
    run = RunConfig(**{**TINY, "pooling": pooling})
    lengths = [len(s.ids) for s in seqs]
    assert len(seqs) > 2 * GROUP_ROWS and lengths != sorted(lengths)
    rows = encode_pooled(params, cfg, run, seqs).data
    ref = _one_batch_pooled(params, cfg, run, seqs).data
    np.testing.assert_allclose(rows, ref, atol=1e-5, rtol=0)
    # neighbouring rows differ by far more than atol, so a misplaced row
    # would show
    assert np.abs(rows[:-1] - rows[1:]).max(axis=1).min() > 1e-4


def _grads(params, loss):
    for p in params.values():
        p.grad = None
    backward(loss)
    return {n: p.grad for n, p in params.items() if p.grad is not None}


# Grouping changes only the padding each row's forward sums over, so the
# float32 results agree to a few ulps of the largest entry.
GROUPED_RTOL = 1e-4


def test_grouped_supcon_gradients_match_one_padded_batch(tower):
    run, cfg, params, seqs = tower
    half = len(seqs) // 2
    anchors, positives = seqs[:half], seqs[half : 2 * half]
    labels = [j % 5 for j in range(half)]
    losses, grads = [], []
    for embed in (encode_pooled, _one_batch_pooled):
        loss = supcon_loss(
            embed(params, cfg, run, anchors), embed(params, cfg, run, positives), labels
        )
        losses.append(float(loss.data))
        grads.append(_grads(params, loss))
    assert losses[0] == pytest.approx(losses[1], rel=GROUPED_RTOL)
    assert grads[0].keys() == grads[1].keys() and grads[0]
    for name, g in grads[0].items():
        assert rel_error(g, grads[1][name]) <= GROUPED_RTOL, name


def test_grouped_mntp_step_loss_matches_one_padded_batch(tower):
    run, cfg, params, seqs = tower
    loss = _mntp_step_loss(params, cfg, run, seqs, step=3)
    ref = _one_batch_mntp_loss(params, cfg, run, seqs, step=3)
    assert float(loss.data) == pytest.approx(float(ref.data), rel=GROUPED_RTOL)
    grads, ref_grads = _grads(params, loss), _grads(params, ref)
    assert grads.keys() == ref_grads.keys()
    for name, g in grads.items():
        assert rel_error(g, ref_grads[name]) <= GROUPED_RTOL, name


def test_step_log_counts_the_tokens_the_forwards_ran(corpus, monkeypatch):
    """Each step record's `tokens` and `pad_tokens` equal the positions
    and padding of that step's training forwards."""
    steps, widths, pending = [], [], [0, 0, set()]

    def spy_forward(params, cfg, ids, **kwargs):
        if kwargs.get("train"):
            pending[0] += ids.size
            pending[1] += int((ids == PAD).sum())
            pending[2].add(ids.shape[1])
        return text_forward(params, cfg, ids, **kwargs)

    def spy_backward(loss):
        steps.append(tuple(pending[:2]))
        widths.append(pending[2])
        pending[:] = [0, 0, set()]
        return backward(loss)

    monkeypatch.setattr(pipeline, "text_forward", spy_forward)
    monkeypatch.setattr(pipeline, "backward", spy_backward)
    run = RunConfig(**{**TINY, "batch_mntp": 24, "batch_contrastive": 24, "batch_clip": 24})
    r1 = train_mntp(corpus, run)
    r2 = train_contrastive(corpus, run, init=r1)
    r3 = train_clip(corpus, run, text_init=r2)
    logged = [(r["tokens"], r["pad_tokens"]) for r in r1.log + r2.log + r3.log if "loss" in r]
    assert logged == steps
    # mixed-length batches: some step ran groups of different widths
    assert any(len(w) > 1 for w in widths)
    assert all(0 <= pad < tok for tok, pad in logged)


# ---------------------------------------------------------------------------
# Training, resume, stage persistence
# ---------------------------------------------------------------------------


def test_mntp_resume_is_bit_exact(corpus, tmp_path):
    run = RunConfig(**TINY)
    full = train_mntp(corpus, run)
    half = train_mntp(corpus, run, stop_after=4)
    # Round-trip the partial state through the run-directory format before
    # resuming, so persistence itself is covered by the equality check.
    save_stage(half, tmp_path / "half")
    resumed = train_mntp(corpus, run, resume=load_stage(tmp_path / "half"))
    assert resumed.step == full.step
    assert _param_digest(resumed.params) == _param_digest(full.params)


def test_resume_refuses_config_mismatch(corpus):
    half = train_mntp(corpus, RunConfig(**TINY), stop_after=2)
    with pytest.raises(ValueError, match="digest"):
        train_mntp(corpus, RunConfig(**{**TINY, "lr_text": 1e-3}), resume=half)


def test_stage_round_trip_and_digest_check(corpus, tmp_path):
    run = RunConfig(**TINY)
    result = train_mntp(corpus, run, stop_after=2)
    save_stage(result, tmp_path / "run")
    loaded = load_stage(tmp_path / "run")
    assert loaded.stage == "mntp" and loaded.step == result.step
    assert _param_digest(loaded.params) == _param_digest(result.params)
    # Tampering with the stored config must be caught on load.
    cfg = tmp_path / "run" / "config.json"
    doc = json.loads(cfg.read_text())
    doc["lr_text"] = 9.9
    cfg.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="digest"):
        load_stage(tmp_path / "run")


def test_training_log_is_jsonl(corpus, tmp_path):
    log_path = tmp_path / "train.jsonl"
    train_mntp(corpus, RunConfig(**TINY), log_path=log_path)
    records = [json.loads(line) for line in log_path.read_text().splitlines()]
    steps = [r for r in records if "loss" in r]
    epochs = [r for r in records if "val_loss" in r]
    assert steps and epochs
    assert all(r["stage"] == "mntp" for r in records)
    assert [r["step"] for r in steps] == list(range(len(steps)))
    assert all(np.isfinite(r["loss"]) for r in steps)


def test_train_log_appends_records(tmp_path):
    log = TrainLog(tmp_path / "l.jsonl")
    log.write(step=0, loss=1.0)
    log.write(epoch=0, val_loss=2.0)
    log.close()
    lines = (tmp_path / "l.jsonl").read_text().splitlines()
    assert json.loads(lines[0]) == {"step": 0, "loss": 1.0}
    assert json.loads(lines[1]) == {"epoch": 0, "val_loss": 2.0}


# ---------------------------------------------------------------------------
# Stage-3 freezing regime
# ---------------------------------------------------------------------------


def test_clip_stage_trains_only_declared_prefixes(corpus):
    run = RunConfig(**TINY)
    r2 = train_contrastive(corpus, run, init=None)
    r3 = train_clip(corpus, run, text_init=r2)
    trainable = {n for n, p in r3.params.items() if p.requires_grad}
    assert trainable, "stage 3 produced no trainable parameters"
    assert all(n.startswith(CLIP_TRAINABLE_PREFIXES) for n in trainable)
    frozen = {n for n, p in r3.params.items() if not p.requires_grad}
    assert any(n.startswith("text.") for n in frozen)


def test_regime_assertion_trips_on_unfrozen_backbone(corpus):
    run = RunConfig(**TINY)
    r2 = train_contrastive(corpus, run, init=None)
    bad = dict(r2.params)
    for p in bad.values():
        p.requires_grad = True
    with pytest.raises(RegimeViolationError):
        _assert_regime(bad)


def test_frozen_params_identical_across_stage3(corpus):
    run = RunConfig(**TINY)
    r2 = train_contrastive(corpus, run, init=None)
    before = {
        n: p.data.copy() for n, p in r2.params.items() if not n.startswith("mntp.")
    }
    r3 = train_clip(corpus, run, text_init=r2)
    for name, arr in before.items():
        if name.startswith(CLIP_TRAINABLE_PREFIXES):
            continue
        if name in r3.params:
            assert r3.params[name].data.tobytes() == arr.tobytes(), name


def test_next_stage_leaves_the_previous_result_untouched(corpus):
    """Stages 2 and 3 train their own copies: every array of the result
    they start from, and its trainable flags, survive them unchanged."""
    run = RunConfig(**TINY)

    def digests(result):
        return {n: hashlib.sha256(p.data.tobytes()).hexdigest() for n, p in result.params.items()}

    r1 = train_mntp(corpus, run, stop_after=3)
    before1 = digests(r1)
    r2 = train_contrastive(corpus, run, init=r1)
    assert digests(r1) == before1
    before2 = digests(r2)
    flags2 = {n: p.requires_grad for n, p in r2.params.items()}
    assert all(flags2.values())
    train_clip(corpus, run, text_init=r2)
    assert digests(r2) == before2
    assert {n: p.requires_grad for n, p in r2.params.items()} == flags2


# ---------------------------------------------------------------------------
# Divergence handling
# ---------------------------------------------------------------------------


def test_non_finite_loss_saves_and_raises(corpus, tmp_path):
    result = train_mntp(corpus, RunConfig(**TINY), stop_after=2)
    out = tmp_path / "last.cxal"
    with pytest.raises(DivergenceError, match="non-finite"):
        _check_loss_finite(float("nan"), "mntp", 9, result, out)
    ck = load_checkpoint(out)
    assert ck.stage == "mntp"
    assert _param_digest(result.params) == _param_digest(
        {n: t for n, t in ck.params(lambda n: True).items()}
    )


def test_finite_loss_passes_through(corpus, tmp_path):
    result = train_mntp(corpus, RunConfig(**TINY), stop_after=1)
    _check_loss_finite(0.5, "mntp", 0, result, tmp_path / "never.cxal")
    assert not (tmp_path / "never.cxal").exists()


# ---------------------------------------------------------------------------
# The step driver
# ---------------------------------------------------------------------------


def test_divergence_checkpoint_records_the_failing_step(corpus, tmp_path, monkeypatch):
    k = 5
    step_loss = pipeline._mntp_step_loss

    def nan_at_k(params, cfg, run, seqs, step, train=True, count=None):
        loss = step_loss(params, cfg, run, seqs, step, train=train, count=count)
        return Tensor(np.nan) if train and step == k else loss

    monkeypatch.setattr(pipeline, "_mntp_step_loss", nan_at_k)
    out = tmp_path / "diverged.cxal"
    with pytest.raises(DivergenceError, match=f"step {k}"):
        train_mntp(corpus, RunConfig(**TINY), ckpt_path=out)
    ck = load_checkpoint(out)
    assert ck.step == k == int(ck.arrays["opt.t"][0])
    monkeypatch.undo()
    # the saved state is the one an uninterrupted run has before step k
    half = train_mntp(corpus, RunConfig(**TINY), stop_after=k)
    assert _param_digest(ck.params()) == _param_digest(half.params)


def test_split_run_logs_each_epoch_once(corpus):
    run = RunConfig(**TINY)
    full = train_mntp(corpus, run)
    per_epoch = next(i for i, r in enumerate(full.log) if "val_loss" in r)
    half = train_mntp(corpus, run, stop_after=per_epoch + 3)
    resumed = train_mntp(corpus, run, resume=half)

    def vals(log):
        return [(r["epoch"], r["val_loss"]) for r in log if "val_loss" in r]

    assert vals(half.log) + vals(resumed.log) == vals(full.log)
    steps = [r["step"] for r in half.log + resumed.log if "loss" in r]
    assert steps == list(range(full.step))


def test_too_small_validation_split_is_rejected_before_any_step(monkeypatch):
    studies = generate_corpus(10, seed=4096)
    assert split_corpus(studies)[1] == []
    forwards = []
    monkeypatch.setattr(pipeline, "text_forward", lambda *a, **k: forwards.append(a))
    run = RunConfig(**TINY)
    vocab = corpus_vocab(studies)
    tower = init_text_tower(run.text_config(len(vocab)), np.random.default_rng(0))
    text = StageResult("contrastive", tower, vocab, run, 0, AdamW(group_lrs={"": 1e-3}))
    for train in (
        lambda: train_mntp(studies, run),
        lambda: train_contrastive(studies, run),
        lambda: train_clip(studies, run, text_init=text),
    ):
        with pytest.raises(ValueError, match="validation split"):
            train()
    assert forwards == []


@pytest.mark.parametrize("field", ["batch_contrastive", "batch_clip"])
def test_contrastive_batches_need_two_rows(field):
    with pytest.raises(ValueError, match=field):
        RunConfig(**{field: 1})


def test_config_names_unknown_keys(corpus, tmp_path):
    doc = json.loads(RunConfig().to_json())
    doc.update(lr_schedule="cosine", stage2_lora_only=False)
    with pytest.raises(ValueError, match=r"unknown keys \['lr_schedule', 'stage2_lora_only'\]"):
        RunConfig.from_json(json.dumps(doc))
    save_stage(train_mntp(corpus, RunConfig(**TINY), stop_after=0), tmp_path / "run")
    cfg = tmp_path / "run" / "config.json"
    cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "lr_schedule": "cosine"}))
    with pytest.raises(ValueError, match="lr_schedule"):
        load_stage(tmp_path / "run")


def test_loaded_clip_optimizer_has_the_training_groups(corpus, tmp_path):
    run = RunConfig(**{**TINY, "lr_text": 1e-3, "lr_projection": 2e-4})
    r3 = train_clip(corpus, run, text_init=train_contrastive(corpus, run))
    save_stage(r3, tmp_path / "s3")
    loaded = load_stage(tmp_path / "s3")
    assert loaded.optimizer.group_lrs == r3.optimizer.group_lrs
    trainable = {n for n, p in loaded.params.items() if p.requires_grad}
    assert trainable == {n for n, p in r3.params.items() if p.requires_grad}
    for name in trainable:
        expected = run.lr_text if name.startswith("lora.") else run.lr_projection
        assert loaded.optimizer.lr_for(name) == r3.optimizer.lr_for(name) == expected, name


def test_step_records_time_and_gradient_norm(corpus, monkeypatch):
    """Every stage's step records carry a positive `step_s` and the global
    norm of the gradients the optimizer applied; epoch records `epoch_s`."""
    norms, optimizer_step = [], AdamW.step

    def spy_step(self, params):
        grads = [p.grad.ravel() for p in params.values() if p.requires_grad and p.grad is not None]
        norms.append(float(np.linalg.norm(np.concatenate(grads).astype(np.float64))))
        return optimizer_step(self, params)

    monkeypatch.setattr(AdamW, "step", spy_step)
    run = RunConfig(**{**TINY, "epochs_mntp": 1, "epochs_contrastive": 1})
    r1 = train_mntp(corpus, run)
    r2 = train_contrastive(corpus, run, init=r1)
    r3 = train_clip(corpus, run, text_init=r2)
    records = r1.log + r2.log + r3.log
    steps = [r for r in records if "loss" in r]
    assert {r["stage"] for r in steps} == {"mntp", "contrastive", "clip"}
    assert len(steps) == len(norms)
    for r, norm in zip(steps, norms):
        assert norm > 0 and r["grad_norm"] == pytest.approx(norm, rel=1e-9)
        assert math.isfinite(r["step_s"]) and r["step_s"] > 0
    epochs = [r for r in records if "val_loss" in r]
    assert len(epochs) == 3
    assert all(math.isfinite(r["epoch_s"]) and r["epoch_s"] > 0 for r in epochs)
