"""Three-stage training pipeline: masked pretraining, supervised contrastive
fine-tuning, and image-text alignment with the freezing regime asserted at
every step."""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .autodiff import Tensor, add, backward, concat, l2_normalize, linear, scale, take_rows
from .checkpoint import params_to_arrays, save_checkpoint
from .objectives import (
    INSTR_IMAGE,
    build_contrastive_pairs,
    clip_loss,
    init_log_tau,
    inverse_tau,
    mntp_loss,
    mntp_text_pool,
    supcon_loss,
)
from .optim import AdamW, DivergenceError
from .tokenizer import (
    PAD,
    Vocabulary,
    apply_mntp_mask,
    build_vocab,
    encode,
)
from .towers import (
    VISION_DIM,
    eligible_mask,
    frozen,
    init_lora,
    init_projection,
    init_text_tower,
    init_vision_tower,
    lora_merge,
    pool,
    project,
    set_trainable,
    text_forward,
    trainable_names,
    vision_forward,
)

STAGES = ("mntp", "contrastive", "clip")

# Fixed RNG stream tags so every stochastic choice is addressable by
# (seed, stream, step) and resuming replays the identical sequence. A tag
# seeds its stream, so tags are never renumbered and 41 stays unused.
_STREAM_INIT_TEXT = 20
_STREAM_INIT_VISION = 21
_STREAM_INIT_PROJ = 22
_STREAM_INIT_LORA = 23
_STREAM_ORDER = {"mntp": 30, "contrastive": 31, "clip": 32}
_STREAM_MASK = 40
_STREAM_VAL_MASK = 42
_STREAM_PAIRS = 43


class RegimeViolationError(RuntimeError):
    """A gradient reached a parameter that the stage freezes."""


@dataclass
class RunConfig:
    """Hyperparameters for all three stages; one document per run, and the
    one place the text tower's settings live: `towers` reads `heads`,
    `mask_mode`, `max_len` and the LoRA settings from here, and every shape
    a parameter array holds from the array.

    `lr_mntp` drives stage 1 only; `lr_text` drives stage 2 and the stage-3
    LoRA adapters. The stages need different rates: MNTP at 3e-4 leaves the
    bidirectional tower no better than the causal one after 5 epochs, while
    supervised contrastive at 1e-3 lowers held-out Task 1 recall.
    Stage 1 reads each masked token's prediction at position i-1
    (`mntp_shift`, as in LLM2Vec).

    Every stage under-fits at this data size, so the recipe has no
    dropout, and stage 3 uses batch 16: it gains more from optimizer steps
    than from in-batch negatives.
    """

    epochs_mntp: int = 5
    epochs_contrastive: int = 3
    epochs_clip: int = 15
    batch_mntp: int = 32
    batch_contrastive: int = 32
    batch_clip: int = 16
    lr_mntp: float = 1e-3
    lr_text: float = 3e-4
    lr_projection: float = 3e-4
    seed: int = 4096
    mask_prob: float = 0.2
    section_aware: bool = False
    mask_mode: str = "bidirectional"
    pooling: str = "mean"
    mntp_shift: bool = True
    supcon_tau: float = 0.07
    layers: int = 2
    model_dim: int = 64
    heads: int = 4
    ffn_dim: int = 256
    max_len: int = 128
    shared_dim: int = 64
    lora_rank: int = 16
    lora_alpha: float = 32.0

    def __post_init__(self):
        for name in (
            "epochs_mntp",
            "epochs_contrastive",
            "epochs_clip",
            "batch_mntp",
            "batch_contrastive",
            "batch_clip",
            "lr_mntp",
            "lr_text",
            "lr_projection",
            "supcon_tau",
            "layers",
            "model_dim",
            "heads",
            "ffn_dim",
            "max_len",
            "shared_dim",
            "lora_rank",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"RunConfig.{name} must be positive")
        if self.model_dim % self.heads:
            raise ValueError("RunConfig.model_dim must be divisible by heads")
        for name in ("batch_contrastive", "batch_clip"):
            if getattr(self, name) < 2:
                raise ValueError(f"RunConfig.{name} must be at least 2: a batch needs a negative")
        if not 0.0 < self.mask_prob < 1.0:
            raise ValueError("mask_prob must be in (0, 1)")
        if self.mask_mode not in ("bidirectional", "causal"):
            raise ValueError(f"unknown mask_mode {self.mask_mode!r}")
        if self.pooling not in ("mean", "latent"):
            raise ValueError(f"unknown pooling {self.pooling!r}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        doc = json.loads(text)
        unknown = sorted(set(doc) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"RunConfig: unknown keys {unknown}")
        return cls(**doc)

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(asdict(self), sort_keys=True).encode()
        ).hexdigest()[:16]


def stream_rng(seed: int, stream: int, step: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, stream, step])


def _lr_scale(step: int, total_steps: int) -> float:
    """Cosine multiplier on the stage learning rate (1 at step 0, →0 at end)."""
    if total_steps <= 1:
        return 1.0
    frac = min(step, total_steps) / total_steps
    return 0.5 * (1.0 + math.cos(math.pi * frac))


def split_corpus(studies) -> tuple[list, list]:
    """Deterministic 90/10 train/validation split by study-id hash."""
    train, val = [], []
    for s in studies:
        h = int.from_bytes(hashlib.sha256(s.study_id.encode()).digest()[:4], "big")
        (val if h % 10 == 0 else train).append(s)
    return train, val


def corpus_vocab(studies) -> Vocabulary:
    """Vocabulary covering every text the pipeline or harness will encode."""
    from .grammar.render import render_report, status_sentence
    from .grammar.types import KINDS
    from .objectives import INSTR_SIMILAR, INSTR_STATUS, INSTR_SUMMARIZE

    texts = []
    for s in studies:
        texts.append(s.findings_text)
        texts.append(s.impression_text)
        texts.extend(s.variants.values())
        texts.extend(t for _, t in s.errors)
        texts.append(render_report(s.latent, "verbose")[0])
    statuses = ("new", "stable", "improved", "worsened", "present", "absent")
    for kind in KINDS:
        for status in statuses:
            texts.append(status_sentence(kind, status))
        texts.append(INSTR_STATUS.format(finding=kind.replace("_", " ")))
    texts.append(INSTR_SIMILAR)
    texts.append(INSTR_SUMMARIZE)
    for section in ("findings", "impression"):
        texts.append(INSTR_IMAGE.format(section=section))
    return build_vocab(texts)


def pad_batch(seqs) -> tuple[np.ndarray, list]:
    """Right-pad token sequences to a (B, T) id matrix plus their
    instruction spans."""
    T = max(len(s.ids) for s in seqs)
    ids = np.full((len(seqs), T), PAD, dtype=np.int64)
    spans = []
    for b, s in enumerate(seqs):
        ids[b, : len(s.ids)] = s.ids
        spans.append(s.instruction_span)
    return ids, spans


# Rows per text forward. Every text forward, in training and at inference,
# runs its sequences length-sorted in groups of at most this many rows, so a
# group carries little padding. See README, "Batching", for its measurement.
GROUP_ROWS = 8


@dataclass
class TokenCount:
    """Token positions that text forwards ran, and how many were padding."""

    tokens: int = 0
    pad_tokens: int = 0


def length_groups(params, run, seqs, count=None):
    """Run `seqs` through the text tower in length-sorted groups.

    Yields `(idx, ids, spans, hidden)` per group: the group's indices into
    `seqs`, its padded id matrix and instruction spans, and its (g, T, d)
    hidden states. The sort is stable, so a list already in length order
    keeps its order. `count` (a TokenCount) adds up the positions run."""
    order = np.argsort([len(s.ids) for s in seqs], kind="stable")
    for start in range(0, len(order), GROUP_ROWS):
        idx = order[start : start + GROUP_ROWS]
        ids, spans = pad_batch([seqs[j] for j in idx])
        if count is not None:
            count.tokens += ids.size
            count.pad_tokens += int((ids == PAD).sum())
        yield idx, ids, spans, text_forward(params, run, ids)


class TrainLog:
    """JSON Lines training log: one record per step plus epoch summaries."""

    def __init__(self, path=None):
        self.path = path
        self.records = []
        self._fh = open(path, "a") if path else None

    def write(self, **record) -> None:
        self.records.append(record)
        if self._fh is not None:
            self._fh.write(json.dumps(record, sort_keys=True) + "\n")
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


@dataclass
class StageResult:
    stage: str
    params: dict
    vocab: Vocabulary
    config: RunConfig
    step: int
    optimizer: AdamW
    log: list = field(default_factory=list)

    def save(self, path) -> None:
        arrays = dict(params_to_arrays(self.params))
        arrays.update(self.optimizer.state_arrays())
        save_checkpoint(path, self.stage, self.step, self.config.digest(), arrays)

    def final_val_loss(self) -> float:
        vals = [r["val_loss"] for r in self.log if "val_loss" in r]
        if not vals:
            raise ValueError("no validation records logged")
        return vals[-1]


def save_stage(result: StageResult, dirpath) -> None:
    """Persist a stage result as a run directory: config, vocabulary,
    checkpoint with optimizer state."""
    os.makedirs(dirpath, exist_ok=True)
    with open(os.path.join(dirpath, "config.json"), "w") as fh:
        fh.write(result.config.to_json() + "\n")
    result.vocab.save(os.path.join(dirpath, "vocab.txt"))
    result.save(os.path.join(dirpath, "model.cxal"))


def load_stage(dirpath) -> StageResult:
    from .checkpoint import load_checkpoint

    with open(os.path.join(dirpath, "config.json")) as fh:
        run = RunConfig.from_json(fh.read())
    vocab = Vocabulary.load(os.path.join(dirpath, "vocab.txt"))
    ck = load_checkpoint(os.path.join(dirpath, "model.cxal"))
    if ck.config_digest != run.digest():
        raise ValueError(f"{dirpath}: checkpoint config digest mismatch")
    params = ck.params(lambda n: _trains(ck.stage, n))
    opt = AdamW(group_lrs=_stage_lrs(ck.stage, run))
    opt.load_state_arrays(ck.optimizer_arrays())
    return StageResult(ck.stage, params, vocab, run, ck.step, opt)


def _check_loss_finite(value: float, stage: str, step: int, result: StageResult, out_path):
    if math.isfinite(value):
        return
    if out_path is not None:
        result.save(out_path)
    raise DivergenceError(
        f"{stage}: non-finite loss at step {step}"
        + (f"; last finite state saved to {out_path}" if out_path else "")
    )


def _require_val(stage: str, n_items: int, need: int) -> None:
    """Refuse, before any step, a validation split too small to score."""
    if n_items < need:
        raise ValueError(f"{stage}: validation split of {n_items} items; scoring needs {need}")


# Batches per shuffling window of `bucketed_batches`.
BUCKET_WINDOW = 4


def bucketed_batches(lengths, bs: int, rng: np.random.Generator) -> list:
    """Batches of near-equal sequence length to cut padding waste.

    Items are length-sorted, shuffled within windows of BUCKET_WINDOW
    batches so in-batch negatives still vary across epochs, and the batch
    order is shuffled. Fully determined by `rng`.
    """
    order = np.argsort(lengths, kind="stable")
    batches = []
    w = BUCKET_WINDOW * bs
    for start in range(0, len(order), w):
        block = order[start : start + w]
        block = block[rng.permutation(len(block))]
        batches.extend(block[i : i + bs] for i in range(0, len(block), bs))
    return [batches[i] for i in rng.permutation(len(batches))]


# ---------------------------------------------------------------------------
# Stage regimes and the step driver
# ---------------------------------------------------------------------------

# What stage 3 trains; it freezes the text base.
CLIP_TRAINABLE_PREFIXES = ("lora.", "proj_text", "proj_img", "vision.", "clip.log_tau")


def _trains(stage: str, name: str) -> bool:
    """Whether `stage` trains parameter `name`: stages 1 and 2 train every
    parameter, stage 3 those under CLIP_TRAINABLE_PREFIXES."""
    return stage != "clip" or name.startswith(CLIP_TRAINABLE_PREFIXES)


def _stage_lrs(stage: str, run: RunConfig) -> dict:
    """The learning-rate groups of a stage's optimizer; step records report
    the "" group's rate."""
    if stage == "clip":
        return {"": run.lr_projection, "lora.": run.lr_text}
    return {"": run.lr_mntp if stage == "mntp" else run.lr_text}


def _assert_regime(params, stage: str = "clip") -> None:
    expected = {n for n in params if _trains(stage, n)}
    actual = set(trainable_names(params))
    if actual != expected:
        raise RegimeViolationError(
            f"{stage}: trainable census mismatch: extra={sorted(actual - expected)} "
            f"missing={sorted(expected - actual)}"
        )


def _assert_frozen_untouched(params, stage: str) -> None:
    touched = [n for n, p in params.items() if not _trains(stage, n) and p.grad is not None]
    if touched:
        raise RegimeViolationError(f"{stage}: gradient reached frozen parameters: {touched}")


def _grad_norm(params) -> float:
    """Global L2 norm of the gradients an optimizer step applies."""
    grads = [p.grad for p in params.values() if p.requires_grad and p.grad is not None]
    return math.sqrt(sum(float(np.square(g, dtype=np.float64).sum()) for g in grads))


def _tau(params) -> float | None:
    """Stage 3's clamped temperature; None in the stages without one."""
    if "clip.log_tau" not in params:
        return None
    return 1.0 / float(inverse_tau(float(params["clip.log_tau"].data[0])).data[0])


def _stage_copy(params) -> dict:
    """A stage's own copy of the previous stage's text tower, without the
    MNTP head: training updates arrays in place, so sharing them would
    rewrite the previous result."""
    return {n: Tensor(p.data.copy()) for n, p in params.items() if not n.startswith("mntp.")}


def _train_stage(
    stage: str, run: RunConfig, vocab: Vocabulary, params: dict, n_items: int,
    batches, step_loss, validate, log_path=None, ckpt_path=None,
    stop_after: int | None = None, resume: StageResult | None = None,
) -> StageResult:
    """The training loop of every stage. The stage supplies its parameters,
    its number of training items, `batches(epoch)`, `step_loss(batch, step,
    count)` giving a batch's loss Tensor, and `validate()` giving
    {"val_loss": ..., ...}; its trainable set, learning rates, epochs and
    batch size follow from `stage` and `run`. The cosine schedule spans
    epochs × ceil(n_items / batch) steps, batches a stage skips included.
    `resume` continues a partial result; `stop_after` ends before that step.
    """
    set_trainable(params, lambda n: _trains(stage, n))
    if resume is not None:
        if resume.config.digest() != run.digest():
            raise ValueError("resume refused: config digest mismatch")
        opt, start_step = resume.optimizer, resume.step
    else:
        opt, start_step = AdamW(group_lrs=_stage_lrs(stage, run)), 0
    log = TrainLog(log_path)
    result = StageResult(stage, params, vocab, run, start_step, opt, log.records)
    epochs, bs = getattr(run, f"epochs_{stage}"), getattr(run, f"batch_{stage}")
    total_steps = epochs * math.ceil(n_items / bs)
    step = 0
    try:
        for epoch in range(epochs):
            epoch_start = time.perf_counter()
            for batch in batches(epoch):
                if step < start_step:
                    step += 1
                    continue
                if stop_after is not None and step >= stop_after:
                    return result
                step_start = time.perf_counter()
                opt.zero_grad(params)
                _assert_regime(params, stage)
                count = TokenCount()
                loss = step_loss(batch, step, count)
                value = float(loss.data)
                _check_loss_finite(value, stage, step, result, ckpt_path)
                backward(loss)
                _assert_frozen_untouched(params, stage)
                grad_norm = _grad_norm(params)
                opt.lr_scale = _lr_scale(step, total_steps)
                opt.step(params)
                log.write(
                    step=step, stage=stage, loss=value,
                    lr=opt.group_lrs[""] * opt.lr_scale, tau=_tau(params),
                    tokens=count.tokens, pad_tokens=count.pad_tokens,
                    grad_norm=grad_norm, step_s=time.perf_counter() - step_start,
                )
                step += 1
                result.step = step
            # an epoch that ended before `start_step` was validated by the
            # run being resumed
            if start_step == 0 or step > start_step:
                val = validate()
                _check_loss_finite(val["val_loss"], stage, step, result, ckpt_path)
                epoch_s = time.perf_counter() - epoch_start
                log.write(stage=stage, epoch=epoch, **val, epoch_s=epoch_s)
        if ckpt_path is not None:
            result.save(ckpt_path)
        return result
    finally:
        log.close()


# ---------------------------------------------------------------------------
# Stage 1: masked pretraining
# ---------------------------------------------------------------------------


def _mntp_step_loss(params, run, seqs, step, train=True, count=None):
    """Mean cross entropy over every masked token of `seqs`. Each length
    group's `mntp_loss` enters weighted by its share of the masked tokens.
    `train` picks the mask stream: training steps draw their masks from
    `_STREAM_MASK`, validation from `_STREAM_VAL_MASK`."""
    stream = _STREAM_MASK if train else _STREAM_VAL_MASK
    rng_mask = stream_rng(run.seed, stream, step)
    masked = [apply_mntp_mask(s, run.mask_prob, rng_mask) for s in seqs]
    total = sum(len(s.mask_targets) for s in masked)
    loss = None
    for idx, _, _, hidden in length_groups(params, run, masked, count=count):
        logits = linear(hidden, params["mntp.w"], params["mntp.b"])
        group = [masked[j] for j in idx]
        positions = [(b, p) for b, s in enumerate(group) for p in s.mask_positions]
        targets = [t for s in group for t in s.mask_targets]
        part = mntp_loss(logits, targets, positions, shift=run.mntp_shift)
        part = scale(part, len(targets) / total)
        loss = part if loss is None else add(loss, part)
    return loss


def _mntp_val_loss(params, run, val_texts, vocab) -> float:
    params = frozen(params)
    total, count = 0.0, 0
    bs = run.batch_mntp
    for start in range(0, len(val_texts), bs):
        chunk = val_texts[start : start + bs]
        seqs = [encode(t, vocab, max_len=run.max_len) for t in chunk]
        loss = _mntp_step_loss(params, run, seqs, step=start, train=False)
        total += float(loss.data) * len(chunk)
        count += len(chunk)
    return total / count


def train_mntp(
    studies,
    run: RunConfig,
    vocab: Vocabulary | None = None,
    log_path=None,
    ckpt_path=None,
    stop_after: int | None = None,
    resume: StageResult | None = None,
) -> StageResult:
    """Masked pretraining over the variant-mixed text pool.

    `stop_after` ends the run early (for split-run resume tests); `resume`
    continues from a previous partial result with the same config.
    """
    train_studies, val_studies = split_corpus(studies)
    val_texts = [s.findings_text for s in val_studies] + [
        s.impression_text for s in val_studies
    ]
    _require_val("mntp", len(val_texts), 1)
    vocab = vocab or corpus_vocab(studies)
    if resume is not None:
        params = resume.params
    else:
        params = init_text_tower(run, len(vocab), stream_rng(run.seed, _STREAM_INIT_TEXT))
    seqs = [encode(t, vocab, max_len=run.max_len) for t in mntp_text_pool(train_studies)]
    lengths = [len(s.ids) for s in seqs]

    def batches(epoch):
        rng_epoch = stream_rng(run.seed, _STREAM_ORDER["mntp"], epoch)
        return bucketed_batches(lengths, run.batch_mntp, rng_epoch)

    def step_loss(batch, step, count):
        return _mntp_step_loss(params, run, [seqs[j] for j in batch], step, count=count)

    def validate():
        return {"val_loss": _mntp_val_loss(params, run, val_texts, vocab)}

    return _train_stage(
        "mntp", run, vocab, params, len(seqs), batches, step_loss, validate,
        log_path=log_path, ckpt_path=ckpt_path, stop_after=stop_after, resume=resume,
    )


# ---------------------------------------------------------------------------
# Stage 2: supervised contrastive fine-tuning
# ---------------------------------------------------------------------------


def encode_pooled(params, run: RunConfig, seqs, normalize=True, count=None):
    """Pooled (and L2-normalized) rows of token sequences, in input order,
    from length-grouped forwards (`length_groups`)."""
    parts, order = [], []
    for idx, ids, spans, hidden in length_groups(params, run, seqs, count=count):
        parts.append(pool(params, hidden, eligible_mask(ids, spans), run.pooling))
        order.append(idx)
    pooled = concat(parts) if len(parts) > 1 else parts[0]
    order = np.concatenate(order)
    if np.any(order != np.arange(len(order))):
        pooled = take_rows(pooled, np.argsort(order))
    return l2_normalize(pooled) if normalize else pooled


def _supcon_val_loss(params, run, val_pairs, vocab) -> float:
    params = frozen(params)
    total, count = 0.0, 0
    bs = run.batch_contrastive
    for start in range(0, len(val_pairs) - 1, bs):
        batch = val_pairs[start : start + bs]
        a = [encode(p.anchor_text, vocab, instruction=p.instruction, max_len=run.max_len) for p in batch]
        pos = [encode(p.positive_text, vocab, max_len=run.max_len) for p in batch]
        ae = encode_pooled(params, run, a)
        pe = encode_pooled(params, run, pos)
        loss = supcon_loss(ae, pe, [p.label_key for p in batch], tau=run.supcon_tau)
        total += float(loss.data) * len(batch)
        count += len(batch)
    return total / count


def train_contrastive(
    studies,
    run: RunConfig,
    init: StageResult | None = None,
    log_path=None,
    ckpt_path=None,
) -> StageResult:
    """Instruction-based supervised contrastive stage. Starts from an MNTP
    result unless `init` is None (cold-start ablation)."""
    train_studies, val_studies = split_corpus(studies)
    val_pairs = build_contrastive_pairs(val_studies, stream_rng(run.seed, _STREAM_PAIRS, 1))
    _require_val("contrastive", len(val_pairs), 2)
    if init is not None:
        vocab, params = init.vocab, init.params
    else:
        vocab = corpus_vocab(studies)
        rng = stream_rng(run.seed, _STREAM_INIT_TEXT)
        params = init_text_tower(run, len(vocab), rng)
    params = _stage_copy(params)

    pairs = build_contrastive_pairs(train_studies, stream_rng(run.seed, _STREAM_PAIRS))
    anchor_seqs = [
        encode(p.anchor_text, vocab, instruction=p.instruction, max_len=run.max_len)
        for p in pairs
    ]
    positive_seqs = [encode(p.positive_text, vocab, max_len=run.max_len) for p in pairs]
    bs = run.batch_contrastive

    def batches(epoch):
        order = stream_rng(run.seed, _STREAM_ORDER["contrastive"], epoch).permutation(len(pairs))
        # every batch but a last one of a single pair, which has no negative
        return [order[i : i + bs] for i in range(0, len(pairs) - 1, bs)]

    def step_loss(ids, step, count):
        a = [anchor_seqs[j] for j in ids]
        pos = [positive_seqs[j] for j in ids]
        ae = encode_pooled(params, run, a, count=count)
        pe = encode_pooled(params, run, pos, count=count)
        return supcon_loss(ae, pe, [pairs[j].label_key for j in ids], tau=run.supcon_tau)

    def validate():
        return {"val_loss": _supcon_val_loss(params, run, val_pairs, vocab)}

    return _train_stage(
        "contrastive", run, vocab, params, len(pairs), batches, step_loss, validate,
        log_path=log_path, ckpt_path=ckpt_path,
    )


# ---------------------------------------------------------------------------
# Stage 3: image-text alignment
# ---------------------------------------------------------------------------


def section_text(study, section: str) -> str:
    """The text of a study's report section, "findings" or "impression"."""
    return study.findings_text if section == "findings" else study.impression_text


def clip_text_seq(study, vocab, run: RunConfig, section: str = "findings"):
    """Token sequence for a report on the alignment side."""
    text = section_text(study, section)
    if run.section_aware:
        return encode(
            text,
            vocab,
            instruction=INSTR_IMAGE.format(section=section),
            section=section,
            max_len=run.max_len,
        )
    return encode(text, vocab, max_len=run.max_len)


# Training items whose mean tower features initialize the centering vectors.
CENTER_ITEMS = 256


def _center_projections(params, view, run, items):
    """Data-dependent init of the projection centering vectors of `params`,
    from the features of `view`, their merged frozen view, over the first
    CENTER_ITEMS training items.

    Both towers emit one dominant shared direction at init, so cosine
    similarities start near 1.0 for every pair — a neighborhood where the
    contrastive gradient vanishes (at exact collapse it is identically
    zero). Setting `mu` to the mean tower feature over a training prefix
    starts the heads decorrelated; `mu` stays trainable afterwards.
    """
    probe = items[:CENTER_ITEMS]
    seqs = [seq for seq, _ in probe]
    t_rows = encode_pooled(view, run, seqs, normalize=False).data
    bs = run.batch_clip
    v_rows = [
        vision_forward(view, images=np.stack([img for _, img in probe[i : i + bs]])).data
        for i in range(0, len(probe), bs)
    ]
    params["proj_text.mu"].data = t_rows.mean(axis=0)
    params["proj_img.mu"].data = np.concatenate(v_rows).mean(axis=0)


def _clip_project(params, run, items, count=None):
    """Projected (image, report) rows of a batch of (token sequence, image)
    items, in the shared space. `params` hold the merged text weights
    (`lora_merge`)."""
    seqs = [seq for seq, _ in items]
    images = np.stack([img for _, img in items])
    t_emb = encode_pooled(params, run, seqs, normalize=False, count=count)
    v_emb = vision_forward(params, images=images)
    t_proj = project(t_emb, params["proj_text.w"], params["proj_text.mu"])
    v_proj = project(v_emb, params["proj_img.w"], params["proj_img.mu"])
    return v_proj, t_proj


def train_clip(
    studies,
    run: RunConfig,
    text_init: StageResult,
    log_path=None,
    ckpt_path=None,
    section_of=None,
) -> StageResult:
    """Image-text alignment: frozen text base, trainable LoRA adapters,
    projections, vision tower, and temperature.

    `section_of` maps a study id to "findings" or "impression"; by default
    every study pairs its image with the findings text.
    """
    train_studies, val_studies = split_corpus(studies)
    _require_val("clip", len(val_studies), 2)
    vocab = text_init.vocab
    params = _stage_copy(text_init.params)
    params.update(init_lora(params, run, stream_rng(run.seed, _STREAM_INIT_LORA)))
    params.update(init_vision_tower(stream_rng(run.seed, _STREAM_INIT_VISION)))
    rng_proj = stream_rng(run.seed, _STREAM_INIT_PROJ, 1)
    params.update(init_projection("proj_text", run.model_dim, run.shared_dim, rng_proj))
    params.update(init_projection("proj_img", VISION_DIM, run.shared_dim, rng_proj))
    params["clip.log_tau"] = init_log_tau()

    section_of = section_of or (lambda sid: "findings")

    def items_for(subset):
        return [
            (clip_text_seq(s, vocab, run, section_of(s.study_id)), s.image)
            for s in subset
        ]

    train_items = items_for(train_studies)
    val_items = items_for(val_studies)
    _center_projections(params, lora_merge(frozen(params), run), run, train_items)
    lengths = [len(seq.ids) for seq, _ in train_items]

    def batches(epoch):
        rng_epoch = stream_rng(run.seed, _STREAM_ORDER["clip"], epoch)
        return [b for b in bucketed_batches(lengths, run.batch_clip, rng_epoch) if len(b) >= 2]

    def step_loss(ids, step, count):
        batch = [train_items[j] for j in ids]
        # merged once per step, so backward runs the fold once for all groups
        merged = lora_merge(params, run)
        v_proj, t_proj = _clip_project(merged, run, batch, count)
        return clip_loss(v_proj, t_proj, params["clip.log_tau"])

    def validate():
        return _clip_val(lora_merge(frozen(params), run), run, val_items)

    return _train_stage(
        "clip", run, vocab, params, len(train_items), batches, step_loss, validate,
        log_path=log_path, ckpt_path=ckpt_path,
    )


def _clip_val(params, run, val_items) -> dict:
    """Validation loss plus recall@{1,5,10} of image→report retrieval, both
    from one projection of each batch of `params`, the merged frozen view
    that `evals.DualEncoder` also serves."""
    bs = run.batch_clip
    total, count = 0.0, 0
    t_rows, v_rows = [], []
    for start in range(0, len(val_items), bs):
        batch = val_items[start : start + bs]
        v_proj, t_proj = _clip_project(params, run, batch)
        if len(batch) >= 2:
            loss = clip_loss(v_proj, t_proj, params["clip.log_tau"])
            total += float(loss.data) * len(batch)
            count += len(batch)
        t_rows.append(t_proj.data)
        v_rows.append(v_proj.data)
    t_mat = np.concatenate(t_rows)
    v_mat = np.concatenate(v_rows)
    sims = v_mat @ t_mat.T
    n = sims.shape[0]
    diag = sims[np.arange(n), np.arange(n)][:, None]
    # ties count against the query: a collapsed embedding must not score
    ranks = (sims > diag).sum(axis=1) + ((sims == diag).sum(axis=1) - 1)
    out = {"val_loss": total / count}
    for k in (1, 5, 10):
        out[f"recall@{k}"] = float((ranks < k).mean())
    return out
