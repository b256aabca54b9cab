"""Span and counter tracing for the benchmark's traced runs.

The benchmark never edits the program: a Tracer replaces public functions
with wrappers at the names their callers look up (`pipeline` imports
`text_forward` from `towers`, so the wrapper goes on `cxalign.pipeline`),
records one span per call, and puts every original back on `restore`.

A span is (name, start, end, parent, unit, op, step). `unit` is the part of
the run the span fell in: ("setup", i) for the i-th set-up, ("pass", i) for
the i-th timed pass, or None while outputs are being checked. Self time is a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, unit, op, step]
        self._child_time = []
        self._stack = []
        self._undo = []
        self.unit = None
        self.op = None
        self.step = 0
        self.counts = defaultdict(Counter)  # unit -> counter name -> value

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.unit, self.op, self.step])
        self._child_time.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        end = time.perf_counter()
        span = self.spans[idx]
        span[2] = end
        self._stack.pop()
        if span[3] >= 0:
            self._child_time[span[3]] += end - span[1]

    def count(self, name, n=1):
        if self.unit is not None:
            self.counts[self.unit][name] += n

    def call(self, name, fn, *args, **kwargs):
        """Run `fn` inside a span of its own (for the benchmark's call sites)."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    # -- patching ----------------------------------------------------------

    def wrap(self, owner, attr, name, counter=None):
        """Replace `owner.attr` with a spanning wrapper; `counter(tracer,
        args, kwargs)` records counts per call."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if counter is not None:
                counter(tracer, args, kwargs)
            idx = tracer._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(idx)

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def install(self):
        """Wrap every layer boundary the per-layer metrics read."""
        import numpy as np

        from cxalign import checkpoint, evals, optim, pipeline
        from cxalign.grammar import corpus
        from cxalign.tokenizer import PAD

        def text_counter(t, args, kwargs):
            ids = np.asarray(kwargs["ids"] if "ids" in kwargs else args[2])
            t.count("text_forward_calls")
            t.count("text_tokens", int(ids.size))
            t.count("text_pad_tokens", int((ids == PAD).sum()))

        def vision_counter(t, args, kwargs):
            images = kwargs["images"] if "images" in kwargs else args[2]
            t.count("vision_images", len(images))

        def step_counter(t, args, kwargs):
            t.count("optim_steps")
            t.step += 1

        def load_counter(t, args, kwargs):
            t.count("checkpoint_bytes", os.path.getsize(args[0]))

        def query_counter(t, args, kwargs):
            t.count("retrieve_queries", len(args[0]))

        def counting(counter_name):
            return lambda t, args, kwargs: t.count(counter_name)

        self.wrap(pipeline, "backward", "autodiff.backward", counting("backward_calls"))
        self.wrap(pipeline, "text_forward", "towers.text_forward", text_counter)
        for owner in (pipeline, evals):
            self.wrap(owner, "vision_forward", "towers.vision_forward", vision_counter)
            self.wrap(owner, "encode", "tokenizer.encode", counting("encode_calls"))
        for loss in ("mntp_loss", "supcon_loss", "clip_loss"):
            self.wrap(pipeline, loss, "objectives.loss")
        self.wrap(pipeline, "build_contrastive_pairs", "objectives.pairs")
        self.wrap(optim.AdamW, "step", "optim.step", step_counter)
        self.wrap(pipeline, "apply_mntp_mask", "tokenizer.mask")
        self.wrap(pipeline, "pad_batch", "pipeline.pad_batch")
        self.wrap(pipeline, "corpus_vocab", "pipeline.vocab")
        for stage in ("mntp", "contrastive", "clip"):
            self.wrap(pipeline, f"train_{stage}", f"pipeline.{stage}")
        self.wrap(corpus, "generate_corpus", "grammar.generate")
        self.wrap(corpus, "read_corpus", "grammar.read_corpus")
        self.wrap(evals, "extract_labels", "grammar.extract_labels", counting("extract_labels_calls"))
        self.wrap(evals, "render_report", "grammar.render_report")
        self.wrap(checkpoint, "load_checkpoint", "checkpoint.load", load_counter)
        self.wrap(pipeline, "save_checkpoint", "checkpoint.save")
        self.wrap(evals, "retrieve_topk", "evals.retrieve_topk", query_counter)
        self.wrap(evals.EmbeddingIndex, "__init__", "evals.index")
        self.wrap(evals.TextEncoder, "embed", "evals.embed")
        self.wrap(evals.DualEncoder, "embed_reports", "evals.embed")
        self.wrap(evals.DualEncoder, "embed_images", "evals.embed")
        self.wrap(evals, "oracle_judge_rank", "evals.judge")

    # -- results -----------------------------------------------------------

    def totals(self, phase):
        """Per span name: (total seconds, self seconds) over units of `phase`."""
        total, self_time = Counter(), Counter()
        for (name, start, end, _parent, unit, _op, _step), child in zip(
            self.spans, self._child_time
        ):
            if unit is not None and unit[0] == phase and end is not None:
                total[name] += end - start
                self_time[name] += end - start - child
        return total, self_time

    def phase_counts(self, phase):
        out = Counter()
        for unit, counter in self.counts.items():
            if unit[0] == phase:
                out.update(counter)
        return out

    def counts_repeat(self, phase):
        """Per counter: True when every unit of `phase` counted the same,
        None when there was only one unit to compare."""
        units = [c for u, c in sorted(self.counts.items()) if u[0] == phase]
        names = sorted(set().union(*units)) if units else []
        if len(units) < 2:
            return {n: None for n in names}
        return {n: len({c[n] for c in units}) == 1 for n in names}

    def write(self, path):
        """Write the spans, one JSON array per line, after a header line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "unit", "op", "step", "self"]}) + "\n")
            for span, child in zip(self.spans, self._child_time):
                end = span[2] if span[2] is not None else span[1]
                fh.write(json.dumps(span + [end - span[1] - child]) + "\n")


# Counters the wrappers in `Tracer.install` keep.
COUNTERS = (
    "backward_calls",
    "optim_steps",
    "text_forward_calls",
    "text_tokens",
    "text_pad_tokens",
    "vision_images",
    "encode_calls",
    "extract_labels_calls",
    "retrieve_queries",
    "checkpoint_bytes",
)

# Per-layer metrics of a traced run: (metric, unit, kind, source, phase).
# Times are seconds per unit of `phase` ("total" includes child spans,
# "self" excludes them); counts are per unit; "ratio" divides two counters.
# Each comment names the end-to-end metrics, and workloads, the group
# should move.
LAYER_METRICS = (
    # train: both rates and pass_s; zero on serve and eval
    ("autodiff.backward_s", "s", "total", "autodiff.backward", "pass"),
    ("autodiff.backward_calls", "count", "count", "backward_calls", "pass"),
    # text_tokens_per_s and pass_s on every workload
    ("towers.text_forward_s", "s", "total", "towers.text_forward", "pass"),
    ("towers.text_forward_calls", "count", "count", "text_forward_calls", "pass"),
    ("towers.text_tokens", "count", "count", "text_tokens", "pass"),
    ("towers.text_pad_frac", "fraction", "ratio", ("text_pad_tokens", "text_tokens"), "pass"),
    # image_items_per_s on every workload
    ("towers.vision_forward_s", "s", "total", "towers.vision_forward", "pass"),
    ("towers.vision_images", "count", "count", "vision_images", "pass"),
    # train: both rates (pairs: text_tokens_per_s)
    ("objectives.loss_s", "s", "total", "objectives.loss", "pass"),
    ("objectives.pairs_s", "s", "total", "objectives.pairs", "pass"),
    ("optim.step_s", "s", "total", "optim.step", "pass"),
    ("optim.steps", "count", "count", "optim_steps", "pass"),
    # serve: text_tokens_per_s; eval: pass_s; mask: train text_tokens_per_s
    ("tokenizer.encode_s", "s", "total", "tokenizer.encode", "pass"),
    ("tokenizer.encode_calls", "count", "count", "encode_calls", "pass"),
    ("tokenizer.mask_s", "s", "total", "tokenizer.mask", "pass"),
    # train: the rate of the matching stage; vocab: train setup_s
    ("pipeline.mntp_self_s", "s", "self", "pipeline.mntp", "pass"),
    ("pipeline.contrastive_self_s", "s", "self", "pipeline.contrastive", "pass"),
    ("pipeline.clip_self_s", "s", "self", "pipeline.clip", "pass"),
    ("pipeline.pad_batch_s", "s", "total", "pipeline.pad_batch", "pass"),
    ("pipeline.vocab_s", "s", "total", "pipeline.vocab", "setup"),
    # generate: train setup_s; read_corpus: serve and eval setup_s; the
    # label oracle and rendering: eval pass_s
    ("grammar.generate_s", "s", "total", "grammar.generate", "setup"),
    ("grammar.read_corpus_s", "s", "total", "grammar.read_corpus", "setup"),
    ("grammar.extract_labels_s", "s", "total", "grammar.extract_labels", "pass"),
    ("grammar.extract_labels_calls", "count", "count", "extract_labels_calls", "pass"),
    ("grammar.render_report_s", "s", "total", "grammar.render_report", "pass"),
    # load: serve and eval setup_s; save: train pass_s
    ("checkpoint.load_s", "s", "total", "checkpoint.load", "setup"),
    ("checkpoint.bytes", "bytes", "count", "checkpoint_bytes", "setup"),
    ("checkpoint.save_s", "s", "total", "checkpoint.save", "pass"),
    # serve: both rates and pass_s; eval: pass_s (embed: both rates)
    ("evals.retrieve_topk_s", "s", "total", "evals.retrieve_topk", "pass"),
    ("evals.retrieve_queries", "count", "count", "retrieve_queries", "pass"),
    ("evals.index_s", "s", "total", "evals.index", "pass"),
    ("evals.embed_self_s", "s", "self", "evals.embed", "pass"),
    ("evals.judge_s", "s", "total", "evals.judge", "pass"),
)


def layer_metrics(tracer: Tracer, units: dict) -> dict:
    """Per-layer metric values; `units` maps a phase to how many units of
    it ran (set-ups, passes)."""
    totals = {phase: tracer.totals(phase) for phase in units}
    counts = {phase: tracer.phase_counts(phase) for phase in units}
    out = {}
    for name, unit, kind, source, phase in LAYER_METRICS:
        n = max(units[phase], 1)
        if kind == "total":
            value = totals[phase][0][source] / n
        elif kind == "self":
            value = totals[phase][1][source] / n
        elif kind == "count":
            value = counts[phase][source] / n
        else:
            num, den = (counts[phase][c] for c in source)
            value = num / den if den else 0.0
        out[name] = {"value": value, "unit": unit}
    return out
