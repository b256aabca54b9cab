"""The benchmark's three workloads: train, serve and eval.

Every workload makes its inputs from the seed, sets up, then runs
identical passes over the same inputs until `seconds` are spent, with at
least one pass, and sets up again: `setup_s` is the median of
`setup_repeats` set-ups, half before the passes and half after. Outputs are
checked after each pass, outside the timed region. Identical passes make
per-pass times and counters comparable across runs and commits.

Why these three: training and inference stress different layers (only
`train` runs backward and the optimizer), and batch-1 serving is dominated
by per-call overhead while batch-64 evaluation is dominated by the towers,
so a change that trades one for the other shows on one of them.

End-to-end metrics, reported by every workload:

  setup_s            median set-up time (s)
  peak_rss_mb        peak resident memory of the process (MB)
  pass_s             median wall time of one pass (s)
  text_tokens_per_s  text tokens per second (1/s); tokens as `encode` makes
                     them, so the rate does not move with how long one
                     seed's reports happen to be
  image_items_per_s  image items per second (1/s)

  workload  set-up                         one pass                          text tokens          image items
  train     generate_corpus, corpus_vocab  train_mntp -> train_contrastive   of MNTP sequences    CLIP pairs per
                                           -> train_clip -> save_stage       and contrastive      second of
                                                                             pairs per second of  train_clip
                                                                             stages 1-2
  serve     read_corpus, load_stage,       each pool item as a batch-1       of report queries    image queries per
            DualEncoder, pool embedding    image and a report query, top-10  second of their      second of their
                                           retrieve_topk, 1 closed-loop      latency              latency
                                           client; pass_s is their summed
                                           latency
  eval      read_corpus, load_stage x2,    batch-64 bulk embedding, then     of texts embedded    images embedded
            TextEncoder, DualEncoder       Tasks 1-5, multimodal and judge   second               per second

Each workload also prints its own figures by name (stage rates and final
validation losses; serve p50/p99/qps; embedding rate, suite time and
recalls) and `failed_frac`, which the result line carries as
`failed`/`attempted`.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import Tracer

# Corpus seed of the checkpoint `serve` and `eval` load; far from the small
# seeds the workloads are run with, so their inputs are held out.
CKPT_SEED = 917_403
TOPK = 10
# batch-1 and batch-64 embeddings of one item differ only in summation order
EMBED_ATOL = 1e-5
SIM_ATOL = 1e-6


@dataclass(frozen=True)
class Sizes:
    train_studies: int = 128
    pool_studies: int = 128
    eval_studies: int = 128
    ckpt_studies: int = 400
    setup_repeats: int = 5


@dataclass
class Ledger:
    """Operations attempted and failed; an operation fails when one of its
    checks fails or it raises."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def record(self, what: str, problems) -> None:
        self.attempted += 1
        problems = [p for p in problems if p]
        if problems:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{what}: {problems[0]}")


@dataclass
class Context:
    root: Path
    out: Path
    seed: int
    seconds: float
    sizes: Sizes
    tracer: Tracer | None
    ledger: Ledger = field(default_factory=Ledger)

    def enter(self, phase, index=None, op=None) -> None:
        if self.tracer is not None:
            self.tracer.unit = None if phase is None else (phase, index)
            self.tracer.op = op


# ---------------------------------------------------------------------------
# inputs, checkpoint cache, environment
# ---------------------------------------------------------------------------


def source_digest(root: Path) -> str:
    """Digest of the program's source, keying the checkpoint cache."""
    h = hashlib.sha256()
    files = [root / "pyproject.toml"] + sorted(
        p for p in (root / "src").rglob("*") if p.is_file() and "__pycache__" not in p.parts
    )
    for path in files:
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def write_inputs(out: Path, workload: str, seed: int, n: int) -> Path:
    """The generated corpus a workload reads; byte-identical per seed."""
    from cxalign.grammar import corpus

    path = out / "inputs" / f"{workload}-seed{seed}-n{n}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    corpus.write_corpus(corpus.generate_corpus(n, seed=seed), path)
    return path


def build_checkpoint(dest: Path, n: int) -> None:
    """Train all three stages on a fixed corpus; save stages 2 and 3."""
    from cxalign import pipeline
    from cxalign.grammar import corpus

    studies = corpus.generate_corpus(n, seed=CKPT_SEED)
    run = pipeline.RunConfig()
    r2 = pipeline.train_contrastive(studies, run, init=pipeline.train_mntp(studies, run))
    r3 = pipeline.train_clip(studies, run, text_init=r2)
    pipeline.save_stage(r2, dest / "s2")
    pipeline.save_stage(r3, dest / "s3")


def ensure_checkpoint(ctx: Context) -> Path:
    """The checkpoint trained by the code under test, built once per source
    digest in a child process so its memory stays out of `peak_rss_mb`."""
    n = ctx.sizes.ckpt_studies
    path = ctx.out / "ckpt" / f"{source_digest(ctx.root)}-n{n}"
    if path.is_dir():
        return path
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    script = Path(__file__).resolve().parent / "run.py"
    subprocess.run(
        [sys.executable, str(script), "--build-checkpoint", str(tmp), "--ckpt-studies", str(n)],
        check=True,
        timeout=900,
    )
    os.replace(tmp, path)
    return path


def environment(root: Path) -> dict:
    import platform

    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "CXAL_THREADS": os.environ.get("CXAL_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": commit,
        "source_digest": source_digest(root),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# shared loop
# ---------------------------------------------------------------------------


class Setups:
    """Times `setup_repeats` runs of a workload's set-up: half before the
    passes and the rest after them, so the median evens out the machine's
    speed drifting over the run."""

    def __init__(self, ctx: Context, fn):
        self.ctx, self.fn, self.times = ctx, fn, []

    def run(self, count: int):
        """Run the set-up `count` more times; the last output."""
        out = None
        for _ in range(count):
            out = None  # drop the previous set-up's objects before the next
            self.ctx.enter("setup", len(self.times))
            t0 = time.perf_counter()
            out = self.fn()
            self.times.append(time.perf_counter() - t0)
        self.ctx.enter(None)
        return out

    def first(self):
        return self.run((self.ctx.sizes.setup_repeats + 1) // 2)

    def median(self) -> float:
        self.run(self.ctx.sizes.setup_repeats - len(self.times))
        return statistics.median(self.times)


def _passes(ctx: Context, one_pass) -> list:
    """Run `one_pass(i)` until `seconds` are used (at least once); a pass
    that raises is counted as a failed operation and ends the loop."""
    records = []
    deadline = time.perf_counter() + ctx.seconds
    while True:
        i = len(records)
        start = time.perf_counter()
        try:
            records.append(one_pass(i))
        except Exception as exc:  # noqa: BLE001 - reported as a failed operation
            traceback.print_exc(file=sys.stderr)
            ctx.ledger.record(f"pass {i}", [f"{type(exc).__name__}: {exc}"])
            break
        finally:
            ctx.enter(None)
        last = time.perf_counter() - start
        if time.perf_counter() + last > deadline:
            break
    return records


def _finite_log(result) -> list:
    bad = [r for r in result.log for k in ("loss", "val_loss") if k in r and not math.isfinite(r[k])]
    return [f"{result.stage}: non-finite logged loss {bad[0]}"] if bad else []


def _same_bytes(a: dict, b: dict) -> bool:
    """Same names, dtypes and bytes: a bit-exact round trip."""
    return a.keys() == b.keys() and all(
        a[k].dtype == b[k].dtype and a[k].tobytes() == b[k].tobytes() for k in a
    )


def _median(records, key):
    return statistics.median(r[key] for r in records)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def run_train(ctx: Context) -> dict:
    from cxalign import pipeline
    from cxalign.checkpoint import params_to_arrays
    from cxalign.grammar import corpus
    from cxalign.objectives import build_contrastive_pairs, mntp_text_pool
    from cxalign.tokenizer import encode

    run = pipeline.RunConfig()

    def setup():
        studies = corpus.generate_corpus(ctx.sizes.train_studies, seed=ctx.seed)
        return studies, pipeline.corpus_vocab(studies)

    setups = Setups(ctx, setup)
    studies, vocab = setups.first()
    train, _ = pipeline.split_corpus(studies)
    texts = mntp_text_pool(train)
    # the stage builds its pairs with its own rng stream; these can differ
    # from it by a few "similar" pairs, but are fixed per input
    pair_list = build_contrastive_pairs(train, np.random.default_rng(ctx.seed))
    mntp_seqs = len(texts) * run.epochs_mntp
    pairs = len(pair_list) * run.epochs_contrastive
    clip_pairs = len(train) * run.epochs_clip
    text_tokens = run.epochs_mntp * sum(len(encode(t, vocab, max_len=run.max_len).ids) for t in texts)
    text_tokens += run.epochs_contrastive * sum(
        len(encode(p.anchor_text, vocab, instruction=p.instruction, max_len=run.max_len).ids)
        + len(encode(p.positive_text, vocab, max_len=run.max_len).ids)
        for p in pair_list
    )
    ckdir = ctx.out / "work" / f"train-seed{ctx.seed}"
    first = {}

    def one_pass(i):
        ctx.enter("pass", i, op=f"pass{i}")
        t0 = time.perf_counter()
        r1 = pipeline.train_mntp(studies, run, vocab=vocab)
        t1 = time.perf_counter()
        r2 = pipeline.train_contrastive(studies, run, init=r1)
        t2 = time.perf_counter()
        r3 = pipeline.train_clip(studies, run, text_init=r2)
        t3 = time.perf_counter()
        pipeline.save_stage(r3, ckdir)
        t4 = time.perf_counter()
        ctx.enter(None)

        losses = tuple(r.final_val_loss() for r in (r1, r2, r3))
        for r in (r1, r2, r3):
            ctx.ledger.record(f"pass {i} {r.stage}", _finite_log(r))
        loaded = pipeline.load_stage(ckdir)
        ctx.ledger.record(
            f"pass {i} checkpoint round trip",
            [
                loaded.stage != "clip" and f"stage {loaded.stage!r}",
                loaded.step != r3.step and f"step {loaded.step} != {r3.step}",
                not _same_bytes(params_to_arrays(loaded.params), params_to_arrays(r3.params))
                and "parameters differ",
                not _same_bytes(loaded.optimizer.state_arrays(), r3.optimizer.state_arrays())
                and "optimizer state differs",
            ],
        )
        first.setdefault("losses", losses)
        if i:
            ctx.ledger.record(
                f"pass {i} determinism",
                [losses != first["losses"] and f"val losses {losses} != {first['losses']}"],
            )
        return {
            "pass_s": t4 - t0,
            "text_tokens_per_s": text_tokens / (t2 - t0),
            "image_items_per_s": clip_pairs / (t3 - t2),
            "mntp_seqs_per_s": mntp_seqs / (t1 - t0),
            "contrastive_pairs_per_s": pairs / (t2 - t1),
            "clip_pairs_per_s": clip_pairs / (t3 - t2),
            "losses": losses,
        }

    records = _passes(ctx, one_pass)
    setup_s = setups.median()
    if not records:
        return {"setup_s": setup_s, "records": records}
    losses = records[0]["losses"]
    named = {k: (_median(records, k), "1/s") for k in ("mntp_seqs_per_s", "contrastive_pairs_per_s", "clip_pairs_per_s")}
    for stage, loss in zip(pipeline.STAGES, losses):
        named[f"{stage}_val_loss"] = (loss, "nats")
    return {
        "setup_s": setup_s,
        "records": records,
        "named": named,
        "outputs": {"val_losses": list(losses)},
        "sizes": {
            "studies": len(studies),
            "mntp_seqs": mntp_seqs,
            "contrastive_pairs": pairs,
            "clip_pairs": clip_pairs,
            "text_tokens": text_tokens,
        },
    }


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------


def reference_topk(query: np.ndarray, pool: np.ndarray, ids: list, k: int) -> list:
    """Brute force: descending cosine, ties to the ascending id."""
    sims = pool @ query
    return [ids[i] for i in sorted(range(len(ids)), key=lambda i: (-sims[i], ids[i]))[:k]]


def topk_problem(got: list, query: np.ndarray, pool: np.ndarray, ids: list, k: int):
    """None when `got` is the reference top-k; otherwise accept only an
    order that differs where similarities tie within float rounding."""
    if got == reference_topk(query, pool, ids, k):
        return None
    sims = dict(zip(ids, pool.astype(np.float64) @ query.astype(np.float64)))
    if len(got) != k or len(set(got)) != k or any(g not in sims for g in got):
        return f"top-{k} {got} is not {k} distinct pool ids"
    vals = [sims[g] for g in got]
    chosen = set(got)
    rest = [v for i, v in sims.items() if i not in chosen]
    if any(b > a + SIM_ATOL for a, b in zip(vals, vals[1:])) or (rest and max(rest) > vals[-1] + SIM_ATOL):
        return f"top-{k} {got} differs from brute force {reference_topk(query, pool, ids, k)}"
    return None


def run_serve(ctx: Context) -> dict:
    from cxalign import evals, pipeline
    from cxalign.grammar import corpus
    from cxalign.tokenizer import encode

    ckpt = ensure_checkpoint(ctx)
    path = write_inputs(ctx.out, "serve", ctx.seed, ctx.sizes.pool_studies)

    def setup():
        studies = corpus.read_corpus(path)
        enc = evals.DualEncoder(pipeline.load_stage(ckpt / "s3"))
        ids = [s.study_id for s in studies]
        reports = evals.EmbeddingIndex(ids, enc.embed_reports([s.findings_text for s in studies]))
        images = evals.EmbeddingIndex(ids, enc.embed_images([s.image for s in studies]), "image")
        return studies, enc, reports, images

    setups = Setups(ctx, setup)
    studies, enc, reports, images = setups.first()
    row = {sid: i for i, sid in enumerate(reports.ids)}
    # every pool item once as an image query and once as a report query, so
    # a pass covers the whole pool whatever the seed
    queries = [(kind, s) for s in studies for kind in ("image", "report")]
    queries = [queries[j] for j in np.random.default_rng([ctx.seed, 1]).permutation(len(queries))]
    # the default RunConfig is not section-aware, so reports encode plainly
    report_tokens = sum(len(encode(s.findings_text, enc.vocab, max_len=enc.run.max_len).ids) for s in studies)
    first_topk = []

    def one_query(kind, s):
        if kind == "image":
            q = evals.EmbeddingIndex([s.study_id], enc.embed_images([s.image]), "image")
            return q, evals.retrieve_topk(q, reports, TOPK)[0]
        q = evals.EmbeddingIndex([s.study_id], enc.embed_reports([s.findings_text]))
        return q, evals.retrieve_topk(q, images, TOPK)[0]

    def one_pass(i):
        lat = {"image": [], "report": []}
        hits = 0
        for j, (kind, s) in enumerate(queries):
            ctx.enter("pass", i, op=f"pass{i}/q{j}")
            t0 = time.perf_counter()
            if ctx.tracer is not None:
                q, top = ctx.tracer.call("serve.query", one_query, kind, s)
            else:
                q, top = one_query(kind, s)
            lat[kind].append(time.perf_counter() - t0)
            ctx.enter(None)

            pool, own = (reports, images) if kind == "image" else (images, reports)
            ctx.ledger.record(
                f"pass {i} query {j} ({kind} {s.study_id})",
                [
                    topk_problem(top, q.matrix[0], pool.matrix, pool.ids, TOPK),
                    not np.allclose(q.matrix[0], own.matrix[row[s.study_id]], atol=EMBED_ATOL, rtol=0)
                    and "batch-1 embedding differs from its batch-64 pool row",
                ],
            )
            hits += s.study_id in top
            if i == 0:
                first_topk.append(top)
        return {
            "pass_s": sum(lat["image"]) + sum(lat["report"]),
            "text_tokens_per_s": report_tokens / sum(lat["report"]),
            "image_items_per_s": len(lat["image"]) / sum(lat["image"]),
            "latencies": lat["image"] + lat["report"],
            "recall": hits / len(queries),
        }

    records = _passes(ctx, one_pass)
    setup_s = setups.median()
    if not records:
        return {"setup_s": setup_s, "records": records}
    lat_ms = np.array([x for r in records for x in r["latencies"]]) * 1000.0
    return {
        "setup_s": setup_s,
        "records": records,
        "named": {
            "serve_p50_ms": (float(np.percentile(lat_ms, 50)), "ms"),
            "serve_p99_ms": (float(np.percentile(lat_ms, 99)), "ms"),
            "serve_qps": (len(lat_ms) / (lat_ms.sum() / 1000.0), "1/s"),
            "serve_latency_samples": (len(lat_ms), "count"),
            "serve_recall_at_10": (records[0]["recall"], "fraction"),
        },
        "outputs": {"topk": first_topk},
        "sizes": {"pool": len(studies), "queries_per_pass": len(queries), "report_tokens": report_tokens},
    }


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def run_eval(ctx: Context) -> dict:
    from cxalign import evals, pipeline
    from cxalign.experiments import random_baseline_recall
    from cxalign.grammar import corpus
    from cxalign.tokenizer import encode

    ckpt = ensure_checkpoint(ctx)
    path = write_inputs(ctx.out, "eval", ctx.seed, ctx.sizes.eval_studies)

    def setup():
        studies = corpus.read_corpus(path)
        r2 = pipeline.load_stage(ckpt / "s2")
        r3 = pipeline.load_stage(ckpt / "s3")
        return studies, evals.TextEncoder(r2), evals.DualEncoder(r3)

    setups = Setups(ctx, setup)
    studies, text_enc, dual_enc = setups.first()
    ids = [s.study_id for s in studies]
    half = len(studies) // 2
    baseline = random_baseline_recall(studies, k=1)
    text_tokens = sum(len(encode(s.findings_text, text_enc.vocab, max_len=text_enc.run.max_len).ids) for s in studies)
    first = {}

    def one_pass(i):
        ctx.enter("pass", i, op=f"pass{i}")
        t0 = time.perf_counter()
        text_rows = text_enc.embed([s.findings_text for s in studies])
        t1 = time.perf_counter()
        image_rows = dual_enc.embed_images([s.image for s in studies])
        t2 = time.perf_counter()
        tasks = {
            "task1": evals.task1_prior_omitted(text_enc, studies),
            "task2": evals.task2_summarization(text_enc, studies),
            "task3": evals.task3_error_discrimination(text_enc, studies),
            "task4": evals.task4_acronym(text_enc, studies),
            "task5": evals.task5_clinical_similarity(text_enc, studies[:half], studies[half:]),
            "multimodal": evals.multimodal_eval(dual_enc, studies[:half], studies[half:]),
        }
        judged = [
            evals.oracle_judge_rank(s.latent.label_set(), [s.impression_text] + [t for _, t in s.errors])
            for s in studies
        ]
        t3 = time.perf_counter()
        ctx.enter(None)

        tasks["judge"] = {
            "mean_rank_truth": sum(r[0] for r, _ in judged) / len(judged),
            "flagged": sum(sum(f) for _, f in judged),
            "items": len(judged),
        }
        for name, rows in (("text", text_rows), ("image", image_rows)):
            try:
                evals.EmbeddingIndex(ids, rows, name)
                problem = None
            except ValueError as exc:
                problem = str(exc)
            ctx.ledger.record(f"pass {i} bulk {name} embedding", [problem])
        try:
            evals.EvalReport(tasks, config_digest=dual_enc.run.digest())
            problem = None
        except ValueError as exc:
            problem = str(exc)
        ctx.ledger.record(f"pass {i} EvalReport", [problem])
        for s, (ranks, flags) in zip(studies, judged):
            ctx.ledger.record(
                f"pass {i} judge {s.study_id}",
                [ranks[0] != 1 and f"truth rank {ranks[0]}", any(flags) and f"{sum(flags)} flagged"],
            )
        r1 = tasks["task1"]["recall@1"]
        ctx.ledger.record(
            f"pass {i} task1", [r1 <= baseline and f"recall@1 {r1} <= random baseline {baseline}"]
        )
        first.setdefault("tasks", tasks)
        if i:
            ctx.ledger.record(f"pass {i} determinism", [tasks != first["tasks"] and "task metrics changed"])
        return {
            "pass_s": t3 - t0,
            "text_tokens_per_s": text_tokens / (t1 - t0),
            "image_items_per_s": len(studies) / (t2 - t1),
            "embed_items_per_s": 2 * len(studies) / (t2 - t0),
            "eval_s": t3 - t2,
            "tasks": tasks,
        }

    records = _passes(ctx, one_pass)
    setup_s = setups.median()
    if not records:
        return {"setup_s": setup_s, "records": records}
    tasks = records[0]["tasks"]
    return {
        "setup_s": setup_s,
        "records": records,
        "named": {
            "embed_items_per_s": (_median(records, "embed_items_per_s"), "1/s"),
            "eval_s": (_median(records, "eval_s"), "s"),
            "task1_recall_at_1": (tasks["task1"]["recall@1"], "fraction"),
            "mm_recall_at_10": (tasks["multimodal"]["recall@10"], "fraction"),
            "random_baseline_recall_at_1": (baseline, "fraction"),
        },
        "outputs": {"tasks": tasks},
        "sizes": {"studies": len(studies), "text_tokens": text_tokens},
    }


RUNNERS = {"train": run_train, "serve": run_serve, "eval": run_eval}
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_s": "s",
    "text_tokens_per_s": "1/s",
    "image_items_per_s": "1/s",
}


def run_workload(name: str, ctx: Context) -> dict:
    """Run one workload, traced when `ctx.tracer` is set; end-to-end
    figures are medians over its passes."""
    if ctx.tracer is not None:
        ctx.tracer.install()
    try:
        out = RUNNERS[name](ctx)
    finally:
        if ctx.tracer is not None:
            ctx.tracer.restore()
    records = out["records"]
    out["e2e"] = {"setup_s": out["setup_s"], "peak_rss_mb": peak_rss_mb()}
    for key in ("pass_s", "text_tokens_per_s", "image_items_per_s"):
        out["e2e"][key] = _median(records, key) if records else 0.0
    out["passes"] = len(records)
    return out
