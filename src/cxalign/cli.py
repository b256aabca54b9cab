"""Command-line entry point: gen-corpus | train | embed | eval | report.

Every command writes a manifest (config digest, seed, package versions,
the BLAS build and thread settings, input digests, wall time, peak memory,
and how much work it did) next to its outputs so artifacts are
reconstructible and their cost is on record."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time


# the BLAS thread variables that CXAL_THREADS sets when they are unset
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cap_threads() -> None:
    """Process settings that must precede numpy: CXAL_THREADS caps BLAS
    parallelism (so heavy modules are imported lazily inside the command
    handlers), and `_keep_freed_memory` pins the allocator."""
    cap = os.environ.get("CXAL_THREADS")
    if cap:
        for var in _BLAS_THREAD_VARS:
            os.environ.setdefault(var, cap)
    _keep_freed_memory()


# glibc mallopt parameters
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_memory() -> None:
    """Let glibc reuse freed arrays instead of handing them back to the OS.

    Every step allocates and frees the same activations and gradients.
    With glibc's sliding thresholds many of them are fresh mmaps or heap
    growth after a trim, so each step faults their pages in again: a
    128-study train pass took ~730k page faults and ~2 s of system time,
    whose cost rises and falls with the machine's memory load. Fixed
    thresholds (mmap above 32 MB, trim above 128 MB) cut that to ~60k
    faults with the same peak RSS. No-op off glibc."""
    if platform.libc_ver()[0] != "glibc":
        return
    import ctypes

    libc = ctypes.CDLL(None)
    libc.mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    libc.mallopt(_M_TRIM_THRESHOLD, 128 << 20)


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _blas_record() -> dict:
    """The BLAS build, the thread variables as set (None when unset) and the
    CPUs the process may run on: trained bytes differ between thread
    counts, so a manifest names them."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        library = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        library = "unknown"
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = {var: os.environ.get(var) for var in ("CXAL_THREADS", *_BLAS_THREAD_VARS)}
    return {"library": library, "cpus": cpus, **threads}


def write_manifest(out_path, command: str, args: dict, config_digest: str, seed, inputs, counts=None) -> str:
    """Write the manifest; `args["_started"]` is the command's start on the
    `time.perf_counter` clock, which `main` sets. `counts` names the work
    done (studies written, steps trained, items embedded or evaluated)."""
    import numpy

    from . import __version__, peak_rss_mb
    from .checkpoint import replacing

    manifest = {
        "command": command,
        "args": {
            k: v
            for k, v in args.items()
            if not k.startswith("_") and not callable(v)
        },
        "config_digest": config_digest,
        "seed": seed,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cxalign": __version__,
        },
        "blas": _blas_record(),
        "inputs": {str(p): _sha256_file(p) for p in inputs},
        "wall_s": round(time.perf_counter() - args["_started"], 3),
        "peak_rss_mb": peak_rss_mb(),
        **(counts or {}),
    }
    path = str(out_path) + ".manifest.json"
    if os.path.isdir(out_path):
        path = os.path.join(out_path, "manifest.json")
    with replacing(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _load_config(path, seed):
    from .pipeline import RunConfig

    if path:
        with open(path) as fh:
            run = RunConfig.from_json(fh.read())
    else:
        run = RunConfig()
    if seed is not None:
        from dataclasses import replace

        run = replace(run, seed=seed)
    return run


def cmd_gen_corpus(args) -> int:
    from .grammar.corpus import generate_corpus, write_corpus

    if args.n < 1:
        print(f"gen-corpus: --n must be at least 1, not {args.n}", file=sys.stderr)
        return 2
    studies = generate_corpus(args.n, seed=args.seed, noise_sigma=args.noise_sigma)
    write_corpus(studies, args.out)
    write_manifest(args.out, "gen-corpus", vars(args), "", args.seed, [], {"studies": len(studies)})
    print(f"wrote {len(studies)} studies to {args.out}")
    return 0


def cmd_train(args) -> int:
    from .grammar.corpus import read_corpus
    from .optim import DivergenceError
    from .pipeline import (
        InitStageError, ValidationSplitError, load_stage, train_clip, train_contrastive, train_mntp,
    )

    if args.stage == "mntp" and args.init:
        print("train mntp: --init is not accepted (stage 1 starts fresh)", file=sys.stderr)
        return 2
    if args.stage == "clip" and not args.init:
        print("train clip: --init (stage-2 run directory) is required", file=sys.stderr)
        return 2
    # a missing or unreadable input, or a refused config or run directory,
    # is a usage error
    try:
        run = _load_config(args.config, args.seed)
        studies = read_corpus(args.corpus)
        init = load_stage(args.init) if args.init else None
    except (OSError, ValueError) as e:
        print(f"train {args.stage}: {e}", file=sys.stderr)
        return 2
    inputs = [args.corpus] + ([os.path.join(args.init, "model.cxal")] if args.init else [])
    # a split too small to score, or an --init of the wrong stage, is
    # refused before the first step and before the run directory is made;
    # later errors keep their traceback.
    # A divergence has saved the last finite state: its manifest records
    # that state's step and the reason.
    try:
        if args.stage == "mntp":
            result = train_mntp(studies, run, out_dir=args.out)
        elif args.stage == "contrastive":
            result = train_contrastive(studies, run, init=init, out_dir=args.out)
        else:
            result = train_clip(studies, run, text_init=init, out_dir=args.out)
    except (ValidationSplitError, InitStageError) as e:
        print(f"train {args.stage}: {e}", file=sys.stderr)
        return 2
    except DivergenceError as e:
        write_manifest(
            args.out, f"train {args.stage}", vars(args), run.digest(), run.seed, inputs,
            {"steps": load_stage(args.out).step, "error": str(e)},
        )
        raise
    write_manifest(
        args.out, f"train {args.stage}", vars(args), run.digest(), run.seed, inputs,
        {"steps": result.step},
    )
    print(f"{args.stage}: {result.step} steps -> {args.out}")
    return 0


def _encoder_for(ckpt_dir):
    from .evals import DualEncoder, TextEncoder
    from .pipeline import load_stage

    result = load_stage(ckpt_dir)
    return (DualEncoder(result) if result.stage == "clip" else TextEncoder(result)), result


def _unknown_word(error, args) -> str:
    return f"the word {error.args[0]!r} from {args.corpus} is not in the vocabulary of {args.ckpt}"


def cmd_embed(args) -> int:
    import numpy as np

    from .checkpoint import replacing
    from .grammar.corpus import read_corpus
    from .tokenizer import UnknownTokenError

    try:
        encoder, result = _encoder_for(args.ckpt)
        studies = read_corpus(args.corpus)
    except (OSError, ValueError) as e:
        print(f"embed: {e}", file=sys.stderr)
        return 2
    ids = [s.study_id for s in studies]
    if args.side == "image":
        if result.stage != "clip":
            print("embed --side image needs a stage-3 (clip) checkpoint", file=sys.stderr)
            return 2
        matrix = encoder.embed_images([s.image for s in studies])
    else:
        texts = [s.findings_text for s in studies]
        try:
            matrix = encoder.embed_reports(texts) if result.stage == "clip" else encoder.embed(texts)
        except UnknownTokenError as e:
            print(f"embed: {_unknown_word(e, args)}", file=sys.stderr)
            return 2
    # numpy's naming rule: a path without the .npz suffix gains it
    target = args.out if args.out.endswith(".npz") else args.out + ".npz"
    with replacing(target) as fh:
        np.savez(fh, ids=np.array(ids), matrix=matrix)
    write_manifest(
        args.out, "embed", vars(args), result.config.digest(), result.config.seed, [args.corpus],
        {"items": len(ids)},
    )
    print(f"embedded {len(ids)} {args.side} items -> {args.out}")
    return 0


def _parse_requirement(spec: str):
    if ">=" not in spec:
        raise argparse.ArgumentTypeError(f"requirement {spec!r} must look like metric>=value")
    name, value = spec.split(">=", 1)
    return name.strip(), float(value)


# `cxalign eval --task` choices: each maps (evals module, encoder, train
# split, val split) to its metrics. The module is passed in because heavy
# modules are imported only inside the command handlers.
EVAL_TASKS = {
    "task1": lambda ev, enc, train, val: ev.task1_prior_omitted(enc, val),
    "task2": lambda ev, enc, train, val: ev.task2_summarization(enc, val),
    "task3": lambda ev, enc, train, val: ev.task3_error_discrimination(enc, val),
    "task4": lambda ev, enc, train, val: ev.task4_acronym(enc, val),
    "task5": lambda ev, enc, train, val: ev.task5_clinical_similarity(enc, val, train),
    "multimodal": lambda ev, enc, train, val: ev.multimodal_eval(enc, val, train),
    "judge": lambda ev, enc, train, val: ev.judge_eval(val),
}


def cmd_eval(args) -> int:
    from . import evals
    from .checkpoint import replacing
    from .grammar.corpus import read_corpus
    from .pipeline import split_corpus
    from .tokenizer import UnknownTokenError

    try:
        encoder, result = _encoder_for(args.ckpt)
        studies = read_corpus(args.corpus)
    except (OSError, ValueError) as e:
        print(f"eval {args.task}: {e}", file=sys.stderr)
        return 2
    train, val = split_corpus(studies)
    task = args.task
    if task == "multimodal" and result.stage != "clip":
        print("eval multimodal needs a stage-3 (clip) checkpoint", file=sys.stderr)
        return 2
    # every task scores the validation split; task5 also retrieves from the
    # training pool
    empty = "validation split" if not val else "training pool" if task == "task5" and not train else None
    if empty:
        print(f"eval {task}: the {empty} of {args.corpus} is empty", file=sys.stderr)
        return 2
    try:
        metrics = EVAL_TASKS[task](evals, encoder, train, val)
    except UnknownTokenError as e:
        print(f"eval {task}: {_unknown_word(e, args)}", file=sys.stderr)
        return 2
    report = evals.EvalReport(
        {task: metrics},
        config_digest=result.config.digest(),
        pool_sizes={"train": len(train), "val": len(val)},
    )
    with replacing(args.out, "w") as fh:
        fh.write(report.to_json() + "\n")
    write_manifest(
        args.out, f"eval {task}", vars(args), result.config.digest(), result.config.seed,
        [args.corpus], {"items": len(val)},
    )
    print(report.table())
    failed = [
        f"{name} = {metrics.get(name)} < {minimum}"
        for name, minimum in (args.require or [])
        if metrics.get(name) is None or metrics[name] < minimum
    ]
    if failed:
        for line in failed:
            print(f"REQUIREMENT FAILED: {line}", file=sys.stderr)
        return 1
    return 0


def cmd_report(args) -> int:
    from .checkpoint import replacing
    from .evals import EvalReport

    tasks, notes, digests = {}, [], []
    for path in args.reports:
        try:
            with open(path) as fh:
                rep = EvalReport.from_json(fh.read())
        except (OSError, ValueError) as e:
            print(f"report: {path}: {e}", file=sys.stderr)
            return 2
        tasks.update(rep.tasks)
        notes.extend(rep.notes)
        digests.append(rep.config_digest)
    merged = EvalReport(tasks, config_digest=",".join(sorted(set(digests))), notes=notes)
    table = merged.table()
    if args.out:
        with replacing(args.out, "w") as fh:
            fh.write(table + "\n")
        write_manifest(args.out, "report", vars(args), merged.config_digest, None, args.reports)
    print(table)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cxalign", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="generate a synthetic paired corpus")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=4096)
    p.add_argument("--noise-sigma", type=float, default=0.05)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_corpus)

    p = sub.add_parser("train", help="run one training stage")
    p.add_argument("stage", choices=("mntp", "contrastive", "clip"))
    p.add_argument("--corpus", required=True)
    p.add_argument("--config", help="RunConfig JSON document")
    p.add_argument("--seed", type=int)
    p.add_argument("--init", help="run directory of the previous stage")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("embed", help="embed a corpus with a trained run")
    p.add_argument("--ckpt", required=True, help="run directory")
    p.add_argument("--corpus", required=True)
    p.add_argument("--side", choices=("text", "image"), default="text")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("eval", help="evaluate a trained run")
    p.add_argument(
        "--task",
        required=True,
        choices=tuple(EVAL_TASKS),
    )
    p.add_argument("--ckpt", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--require",
        action="append",
        type=_parse_requirement,
        help="metric>=value; unmet requirements exit 1",
    )
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="merge EvalReports into one table")
    p.add_argument("reports", nargs="+")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    _cap_threads()
    args = build_parser().parse_args(argv)
    args._started = time.perf_counter()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
