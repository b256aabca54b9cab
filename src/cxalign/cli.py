"""Command-line entry point: gen-corpus | train | embed | eval | report.

Every command writes a manifest (config digest, seed, package versions,
input digests, wall time, peak memory, and how much work it did) next to
its outputs so artifacts are reconstructible and their cost is on record."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time


def _cap_threads() -> None:
    """Process settings that must precede numpy: CXAL_THREADS caps BLAS
    parallelism (so heavy modules are imported lazily inside the command
    handlers), and `_keep_freed_memory` pins the allocator."""
    cap = os.environ.get("CXAL_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
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


def write_manifest(out_path, command: str, args: dict, config_digest: str, seed, inputs, counts=None) -> str:
    """Write the manifest; `args["_started"]` is the command's start on the
    `time.perf_counter` clock, which `main` sets. `counts` names the work
    done (studies written, steps trained, items embedded or evaluated)."""
    import numpy

    from . import __version__

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
        "inputs": {str(p): _sha256_file(p) for p in inputs},
        "wall_s": round(time.perf_counter() - args["_started"], 3),
        # the process's peak so far; Linux reports ru_maxrss in KiB
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        **(counts or {}),
    }
    path = str(out_path) + ".manifest.json"
    if os.path.isdir(out_path):
        path = os.path.join(out_path, "manifest.json")
    with open(path, "w") as fh:
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

    studies = generate_corpus(args.n, seed=args.seed, noise_sigma=args.noise_sigma)
    write_corpus(studies, args.out)
    write_manifest(args.out, "gen-corpus", vars(args), "", args.seed, [], {"studies": len(studies)})
    print(f"wrote {len(studies)} studies to {args.out}")
    return 0


def cmd_train(args) -> int:
    from .grammar.corpus import read_corpus
    from .pipeline import (
        load_stage,
        save_stage,
        train_clip,
        train_contrastive,
        train_mntp,
    )

    if args.stage == "mntp" and args.init:
        print("train mntp: --init is not accepted (stage 1 starts fresh)", file=sys.stderr)
        return 2
    if args.stage == "clip" and not args.init:
        print("train clip: --init (stage-2 run directory) is required", file=sys.stderr)
        return 2
    run = _load_config(args.config, args.seed)
    studies = read_corpus(args.corpus)
    os.makedirs(args.out, exist_ok=True)
    log_path = os.path.join(args.out, "log.jsonl")
    init = load_stage(args.init) if args.init else None
    if args.stage == "mntp":
        result = train_mntp(studies, run, log_path=log_path)
    elif args.stage == "contrastive":
        result = train_contrastive(studies, run, init=init, log_path=log_path)
    else:
        result = train_clip(studies, run, text_init=init, log_path=log_path)
    save_stage(result, args.out)
    inputs = [args.corpus] + ([os.path.join(args.init, "model.cxal")] if args.init else [])
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


def cmd_embed(args) -> int:
    import numpy as np

    from .grammar.corpus import read_corpus

    encoder, result = _encoder_for(args.ckpt)
    studies = read_corpus(args.corpus)
    ids = [s.study_id for s in studies]
    if args.side == "image":
        if result.stage != "clip":
            print("embed --side image needs a stage-3 (clip) checkpoint", file=sys.stderr)
            return 2
        matrix = encoder.embed_images([s.image for s in studies])
    elif result.stage == "clip":
        matrix = encoder.embed_reports([s.findings_text for s in studies])
    else:
        matrix = encoder.embed([s.findings_text for s in studies])
    np.savez(args.out, ids=np.array(ids), matrix=matrix)
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
    from .grammar.corpus import read_corpus
    from .pipeline import split_corpus

    encoder, result = _encoder_for(args.ckpt)
    studies = read_corpus(args.corpus)
    train, val = split_corpus(studies)
    task = args.task
    if task == "multimodal" and result.stage != "clip":
        print("eval multimodal needs a stage-3 (clip) checkpoint", file=sys.stderr)
        return 2
    metrics = EVAL_TASKS[task](evals, encoder, train, val)
    report = evals.EvalReport(
        {task: metrics},
        config_digest=result.config.digest(),
        pool_sizes={"train": len(train), "val": len(val)},
    )
    with open(args.out, "w") as fh:
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
    from .evals import EvalReport

    tasks, notes, digests = {}, [], []
    for path in args.reports:
        with open(path) as fh:
            rep = EvalReport.from_json(fh.read())
        tasks.update(rep.tasks)
        notes.extend(rep.notes)
        digests.append(rep.config_digest)
    merged = EvalReport(tasks, config_digest=",".join(sorted(set(digests))), notes=notes)
    table = merged.table()
    if args.out:
        with open(args.out, "w") as fh:
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
