#!/usr/bin/env python3
"""cxalign benchmark: the train, serve and eval workloads behind one command.

    python3 perfbench/run.py --workload {train,serve,eval} --seed N \\
        --seconds S --trace {0,1}

The repository root is the directory above this file; the program is
imported from its `src/`. The command prints the workload's figures by name
with their units, then, as its last line, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. Generated inputs, the
cached checkpoint, span files and one result record per run (with the
environment) are written under `.perfbench/` at the repository root.

See workloads.py for what each workload runs and measures, and tracer.py for
the spans and per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _load_record(path: Path, digest: str):
    """A previous result record of this source, or None."""
    try:
        record = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    return record if record.get("environment", {}).get("source_digest") == digest else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("train", "serve", "eval"))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build-checkpoint", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument("--ckpt-studies", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cxalign" / "__init__.py").is_file():
        print(f"perfbench: no cxalign sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from cxalign.cli import _cap_threads

    # One BLAS thread unless the caller says otherwise: the repo's
    # bit-reproducible reference mode, no slower at these matrix sizes, and
    # it leaves a CPU free for the rest of the machine, which keeps timings
    # steady. It must reach BLAS before numpy loads.
    os.environ.setdefault("CXAL_THREADS", "1")
    _cap_threads()

    import workloads
    from tracer import COUNTERS, LAYER_METRICS, Tracer, layer_metrics

    if args.build_checkpoint:
        workloads.build_checkpoint(Path(args.build_checkpoint), args.ckpt_studies)
        return 0
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")

    ctx = workloads.Context(
        root=ROOT,
        out=ROOT / ".perfbench",
        seed=args.seed,
        seconds=args.seconds,
        sizes=workloads.Sizes(),
        tracer=Tracer() if args.trace else None,
    )
    out = workloads.run_workload(args.workload, ctx)
    ledger = ctx.ledger
    env = workloads.environment(ROOT)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "setups": ctx.sizes.setup_repeats,
        "passes": out["passes"],
        "sizes": out.get("sizes", {}),
        "end_to_end": out["e2e"],
        "named": {k: {"value": v, "unit": u} for k, (v, u) in out.get("named", {}).items()},
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "errors": ledger.errors,
    }

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"set-ups {ctx.sizes.setup_repeats}  passes {out['passes']}  sizes {record['sizes']}")
    print("environment " + json.dumps(env, sort_keys=True))
    print("end-to-end:")
    for name, value in out["e2e"].items():
        print(f"  {name:<28} {_fmt(value):>12} {workloads.E2E_UNITS[name]}")
    print(f"{args.workload} figures:")
    for name, (value, unit) in out.get("named", {}).items():
        print(f"  {name:<28} {_fmt(value):>12} {unit}")
    failed_frac = ledger.failed / max(ledger.attempted, 1)
    print(f"  {'failed_frac':<28} {_fmt(failed_frac):>12} fraction ({ledger.failed}/{ledger.attempted} operations)")
    for line in ledger.errors:
        print(f"FAILED {line}")

    results = ctx.out / "results"
    if args.trace:
        tracer = ctx.tracer
        layers = layer_metrics(tracer, {"setup": ctx.sizes.setup_repeats, "pass": out["passes"]})
        counters = {
            phase: {c: tracer.counts[(phase, 0)][c] for c in COUNTERS} for phase in ("setup", "pass")
        }
        repeats = {
            "setups": tracer.counts_repeat("setup"),
            "passes": tracer.counts_repeat("pass"),
        }
        previous = _load_record(results / f"{args.workload}-seed{args.seed}-trace1.json", env["source_digest"])
        if previous is not None and "counters" in previous:
            repeats["runs"] = {
                c: all(previous["counters"][ph][c] == counters[ph][c] for ph in counters) for c in COUNTERS
            }
        record["per_layer"] = layers
        record["counters"] = counters
        record["counters_repeat"] = repeats
        print("per-layer (per pass; set-up layers per set-up):")
        for name, *_ in LAYER_METRICS:
            print(f"  {name:<30} {_fmt(layers[name]['value']):>12} {layers[name]['unit']}")
        print("counters of the first set-up and pass; repeated exactly across set-ups / passes / runs of this seed:")
        for c in COUNTERS:
            flags = " / ".join({True: "yes", False: "NO", None: "-"}[repeats[k].get(c)] for k in ("setups", "passes", "runs") if k in repeats)
            print(f"  {c:<24} {counters['setup'][c]:>10} {counters['pass'][c]:>10}   {flags}")
        untraced = _load_record(results / f"{args.workload}-seed{args.seed}-trace0.json", env["source_digest"])
        if untraced is not None:
            overhead = {
                k: {"untraced": untraced["end_to_end"][k], "traced": v, "difference": v - untraced["end_to_end"][k]}
                for k, v in out["e2e"].items()
            }
            record["tracing_overhead"] = overhead
            print("tracing overhead (traced - untraced):")
            for k, d in overhead.items():
                rel = d["difference"] / d["untraced"] if d["untraced"] else float("nan")
                print(f"  {k:<28} {_fmt(d['difference']):>12} {workloads.E2E_UNITS[k]} ({rel:+.1%})")
        else:
            print("tracing overhead: no untraced run of this seed and source to compare with")
        trace_path = ctx.out / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        print(f"spans: {len(tracer.spans)} written to {trace_path}")
        metrics = layers
    else:
        metrics = {k: {"value": v, "unit": workloads.E2E_UNITS[k]} for k, v in out["e2e"].items()}

    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    correct = out["passes"] > 0 and ledger.failed == 0
    print(json.dumps({"correct": correct, "attempted": max(ledger.attempted, 1), "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
