#!/usr/bin/env python3
"""End-to-end smoke run: generate a corpus, train all three stages, and
check the held-out retrieval thresholds.

Usage: python scripts/run_smoke.py [--n 2000] [--seed 4096] [--out smoke.json]
"""

import argparse
import json
import sys

from cxalign.experiments import run_smoke

THRESHOLDS = (
    ("task1", "recall@1", 0.5),
    ("task3", "accuracy", 0.6),
    ("multimodal", "recall@1", 0.10),
    ("multimodal", "recall@10", 0.5),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=4096)
    parser.add_argument("--out")
    args = parser.parse_args()

    metrics = run_smoke(n=args.n, seed=args.seed)["metrics"]
    print(json.dumps(metrics, indent=2))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(metrics, fh, indent=2)
            fh.write("\n")
    failed = [
        f"{task}.{name} = {metrics[task][name]:.3f} < {minimum}"
        for task, name, minimum in THRESHOLDS
        if metrics[task][name] < minimum
    ]
    for line in failed:
        print(f"FAILED: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
