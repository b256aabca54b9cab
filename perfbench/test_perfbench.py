"""Self-test of the benchmark: tracing leaves the program's outputs alone,
and the generated inputs are a function of the seed.

    python -m pytest perfbench
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
os.environ.setdefault("CXAL_THREADS", "1")
from cxalign.cli import _cap_threads  # noqa: E402

_cap_threads()

import workloads  # noqa: E402
from tracer import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402

SMALL = workloads.Sizes(
    train_studies=40, pool_studies=12, eval_studies=16, ckpt_studies=40, setup_repeats=1
)


def _run(name, out, traced, seed=3):
    ctx = workloads.Context(
        root=ROOT, out=out, seed=seed, seconds=0, sizes=SMALL, tracer=Tracer() if traced else None
    )
    result = workloads.run_workload(name, ctx)
    assert result["passes"] == 1
    assert ctx.ledger.failed == 0, ctx.ledger.errors
    layers = layer_metrics(ctx.tracer, {"setup": 1, "pass": 1}) if traced else None
    return result, layers


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    return tmp_path_factory.mktemp("perfbench")


def test_tracing_keeps_train_val_losses(out):
    plain, _ = _run("train", out, traced=False)
    traced, layers = _run("train", out, traced=True)
    assert traced["outputs"]["val_losses"] == plain["outputs"]["val_losses"]
    assert layers["autodiff.backward_calls"]["value"] > 0
    assert layers["optim.steps"]["value"] > 0
    assert set(layers) == {name for name, *_ in LAYER_METRICS}


def test_tracing_keeps_serve_topk(out):
    plain, _ = _run("serve", out, traced=False)
    traced, layers = _run("serve", out, traced=True)
    assert traced["outputs"]["topk"] == plain["outputs"]["topk"]
    assert layers["autodiff.backward_calls"]["value"] == 0
    assert layers["optim.steps"]["value"] == 0
    assert layers["evals.retrieve_queries"]["value"] == 2 * SMALL.pool_studies


def test_tracer_restores_every_patched_name(out):
    from cxalign import evals, optim, pipeline

    before = (pipeline.text_forward, evals.retrieve_topk, optim.AdamW.step, evals.EmbeddingIndex.__init__)
    tracer = Tracer()
    tracer.install()
    assert pipeline.text_forward is not before[0]
    tracer.restore()
    after = (pipeline.text_forward, evals.retrieve_topk, optim.AdamW.step, evals.EmbeddingIndex.__init__)
    assert after == before


def test_inputs_are_a_function_of_the_seed(tmp_path):
    a = workloads.write_inputs(tmp_path / "a", "serve", 5, 8).read_bytes()
    b = workloads.write_inputs(tmp_path / "b", "serve", 5, 8).read_bytes()
    c = workloads.write_inputs(tmp_path / "c", "serve", 6, 8).read_bytes()
    assert a == b
    assert a != c


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in Path(__file__).parent.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.RUNNERS)
    assert {m["name"] for m in spec["end_to_end"]} == set(workloads.E2E_UNITS)
    assert {m["name"] for m in spec["per_layer"]} == {name for name, *_ in LAYER_METRICS}
    units = {name: unit for name, unit, *_ in LAYER_METRICS} | workloads.E2E_UNITS
    assert all(m["unit"] == units[m["name"]] for m in spec["end_to_end"] + spec["per_layer"])
