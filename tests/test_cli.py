"""CLI tests: the full gen-corpus → train → embed → eval → report flow on a
tiny corpus, plus manifests, determinism, and exit codes."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cxalign
from cxalign.cli import main


TINY_CONFIG = {
    "layers": 1,
    "model_dim": 32,
    "heads": 2,
    "ffn_dim": 64,
    "shared_dim": 32,
    "lora_rank": 4,
    "batch_mntp": 8,
    "batch_contrastive": 8,
    "batch_clip": 8,
    "epochs_clip": 1,
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One tiny end-to-end run shared by the read-only assertions below."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.jsonl"
    assert main(["gen-corpus", "--n", "50", "--seed", "7", "--out", str(corpus)]) == 0

    from cxalign.pipeline import RunConfig

    cfg = root / "config.json"
    cfg.write_text(RunConfig(**TINY_CONFIG).to_json())

    common = ["--corpus", str(corpus), "--config", str(cfg)]
    assert main(["train", "mntp", *common, "--out", str(root / "s1")]) == 0
    assert main(["train", "contrastive", *common, "--init", str(root / "s1"), "--out", str(root / "s2")]) == 0
    assert main(["train", "clip", *common, "--init", str(root / "s2"), "--out", str(root / "s3")]) == 0
    return root


def test_gen_corpus_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    main(["gen-corpus", "--n", "20", "--seed", "3", "--out", str(a)])
    main(["gen-corpus", "--n", "20", "--seed", "3", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.jsonl"
    main(["gen-corpus", "--n", "20", "--seed", "4", "--out", str(c)])
    assert a.read_bytes() != c.read_bytes()


def test_gen_corpus_writes_manifest(tmp_path):
    out = tmp_path / "x.jsonl"
    main(["gen-corpus", "--n", "5", "--seed", "1", "--out", str(out)])
    manifest = json.loads((tmp_path / "x.jsonl.manifest.json").read_text())
    assert manifest["command"] == "gen-corpus"
    assert manifest["seed"] == 1
    assert "numpy" in manifest["versions"] and "cxalign" in manifest["versions"]
    assert manifest["wall_s"] >= 0
    assert manifest["peak_rss_mb"] > 0


# A step that keeps 1-16 MB activations while it makes larger ones, run 20
# times after one warm-up; prints the page faults of those 20 steps.
_ALLOC_STEPS = """
import resource, sys
from cxalign.cli import _keep_freed_memory
if sys.argv[1] == "keep":
    _keep_freed_memory()
import numpy as np

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

def step():
    kept = [np.ones(n << 18, np.float32) for n in (1, 2, 4, 8, 16)]
    del kept

step()
f0 = faults()
for _ in range(20):
    step()
print(faults() - f0)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_keep_freed_memory_reuses_freed_arrays():
    src = str(Path(cxalign.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}

    def faults(mode):
        out = subprocess.run(
            [sys.executable, "-c", _ALLOC_STEPS, mode], env=env, capture_output=True, text=True, check=True
        )
        return int(out.stdout)

    # glibc's sliding thresholds hand some of these arrays back and fault
    # them in again; pinned thresholds reuse them all
    assert faults("default") > 200
    assert faults("keep") < 20


def test_missing_required_args_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen-corpus", "--n", "5"])  # --out missing
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_train_clip_without_init_fails(workdir, capsys):
    rc = main([
        "train", "clip",
        "--corpus", str(workdir / "corpus.jsonl"),
        "--config", str(workdir / "config.json"),
        "--out", str(workdir / "nope"),
    ])
    assert rc == 2
    assert "--init" in capsys.readouterr().err


def test_train_mntp_with_init_fails(workdir, capsys):
    """Stage 1 starts from a fresh tower, so an --init it would ignore is
    refused instead of being listed as an input."""
    rc = main([
        "train", "mntp",
        "--corpus", str(workdir / "corpus.jsonl"),
        "--config", str(workdir / "config.json"),
        "--init", str(workdir / "s1"),
        "--out", str(workdir / "mntp_with_init"),
    ])
    assert rc == 2
    assert "--init" in capsys.readouterr().err
    assert not (workdir / "mntp_with_init").exists()


def test_train_outputs_run_directory(workdir):
    for stage_dir in ("s1", "s2", "s3"):
        d = workdir / stage_dir
        assert (d / "model.cxal").exists()
        assert (d / "config.json").exists()
        assert (d / "vocab.txt").exists()
        assert (d / "manifest.json").exists()
        log = [json.loads(line) for line in (d / "log.jsonl").read_text().splitlines()]
        assert any("loss" in r for r in log)


def test_embed_writes_npz(workdir, tmp_path):
    out = tmp_path / "emb.npz"
    rc = main([
        "embed", "--ckpt", str(workdir / "s2"),
        "--corpus", str(workdir / "corpus.jsonl"),
        "--out", str(out),
    ])
    assert rc == 0
    data = np.load(out, allow_pickle=False)
    assert data["matrix"].shape[0] == len(data["ids"]) == 50
    assert np.allclose(np.linalg.norm(data["matrix"], axis=1), 1.0, atol=1e-4)


def test_embed_image_requires_clip_stage(workdir, tmp_path, capsys):
    rc = main([
        "embed", "--ckpt", str(workdir / "s2"),
        "--corpus", str(workdir / "corpus.jsonl"),
        "--side", "image",
        "--out", str(tmp_path / "e.npz"),
    ])
    assert rc == 2
    rc = main([
        "embed", "--ckpt", str(workdir / "s3"),
        "--corpus", str(workdir / "corpus.jsonl"),
        "--side", "image",
        "--out", str(tmp_path / "img.npz"),
    ])
    assert rc == 0
    data = np.load(tmp_path / "img.npz", allow_pickle=False)
    assert data["matrix"].shape[0] == 50


def test_eval_writes_report_and_requirements_gate(workdir, tmp_path):
    out = tmp_path / "t1.json"
    base = [
        "eval", "--task", "task1",
        "--ckpt", str(workdir / "s2"),
        "--corpus", str(workdir / "corpus.jsonl"),
        "--out", str(out),
    ]
    assert main([*base, "--require", "recall@1>=0.0"]) == 0
    doc = json.loads(out.read_text())
    assert "task1" in doc["tasks"] and "recall@1" in doc["tasks"]["task1"]
    # An unattainable requirement must flip the exit code.
    assert main([*base, "--require", "recall@1>=1.01"]) == 1
    assert main([*base, "--require", "no_such_metric>=0.0"]) == 1


def test_eval_judge_reports_mean_rank(workdir, tmp_path):
    out = tmp_path / "judge.json"
    rc = main([
        "eval", "--task", "judge",
        "--ckpt", str(workdir / "s2"),
        "--corpus", str(workdir / "corpus.jsonl"),
        "--out", str(out),
    ])
    assert rc == 0
    metrics = json.loads(out.read_text())["tasks"]["judge"]
    assert metrics["mean_rank_truth"] >= 1.0
    assert metrics["flagged"] == 0


def test_report_merges_tables(workdir, tmp_path, capsys):
    outs = []
    for task in ("task1", "task3"):
        out = tmp_path / f"{task}.json"
        main([
            "eval", "--task", task,
            "--ckpt", str(workdir / "s2"),
            "--corpus", str(workdir / "corpus.jsonl"),
            "--out", str(out),
        ])
        outs.append(str(out))
    capsys.readouterr()
    merged = tmp_path / "report.txt"
    assert main(["report", *outs, "--out", str(merged)]) == 0
    table = merged.read_text()
    assert "task1" in table and "task3" in table
    assert table.splitlines()[0].split()[0] == "task"


def test_manifests_record_item_counts(workdir, tmp_path):
    from cxalign.grammar.corpus import read_corpus
    from cxalign.pipeline import split_corpus

    corpus = workdir / "corpus.jsonl"
    assert json.loads((workdir / "corpus.jsonl.manifest.json").read_text())["studies"] == 50
    for stage_dir in ("s1", "s2", "s3"):
        manifest = json.loads((workdir / stage_dir / "manifest.json").read_text())
        log = [json.loads(line) for line in (workdir / stage_dir / "log.jsonl").read_text().splitlines()]
        assert manifest["steps"] == sum("loss" in r for r in log) > 0
    out = tmp_path / "img.npz"
    main(["embed", "--ckpt", str(workdir / "s3"), "--corpus", str(corpus), "--side", "image", "--out", str(out)])
    assert json.loads((tmp_path / "img.npz.manifest.json").read_text())["items"] == 50
    _, val = split_corpus(read_corpus(corpus))
    for task, ckpt in (("task1", "s2"), ("multimodal", "s3")):
        out = tmp_path / f"{task}.json"
        main(["eval", "--task", task, "--ckpt", str(workdir / ckpt), "--corpus", str(corpus), "--out", str(out)])
        assert json.loads((tmp_path / f"{task}.json.manifest.json").read_text())["items"] == len(val)


def test_every_eval_task_dispatches_to_its_own_function(workdir, tmp_path, monkeypatch):
    """The --task choices are the task table's keys, and each choice runs
    exactly one evals function, a different one per choice."""
    from cxalign import evals
    from cxalign.cli import EVAL_TASKS, build_parser

    eval_parser = build_parser()._subparsers._group_actions[0].choices["eval"]
    (task_action,) = [a for a in eval_parser._actions if a.dest == "task"]
    assert tuple(task_action.choices) == tuple(EVAL_TASKS)

    calls = []
    for name in (
        "task1_prior_omitted", "task2_summarization", "task3_error_discrimination",
        "task4_acronym", "task5_clinical_similarity", "multimodal_eval", "judge_eval",
    ):
        monkeypatch.setattr(evals, name, lambda *a, _name=name, **k: calls.append(_name) or {})
    ran = {}
    for task in task_action.choices:
        calls.clear()
        out = tmp_path / f"{task}.json"
        main([
            "eval", "--task", task,
            "--ckpt", str(workdir / "s3"),
            "--corpus", str(workdir / "corpus.jsonl"),
            "--out", str(out),
        ])
        assert len(calls) == 1, (task, calls)
        assert list(json.loads(out.read_text())["tasks"]) == [task]
        ran[task] = calls[0]
    assert len(set(ran.values())) == len(ran), ran
