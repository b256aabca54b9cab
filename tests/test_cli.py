"""CLI tests: the full gen-corpus → train → embed → eval → report flow on a
tiny corpus, plus manifests, determinism, and exit codes."""

import json
import os
import platform
import shutil
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


def test_train_refused_config_is_usage_error(workdir, tmp_path, capsys):
    """A config that `RunConfig` refuses, from the file or from --seed,
    ends in its message and exit code 2, not a traceback."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**TINY_CONFIG, "layers": 2.5}))
    for extra, field in ((["--config", str(bad)], "layers"), (["--seed", "-1"], "seed")):
        rc = main([
            "train", "mntp", "--corpus", str(workdir / "corpus.jsonl"), *extra,
            "--out", str(tmp_path / "refused"),
        ])
        assert rc == 2
        assert f"RunConfig.{field}" in capsys.readouterr().err
    assert not (tmp_path / "refused").exists()


def test_train_missing_config_is_usage_error(workdir, tmp_path, capsys):
    missing = tmp_path / "no-such-config.json"
    rc = main([
        "train", "mntp", "--corpus", str(workdir / "corpus.jsonl"),
        "--config", str(missing), "--out", str(tmp_path / "refused"),
    ])
    assert rc == 2
    assert str(missing) in capsys.readouterr().err
    assert not (tmp_path / "refused").exists()


def test_train_missing_corpus_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "no-such-corpus.jsonl"
    rc = main(["train", "mntp", "--corpus", str(missing), "--out", str(tmp_path / "refused")])
    assert rc == 2
    assert str(missing) in capsys.readouterr().err
    assert not (tmp_path / "refused").exists()


@pytest.mark.parametrize("command", ["train", "embed", "eval"])
def test_refused_run_directory_is_usage_error(workdir, tmp_path, capsys, command):
    """A run directory that `load_stage` refuses (here a config with a
    field this version does not have, or no directory at all) ends in the
    reason and exit code 2, not a traceback."""
    old = tmp_path / "old"
    shutil.copytree(workdir / "s2", old)
    doc = json.loads((old / "config.json").read_text())
    (old / "config.json").write_text(json.dumps({**doc, "pooling": "mean"}))
    corpus, out = str(workdir / "corpus.jsonl"), tmp_path / "out"
    argv = {
        "train": lambda d: ["train", "clip", "--corpus", corpus, "--config", str(workdir / "config.json"),
                            "--init", d, "--out", str(out)],
        "embed": lambda d: ["embed", "--ckpt", d, "--corpus", corpus, "--out", str(out)],
        "eval": lambda d: ["eval", "--task", "task1", "--ckpt", d, "--corpus", corpus, "--out", str(out)],
    }[command]
    for run_dir, reason in ((old, "unknown keys ['pooling']"), (tmp_path / "missing", "missing")):
        assert main(argv(str(run_dir))) == 2
        assert reason in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("stage", ["mntp", "contrastive", "clip"])
def test_train_too_small_validation_split_is_usage_error(workdir, tmp_path, capsys, stage):
    corpus, out = tmp_path / "tiny.jsonl", tmp_path / "out"
    assert main(["gen-corpus", "--n", "3", "--out", str(corpus)]) == 0
    init = ["--init", str(workdir / "s2")] if stage == "clip" else []
    rc = main(["train", stage, "--corpus", str(corpus), "--config", str(workdir / "config.json"),
               *init, "--out", str(out)])
    assert rc == 2
    assert f"train {stage}: {stage}: validation split of" in capsys.readouterr().err
    assert not out.exists()


def test_diverging_train_leaves_a_resumable_run_directory(workdir, tmp_path, monkeypatch):
    from cxalign import pipeline
    from cxalign.autodiff import Tensor
    from cxalign.optim import DivergenceError

    k, step_parts = 3, pipeline._mntp_parts

    def nan_at_k(params, run, seqs, step, train=True, count=None):
        yield from step_parts(params, run, seqs, step, train=train, count=count)
        if train and step == k:
            yield Tensor(np.nan)

    monkeypatch.setattr(pipeline, "_mntp_parts", nan_at_k)
    out = tmp_path / "diverged"
    with pytest.raises(DivergenceError, match=f"step {k}"):
        main(["train", "mntp", "--corpus", str(workdir / "corpus.jsonl"),
              "--config", str(workdir / "config.json"), "--out", str(out)])
    assert {"config.json", "vocab.txt", "model.cxal", "log.jsonl"} <= {p.name for p in out.iterdir()}
    assert pipeline.load_stage(out).step == k
    # the manifest records the step the saved state was reached at and why
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "train mntp"
    assert manifest["steps"] == k
    assert manifest["error"] == f"mntp: non-finite loss at step {k}; last finite state saved to {out}"


@pytest.mark.parametrize("stage, init, got", [("contrastive", "s3", "clip"), ("clip", "s1", "mntp")])
def test_train_init_of_another_stage_is_usage_error(workdir, tmp_path, capsys, stage, init, got):
    out = tmp_path / "out"
    rc = main(["train", stage, "--corpus", str(workdir / "corpus.jsonl"),
               "--config", str(workdir / "config.json"), "--init", str(workdir / init), "--out", str(out)])
    assert rc == 2
    wanted = {"contrastive": "mntp", "clip": "contrastive"}[stage]
    assert f"train {stage}: {stage}: starts from the {wanted} stage's result, got the {got} stage's" in (
        capsys.readouterr().err
    )
    assert not out.exists()


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


def test_out_of_vocabulary_word_is_usage_error(workdir, tmp_path, capsys):
    """`embed` and `eval` name a word the run's vocabulary lacks and exit 2
    without writing an artifact or a manifest."""
    from cxalign.grammar.corpus import read_corpus, write_corpus

    studies = read_corpus(workdir / "corpus.jsonl")
    for s in studies:
        s.findings_text = "Xylophone. " + s.findings_text
    corpus = tmp_path / "oov.jsonl"
    write_corpus(studies, corpus)
    runs = [
        ["embed", "--ckpt", str(workdir / "s1")],
        ["embed", "--ckpt", str(workdir / "s3")],
        ["eval", "--task", "task1", "--ckpt", str(workdir / "s2")],
        ["eval", "--task", "multimodal", "--ckpt", str(workdir / "s3")],
    ]
    for argv in runs:
        out = tmp_path / "out"
        assert main([*argv, "--corpus", str(corpus), "--out", str(out)]) == 2
        prefix = "embed" if argv[0] == "embed" else f"eval {argv[2]}"
        assert capsys.readouterr().err == (
            f"{prefix}: the word 'xylophone' from {corpus} is not in the vocabulary of {argv[-1]}\n"
        )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["oov.jsonl"]


def test_eval_refuses_an_empty_split_a_task_needs(workdir, tmp_path, capsys):
    """Every task scores the validation split, and task5 also retrieves from
    the training pool: an empty one exits 2 before any task runs."""
    from cxalign.grammar.corpus import read_corpus, write_corpus
    from cxalign.pipeline import split_corpus

    no_val = tmp_path / "no_val.jsonl"
    assert main(["gen-corpus", "--n", "5", "--seed", "2", "--out", str(no_val)]) == 0
    assert split_corpus(read_corpus(no_val))[1] == []
    only_val = tmp_path / "only_val.jsonl"
    write_corpus(split_corpus(read_corpus(workdir / "corpus.jsonl"))[1], only_val)
    cases = [(no_val, task, "validation split") for task in ("task1", "task5", "judge")]
    cases.append((only_val, "task5", "training pool"))
    for corpus, task, empty in cases:
        out = tmp_path / "report.json"
        rc = main(["eval", "--task", task, "--ckpt", str(workdir / "s2"), "--corpus", str(corpus),
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"eval {task}: the {empty} of {corpus} is empty\n"
        assert not out.exists() and not (tmp_path / "report.json.manifest.json").exists()


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


def test_report_unreadable_report_is_usage_error(tmp_path, capsys):
    """A missing report, one that is not JSON and one without a report's
    keys end in the reason and exit code 2; exit 1 stays `eval`'s code for
    an unmet requirement."""
    not_json, no_keys = tmp_path / "not.json", tmp_path / "keys.json"
    not_json.write_text("task1 0.5\n")
    no_keys.write_text(json.dumps({"tasks": {}}))
    for path, reason in (
        (tmp_path / "missing.json", "No such file"),
        (not_json, "Expecting value"),
        (no_keys, "config_digest"),
    ):
        assert main(["report", str(path), "--out", str(tmp_path / "merged.txt")]) == 2
        assert f"report: {path}: " in (err := capsys.readouterr().err) and reason in err
    assert not (tmp_path / "merged.txt").exists()


@pytest.mark.parametrize("n", ["0", "-2"])
def test_gen_corpus_refuses_non_positive_n(tmp_path, capsys, n):
    out = tmp_path / "empty.jsonl"
    assert main(["gen-corpus", "--n", n, "--out", str(out)]) == 2
    assert "--n must be at least 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_manifests_name_the_blas_build_and_thread_settings(workdir, tmp_path, monkeypatch):
    """Trained bytes depend on the BLAS thread count, so every manifest
    records the BLAS build, the thread variables as set and the CPU count."""
    monkeypatch.delenv("CXAL_THREADS", raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = tmp_path / "x.jsonl"
    assert main(["gen-corpus", "--n", "5", "--out", str(out)]) == 0
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert json.loads((tmp_path / "x.jsonl.manifest.json").read_text())["blas"] == {
        "library": f"{blas['name']} {blas['version']}",
        "cpus": len(os.sched_getaffinity(0)),
        "CXAL_THREADS": None,
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "2",
        "MKL_NUM_THREADS": None,
    }
    for stage_dir in ("s1", "s2", "s3"):
        record = json.loads((workdir / stage_dir / "manifest.json").read_text())["blas"]
        assert set(record) == {"library", "cpus", "CXAL_THREADS", "OPENBLAS_NUM_THREADS",
                               "OMP_NUM_THREADS", "MKL_NUM_THREADS"}


def test_manifest_write_that_fails_leaves_the_previous_file(tmp_path):
    from cxalign.cli import write_manifest

    out = tmp_path / "x.jsonl"
    path = write_manifest(out, "gen-corpus", {"_started": 0.0, "n": 5}, "", 1, [])
    before = Path(path).read_bytes()
    # json.dump has written part of the document when it meets the object
    with pytest.raises(TypeError):
        write_manifest(out, "gen-corpus", {"_started": 0.0, "n": object()}, "", 1, [])
    assert Path(path).read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.jsonl.manifest.json"]


def test_artifact_write_that_fails_leaves_the_previous_file(workdir, tmp_path, monkeypatch):
    """`embed`, `eval` and `report --out` write their artifact on a temp
    file: a write that fails part way leaves the previous artifact
    byte-identical and no temp file behind."""
    from cxalign import evals

    class Unwritable:
        def __array__(self, *args, **kwargs):
            raise OSError("disk full")

    class Torn(str):
        def __add__(self, other):
            raise OSError("disk full")

    corpus = str(workdir / "corpus.jsonl")
    report = tmp_path / "t1.json"
    cases = (
        # np.savez has written the ids when it meets the matrix
        (tmp_path / "emb.npz", ["embed", "--ckpt", str(workdir / "s2"), "--corpus", corpus],
         evals.TextEncoder, "embed", lambda self, texts, instruction=None: Unwritable()),
        (report, ["eval", "--task", "task1", "--ckpt", str(workdir / "s2"), "--corpus", corpus],
         evals.EvalReport, "to_json", lambda self: Torn("{")),
        (tmp_path / "table.txt", ["report", str(report)],
         evals.EvalReport, "table", lambda self: Torn("task")),
    )
    for out, command, owner, attr, fault in cases:
        assert main([*command, "--out", str(out)]) == 0
        before = out.read_bytes()
        with monkeypatch.context() as m:
            m.setattr(owner, attr, fault)
            with pytest.raises(OSError, match="disk full"):
                main([*command, "--out", str(out)])
        assert out.read_bytes() == before, command[0]
        assert not list(tmp_path.glob("*.tmp")), command[0]


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
