"""Pinned artifact digests: the tiny benchmark workloads must give
byte-identical artifacts at every parallelism, the tiny remote one
through the benchmark's stub server too.

The workloads and their pinned SHA-256 digests come from ``perfbench/``
(``workloads.py`` and ``digests.json``, seed 0); each artifact is hashed as
``perfbench/run.py`` hashes it.
"""
import hashlib
import importlib.util
import json
import os
import selectors
import shutil
import signal
import subprocess
import sys

import pytest

from omegaprm.cli import main

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
STAGES = ("filter", "generate", "export", "train", "eval", "bench")


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(PERFBENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()

with open(os.path.join(PERFBENCH, "digests.json"), encoding="utf-8") as fh:
    PINNED = json.load(fh)


def digest(path):
    """SHA-256 of a file, or of a directory's entries in sorted order, each
    hashed as ``name\\0bytes``."""
    h = hashlib.sha256()
    if os.path.isdir(path):
        for entry in sorted(os.listdir(path)):
            with open(os.path.join(path, entry), "rb") as fh:
                h.update(entry.encode() + b"\0" + fh.read())
    else:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _assert_generate_resumes_every_tree(config, out, capsys):
    """Rerun generate: the reader accepts each tree the writer wrote, so
    every tree is resumed and the trees stay as they are. A reader check
    that is too strict would rebuild a tree on every rerun, unseen."""
    trees = os.path.join(out, "trees")
    n, before = len(os.listdir(trees)), digest(trees)
    capsys.readouterr()
    assert main(["generate", "--config", config]) == 0
    assert capsys.readouterr().out.startswith(
        f"built 0, resumed {n} of {n} trees")
    assert digest(trees) == before


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("workload", ["deep_search", "wide_eval"])
def test_tiny_workload_matches_pinned_digests(tmp_path, capsys, workload,
                                              parallelism):
    workloads.write_corpus(workload, "tiny", 0, str(tmp_path))
    config = workloads.write_config(workload, 0, str(tmp_path),
                                    parallelism=parallelism)
    for stage in STAGES:
        assert main([stage, "--config", config]) == 0, stage
    pinned = PINNED[workload]["tiny"]["0"]
    got = {name: digest(os.path.join(tmp_path, "out", name))
           for name in pinned}
    assert got == pinned
    _assert_generate_resumes_every_tree(config, tmp_path / "out", capsys)


def _start_stub(directory, seed):
    """The stub server of the tiny remote workload, once it prints
    ``READY <port>``, and its endpoint."""
    spec = workloads.WORKLOADS["remote"]
    proc = subprocess.Popen(
        [sys.executable, os.path.join(PERFBENCH, "stub.py"),
         "--corpus", os.path.join(directory, "stub_corpus.jsonl"),
         "--seed", str(seed),
         "--per-step-error-prob", str(spec["sim"]["per_step_error_prob"]),
         "--refusal-window", str(spec["tiny"]["refusal_window"])],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        line = proc.stdout.readline() if sel.select(timeout=30) else ""
    if not line.startswith("READY "):
        _stop(proc)
        pytest.fail(f"stub server did not start: {line!r}")
    return proc, f"http://127.0.0.1:{int(line.split()[1])}/complete"


def _stop(proc):
    """SIGTERM, then SIGKILL if the process has not exited within 10 s."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    proc.stdout.close()


@pytest.mark.parametrize("parallelism", [1, 2])
def test_tiny_remote_workload_matches_pinned_digests(tmp_path, capsys,
                                                    parallelism):
    workloads.write_corpus("remote", "tiny", 0, str(tmp_path))
    proc, endpoint = _start_stub(str(tmp_path), 0)
    try:
        config = workloads.write_config("remote", 0, str(tmp_path),
                                        endpoint=endpoint,
                                        parallelism=parallelism)
        for stage in STAGES:
            assert main([stage, "--config", config]) == 0, stage
    finally:
        _stop(proc)
    pinned = PINNED["remote"]["tiny"]["0"]
    got = {name: digest(os.path.join(tmp_path, "out", name))
           for name in pinned}
    assert got == pinned
    # The stub is stopped: a resumed tree sends no request.
    _assert_generate_resumes_every_tree(config, tmp_path / "out", capsys)


# The artifacts each stage writes.
STAGE_OUTPUTS = {
    "filter": ("kept.jsonl", "filter_report.jsonl"),
    "generate": ("trees", "generate_summary.json"),
    "export": ("examples.jsonl", "pairs.jsonl"),
    "train": ("prm_model.json", "train_curve.json"),
    "eval": ("eval_report.json", "eval_majority.csv", "eval_weighted.csv"),
    "bench": ("bench_report.json",),
}


def test_stage_outputs_cover_pinned_artifacts():
    assert tuple(STAGE_OUTPUTS) == STAGES
    assert sorted(n for names in STAGE_OUTPUTS.values() for n in names) == \
        sorted(PINNED["deep_search"]["tiny"]["0"])


def _truncate(path):
    with open(path, "rb+") as fh:
        fh.truncate(os.path.getsize(path) // 2)


@pytest.mark.parametrize("damage", ["truncate", "delete"])
def test_damaged_stage_outputs_are_rewritten(tmp_path, damage):
    """Truncating or deleting a stage's outputs and rerunning that stage
    gives the pinned artifacts back. A damaged tree is rebuilt; a deleted
    trees directory is built again."""
    workloads.write_corpus("deep_search", "tiny", 0, str(tmp_path))
    config = workloads.write_config("deep_search", 0, str(tmp_path))
    for stage in STAGES:
        assert main([stage, "--config", config]) == 0, stage
    out = tmp_path / "out"
    pinned = PINNED["deep_search"]["tiny"]["0"]
    for stage, names in STAGE_OUTPUTS.items():
        for name in names:
            path = out / name
            if path.is_dir() and damage == "delete":
                shutil.rmtree(path)
            elif path.is_dir():
                for tree in path.iterdir():
                    _truncate(tree)
            elif damage == "delete":
                path.unlink()
            else:
                _truncate(path)
        assert main([stage, "--config", config]) == 0, stage
        got = {name: digest(out / name) for name in pinned}
        assert got == pinned, stage
    assert not list(out.rglob("*.tmp"))


# SHA-256 of (prm_model.json, train_curve.json) per workload and objective;
# the soft objective is pinned in digests.json with the other artifacts.
TRAIN_PINNED = {
    "deep_search": {
        "hard": (
            "2a2158c695b81b6a7ee4ec3d38e549062fd08effc19dce615df16906514a212c",
            "c46f11294959e9f3054800af797b9e60e5727eefb4e448171499bb2e8a5c39ad"),
        "pairwise": (
            "45e27e37b0aa85ba731f87bf4dd3b42f039a415ee6896c24754f5b64945fa1fa",
            "4f5af701a56aa1df44b8b6f0a2d19d70918aacb699a9a1301eb0a2cf173ce415"),
    },
    "wide_eval": {
        "hard": (
            "97b9ef32dba7edd1bf79649f652e5cfe0f586678a15601339479bf9fa456f072",
            "d259509fe85f1a35450e6284ae9d59289584aea9186f315e79d8621d60bed282"),
        "pairwise": (
            "5b7c1e4aa5d3a09da11057b5cc66c070fae5ef0404209186bab1dfe4d4ab21a1",
            "0cf8a34993dde19dd5dd67e9437ef51a46c5da6bf8ea43a78e43096190490cfd"),
    },
}


@pytest.mark.parametrize("workload", ["deep_search", "wide_eval"])
def test_tiny_workload_training_bytes_per_objective(tmp_path, workload):
    workloads.write_corpus(workload, "tiny", 0, str(tmp_path))
    config = workloads.write_config(workload, 0, str(tmp_path))
    for stage in ("filter", "generate", "export"):
        assert main([stage, "--config", config]) == 0, stage
    with open(config, encoding="utf-8") as fh:
        doc = json.load(fh)
    got = {}
    for objective in ("hard", "pairwise"):
        doc["train"] = {"objective": objective}
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        assert main(["train", "--config", config]) == 0, objective
        got[objective] = tuple(
            digest(os.path.join(tmp_path, "out", name))
            for name in ("prm_model.json", "train_curve.json"))
    assert got == TRAIN_PINNED[workload]
