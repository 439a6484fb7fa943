"""Pinned artifact digests: the tiny simulated benchmark workloads must give
byte-identical artifacts at every parallelism.

The workloads and their pinned SHA-256 digests come from ``perfbench/``
(``workloads.py`` and ``digests.json``, seed 0); each artifact is hashed as
``perfbench/run.py`` hashes it.
"""
import hashlib
import importlib.util
import json
import os

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


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("workload", ["deep_search", "wide_eval"])
def test_tiny_workload_matches_pinned_digests(tmp_path, workload, parallelism):
    workloads.write_corpus(workload, "tiny", 0, str(tmp_path))
    config = workloads.write_config(workload, 0, str(tmp_path),
                                    parallelism=parallelism)
    for stage in STAGES:
        assert main([stage, "--config", config]) == 0, stage
    pinned = PINNED[workload]["tiny"]["0"]
    got = {name: digest(os.path.join(tmp_path, "out", name))
           for name in pinned}
    assert got == pinned
