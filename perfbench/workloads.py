"""Seeded corpus and config generation for the benchmark workloads.

Each workload stresses a different layer of the pipeline:

- ``deep_search``: long chains make the binary search deep and the trees
  large, so the engine (``mcts``), the simulator in ``policy`` and tree I/O
  do most of the work; eval is tiny.
- ``wide_eval``: many short questions with clustered wrong answers and a
  large eval, so ``evaluate`` and ``prm`` do most of the work. Clustered
  distractors make majority voting lose to PRM-weighted voting (the
  paper's effect), which keeps both accuracies away from saturation.
- ``remote``: every completion goes over HTTP to a loopback stub server
  run as a separate process, so round trips, batching, retries and
  connection churn do the work.

The workload seed fixes the corpus text, the golden answers and the run
seed; the program receives only the generated files.
"""
from __future__ import annotations

import json
import os
import random

# Shapes are (questions, steps per chain, tokens per step) plus engine and
# eval settings. "tiny" shapes serve the self-test only. A step exports as a
# training example only when it is shorter than the tree's split threshold
# (solution tokens / step_split_target), so every shape keeps
# steps * tokens / step_split_target above the step length.
WORKLOADS = {
    "deep_search": {
        "full": {"questions": 24, "steps": 48, "tokens": 6},
        "tiny": {"questions": 2, "steps": 20, "tokens": 2},
        "parallelism": 2,
        "completer": "sim",
        "sim": {"per_step_error_prob": 0.02},
        # Some pools run dry before 100 searches; a limit of 50 binds on
        # nearly every tree, so tree sizes vary little between seeds.
        "engine": {"search_limit": 50},
        "eval": {"k_max": 8, "pool_size": 16, "n_resamples": 20},
        "bench": {"budget": 8000},
    },
    "wide_eval": {
        "full": {"questions": 96, "steps": 8, "tokens": 4},
        "tiny": {"questions": 8, "steps": 6, "tokens": 2},
        "parallelism": 1,
        "completer": "sim",
        "sim": {
            "per_step_error_prob": 0.1,
            "wrong_answer_pool": ["666", "667"],
            "wrong_answer_weights": [3, 1],
        },
        "engine": {"step_split_target": 4, "search_limit": 10},
        "eval": {"k_max": 32, "pool_size": 64, "n_resamples": 100},
        "bench": {"budget": 16000},
    },
    "remote": {
        # The stub's refusals fall among the filter stage's requests
        # (questions x 32 / 8), so their 0.5 s client backoffs cost about
        # the same wall time on every seed.
        "full": {"questions": 10, "steps": 10, "tokens": 4,
                 "refusal_window": 40},
        "tiny": {"questions": 2, "steps": 10, "tokens": 2,
                 "refusal_window": 8},
        "parallelism": 2,
        "completer": "remote",
        "sim": {"per_step_error_prob": 0.1},
        "engine": {"search_limit": 20},
        "eval": {"k_max": 8, "pool_size": 16, "n_resamples": 20},
        "bench": {"budget": 1200},
    },
}

_WORDS = (
    "add take sum half twice carry borrow split merge count total each "
    "rate time cost unit part whole share left right more less step"
).split()


def make_corpus(workload: str, size: str, seed: int):
    """Corpus records (id, statement, golden answer, ground chain) of
    ``workload`` at ``size`` for ``seed``."""
    shape = WORKLOADS[workload][size]
    rng = random.Random(f"{workload}/{size}/{seed}")
    records = []
    for i in range(shape["questions"]):
        qid = f"q{i:03d}"
        statement = " ".join(rng.choice(_WORDS) for _ in range(6))
        statement = f"{qid}: {statement}"
        chain = [
            " ".join(f"{rng.choice(_WORDS)}{rng.randrange(10)}"
                     for _ in range(shape["tokens"]))
            for _ in range(shape["steps"])
        ]
        records.append({
            "id": qid,
            "statement": statement,
            "golden_answer": str(rng.randrange(100, 10_000)),
            "chain": chain,
        })
    return records


def write_corpus(workload: str, size: str, seed: int, directory: str):
    """Write corpus.jsonl into ``directory``. For remote the client's corpus
    has no ground chains; the stub reads them from stub_corpus.jsonl."""
    records = make_corpus(workload, size, seed)
    remote = WORKLOADS[workload]["completer"] == "remote"
    with open(os.path.join(directory, "corpus.jsonl"), "w",
              encoding="utf-8") as fh:
        for rec in records:
            if remote:
                rec = {k: v for k, v in rec.items() if k != "chain"}
            fh.write(json.dumps(rec) + "\n")
    if remote:
        with open(os.path.join(directory, "stub_corpus.jsonl"), "w",
                  encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec) + "\n")


def write_config(workload: str, seed: int, directory: str,
                 endpoint: str | None = None, parallelism: int | None = None):
    """Write run.json into ``directory`` and return its path."""
    spec = WORKLOADS[workload]
    completer = {"kind": spec["completer"]}
    if spec["completer"] == "remote":
        completer["remote"] = {"endpoint": endpoint, "max_retries": 3,
                               "batch_size": 8, "timeout": 30.0}
    else:
        completer["sim"] = spec["sim"]
    config = {
        "corpus": os.path.join(directory, "corpus.jsonl"),
        "output": os.path.join(directory, "out"),
        "seed": seed,
        "parallelism": parallelism or spec["parallelism"],
        "engine": spec["engine"],
        "completer": completer,
        "eval": spec["eval"],
        "bench": spec["bench"],
    }
    path = os.path.join(directory, "run.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)
    return path
