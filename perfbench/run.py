"""Pipeline benchmark: one workload through all six CLI stages.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload deep_search --seed 0 --seconds 36 --trace 0

The run writes the workload's corpus and config from ``--seed``, then
repeats set-up and the six stages (``filter -> generate -> export -> train
-> eval -> bench``, each through ``omegaprm.cli.main`` in this process)
until ``--seconds`` are used. Every iteration's artifacts are digested,
checked against the pinned digests (default seed) and against the first
iteration, and validated. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. A traced run alternates untraced and traced iterations, so
the tracing overhead is measured in the same run.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import resource
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

import requests

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
DIGESTS = os.path.join(HERE, "digests.json")

sys.path.insert(0, HERE)
import tracing  # noqa: E402
import workloads  # noqa: E402

STAGES = ("filter", "generate", "export", "train", "eval", "bench")
LABEL_STAGES = ("filter", "generate", "export")
ARTIFACTS = (
    "kept.jsonl", "filter_report.jsonl", "trees", "generate_summary.json",
    "examples.jsonl", "pairs.jsonl", "prm_model.json", "train_curve.json",
    "eval_report.json", "eval_majority.csv", "eval_weighted.csv",
    "bench_report.json",
)
MIN_SETUPS = 3
STUB_START_TIMEOUT_S = 30


class BenchError(Exception):
    """The benchmark cannot run in this checkout."""


def import_package():
    """Import ``omegaprm`` from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "omegaprm", "cli.py")):
        raise BenchError(f"no omegaprm sources under {SRC}")
    sys.path.insert(0, SRC)
    mods = {name: importlib.import_module(f"omegaprm.{name}")
            for name in ("cli", "core", "evaluate", "mcts", "policy", "prm")}
    if not os.path.abspath(mods["cli"].__file__).startswith(SRC + os.sep):
        raise BenchError(f"omegaprm imported from {mods['cli'].__file__}")
    return SimpleNamespace(**mods)


# -- set-up ------------------------------------------------------------------

class Stub:
    """The loopback completion server of the remote workload."""

    def __init__(self, directory, seed, spec, size):
        self.log = open(os.path.join(directory, "stub.log"), "w")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "stub.py"),
             "--corpus", os.path.join(directory, "stub_corpus.jsonl"),
             "--seed", str(seed),
             "--per-step-error-prob", str(spec["sim"]["per_step_error_prob"]),
             "--refusal-window", str(spec[size]["refusal_window"])],
            stdout=subprocess.PIPE, stderr=self.log, text=True,
        )
        line = self._read_ready()
        if not line.startswith("READY "):
            self.stop()
            raise BenchError(f"stub server did not start: {line!r}")
        self.endpoint = f"http://127.0.0.1:{int(line.split()[1])}/complete"
        self.stats_url = f"http://127.0.0.1:{int(line.split()[1])}/stats"

    def _read_ready(self):
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout=STUB_START_TIMEOUT_S):
                return ""
        return self.proc.stdout.readline().strip()

    def stats(self):
        resp = requests.get(self.stats_url, headers={"Connection": "close"},
                            timeout=10)
        resp.raise_for_status()
        counts = resp.json()
        counts["connections"] -= 1  # this stats request's own connection
        return counts

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def setup(workload, size, seed, directory, parallelism):
    """Write inputs, start the stub (remote), and import the package in a
    fresh interpreter. Returns (config path, stub or None, seconds)."""
    spec = workloads.WORKLOADS[workload]
    start = time.perf_counter()
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    workloads.write_corpus(workload, size, seed, directory)
    stub = Stub(directory, seed, spec, size) if spec["completer"] == "remote" else None
    config = workloads.write_config(
        workload, seed, directory, endpoint=stub.endpoint if stub else None,
        parallelism=parallelism)
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-c", "import omegaprm.cli"], env=env,
                   check=True)
    return config, stub, time.perf_counter() - start


# -- one pipeline iteration --------------------------------------------------

def run_stages(pkg, config, tracer=None):
    """Run the six stages; return {stage: wall seconds}."""
    times = {}
    sink = io.StringIO()
    for stage in STAGES:
        gc.collect()  # each stage normally starts in a fresh process
        if tracer is not None:
            tracer.stage_span(f"cli.{stage}")
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            rc = pkg.cli.main([stage, "--config", config])
        times[stage] = time.perf_counter() - start
        if tracer is not None:
            tracer.end_stage()
        if rc != 0:
            raise BenchError(f"stage {stage} exited with {rc}")
    return times


def digest_artifacts(out):
    digests, total = {}, 0
    for name in ARTIFACTS:
        path = os.path.join(out, name)
        h = hashlib.sha256()
        if os.path.isdir(path):
            for entry in sorted(os.listdir(path)):
                with open(os.path.join(path, entry), "rb") as fh:
                    data = fh.read()
                h.update(entry.encode() + b"\0" + data)
                total += len(data)
        else:
            with open(path, "rb") as fh:
                data = fh.read()
            h.update(data)
            total += len(data)
        digests[name] = h.hexdigest()
    return digests, total


def _read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def inspect_outputs(out, spec, n_questions):
    """Validate the artifacts and return the counts they imply.

    Raises BenchError on an inconsistent artifact."""
    def need(cond, what):
        if not cond:
            raise BenchError(f"invalid output: {what}")

    report = _read_jsonl(os.path.join(out, "filter_report.jsonl"))
    kept = _read_jsonl(os.path.join(out, "kept.jsonl"))
    need(len(report) == n_questions, "filter report covers the corpus")
    need(sum(r["kept"] for r in report) == len(kept), "kept count")
    summary = _read_json(os.path.join(out, "generate_summary.json"))
    trees_dir = os.path.join(out, "trees")
    tree_calls = 0
    for name in os.listdir(trees_dir):
        tree_calls += _read_json(os.path.join(trees_dir, name))["budget"]["policy_calls"]
    need(summary["total_policy_calls"] == tree_calls, "policy calls sum")
    need(len(summary["questions"]) == len(kept), "one tree per kept question")
    examples = _read_jsonl(os.path.join(out, "examples.jsonl"))
    need(examples, "examples exported")
    for ex in examples:
        need(0.0 <= ex["mc"] <= 1.0 and ex["hard_label"] == int(ex["mc"] > 0),
             "example labels")
    pairs = _read_jsonl(os.path.join(out, "pairs.jsonl"))
    need(all(0.0 <= p["pref_a"] <= 1.0 for p in pairs), "pair preferences")
    evalr = _read_json(os.path.join(out, "eval_report.json"))
    k_max = spec["eval"]["k_max"]
    for curve in evalr.values():
        need(curve["ks"][-1] == k_max, "eval k schedule")
        need(all(0.0 <= a <= 1.0 for a in curve["accuracy_mean"]),
             "eval accuracies")
    bench = _read_json(os.path.join(out, "bench_report.json"))
    budget = spec["bench"]["budget"]
    brute, omega = bench["brute_force"], bench["omegaprm"]
    need(brute["policy_calls"] <= budget and omega["policy_calls"] <= budget,
         "bench budget respected")
    need(brute["examples_per_call"] > 0, "brute-force arm labelled steps")
    need(math.isclose(bench["ratio"], omega["examples_per_call"]
                      / brute["examples_per_call"]), "bench ratio")
    unresolved = sum(r["reason"] == "unresolved" for r in report)
    skipped = sum(len(c["config"]["skipped"]) for c in evalr.values())
    return {
        "questions": n_questions,
        "kept": len(kept),
        "trees": len(summary["questions"]),
        "failed_trees": len(summary["failures"]),
        "unresolved": unresolved,
        "eval_pools": len(kept) * len(evalr),
        "skipped_pools": skipped,
        "total_policy_calls": summary["total_policy_calls"],
        "examples": len(examples),
        "pairs": len(pairs),
        "bench_ratio": bench["ratio"],
        "majority_acc": evalr["majority"]["accuracy_mean"][-1],
        "weighted_acc": evalr["prm_weighted"]["accuracy_mean"][-1],
    }


# -- per-layer metrics from a traced iteration --------------------------------

def layer_metrics(tracer, counts, stage_times):
    """Per-layer values of one traced iteration: times in seconds,
    counts as numbers."""
    t = tracer.totals
    c = tracer.counts

    def calls(name):
        return t[name][0] if name in t else 0

    def secs(name):
        return t[name][1] if name in t else 0.0

    out = {}
    for name in ("core.state_key", "policy.sample_rollouts",
                 "policy.answers_equivalent", "mcts.select",
                 "mcts.locate_first_error", "prm.featurize",
                 "prm.score_solution", "evaluate.sample_candidates",
                 "evaluate.weighted_vote"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.s"] = secs(name)
    for name in ("mcts.build_tree", "mcts.save_tree", "mcts.load_tree",
                 "dataset.filter_questions", "dataset.tree_to_examples",
                 "dataset.tree_to_pairs", "dataset.jsonl_write",
                 "dataset.jsonl_read", "prm.train_toy_prm",
                 "evaluate.accuracy_curve", "evaluate.efficiency_benchmark"):
        out[f"{name}.s"] = secs(name)
    out["policy.rollouts"] = c["policy.rollouts"]

    rtt = tracer.samples.get("policy.remote.rtt_ms", [])
    out["policy.remote.requests"] = c["policy.remote.requests"]
    out["policy.remote.retries"] = (c["policy.remote.retryable"]
                                    - c["policy.remote.failures"])
    out["policy.remote.failures"] = c["policy.remote.failures"]
    out["policy.remote.connections"] = counts["connections"]
    out["policy.remote.rtt_ms.p50"] = tracing.percentile(rtt, 50) if rtt else 0.0
    out["policy.remote.rtt_ms.p99"] = tracing.percentile(rtt, 99) if rtt else 0.0
    out["policy.remote.rtt_ms.samples"] = len(rtt)
    out["policy.remote.wait_s"] = secs("policy.remote.wait")

    searches = c["mcts.searches_with_bound"]
    out["mcts.probes"] = c["mcts.probes"]
    out["mcts.probes_sampled"] = c["mcts.probes_sampled"]
    out["mcts.probes_over_log2_bound"] = (
        float(c["mcts.probe_bound_ratio_sum"] / searches) if searches else 0.0)
    adds = calls("mcts.pool_add")
    out["mcts.pool_accept_share"] = c["mcts.pool_accepted"] / adds if adds else 0.0
    out["mcts.policy_calls"] = c["mcts.policy_calls"]
    out["mcts.tree_nodes"] = c["mcts.tree_nodes"]
    out["mcts.stored_rollouts"] = c["mcts.stored_rollouts"]
    out["mcts.tree_bytes"] = counts["tree_bytes"]

    seen = c["dataset.filter_seen"]
    out["dataset.kept_share"] = c["dataset.filter_kept"] / seen if seen else 0.0
    out["dataset.examples"] = counts["examples"]
    out["dataset.pairs"] = counts["pairs"]
    nodes = c["mcts.tree_nodes"]
    out["dataset.example_yield"] = counts["examples"] / nodes if nodes else 0.0

    pools = calls("evaluate.sample_candidates")
    out["evaluate.pools_per_question"] = (
        pools / counts["kept"] if counts["kept"] else 0.0)
    out["evaluate.answer_classes_per_pool"] = (
        c["evaluate.answer_classes"] / pools if pools else 0.0)
    out["evaluate.bench_ratio"] = counts["bench_ratio"]
    out["evaluate.majority_acc"] = counts["majority_acc"]
    out["evaluate.weighted_acc"] = counts["weighted_acc"]

    stage_spans = {s.name: s for s in tracer.spans if s.name.startswith("cli.")}
    for stage in STAGES:
        span = stage_spans[f"cli.{stage}"]
        out[f"cli.{stage}.s"] = stage_times[stage]
        out[f"cli.{stage}.self_s"] = tracer.self_time(span)
    return out


# -- the run -----------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else 0.0


def iterate(pkg, workload, size, seed, directory, parallelism, tracer=None):
    """Set up and run the pipeline once; return (setup seconds, stage
    times, artifact digests, counts)."""
    spec = workloads.WORKLOADS[workload]
    config, stub, setup_s = setup(workload, size, seed, directory, parallelism)
    if tracer is not None:
        tracing.install(tracer, pkg)
    try:
        stage_times = run_stages(pkg, config, tracer)
        server = stub.stats() if stub else {}
    finally:
        if tracer is not None:
            tracer.uninstall()
        if stub is not None:
            stub.stop()
    out = os.path.join(directory, "out")
    digests, total_bytes = digest_artifacts(out)
    counts = inspect_outputs(out, spec, spec[size]["questions"])
    counts["artifact_bytes"] = total_bytes
    counts["tree_bytes"] = sum(
        os.path.getsize(os.path.join(out, "trees", n))
        for n in os.listdir(os.path.join(out, "trees")))
    counts["http_requests"] = server.get("requests", 0)
    counts["http_refused"] = server.get("refused", 0)
    counts["connections"] = server.get("connections", 0)
    shutil.rmtree(out)
    return setup_s, stage_times, digests, counts


def _work_dir(workload, size, seed):
    os.makedirs(WORK, exist_ok=True)
    return os.path.join(WORK, f"{workload}-{size}-{seed}-{os.getpid()}")


def pin_digests(workload, size, seed):
    """Digests of one iteration at the workload's default parallelism."""
    pkg = import_package()
    directory = _work_dir(workload, size, seed)
    try:
        return iterate(pkg, workload, size, seed, directory, None)[2]
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def run(workload, seed, seconds, trace, size="full", parallelism=None):
    pkg = import_package()
    directory = _work_dir(workload, size, seed)
    pinned = {}
    if os.path.exists(DIGESTS):
        pinned = _read_json(DIGESTS).get(workload, {}).get(size, {}).get(
            str(seed), {})

    setups, untraced, traced_layers, problems = [], [], [], []
    first_digests = first_counts = None
    attempted = failed = 0
    iteration = 0
    started = time.perf_counter()
    try:
        while True:
            iteration += 1
            tracer = None
            if trace and iteration % 2 == 0:
                tracer = tracing.Tracer(run_id=f"{workload}-{seed}-{iteration}")
            setup_s, stage_times, digests, counts = iterate(
                pkg, workload, size, seed, directory, parallelism, tracer)
            setups.append(setup_s)
            attempted += (counts["questions"] + counts["trees"]
                          + counts["eval_pools"] + counts["http_requests"]
                          - counts["http_refused"])
            failed += (counts["unresolved"] + counts["failed_trees"]
                       + counts["skipped_pools"])
            problems += [f"digest mismatch: {name}"
                         for name, want in pinned.items()
                         if digests.get(name) != want]
            if first_digests is None:
                first_digests, first_counts = digests, counts
            else:
                if digests != first_digests:
                    problems.append("artifacts differ between iterations")
                if counts != first_counts:
                    problems.append("counts differ between iterations")
            if tracer is not None:
                layers = layer_metrics(tracer, counts, stage_times)
                if traced_layers and any(
                        layers[k] != traced_layers[0][k]
                        for k in layers if not is_time(k)):
                    problems.append("layer counts differ between iterations")
                traced_layers.append(layers)
                tracer.write(os.path.join(WORK, f"spans-{workload}-{seed}.jsonl"))
            else:
                untraced.append(stage_times)

            # Start another iteration while it would end within half an
            # iteration of the deadline, so iterations fill the run.
            elapsed = time.perf_counter() - started
            complete = not trace or (untraced and traced_layers)
            if complete and elapsed + 0.5 * elapsed / iteration > seconds:
                break
        while len(setups) < MIN_SETUPS:
            _, stub, setup_s = setup(workload, size, seed, directory,
                                     parallelism)
            setups.append(setup_s)
            if stub is not None:
                stub.stop()
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    counts = first_counts
    if trace:
        metrics = _summarize_layers(traced_layers, untraced)
    else:
        metrics = {
            "setup_s": (_median(setups), "s"),
            "pipeline_s": (_median([sum(t.values()) for t in untraced]), "s"),
            "label_s": (_median([sum(t[s] for s in LABEL_STAGES)
                                 for t in untraced]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
            "artifact_mb": (counts["artifact_bytes"] / 1e6, "MB"),
            "policy_calls_per_label": (counts["total_policy_calls"]
                                       / counts["examples"], "ratio"),
        }
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "problems": sorted(set(problems)),
        "iterations": iteration,
        "setups": len(setups),
    }


def is_time(name):
    """Whether a per-layer metric is a duration (reported as a median)."""
    return (name.endswith(".s") or name.endswith("_s")
            or ".rtt_ms." in name and not name.endswith(".samples"))


def _unit(name):
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if ".rtt_ms." in name and not name.endswith(".samples"):
        return "ms"
    if name.endswith("_share") or name.endswith("_yield") or name.endswith(
            "_bound") or name.endswith("_per_question") or name.endswith(
            "_per_pool") or name.endswith("_acc") or name.endswith("_ratio"):
        return "ratio"
    if name == "mcts.tree_bytes":
        return "bytes"
    return "count"


def _summarize_layers(traced_layers, untraced):
    metrics = {}
    for name in traced_layers[0]:
        values = [layers[name] for layers in traced_layers]
        value = _median(values) if is_time(name) else values[0]
        metrics[name] = (value, _unit(name))
    traced_pipeline = _median([sum(layers[f"cli.{s}.s"] for s in STAGES)
                               for layers in traced_layers])
    untraced_pipeline = _median([sum(t.values()) for t in untraced])
    metrics["cli.tracing_overhead_s"] = (traced_pipeline - untraced_pipeline, "s")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shapes are for the self-test")
    parser.add_argument("--parallelism", type=int, default=None,
                        help="override the workload's parallelism")
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     size=args.size, parallelism=args.parallelism)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for problem in result["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(f"iterations {result['iterations']}, setups {result['setups']}",
          file=sys.stderr)
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
