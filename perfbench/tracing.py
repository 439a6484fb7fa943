"""Traced-run harness: spans and counts around calls into each layer.

The harness patches public functions of the imported ``omegaprm`` modules
under the name each caller looks up (``cli`` imports ``build_tree`` by
name, ``evaluate`` imports ``score_solution``, and so on), so a call is
timed wherever it comes from. Nothing under ``src/`` changes; ``uninstall``
restores every patched attribute.

Spans live in memory. Each has an id, a parent id, a run id, a name, a
thread and its start and end times; they are written out when the run
ends. Calls of a few hot leaf functions (``State.key``, answer
equivalence, featurization, pool insertion) are too many to keep one by
one: their count and duration are added to per-name totals and to the
enclosing span's child time instead, which keeps self times exact.
"""
from __future__ import annotations

import itertools
import json
import math
import threading
import time
from collections import defaultdict
from fractions import Fraction

import requests

# Names whose calls are tallied rather than kept as individual spans.
AGGREGATED = {
    "core.state_key", "policy.answers_equivalent", "prm.featurize",
    "mcts.pool_add", "evaluate.weighted_vote",
}


class Span:
    __slots__ = ("id", "parent", "run", "name", "thread", "start", "end",
                 "child_s", "children")

    def __init__(self, sid, parent, run, name, thread, start):
        self.id = sid
        self.parent = parent
        self.run = run
        self.name = name
        self.thread = thread
        self.start = start
        self.end = None
        self.child_s = 0.0  # time covered by aggregated child calls
        self.children = []  # stored child spans

    def to_record(self):
        return {"id": self.id, "parent": self.parent.id if self.parent else None,
                "run": self.run, "name": self.name, "thread": self.thread,
                "start": self.start, "end": self.end}


class Tracer:
    """Owns the spans, tallies and patches of one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.totals = defaultdict(lambda: [0, 0.0])  # name -> [calls, s]
        self.counts = defaultdict(int)
        self.samples = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []
        self.stage = None

    # -- span bookkeeping ------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        stack = self._stack()
        parent = stack[-1] if stack else self.stage
        span = Span(next(self._ids), parent, self.run_id, name,
                    threading.get_ident(), time.perf_counter())
        stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()
        duration = span.end - span.start
        with self._lock:
            total = self.totals[span.name]
            total[0] += 1
            total[1] += duration
            parent = span.parent
            if span.name in AGGREGATED:
                if parent is not None:
                    parent.child_s += duration
            else:
                self.spans.append(span)
                if parent is not None:
                    parent.children.append(span)

    def count(self, name, value=1):
        with self._lock:
            self.counts[name] += value

    def sample(self, name, value):
        with self._lock:
            self.samples[name].append(value)

    def stage_span(self, name):
        """Open the span of one CLI stage on the calling thread."""
        self.stage = self.open(name)

    def end_stage(self):
        self.close(self.stage)
        self.stage = None

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr, name, after=None):
        """Replace ``owner.attr`` by a wrapper recording span ``name``.
        ``after(result, args)`` may record counts from the call."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = original
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        return original

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def self_time(self, span):
        """Span duration minus the part of it its children cover."""
        intervals = sorted((c.start, c.end) for c in span.children)
        covered = 0.0
        cur_start = cur_end = None
        for start, end in intervals:
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        return span.end - span.start - covered - span.child_s

    def write(self, path):
        """Write one JSON line per stored span, with its self time."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                record = span.to_record()
                record["self_s"] = self.self_time(span)
                fh.write(json.dumps(record) + "\n")


def percentile(values, q):
    """Nearest-rank percentile of a nonempty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def install(tracer: Tracer, pkg):
    """Patch every traced call site of the imported package ``pkg`` (a
    namespace with the modules cli, core, evaluate, mcts, policy and prm)."""
    cli, core = pkg.cli, pkg.core
    evaluate, mcts, policy, prm = pkg.evaluate, pkg.mcts, pkg.policy, pkg.prm
    k = tracer.count

    tracer.patch(core.State, "key", "core.state_key")

    # policy: simulator, answer equivalence, remote client
    tracer.patch(policy.SimulatedCompleter, "sample_rollouts",
                 "policy.sample_rollouts",
                 after=lambda r, a: k("policy.rollouts", len(r)))
    for owner in (policy, evaluate):
        tracer.patch(owner, "answers_equivalent", "policy.answers_equivalent")
    tracer.patch(policy.RemoteCompleter, "sample_rollouts", "policy.remote.wait")
    _patch_http(tracer, policy)

    # mcts: search and tree I/O
    def after_build(result, args):
        tree, budget = result
        k("mcts.policy_calls", budget.policy_calls)
        k("mcts.tree_nodes", len(tree.nodes))
        k("mcts.stored_rollouts",
          sum(len(n.stats.rollouts) for n in tree.nodes.values()))

    def after_locate(result, args):
        engine, _, rollout = args[:3]
        k("mcts.probes", len(result.probe_positions))
        k("mcts.probes_sampled",
          result.rollouts_spent // engine.cfg.k_rollouts)
        m = len(rollout.steps)
        if m > 1:
            k("mcts.searches_with_bound")
            # Exact, so the sum does not depend on thread interleaving.
            k("mcts.probe_bound_ratio_sum",
              Fraction(len(result.probe_positions), math.ceil(math.log2(m))))

    tracer.patch(cli, "build_tree", "mcts.build_tree", after=after_build)
    tracer.patch(mcts.RolloutPool, "select", "mcts.select")
    tracer.patch(mcts.OmegaPRMEngine, "locate_first_error",
                 "mcts.locate_first_error", after=after_locate)
    tracer.patch(mcts.RolloutPool, "add", "mcts.pool_add",
                 after=lambda r, a: k("mcts.pool_accepted", int(bool(r))))
    tracer.patch(cli, "save_tree", "mcts.save_tree")
    tracer.patch(cli, "load_tree", "mcts.load_tree")

    # dataset
    def after_filter(result, args):
        kept, report = result
        k("dataset.filter_kept", len(kept))
        k("dataset.filter_seen", len(report))

    tracer.patch(cli, "filter_questions", "dataset.filter_questions",
                 after=after_filter)
    for owner in (cli, evaluate):
        tracer.patch(owner, "tree_to_examples", "dataset.tree_to_examples")
    tracer.patch(cli, "tree_to_pairs", "dataset.tree_to_pairs")
    for attr in ("export_examples_jsonl", "export_pairs_jsonl",
                 "export_corpus_jsonl", "export_filter_report"):
        tracer.patch(cli, attr, "dataset.jsonl_write")
    for attr in ("import_corpus_jsonl", "import_examples_jsonl",
                 "import_pairs_jsonl"):
        tracer.patch(cli, attr, "dataset.jsonl_read")

    # prm
    tracer.patch(prm, "featurize", "prm.featurize")
    tracer.patch(evaluate, "score_solution", "prm.score_solution")
    tracer.patch(cli, "train_toy_prm", "prm.train_toy_prm")

    # evaluate
    equivalent = policy.answers_equivalent.__wrapped__

    def after_sample(result, args):
        classes = []
        for cand in result:
            if not any(equivalent(c, cand.final_answer) or c == cand.final_answer
                       for c in classes):
                classes.append(cand.final_answer)
        k("evaluate.answer_classes", len(classes))

    tracer.patch(evaluate, "sample_candidates", "evaluate.sample_candidates",
                 after=after_sample)
    tracer.patch(evaluate, "weighted_vote", "evaluate.weighted_vote")

    tracer.patch(cli, "accuracy_curve", "evaluate.accuracy_curve")
    tracer.patch(cli, "efficiency_benchmark", "evaluate.efficiency_benchmark")


def _patch_http(tracer, policy):
    """Time each HTTP attempt the remote client makes.

    ``RemoteCompleter`` posts through a ``requests.Session``; wrapping the
    session's ``post`` captures every attempt, retries included. An attempt
    that raises or returns a 5xx status is one the client retries.
    """
    session_cls = requests.Session
    original = session_cls.post

    def post(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            resp = original(self, *args, **kwargs)
        except requests.RequestException:
            tracer.count("policy.remote.retryable")
            raise
        finally:
            tracer.count("policy.remote.requests")
            tracer.sample("policy.remote.rtt_ms",
                          (time.perf_counter() - start) * 1000.0)
        if resp.status_code >= 500:
            tracer.count("policy.remote.retryable")
        return resp

    tracer._patches.append((session_cls, "post", original))
    session_cls.post = post

    remote_sample = policy.RemoteCompleter.sample_rollouts
    errors = policy.CompleterUnavailable

    def sample_rollouts(self, request):
        try:
            return remote_sample(self, request)
        except errors:
            tracer.count("policy.remote.failures")
            raise

    tracer._patches.append((policy.RemoteCompleter, "sample_rollouts",
                            remote_sample))
    policy.RemoteCompleter.sample_rollouts = sample_rollouts
