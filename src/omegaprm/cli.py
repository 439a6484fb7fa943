"""Pipeline orchestration: filter -> generate -> export -> train -> eval -> bench.

Commands communicate through files only, so runs are resumable and every
artifact is reproducible from (config, seed).
"""
from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import sys
import threading
from dataclasses import dataclass, field
from functools import partial

from .core import EngineConfig
from .dataset import (
    export_corpus_jsonl,
    export_examples_jsonl,
    export_filter_report,
    export_pairs_jsonl,
    filter_questions,
    import_corpus_jsonl,
    import_examples_jsonl,
    import_pairs_jsonl,
    tree_to_examples,
    tree_to_pairs,
    write_json,
)
from .errors import (
    CompleterUnavailable,
    ConfigError,
    EmptyDataset,
    EstimationFailed,
    ParseError,
)
from .evaluate import accuracy_curve, efficiency_benchmark
from .mcts import build_tree, load_tree, save_tree
from .policy import (
    RemoteCompleter,
    SimPolicySpec,
    SimulatedCompleter,
    stable_int,
)
from .prm import TrainSettings, load_model, save_model, train_toy_prm

AUTH_TOKEN_ENV = "OMEGAPRM_AUTH_TOKEN"

_ENGINE_KEYS = {
    "alpha", "beta", "len_scale_L", "c_puct", "k_rollouts",
    "search_limit", "step_split_target",
}
_SIM_KEYS = {
    "per_step_error_prob", "recovery_prob", "wrong_answer_pool",
    "wrong_answer_weights",
}
_REMOTE_KEYS = {
    "endpoint", "timeout", "max_retries", "batch_size", "temperature",
    "max_tokens",
}
_TRAIN_KEYS = {"objective", "learning_rate", "epochs"}
_OBJECTIVES = ("soft", "hard", "pairwise")
_EVAL_KEYS = {"k_max", "n_resamples", "pool_size"}
_BENCH_KEYS = {"budget"}
_TOP_KEYS = {
    "engine", "completer", "corpus", "output", "parallelism", "seed",
    "filter_k", "train", "eval", "bench",
}


def _check_keys(section, allowed, where):
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


@dataclass
class RunConfig:
    engine: EngineConfig = field(default_factory=EngineConfig)
    completer_kind: str = "sim"
    sim: dict = field(default_factory=dict)
    remote: dict = field(default_factory=dict)
    corpus: str = "corpus.jsonl"
    output: str = "out"
    parallelism: int = 1
    seed: int = 0
    filter_k: int = 32
    train: dict = field(default_factory=dict)
    eval: dict = field(default_factory=dict)
    bench: dict = field(default_factory=dict)

    @classmethod
    def from_file(cls, path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return cls.from_dict(doc)

    @classmethod
    def from_dict(cls, doc):
        _check_keys(doc, _TOP_KEYS, "config")
        cfg = cls()
        engine = doc.get("engine", {})
        _check_keys(engine, _ENGINE_KEYS, "engine")
        cfg.engine = EngineConfig(**engine)
        cfg.engine.validate()
        completer = doc.get("completer", {})
        _check_keys(completer, {"kind", "sim", "remote"}, "completer")
        cfg.completer_kind = completer.get("kind", "sim")
        if cfg.completer_kind not in ("sim", "remote"):
            raise ConfigError("completer.kind must be 'sim' or 'remote'")
        cfg.sim = completer.get("sim", {})
        _check_keys(cfg.sim, _SIM_KEYS, "completer.sim")
        cfg.remote = completer.get("remote", {})
        _check_keys(cfg.remote, _REMOTE_KEYS, "completer.remote")
        cfg.corpus = doc.get("corpus", cfg.corpus)
        cfg.output = doc.get("output", cfg.output)
        cfg.parallelism = int(doc.get("parallelism", 1))
        cfg.seed = int(doc.get("seed", 0))
        cfg.filter_k = int(doc.get("filter_k", 32))
        cfg.train = doc.get("train", {})
        _check_keys(cfg.train, _TRAIN_KEYS, "train")
        if cfg.train.get("objective", "soft") not in _OBJECTIVES:
            raise ConfigError(f"train.objective must be one of {_OBJECTIVES}")
        cfg.eval = doc.get("eval", {})
        _check_keys(cfg.eval, _EVAL_KEYS, "eval")
        cfg.bench = doc.get("bench", {})
        _check_keys(cfg.bench, _BENCH_KEYS, "bench")
        if cfg.parallelism < 1:
            raise ConfigError("parallelism must be >= 1")
        return cfg

    def apply_overrides(self, args):
        if args.seed is not None:
            self.seed = args.seed
        if args.parallelism is not None:
            self.parallelism = args.parallelism
        if args.output is not None:
            self.output = args.output
        if args.completer is not None:
            self.completer_kind = args.completer
        return self


def make_completer(cfg: RunConfig, questions, chains, scope: str = ""):
    """Build the configured completer. For the simulated policy the seed is
    derived from (run seed, scope) so each pipeline stage gets an
    independent, reproducible stream."""
    questions_by_id = {q.id: q for q in questions}
    if cfg.completer_kind == "sim":
        spec = SimPolicySpec(
            per_step_error_prob=cfg.sim.get("per_step_error_prob", 0.1),
            recovery_prob=cfg.sim.get("recovery_prob", 0.0),
            seed=stable_int(cfg.seed, scope),
            wrong_answer_pool=cfg.sim.get("wrong_answer_pool"),
            wrong_answer_weights=cfg.sim.get("wrong_answer_weights"),
        )
        return SimulatedCompleter(questions_by_id, chains, spec)
    remote = dict(cfg.remote)
    endpoint = remote.pop("endpoint", None)
    if not endpoint:
        raise ConfigError("completer.remote.endpoint is required")
    return RemoteCompleter(
        questions_by_id, endpoint,
        auth_token=os.environ.get(AUTH_TOKEN_ENV),
        **remote,
    )


def _read_corpus(path):
    """The corpus at ``path``, or None when it is missing. A malformed
    corpus is a user input error: one stderr line and exit 2."""
    if not os.path.exists(path):
        return None
    try:
        return import_corpus_jsonl(path)
    except ParseError as exc:
        print(f"malformed corpus: {path}: {exc}", file=sys.stderr)
        sys.exit(2)


def _require(path):
    if not os.path.exists(path):
        print(f"missing upstream artifact: {path}", file=sys.stderr)
        sys.exit(3)
    return path


def _read_upstream(reader, path):
    """``reader(path)`` on an upstream artifact that must exist and parse;
    otherwise one stderr line and exit 3."""
    try:
        return reader(_require(path))
    except ParseError as exc:
        print(f"corrupt upstream artifact: {path}: {exc}", file=sys.stderr)
        sys.exit(3)


def _map_questions(cfg: RunConfig, work, questions):
    """``work(question)`` for each question, in question order.

    At parallelism 1 (or for a single question) it runs in this process.
    Otherwise the simulated completer, which holds the GIL, runs in worker
    processes, so ``work`` and its results must pickle; the remote one,
    which waits on the network and keeps one connection per thread, runs
    on threads.
    """
    workers = min(cfg.parallelism, len(questions))
    if workers <= 1:
        return list(map(work, questions))
    # Each pool class is imported on first access (the process pool pulls
    # in multiprocessing), so a command pays only for the one it uses.
    if cfg.completer_kind == "sim":
        pool = concurrent.futures.ProcessPoolExecutor(
            workers, mp_context=_worker_start())
    else:
        pool = concurrent.futures.ThreadPoolExecutor(workers)
    with pool:
        return list(pool.map(work, questions))


def _worker_start():
    """The multiprocessing context worker processes start from.

    A forked worker starts at once with the package imported; a spawned
    one imports the package and numpy again, about 0.45 s per pool on a
    2-core VM, which is more than the pool saves on a 24-question
    generate. Fork is used only where it is safe: on Linux, and while no
    other thread of this process could hold a lock at the fork.
    """
    import multiprocessing  # already loaded by the process pool

    forkable = sys.platform == "linux" and threading.active_count() == 1
    return multiprocessing.get_context("fork" if forkable else "spawn")


# -- commands --------------------------------------------------------------

def _filter_one(cfg: RunConfig, chains, question):
    """(kept?, filter record) of one question."""
    completer = make_completer(cfg, [question], chains,
                               scope=f"filter/{question.id}")
    kept, report = filter_questions([question], completer, cfg.filter_k)
    return bool(kept), report[0]


def cmd_filter(cfg: RunConfig) -> int:
    loaded = _read_corpus(cfg.corpus)
    if loaded is None:
        print(f"cannot read corpus: {cfg.corpus}", file=sys.stderr)
        return 2
    questions, chains = loaded
    os.makedirs(cfg.output, exist_ok=True)
    results = _map_questions(cfg, partial(_filter_one, cfg, chains), questions)
    kept = [q for q, (ok, _) in zip(questions, results) if ok]
    report = [rec for _, rec in results]
    export_corpus_jsonl(kept, os.path.join(cfg.output, "kept.jsonl"), chains)
    export_filter_report(report, os.path.join(cfg.output, "filter_report.jsonl"))
    print(f"kept {len(kept)} of {len(questions)} questions")
    return 0


def _stored_tree(path, question):
    """The (tree, budget) that an earlier generate run saved at ``path`` for
    ``question``, or None when the file is missing, unreadable, of another
    schema or question, or has no budget; such a tree is built again."""
    if not os.path.exists(path):
        return None
    try:
        tree, budget = load_tree(path)
    except ParseError:
        return None
    if tree.question.id != question.id or budget is None:
        return None
    return tree, budget


def _generate_one(cfg: RunConfig, chains, trees_dir, question):
    """Resume or build one question's tree, saved under ``trees_dir``.
    Returns (question id, status, budget or error text) but not the tree,
    so no tree crosses a worker process's pipe."""
    path = os.path.join(trees_dir, f"{question.id}.json")
    stored = _stored_tree(path, question)
    if stored is not None:
        return question.id, "resumed", stored[1]
    completer = make_completer(cfg, [question], chains,
                               scope=f"generate/{question.id}")
    try:
        tree, budget = build_tree(question, completer, cfg.engine)
    except (CompleterUnavailable, EstimationFailed) as exc:
        return question.id, "failed", str(exc)
    save_tree(tree, path, budget)
    return question.id, "built", budget


def cmd_generate(cfg: RunConfig) -> int:
    questions, chains = _read_upstream(
        import_corpus_jsonl, os.path.join(cfg.output, "kept.jsonl"))
    trees_dir = os.path.join(cfg.output, "trees")
    os.makedirs(trees_dir, exist_ok=True)
    results = _map_questions(
        cfg, partial(_generate_one, cfg, chains, trees_dir), questions)

    summary = {"questions": [], "total_policy_calls": 0, "total_searches": 0,
               "failures": []}
    for qid, status, info in results:
        summary["questions"].append({"question_id": qid, "status": status})
        if status == "failed":
            summary["failures"].append({"question_id": qid, "error": info})
        else:
            summary["total_policy_calls"] += info.policy_calls
            summary["total_searches"] += info.searches_done
    write_json(summary, os.path.join(cfg.output, "generate_summary.json"))
    built = sum(1 for _, s, _ in results if s == "built")
    resumed = sum(1 for _, s, _ in results if s == "resumed")
    print(f"built {built}, resumed {resumed} of {len(questions)} trees "
          f"({summary['total_policy_calls']} policy calls)")
    if questions and not built + resumed:
        return 1
    return 0


def cmd_export(cfg: RunConfig) -> int:
    trees_dir = _require(os.path.join(cfg.output, "trees"))
    names = sorted(n for n in os.listdir(trees_dir) if n.endswith(".json"))
    if not names:
        print(f"missing upstream artifact: {trees_dir}/*.json", file=sys.stderr)
        return 3
    examples = []
    pairs = []
    for name in names:
        try:
            tree, _ = load_tree(os.path.join(trees_dir, name))
        except ParseError as exc:
            print(f"corrupt upstream artifact: {exc}", file=sys.stderr)
            return 3
        examples.extend(tree_to_examples(tree))
        pairs.extend(tree_to_pairs(tree))
    export_examples_jsonl(examples, os.path.join(cfg.output, "examples.jsonl"))
    export_pairs_jsonl(pairs, os.path.join(cfg.output, "pairs.jsonl"))
    print(f"exported {len(examples)} examples, {len(pairs)} pairs")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    objective = cfg.train.get("objective", "soft")
    settings = TrainSettings(**{
        k: cfg.train[k] for k in ("learning_rate", "epochs") if k in cfg.train
    })
    # Each objective reads only the file it trains on.
    if objective == "pairwise":
        path = os.path.join(cfg.output, "pairs.jsonl")
        data = {"pairs": _read_upstream(import_pairs_jsonl, path)}
    else:
        path = os.path.join(cfg.output, "examples.jsonl")
        data = {"examples": _read_upstream(import_examples_jsonl, path)}
    try:
        model, curve = train_toy_prm(
            objective=objective, settings=settings, **data)
    except EmptyDataset as exc:
        print(f"empty upstream artifact: {path}: {exc}", file=sys.stderr)
        return 3
    save_model(model, os.path.join(cfg.output, "prm_model.json"))
    write_json({"objective": objective, "loss_curve": curve},
               os.path.join(cfg.output, "train_curve.json"))
    print(f"trained {objective} model; final loss {curve[-1]:.6f}")
    return 0


def cmd_eval(cfg: RunConfig) -> int:
    questions, chains = _read_upstream(
        import_corpus_jsonl, os.path.join(cfg.output, "kept.jsonl"))
    model = _read_upstream(
        load_model, os.path.join(cfg.output, "prm_model.json"))
    k_max = int(cfg.eval.get("k_max", 16))
    n_resamples = int(cfg.eval.get("n_resamples", 100))
    pool_size = int(cfg.eval.get("pool_size", max(k_max, 64)))

    completer = make_completer(cfg, questions, chains, scope="eval")
    majority = accuracy_curve(
        questions, completer, None, k_max,
        n_resamples=n_resamples, seed=cfg.seed, pool_size=pool_size,
    )
    completer.reset()
    weighted = accuracy_curve(
        questions, completer, model, k_max,
        n_resamples=n_resamples, seed=cfg.seed, pool_size=pool_size,
    )
    write_json(
        {"majority": majority.to_dict(), "prm_weighted": weighted.to_dict()},
        os.path.join(cfg.output, "eval_report.json"),
    )
    majority.write_csv(os.path.join(cfg.output, "eval_majority.csv"))
    weighted.write_csv(os.path.join(cfg.output, "eval_weighted.csv"))
    print(
        f"k={k_max}: majority {majority.accuracy_mean[-1]:.3f}, "
        f"prm-weighted {weighted.accuracy_mean[-1]:.3f}"
    )
    return 0


def cmd_bench(cfg: RunConfig) -> int:
    loaded = _read_corpus(cfg.corpus)
    if loaded is None:
        print(f"missing upstream artifact: {cfg.corpus}", file=sys.stderr)
        return 3
    questions, chains = loaded
    os.makedirs(cfg.output, exist_ok=True)
    budget = int(cfg.bench.get("budget", 20000))
    completer = make_completer(cfg, questions, chains, scope="bench")
    report = efficiency_benchmark(questions, completer, cfg.engine, budget)
    write_json(report, os.path.join(cfg.output, "bench_report.json"))
    print(
        f"examples/call: brute {report['brute_force']['examples_per_call']:.4f}"
        f" vs omegaprm {report['omegaprm']['examples_per_call']:.4f}"
        f" (ratio {report['ratio']:.2f}x)"
    )
    return 0


COMMANDS = {
    "filter": cmd_filter,
    "generate": cmd_generate,
    "export": cmd_export,
    "train": cmd_train,
    "eval": cmd_eval,
    "bench": cmd_bench,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="omegaprm",
        description="Automatic process supervision pipeline",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="path to JSON config")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--parallelism", type=int, default=None)
    parser.add_argument("--output", default=None)
    parser.add_argument("--completer", choices=["sim", "remote"], default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            cfg = RunConfig.from_file(args.config)
        else:
            cfg = RunConfig()
        cfg.apply_overrides(args)
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
