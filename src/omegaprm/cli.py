"""Pipeline orchestration: filter -> generate -> export -> train -> eval -> bench.

Commands communicate through files only, so runs are resumable and every
artifact is reproducible from (config, seed).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import threading
from contextlib import closing
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial

from .core import EngineConfig, open_replacing, remove_stale_tmp
from .dataset import (
    checked,
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
    ParseError,
    UpstreamError,
)
from .evaluate import EvalSettings, accuracy_curve, efficiency_benchmark
from .mcts import build_tree, load_tree, save_tree
from .policy import (
    RemoteCompleter,
    RemoteSettings,
    SimPolicySpec,
    SimulatedCompleter,
    stable_int,
)
from .prm import TrainSettings, load_model, save_model, train_toy_prm

AUTH_TOKEN_ENV = "OMEGAPRM_AUTH_TOKEN"


@dataclass
class BenchSettings:
    """The ``bench`` section: the policy-call budget of each arm."""

    budget: int = 20000

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be >= 1")


@dataclass
class RunConfig:
    """A run's settings. The config's top-level keys are the fields from
    ``corpus`` to ``filter_k``; each section is the dataclass that consumes
    it, whose fields are its keys and their defaults. Each section checks
    its own values; this class checks the rest."""

    corpus: str = "corpus.jsonl"
    output: str = "out"
    parallelism: int = 1
    seed: int = 0
    filter_k: int = 32
    engine: EngineConfig = field(default_factory=EngineConfig)
    completer_kind: str = "sim"
    # Its seed is unused: make_completer derives one per stage.
    sim: SimPolicySpec = field(default_factory=SimPolicySpec)
    remote: RemoteSettings = field(default_factory=RemoteSettings)
    objective: str = "soft"
    train: TrainSettings = field(default_factory=TrainSettings)
    eval: EvalSettings = field(default_factory=EvalSettings)
    bench: BenchSettings = field(default_factory=BenchSettings)

    def __post_init__(self):
        if self.parallelism < 1 or self.filter_k < 2:
            raise ValueError("need parallelism >= 1 and filter_k >= 2")
        if self.objective not in ("soft", "hard", "pairwise"):
            raise ValueError("train.objective must be soft, hard or pairwise")
        if self.completer_kind not in ("sim", "remote"):
            raise ValueError("completer.kind must be 'sim' or 'remote'")
        if self.completer_kind == "remote" and self.remote.endpoint is None:
            raise ValueError("completer.remote.endpoint is required")

    @classmethod
    def from_file(cls, path, **flags):
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        # ValueError: not UTF-8 or JSON; RecursionError: nested too deeply
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        return cls.from_dict(doc, **flags)

    @classmethod
    def from_dict(cls, doc, **flags):
        """The config of the JSON object ``doc``, with the command-line
        ``flags`` (top-level keys, or ``completer_kind``) in place of its
        own values. A key outside its section, or a value of the wrong JSON
        type or out of range, is a ConfigError."""
        kind = flags.pop("completer_kind", None)
        top = {**_object(doc, "config"), **flags}
        section = {key: top.pop(key, {}) for key in (
            "engine", "completer", "train", "eval", "bench")}
        completer = _checked(section["completer"], {
            "kind": "str", "sim": "dict", "remote": "dict"}, "completer")
        train = _object(section["train"], "train")
        objective = train.pop("objective", "soft")
        return _section(
            cls, top, "config", objective=objective,
            engine=_section(EngineConfig, section["engine"], "engine"),
            completer_kind=kind or completer.get("kind", "sim"),
            sim=_section(SimPolicySpec, completer.get("sim", {}),
                         "completer.sim", seed=0),
            remote=_section(RemoteSettings, completer.get("remote", {}),
                            "completer.remote"),
            train=_section(TrainSettings, train, "train"),
            eval=_section(EvalSettings, section["eval"], "eval"),
            bench=_section(BenchSettings, section["bench"], "bench"),
        )


def _object(doc, where):
    """A copy of ``doc``, which must be a JSON object."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object, got {doc!r}")
    return dict(doc)


def _checked(doc, types, where):
    """The JSON object ``doc`` at ``where``, once each key is one of
    ``types`` and holds a value of the JSON type it names there
    (``dataset.checked``), or a ConfigError."""
    try:
        return checked(_object(doc, where), types, where)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _section(cls, doc, where, **given):
    """``cls`` built from the config object ``doc`` at ``where`` and the
    field values ``given``: its other fields are the object's keys. A value
    that ``cls`` rejects with a ValueError is a ConfigError."""
    types = {f.name: f.type for f in fields(cls) if f.name not in given}
    doc = _checked(doc, types, where)
    try:
        return cls(**doc, **given)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def make_completer(cfg: RunConfig, questions, chains, scope: str = ""):
    """Build the configured completer. For the simulated policy the seed is
    derived from (run seed, scope) so each pipeline stage gets an
    independent, reproducible stream, and every question needs a chain."""
    questions_by_id = {q.id: q for q in questions}
    if cfg.completer_kind == "sim":
        chainless = next((q.id for q in questions if q.id not in chains), None)
        if chainless is not None:
            raise ConfigError(f"question {chainless!r} has no chain, which "
                              f"the simulated completer needs")
        spec = replace(cfg.sim, seed=stable_int(cfg.seed, scope))
        return SimulatedCompleter(questions_by_id, chains, spec)
    return RemoteCompleter(questions_by_id, cfg.remote,
                           auth_token=os.environ.get(AUTH_TOKEN_ENV))


def _read(reader, path, what="upstream artifact", error=UpstreamError):
    """``reader(path)``; a file that is missing or malformed raises
    ``error`` (a ConfigError for the corpus, which is the run's input)."""
    try:
        return reader(path)
    except OSError as exc:
        raise error(f"cannot read {what}: {path}: {exc.strerror}") from None
    except ParseError as exc:
        raise error(f"malformed {what}: {path}: {exc}") from None


def _read_kept(cfg: RunConfig):
    """The questions and chains of ``<output>/kept.jsonl``; a file without
    a question is an UpstreamError."""
    path = os.path.join(cfg.output, "kept.jsonl")
    questions, chains = _read(import_corpus_jsonl, path)
    if not questions:
        raise UpstreamError(f"empty upstream artifact: {path}")
    return questions, chains


def _make_dir(path, error):
    """Create directory ``path`` and its parents, or raise ``error``."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise error(
            f"cannot create directory {path}: {exc.strerror}") from None


def _map_questions(cfg: RunConfig, pooled, work, items):
    """Yield ``work(item)`` for each of ``items``, in item order, each as
    soon as it and those before it are done; a caller that needs a list
    wraps the call in ``list``. The items run in this process, each only
    when its result is asked for, unless the completer's kind is one of
    ``pooled``, the kinds for which the caller's work pays for a pool, and
    both the parallelism and the item count are above 1. Then, with the
    simulated completer, which is CPU-bound and holds the GIL, they run in
    worker processes, so ``work`` and its results must pickle: a
    ``generate`` worker returns a status, not its tree, and an ``export``
    worker loads one tree and returns its examples and pairs. With the
    remote one, which waits on the network, they run on threads. Either
    way the items' requests may overlap, so no two items may sample the
    same state. When an item raises, or the caller closes the generator,
    the pool's queued items are dropped and only the running ones are
    waited for.
    """
    workers = min(cfg.parallelism, len(items))
    if workers <= 1 or cfg.completer_kind not in pooled:
        yield from map(work, items)
        return
    # Imported here, so in-process work loads no pool. Each pool class is
    # imported on first access (the process pool pulls in multiprocessing).
    import concurrent.futures

    if cfg.completer_kind == "sim":
        pool = concurrent.futures.ProcessPoolExecutor(
            workers, mp_context=_worker_start())
    else:
        pool = concurrent.futures.ThreadPoolExecutor(workers)
    with pool:
        try:
            yield from pool.map(work, items)
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def _worker_start():
    """The multiprocessing context worker processes start from.

    A forked worker starts at once with the package imported; a spawned
    one imports the package again, about 0.18 s for a two-worker pool on
    a 2-core VM. Fork is used only where it is safe: on Linux, and while
    no other thread of this process could hold a lock at the fork.
    """
    import multiprocessing  # already loaded by the process pool

    forkable = sys.platform == "linux" and threading.active_count() == 1
    return multiprocessing.get_context("fork" if forkable else "spawn")


# -- commands --------------------------------------------------------------

def _filter_one(cfg: RunConfig, chains, question):
    """The filter record of one question."""
    with closing(make_completer(cfg, [question], chains,
                                scope=f"filter/{question.id}")) as completer:
        _, report = filter_questions([question], completer, cfg.filter_k)
    return report[0]


def cmd_filter(cfg: RunConfig) -> int:
    questions, chains = _read(import_corpus_jsonl, cfg.corpus, "corpus",
                              ConfigError)
    # A simulated question samples only its k filter rollouts, less work
    # than a worker pool costs to start.
    report = list(_map_questions(cfg, ("remote",),
                                 partial(_filter_one, cfg, chains), questions))
    kept = [q for q, rec in zip(questions, report) if rec.kept]
    if questions and all(rec.reason == "unresolved" for rec in report):
        raise CompleterUnavailable(
            f"no root sampled for any of the {len(questions)} questions")
    _make_dir(cfg.output, ConfigError)
    export_corpus_jsonl(kept, os.path.join(cfg.output, "kept.jsonl"), chains)
    export_filter_report(report, os.path.join(cfg.output, "filter_report.jsonl"))
    print(f"kept {len(kept)} of {len(questions)} questions")
    return 0


def _tree_name(question):
    """``question``'s tree file name, by which trees are sorted: "a-b.json"
    comes before "a.json", although "a" comes before "a-b"."""
    return f"{question.id}.json"


def _stored_tree(path, question):
    """The (tree, budget) that an earlier generate run saved at ``path`` for
    ``question`` (same id, statement and answer), or None when the file is
    missing, not a readable tree (a budgetless one included), or of another
    question. A path that cannot be read (a directory) is an UpstreamError."""
    try:
        tree, budget = load_tree(path)
    except (FileNotFoundError, ParseError):
        return None
    except OSError as exc:
        raise UpstreamError(f"cannot read upstream artifact: {path}: "
                            f"{exc.strerror}") from None
    return (tree, budget) if tree.question == question else None


def _generate_one(cfg: RunConfig, chains, trees_dir, question):
    """Resume or build one question's tree, saved under ``trees_dir``.
    Returns (question id, status, budget or error text) but not the tree,
    so no tree crosses a worker process's pipe."""
    path = os.path.join(trees_dir, _tree_name(question))
    stored = _stored_tree(path, question)
    if stored is not None:
        return question.id, "resumed", stored[1]
    with closing(make_completer(cfg, [question], chains,
                                scope=f"generate/{question.id}")) as completer:
        try:
            tree, budget = build_tree(question, completer, cfg.engine)
        except CompleterUnavailable as exc:
            return question.id, "failed", str(exc)
    save_tree(tree, path, budget)
    return question.id, "built", budget


def cmd_generate(cfg: RunConfig) -> int:
    questions, chains = _read_kept(cfg)
    trees_dir = os.path.join(cfg.output, "trees")
    remove_stale_tmp(trees_dir)
    created = not os.path.isdir(trees_dir)
    _make_dir(trees_dir, UpstreamError)
    results = list(_map_questions(cfg, ("sim", "remote"), partial(
        _generate_one, cfg, chains, trees_dir), questions))

    summary = {"questions": [], "total_policy_calls": 0, "total_searches": 0,
               "failures": []}
    for qid, status, info in results:
        summary["questions"].append({"question_id": qid, "status": status})
        if status == "failed":
            summary["failures"].append({"question_id": qid, "error": info})
        else:
            summary["total_policy_calls"] += info.policy_calls
            summary["total_searches"] += info.searches_done
    failures = summary["failures"]
    if questions and len(failures) == len(questions):
        if created:  # an outage leaves the output as it found it
            os.rmdir(trees_dir)
        raise CompleterUnavailable(failures[0]["error"])
    write_json(summary, os.path.join(cfg.output, "generate_summary.json"))
    built = sum(1 for _, s, _ in results if s == "built")
    resumed = sum(1 for _, s, _ in results if s == "resumed")
    print(f"built {built}, resumed {resumed} of {len(questions)} trees "
          f"({summary['total_policy_calls']} policy calls)")
    return 0


def _export_one(trees_dir, question):
    """The (examples, pairs) of ``question``'s tree under ``trees_dir``, or
    None when the tree is missing or of another question."""
    path = os.path.join(trees_dir, _tree_name(question))
    if not os.path.exists(path):
        return None
    tree = _read(load_tree, path)[0]
    if tree.question != question:
        return None
    examples = tree_to_examples(tree)
    return examples, tree_to_pairs(examples)


def cmd_export(cfg: RunConfig) -> int:
    """Export the tree of each kept question, in file name order, skipping
    a tree that is missing or of another question; ignore other trees.
    Each tree's records are written as soon as its tree is read, so this
    process holds about one tree's records at a time. Both files are
    replaced once every tree is written, ``examples.jsonl`` first; a
    failure before then replaces neither."""
    questions, _ = _read_kept(cfg)
    trees_dir = os.path.join(cfg.output, "trees")
    # Loading trees is CPU-bound: threads would not speed it up, and each
    # would keep the memory it used in a malloc arena of its own.
    results = _map_questions(cfg, ("sim",), partial(_export_one, trees_dir),
                             sorted(questions, key=_tree_name))
    trees = n_examples = n_pairs = 0
    # examples.jsonl, the inner file, is renamed into place first.
    with (closing(results),
          open_replacing(os.path.join(cfg.output, "pairs.jsonl")) as pairs_fh,
          open_replacing(os.path.join(cfg.output, "examples.jsonl"))
          as examples_fh):
        for examples, pairs in filter(None, results):
            export_examples_jsonl(examples, examples_fh)
            export_pairs_jsonl(pairs, pairs_fh)
            trees += 1
            n_examples += len(examples)
            n_pairs += len(pairs)
        if not trees:
            raise UpstreamError(
                f"missing upstream artifact: {trees_dir}/*.json")
    print(f"exported {n_examples} examples, {n_pairs} pairs")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    # Each objective reads only the file it trains on.
    if cfg.objective == "pairwise":
        key, reader = "pairs", import_pairs_jsonl
    else:
        key, reader = "examples", import_examples_jsonl
    path = os.path.join(cfg.output, f"{key}.jsonl")
    records = _read(reader, path)
    if not records:
        raise UpstreamError(f"empty upstream artifact: {path}")
    model, curve = train_toy_prm(
        objective=cfg.objective, settings=cfg.train, **{key: records})
    save_model(model, os.path.join(cfg.output, "prm_model.json"))
    write_json({"objective": cfg.objective, "loss_curve": curve},
               os.path.join(cfg.output, "train_curve.json"))
    print(f"trained {cfg.objective} model; final loss {curve[-1]:.6f}")
    return 0


def cmd_eval(cfg: RunConfig) -> int:
    questions, chains = _read_kept(cfg)
    model = _read(
        load_model, os.path.join(cfg.output, "prm_model.json"))
    completer = make_completer(cfg, questions, chains, scope="eval")
    # A simulated question samples two pools, which worker processes do
    # not measurably speed up.
    with closing(completer):
        reports = accuracy_curve(
            questions, completer, model, cfg.eval, cfg.seed,
            partial(_map_questions, cfg, ("remote",)))
    majority, weighted = reports["majority"], reports["prm_weighted"]
    if questions and len(majority.config["skipped"]) == len(questions):
        raise CompleterUnavailable(
            f"no pool sampled for any of the {len(questions)} eval questions")
    write_json({method: asdict(r) for method, r in reports.items()},
               os.path.join(cfg.output, "eval_report.json"))
    majority.write_csv(os.path.join(cfg.output, "eval_majority.csv"))
    weighted.write_csv(os.path.join(cfg.output, "eval_weighted.csv"))
    print(
        f"k={cfg.eval.k_max}: majority {majority.accuracy_mean[-1]:.3f}, "
        f"prm-weighted {weighted.accuracy_mean[-1]:.3f}"
    )
    return 0


def cmd_bench(cfg: RunConfig) -> int:
    questions, chains = _read(import_corpus_jsonl, cfg.corpus, "corpus",
                              ConfigError)
    _make_dir(cfg.output, ConfigError)
    completer = make_completer(cfg, questions, chains, scope="bench")
    # Each arm starts with completer.reset(). The simulator then replays its
    # seeded streams, so a copy in a worker counts what a serial run would.
    # A remote server never resets: its reply to a prefix may depend on the
    # requests for it before, which two arms at once would interleave. So
    # there the arms run in turn, and the per-step arm's requests overlap.
    with closing(completer):
        report = efficiency_benchmark(
            questions, completer, cfg.engine, cfg.bench.budget,
            partial(_map_questions, cfg, ("sim",)),
            partial(_map_questions, cfg, ("remote",)))
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Raise a rejected command line as a ConfigError, so ``main``
        reports it in one stderr line, not argparse's usage and error."""
        raise ConfigError(message)


def build_parser():
    # A flag that is not given is left out of the parsed namespace.
    parser = _Parser(
        prog="omegaprm",
        description="Automatic process supervision pipeline",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="path to JSON config")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--parallelism", type=int)
    parser.add_argument("--output")
    parser.add_argument("--completer", choices=["sim", "remote"],
                        dest="completer_kind")
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code: 0 on success, 1 when the
    completer failed, 2 on a ConfigError, a rejected command line included,
    and 3 on an UpstreamError, each with one stderr line. Never raises
    SystemExit."""
    try:
        flags = vars(build_parser().parse_args(argv))
        command = COMMANDS[flags.pop("command")]
        if "config" in flags:
            cfg = RunConfig.from_file(flags.pop("config"), **flags)
        else:
            cfg = RunConfig.from_dict({}, **flags)
        remove_stale_tmp(cfg.output)  # cmd_generate also cleans trees/
        return command(cfg)
    except SystemExit as exc:  # argparse printed the help
        return exc.code
    except CompleterUnavailable as exc:
        print(f"completer unavailable: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except UpstreamError as exc:
        print(exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
