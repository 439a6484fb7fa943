"""Command-line pipeline: config validation, exit codes, artifacts,
resumability, and rerun determinism."""
import gc
import importlib.util
import json
import math
import os
import pickle
import re
import shutil
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import fields
from functools import partial
from pathlib import Path

import pytest

from omegaprm import cli, errors
from omegaprm.cli import (
    BenchSettings,
    RunConfig,
    _filter_one,
    _generate_one,
    _map_questions,
    _section,
    _worker_start,
    main,
)
from omegaprm.core import EngineConfig, Question, State
from omegaprm.dataset import (
    JSON_TYPES,
    export_corpus_jsonl,
    import_corpus_jsonl,
)
from omegaprm.errors import CompleterUnavailable, ConfigError, UpstreamError
from omegaprm.evaluate import EvalSettings
from omegaprm.policy import RemoteSettings, SimPolicySpec
from omegaprm.prm import TrainSettings
from test_mcts import TREE_DAMAGES


def _load_module(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = _load_module(ROOT / "perfbench" / "workloads.py")
# The value each key left out of a config has always loaded to.
LOADER_DEFAULTS = {
    "corpus": "corpus.jsonl", "output": "out", "parallelism": 1, "seed": 0,
    "filter_k": 32, "completer.kind": "sim", "train.objective": "soft",
    "engine.alpha": 0.5, "engine.beta": 0.9, "engine.len_scale_L": 500.0,
    "engine.c_puct": 0.125, "engine.k_rollouts": 8,
    "engine.search_limit": 100, "engine.step_split_target": 16,
    "completer.sim.per_step_error_prob": 0.1,
    "completer.sim.recovery_prob": 0.0,
    "completer.sim.wrong_answer_pool": None,
    "completer.sim.wrong_answer_weights": None,
    "completer.remote.endpoint": None, "completer.remote.timeout": 30.0,
    "completer.remote.max_retries": 3, "completer.remote.batch_size": 8,
    "completer.remote.temperature": 1.0, "completer.remote.max_tokens": 1024,
    "train.learning_rate": 2.0, "train.epochs": 300,
    "eval.k_max": 16, "eval.n_resamples": 100, "bench.budget": 20000,
}


def _dotted(doc, prefix=""):
    """The leaves of nested dict ``doc`` under dotted keys."""
    out = {}
    for key, value in doc.items():
        key = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            out.update(_dotted(value, key))
        else:
            out[key] = value
    return out


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig.from_dict({})
        assert cfg.completer_kind == "sim"
        assert cfg.engine.k_rollouts == 8
        assert cfg.seed == 0

    def test_engine_section_applied(self):
        cfg = RunConfig.from_dict({"engine": {"k_rollouts": 4,
                                              "search_limit": 10}})
        assert cfg.engine.k_rollouts == 4
        assert cfg.engine.search_limit == 10

    @pytest.mark.parametrize("doc", [
        {"unknown_top": 1},
        {"engine": {"k": 8}},
        {"completer": {"kind": "oracle"}},
        {"completer": {"sim": {"error_prob": 0.1}}},
        {"train": {"optimizer": "adam"}},
        {"eval": {"bootstrap": True}},
        {"parallelism": 0},
        {"engine": {"alpha": 2.0}},
        {"train": {"objective": "listwise"}},
        # Strings are not numbers, floats are not integers, and true is
        # not a number; values are never coerced.
        {"engine": {"k_rollouts": "8"}},
        {"engine": {"k_rollouts": 8.0}},
        {"engine": {"c_puct": True}},
        {"parallelism": "x"},
        {"seed": "7"},
        {"completer": {"sim": {"per_step_error_prob": 2}}},
        {"completer": {"sim": {"per_step_error_prob": float("nan")}}},
        {"completer": {"sim": {"seed": 3}}},  # derived from the run seed
        {"completer": {"sim": [0.1]}},
        {"filter_k": 1},
        {"completer": {"kind": "remote", "remote": {
            "endpoint": "http://127.0.0.1:9/complete", "temperature": "hot"}}},
        {"completer": {"remote": {"temperature": "hot"}}},
        {"completer": {"remote": {"retry_backoff": 0.1}}},
        {"completer": {"kind": "remote"}},
        {"bench": {"budget": "x"}},
        {"bench": {"budget": 0}},
        {"train": {"epochs": "3"}},
        {"train": {"epochs": 0}},
        {"train": {"learning_rate": 0}},
        {"eval": {"k_max": "abc"}},
        {"eval": {"k_max": 0}},
        {"eval": {"n_resamples": 0}},
        {"eval": {"k_max": 100, "pool_size": 8}},
        {"engine": [1]},
        [],
        {"completer": {"sim": {"wrong_answer_pool": [1]}}},
        {"completer": {"sim": {"wrong_answer_pool": ["1"],
                               "wrong_answer_weights": [1, 2]}}},
        {"completer": {"sim": {"wrong_answer_pool": ["1"],
                               "wrong_answer_weights": [-1]}}},
        {"completer": {"sim": {"wrong_answer_pool": ["1"],
                               "wrong_answer_weights": ["1"]}}},
        {"completer": {"sim": {"wrong_answer_weights": [1]}}},
        {"completer": {"kind": "remote", "remote": {
            "endpoint": "http://127.0.0.1:9/complete", "timeout": 0}}},
        # Remote values are checked whatever the kind, as sim values are.
        {"completer": {"remote": {"batch_size": 0}}},
        {"completer": {"remote": {"endpoint": "ftp://127.0.0.1/x"}}},
    ])
    def test_invalid_configs_rejected(self, doc):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(doc)

    @pytest.mark.parametrize("cls,values", [
        (SimPolicySpec, {"per_step_error_prob": 1.5}),
        (SimPolicySpec, {"recovery_prob": -0.1}),
        (SimPolicySpec, {"wrong_answer_pool": [1]}),
        (SimPolicySpec, {"wrong_answer_weights": [1]}),
        (SimPolicySpec, {"wrong_answer_pool": ["1"],
                         "wrong_answer_weights": [0]}),
        (SimPolicySpec, {"wrong_answer_pool": ["1"],
                         "wrong_answer_weights": [math.inf]}),
        (SimPolicySpec, {"wrong_answer_pool": ["1", "2"],
                         "wrong_answer_weights": [True, 1]}),
        (RemoteSettings, {"timeout": 0}),
        (RemoteSettings, {"temperature": -1.0}),
        (RemoteSettings, {"max_tokens": 0}),
        (TrainSettings, {"epochs": 0}),
        (TrainSettings, {"learning_rate": 0}),
        (EvalSettings, {"k_max": 0}),
        (EvalSettings, {"n_resamples": 0}),
        (BenchSettings, {"budget": 0}),
        (RunConfig, {"parallelism": 0}),
        (RunConfig, {"filter_k": 1}),
        (RunConfig, {"objective": "listwise"}),
        (RunConfig, {"completer_kind": "oracle"}),
        (RunConfig, {"completer_kind": "remote"}),
    ], ids=lambda v: v.__name__ if isinstance(v, type) else "-".join(v))
    def test_section_rejects_out_of_range_value_when_built(self, cls, values):
        # Also checked at construction: the engine's ranges (test_core.py),
        # the remote endpoint, batch size and retries (test_policy.py), and
        # k_max above pool_size (test_eval.py).
        with pytest.raises(ValueError):
            cls(**values)

    def test_every_section_field_has_a_json_type(self, monkeypatch):
        # _checked looks each annotation up in JSON_TYPES; a missing one
        # would end a config that sets the key in a KeyError traceback.
        built = []

        def section(cls, doc, where, **given):
            built.append(cls)
            for f in fields(cls):
                if f.name not in given:
                    assert f.type in JSON_TYPES, f"{where}.{f.name}"
            return _section(cls, doc, where, **given)

        monkeypatch.setattr(cli, "_section", section)
        RunConfig.from_dict({})
        assert set(built) == {RunConfig, EngineConfig, SimPolicySpec,
                              RemoteSettings, TrainSettings, EvalSettings,
                              BenchSettings}

    def test_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 7, "output": "results"}))
        cfg = RunConfig.from_file(path)
        assert cfg.seed == 7
        assert cfg.output == "results"

    @pytest.mark.parametrize("source", [
        "empty", "readme", "tests", "deep_search", "wide_eval", "remote"])
    def test_documented_and_benchmark_configs_load(self, tmp_path, source):
        # Each key given loads as written, and each key left out loads to
        # the default the loader has always used.
        if source == "empty":
            doc = {}
        elif source == "readme":
            readme = (ROOT / "README.md").read_text(encoding="utf-8")
            doc = json.loads(re.search(
                r"Example `run.json`:\n\n```json\n(.*?)```", readme,
                re.S).group(1))
        elif source == "tests":
            _, doc = write_config(tmp_path)
        else:
            doc = json.loads(Path(WORKLOADS.write_config(
                source, 0, str(tmp_path),
                endpoint="http://127.0.0.1:9/complete")).read_text())
        cfg = RunConfig.from_dict(doc)
        loaded = {
            **{key: getattr(cfg, key) for key in (
                "corpus", "output", "parallelism", "seed", "filter_k")},
            "completer.kind": cfg.completer_kind,
            "train.objective": cfg.objective,
            **_dotted(vars(cfg.engine), "engine"),
            **_dotted(vars(cfg.sim), "completer.sim"),
            **_dotted(vars(cfg.remote), "completer.remote"),
            **_dotted(vars(cfg.train), "train"),
            **_dotted(vars(cfg.eval), "eval"),
            **_dotted(vars(cfg.bench), "bench"),
        }
        del loaded["completer.sim.seed"]
        given = _dotted(doc)
        k_max = given.get("eval.k_max", 16)
        assert loaded == {**LOADER_DEFAULTS,
                          "eval.pool_size": max(k_max, 64), **given}


def write_corpus(path, n_questions=6):
    questions = [
        Question(f"q{i:02d}", f"compute quantity number {i}", str(100 + i))
        for i in range(n_questions)
    ]
    chains = {
        q.id: [f"{q.id} part{j}" for j in range(1, 9)]  # 8 steps, 2 tokens
        for q in questions
    }
    export_corpus_jsonl(questions, path, chains)
    return questions


def write_config(tmp_path, out_name="out", seed=0):
    doc = {
        "corpus": str(tmp_path / "corpus.jsonl"),
        "output": str(tmp_path / out_name),
        "seed": seed,
        "filter_k": 16,
        "engine": {"search_limit": 20, "step_split_target": 4},
        "completer": {"kind": "sim", "sim": {"per_step_error_prob": 0.1}},
        "eval": {"k_max": 4, "n_resamples": 5, "pool_size": 8},
        "bench": {"budget": 2000},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc, indent=2))
    return path, doc


def damaged_tree(doc, damage):
    """The tree document ``doc`` without its budget ("budgetless"); with a
    stored rollout whose ``token_len`` disagrees with its steps
    ("token_len"); with a zero MC denominator on a node without rollouts
    ("mc_den_zero"); with the MC 7/1 on a node with rollouts
    ("mc_mismatch"); or with a damage of ``test_mcts.TREE_DAMAGES``, such
    as a string budget ("budget_str"), visit count ("visit_count_str") or
    threshold ("threshold_str"), or edges listed last to first
    ("reversed_edges")."""
    nodes = doc["nodes"]
    if damage in TREE_DAMAGES:
        TREE_DAMAGES[damage](doc)
    elif damage == "budgetless":
        del doc["budget"]
    elif damage == "token_len":
        rollout = next(r for nd in nodes for r in nd["rollouts"])
        rollout["token_len"] += 1
    elif damage == "mc_den_zero":
        node = next(nd for nd in nodes
                    if not nd["rollouts"] and nd["mc_num"] is not None)
        node["mc_den"] = 0
    else:
        node = next(nd for nd in nodes if nd["rollouts"])
        node["mc_num"], node["mc_den"] = 7, 1
    return doc


def run(cmd, config):
    return main([cmd, "--config", str(config)])


def _src_env():
    """This process's environment with this checkout's ``src`` first on
    ``PYTHONPATH``, for a fresh interpreter."""
    src = str(ROOT / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestExitCodes:
    def test_bad_config_is_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"frobnicate": True}))
        assert main(["filter", "--config", str(path)]) == 2

    def test_missing_corpus_is_2(self, tmp_path):
        config, _ = write_config(tmp_path)
        assert run("filter", config) == 2
        assert run("bench", config) == 2

    # Each of these once ended in a traceback (exit 1), some of them only
    # inside a worker process or after writing an artifact; the string seed
    # was coerced to an integer.
    REJECTED = [
        ("filter", "engine", {"k_rollouts": "8"}),
        ("filter", "parallelism", "x"),
        ("filter", "completer", {"sim": {"per_step_error_prob": 2}}),
        ("filter", "filter_k", 1),
        ("filter", "completer", {"kind": "remote", "remote": {
            "endpoint": "http://127.0.0.1:9/complete", "temperature": "hot"}}),
        ("bench", "bench", {"budget": "x"}),
        ("train", "train", {"epochs": "3"}),
        ("train", "train", {"epochs": 0}),
        ("eval", "eval", {"k_max": "abc"}),
        ("eval", "eval", {"k_max": 0}),
        ("eval", "eval", {"n_resamples": 0}),
        ("eval", "eval", {"k_max": 100, "pool_size": 8}),
        ("filter", "seed", "7"),
        # true is not a number, though Python's bool is an int.
        ("filter", "completer", {"sim": {"wrong_answer_pool": ["1", "2"],
                                         "wrong_answer_weights": [True, 1]}}),
    ]

    @pytest.mark.parametrize("cmd,key,value", REJECTED)
    def test_rejected_config_value_is_2(self, tmp_path, capsys, cmd, key,
                                        value):
        write_corpus(tmp_path / "corpus.jsonl", n_questions=2)
        config, doc = write_config(tmp_path)
        doc["parallelism"] = 2
        for stage in ("filter", "generate", "export", "train"):
            if stage == cmd:
                break
            assert run(stage, config) == 0
        before = sorted(p.name for p in (tmp_path / "out").glob("*"))
        config.write_text(json.dumps(dict(doc, **{key: value})))
        capsys.readouterr()
        assert run(cmd, config) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert sorted(p.name for p in (tmp_path / "out").glob("*")) == before

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_nonpositive_parallelism_flag_is_2(self, tmp_path, capsys, value):
        write_corpus(tmp_path / "corpus.jsonl", n_questions=2)
        config, _ = write_config(tmp_path)
        assert main(["filter", "--config", str(config),
                     "--parallelism", value]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["filter", "--parallelism", "x"],
        ["frobnicate"],
        ["filter", "--frobnicate"],
        [],
    ], ids=["bad_flag_value", "unknown_command", "unknown_flag", "no_command"])
    def test_rejected_command_line_is_2(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ")
        assert captured.err.count("\n") == 1 and "usage" not in captured.err
        assert captured.out == ""

    def test_help_is_0(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: omegaprm")

    # Each command's upstream stages run on the simulator first.
    UPSTREAM = {"filter": (), "generate": ("filter",), "bench": (),
                "eval": ("filter", "generate", "export", "train")}

    @pytest.mark.parametrize("cmd", sorted(UPSTREAM))
    def test_completer_outage_is_1(self, tmp_path, capsys, fake_server, cmd):
        write_corpus(tmp_path / "corpus.jsonl", n_questions=2)
        config, doc = write_config(tmp_path)
        for stage in self.UPSTREAM[cmd]:
            assert run(stage, config) == 0
        fake_server.fail_times = 10 ** 6
        doc["completer"] = {"kind": "remote", "remote": {
            "endpoint": fake_server.url, "max_retries": 1}}
        config.write_text(json.dumps(doc))
        before = sorted(p.name for p in (tmp_path / "out").glob("*"))
        capsys.readouterr()
        assert run(cmd, config) == 1
        err = capsys.readouterr().err
        assert err.startswith("completer unavailable: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert fake_server.requests_seen
        assert sorted(p.name for p in (tmp_path / "out").glob("*")) == before

    @pytest.mark.parametrize("data", [
        None, b"{not json", b"\xff{}",
        pytest.param(b"[" * 200_000, id="nested_too_deeply"),
    ])
    def test_unreadable_config_file_is_2(self, tmp_path, capsys, data):
        path = tmp_path / "run.json"
        if data is not None:
            path.write_bytes(data)
        assert main(["filter", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(path) in err

    @pytest.mark.parametrize("case", [
        "missing_config", "bad_value_in_worker", "parallelism_flag"])
    def test_module_run_exits_2_with_one_line(self, tmp_path, case):
        # As a script, so worker processes start as they do for users.
        write_corpus(tmp_path / "corpus.jsonl", n_questions=2)
        config, doc = write_config(tmp_path)
        argv = ["filter", "--config", str(config), "--parallelism", "2"]
        if case == "missing_config":
            config.unlink()
        elif case == "bad_value_in_worker":
            doc["completer"]["sim"]["per_step_error_prob"] = 2
            config.write_text(json.dumps(doc))
        else:
            argv[-1] = "0"
        proc = subprocess.run([sys.executable, "-m", "omegaprm.cli", *argv],
                              env=_src_env(), capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    def test_generate_without_filter_is_3(self, tmp_path):
        write_corpus(tmp_path / "corpus.jsonl")
        config, _ = write_config(tmp_path)
        assert run("generate", config) == 3

    def test_engine_rng_seed_is_2(self, tmp_path):
        # The engine has no RNG of its own; a seed for it would be ignored.
        write_corpus(tmp_path / "corpus.jsonl")
        config, doc = write_config(tmp_path)
        doc["engine"]["rng_seed"] = 3
        config.write_text(json.dumps(doc))
        assert run("filter", config) == 2

    def test_corrupt_tree_export_is_3(self, tmp_path, capsys, monkeypatch):
        write_corpus(tmp_path / "corpus.jsonl")
        config, _ = write_config(tmp_path)
        for cmd in ("filter", "generate", "export"):
            assert run(cmd, config) == 0
        out = tmp_path / "out"
        exported = {name: (out / name).read_bytes()
                    for name in ("examples.jsonl", "pairs.jsonl")}
        trees = sorted((out / "trees").glob("*.json"))
        written = []  # per export: the trees whose records were written
        export_examples = cli.export_examples_jsonl

        def write_examples(examples, fh):
            written[-1].append(examples)
            export_examples(examples, fh)

        monkeypatch.setattr(cli, "export_examples_jsonl", write_examples)
        # Export writes trees in file name order: a damaged first tree
        # stops it before any record is written, a damaged last one after
        # every other tree's records are. Each damage is a cut file, and
        # one nested too deeply for json, which raises a RecursionError,
        # not a ValueError, on it.
        for tree, before in ((trees[0], 0), (trees[-1], len(trees) - 1)):
            intact = tree.read_bytes()
            assert len(intact) > 5000
            for damaged in (intact[:5000], b"[" * 200_000):
                tree.write_bytes(damaged)
                for parallelism in (1, 2):
                    written.append([])
                    capsys.readouterr()
                    assert main(["export", "--config", str(config),
                                 "--parallelism", str(parallelism)]) == 3
                    err = capsys.readouterr().err
                    assert err.count("\n") == 1 and tree.name in err
                    assert len(written[-1]) == before
                    assert {name: (out / name).read_bytes()
                            for name in exported} == exported
                    assert not list(out.rglob("*.tmp"))
            tree.write_bytes(intact)

    CORPUS_DAMAGE = {
        "cut_line": lambda data: data[:-20],
        "not_utf8": lambda data: data + b'{"id": "\xff"}\n',
        "not_object": lambda data: data + b"[1, 2]\n",
        "empty_answer": lambda data: data + (
            b'{"id": "q9", "statement": "s", "golden_answer": ""}\n'),
        "duplicate_id": lambda data: data + data.splitlines(True)[0],
        "int_answer": lambda data: data + (
            b'{"id": "q9", "statement": "s", "golden_answer": 4}\n'),
        "int_statement": lambda data: data + (
            b'{"id": "q9", "statement": 7, "golden_answer": "4"}\n'),
        "chain_not_list": lambda data: data + (
            b'{"id": "q9", "statement": "s", "golden_answer": "4", '
            b'"chain": "a b"}\n'),
        "step_not_string": lambda data: data + (
            b'{"id": "q9", "statement": "s", "golden_answer": "4", '
            b'"chain": [1, 2]}\n'),
        "blank_step": lambda data: data + (
            b'{"id": "q9", "statement": "s", "golden_answer": "4", '
            b'"chain": ["a", " "]}\n'),
        # An id names its tree file, so it must be a plain file name.
        "id_with_slash": lambda data: data + (
            b'{"id": "a/b", "statement": "s", "golden_answer": "4"}\n'),
        "id_dotdot": lambda data: data + (
            b'{"id": "..", "statement": "s", "golden_answer": "4"}\n'),
        "id_with_nul": lambda data: data + (
            b'{"id": "a\\u0000b", "statement": "s", "golden_answer": "4"}\n'),
        # json raises a RecursionError, not a ValueError, on such a line.
        "nested_too_deeply": lambda data: data + b"[" * 200_000 + b"\n",
    }

    @pytest.mark.parametrize("cmd", ["filter", "bench"])
    @pytest.mark.parametrize("damage", sorted(CORPUS_DAMAGE))
    def test_malformed_corpus_is_2(self, tmp_path, capsys, cmd, damage):
        corpus = tmp_path / "corpus.jsonl"
        write_corpus(corpus, n_questions=2)
        corpus.write_bytes(self.CORPUS_DAMAGE[damage](corpus.read_bytes()))
        config, _ = write_config(tmp_path)
        assert run(cmd, config) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "malformed corpus" in err

    @pytest.mark.parametrize("cmd", ["filter", "bench"])
    def test_chainless_corpus_under_sim_is_2(self, tmp_path, capsys, cmd):
        corpus = tmp_path / "corpus.jsonl"
        write_corpus(corpus, n_questions=2)
        corpus.write_text(corpus.read_text() + json.dumps(
            {"id": "q9", "statement": "s", "golden_answer": "4"}) + "\n")
        config, doc = write_config(tmp_path)
        doc["parallelism"] = 2
        config.write_text(json.dumps(doc))
        assert run(cmd, config) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "'q9' has no chain" in err
        assert not (tmp_path / "out" / "kept.jsonl").exists()

    def test_short_remote_reply_generate_is_0(self, tmp_path, capsys,
                                              fake_server_11):
        # Every reply holds n - 1 completions, so each request yields one
        # wrong rollout without steps, the one a search would pick first.
        def respond(body):
            golden = 100 + int(body["prompt"].split("number ")[1].split()[0])
            return ([f"step one the answer is {golden}"] * (body["n"] - 2)
                    + ["step one step two the answer is 7"])

        fake_server_11.respond = respond
        write_corpus(tmp_path / "corpus.jsonl", n_questions=1)
        config, doc = write_config(tmp_path)
        doc["completer"] = {"kind": "remote",
                            "remote": {"endpoint": fake_server_11.url}}
        config.write_text(json.dumps(doc))
        assert run("filter", config) == 0
        capsys.readouterr()
        assert run("generate", config) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out.startswith("built 1,")
        summary = json.loads(
            (tmp_path / "out" / "generate_summary.json").read_text())
        assert summary["total_searches"] > 0

    @pytest.mark.parametrize("cmd,artifact,objective,damage", [
        pytest.param("generate", "kept.jsonl", "soft", None,
                     id="generate-kept.jsonl-soft"),
        pytest.param("eval", "kept.jsonl", "soft", None,
                     id="eval-kept.jsonl-soft"),
        pytest.param("train", "examples.jsonl", "soft", None,
                     id="train-examples.jsonl-soft"),
        pytest.param("train", "pairs.jsonl", "pairwise", None,
                     id="train-pairs.jsonl-pairwise"),
        # One record of the right keys with a value export never writes.
        pytest.param("train", "examples.jsonl", "soft", {"mc": "x"},
                     id="train-examples.jsonl-soft-mc_str"),
        pytest.param("train", "examples.jsonl", "soft", {"prefix": 5},
                     id="train-examples.jsonl-soft-prefix_int"),
        pytest.param("train", "examples.jsonl", "hard", {"hard_label": True},
                     id="train-examples.jsonl-hard-hard_label_bool"),
        pytest.param("train", "examples.jsonl", "soft", {"mc": math.nan},
                     id="train-examples.jsonl-soft-mc_nan"),
        pytest.param("train", "examples.jsonl", "soft", {"mc": 7},
                     id="train-examples.jsonl-soft-mc_above_1"),
        pytest.param("train", "examples.jsonl", "hard",
                     {"mc": 0.5, "hard_label": 0},
                     id="train-examples.jsonl-hard-hard_label_not_mc_above_0"),
        pytest.param("train", "pairs.jsonl", "pairwise", {"pref_a": "x"},
                     id="train-pairs.jsonl-pairwise-pref_a_str"),
        pytest.param("train", "pairs.jsonl", "pairwise", {"pref_a": -0.5},
                     id="train-pairs.jsonl-pairwise-pref_a_below_0"),
    ])
    def test_malformed_upstream_jsonl_is_3(self, tmp_path, capsys, cmd,
                                           artifact, objective, damage):
        write_corpus(tmp_path / "corpus.jsonl")
        config, doc = write_config(tmp_path)
        doc["train"] = {"objective": objective}
        config.write_text(json.dumps(doc))
        for stage in ("filter", "generate", "export", "train"):
            assert run(stage, config) == 0
        path = tmp_path / "out" / artifact
        if damage is None:
            path.write_text(path.read_text() + "[1, 2]\n")
        else:
            record = json.loads(path.read_text().splitlines()[0])
            path.write_text(json.dumps({**record, **damage}) + "\n")
        capsys.readouterr()
        assert run(cmd, config) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and artifact in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("cmd", ["generate", "export", "eval"])
    def test_empty_kept_is_3(self, tmp_path, capsys, cmd):
        write_corpus(tmp_path / "corpus.jsonl")
        config, _ = write_config(tmp_path)
        for stage in ("filter", "generate", "export", "train"):
            assert run(stage, config) == 0
        out = tmp_path / "out"
        (out / "kept.jsonl").write_text("")
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert run(cmd, config) == 3
        err = capsys.readouterr().err
        assert err == f"empty upstream artifact: {out / 'kept.jsonl'}\n"
        assert {p: p.read_bytes() for p in out.rglob("*")
                if p.is_file()} == before

    def test_malformed_remote_endpoint_is_2(self, tmp_path, capsys):
        write_corpus(tmp_path / "corpus.jsonl", n_questions=1)
        config, doc = write_config(tmp_path)
        doc["completer"] = {"kind": "remote",
                            "remote": {"endpoint": "localhost:9/complete"}}
        config.write_text(json.dumps(doc))
        assert run("filter", config) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "localhost:9/complete" in err

    @pytest.mark.parametrize("key", ["batch_size", "max_retries"])
    def test_nonpositive_remote_batch_or_retries_is_2(self, tmp_path, capsys,
                                                      key):
        write_corpus(tmp_path / "corpus.jsonl", n_questions=1)
        config, doc = write_config(tmp_path)
        doc["completer"] = {"kind": "remote", "remote": {
            "endpoint": "http://127.0.0.1:9/complete", key: 0}}
        config.write_text(json.dumps(doc))
        assert run("filter", config) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and key in err

    def test_export_without_trees_is_3(self, tmp_path):
        write_corpus(tmp_path / "corpus.jsonl")
        config, _ = write_config(tmp_path)
        assert run("export", config) == 3

    @pytest.mark.parametrize("artifact,objective", [
        ("examples.jsonl", "soft"),
        ("examples.jsonl", "hard"),
        ("pairs.jsonl", "pairwise"),
    ])
    def test_train_on_empty_export_is_3(self, tmp_path, capsys, artifact,
                                        objective):
        write_corpus(tmp_path / "corpus.jsonl", n_questions=1)
        config, doc = write_config(tmp_path)
        doc["train"] = {"objective": objective}
        config.write_text(json.dumps(doc))
        for stage in ("filter", "generate", "export"):
            assert run(stage, config) == 0
        (tmp_path / "out" / artifact).write_text("")
        capsys.readouterr()
        assert run("train", config) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and artifact in err
        assert not (tmp_path / "out" / "prm_model.json").exists()

    @pytest.mark.parametrize("cmd", ["filter", "bench"])
    def test_output_that_is_a_file_is_2(self, tmp_path, capsys, cmd):
        write_corpus(tmp_path / "corpus.jsonl", n_questions=2)
        config, _ = write_config(tmp_path)
        (tmp_path / "out").write_text("not a directory")
        capsys.readouterr()
        assert run(cmd, config) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert (tmp_path / "out").read_text() == "not a directory"

    @pytest.mark.parametrize("parallelism", [1, 2])
    @pytest.mark.parametrize("blocker", ["trees_file", "tree_directory"])
    def test_unwritable_tree_path_is_3(self, tmp_path, capsys, blocker,
                                       parallelism):
        # A file where trees/ belongs, or a directory where a tree belongs.
        write_corpus(tmp_path / "corpus.jsonl", n_questions=2)
        config, _ = write_config(tmp_path)
        assert run("filter", config) == 0
        trees = tmp_path / "out" / "trees"
        if blocker == "trees_file":
            trees.write_text("not a directory")
        else:
            qid = json.loads((tmp_path / "out" / "kept.jsonl").read_text()
                             .splitlines()[0])["id"]
            (trees / f"{qid}.json").mkdir(parents=True)
        capsys.readouterr()
        assert main(["generate", "--config", str(config),
                     "--parallelism", str(parallelism)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert str(trees) in err
        assert not (tmp_path / "out" / "generate_summary.json").exists()

    @pytest.mark.parametrize("parallelism", [1, 2])
    @pytest.mark.parametrize("cmd,artifact", [
        ("export", "examples.jsonl"),
        ("export", "pairs.jsonl"),
        ("bench", "bench_report.json"),
    ])
    def test_artifact_that_is_a_directory_is_3(self, tmp_path, capsys, cmd,
                                               artifact, parallelism):
        write_corpus(tmp_path / "corpus.jsonl", n_questions=2)
        config, _ = write_config(tmp_path)
        if cmd == "export":
            for stage in ("filter", "generate"):
                assert run(stage, config) == 0
        out = tmp_path / "out"
        blocker = out / artifact
        blocker.mkdir(parents=True)
        capsys.readouterr()
        assert main([cmd, "--config", str(config),
                     "--parallelism", str(parallelism)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert str(blocker) in err
        assert blocker.is_dir() and not list(out.rglob("*.tmp"))

    MODEL_DAMAGE = {
        "truncated": lambda text: text[: len(text) // 2],
        "not_json": lambda text: "weights: [0.5]\n",
        "other_version": lambda text: text.replace(
            '"feature_version": 1', '"feature_version": 2'),
        # json reads NaN, and a NaN weight makes every score NaN.
        "non_finite_weight": lambda text: json.dumps(dict(
            json.loads(text),
            weights=[math.nan, *json.loads(text)["weights"][1:]])),
        "nested_too_deeply": lambda text: "[" * 200_000,
    }

    @pytest.mark.parametrize("damage", sorted(MODEL_DAMAGE))
    def test_unreadable_model_eval_is_3(self, tmp_path, capsys, damage):
        write_corpus(tmp_path / "corpus.jsonl", n_questions=1)
        config, _ = write_config(tmp_path)
        for stage in ("filter", "generate", "export", "train"):
            assert run(stage, config) == 0
        model = tmp_path / "out" / "prm_model.json"
        model.write_text(self.MODEL_DAMAGE[damage](model.read_text()))
        capsys.readouterr()
        assert run("eval", config) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "prm_model.json" in err


class TestErrorModel:
    """The package raises its own types only for failures a command turns
    into an exit code; a bad argument is a ValueError."""

    EXIT_CODES = {CompleterUnavailable: 1, ConfigError: 2, UpstreamError: 3}

    def test_errors_module_defines_only_mapped_types(self):
        defined = {name for name, obj in vars(errors).items()
                   if isinstance(obj, type) and issubclass(obj, Exception)
                   and obj.__module__ == errors.__name__}
        # ParseError reaches main only as a ConfigError or an UpstreamError.
        assert defined == {"OmegaPRMError", "ParseError",
                           *(cls.__name__ for cls in self.EXIT_CODES)}

    @pytest.mark.parametrize("exc_type", list(EXIT_CODES))
    def test_main_returns_each_exit_code(self, monkeypatch, capsys,
                                         exc_type):
        def command(cfg):
            raise exc_type("boom")

        monkeypatch.setitem(cli.COMMANDS, "export", command)
        assert main(["export"]) == self.EXIT_CODES[exc_type]
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and "boom" in captured.err
        assert captured.out == ""


@pytest.fixture
def pipeline(tmp_path):
    write_corpus(tmp_path / "corpus.jsonl")
    config, doc = write_config(tmp_path)
    return tmp_path, config, doc


# Each call site's pool rule: the completer kinds for which its items run
# on a pool. A pool does not speed up simulated filter and eval items.
POOL_RULES = {
    "filter": ("remote",),
    "generate": ("sim", "remote"),
    "export": ("sim",),
    "eval": ("remote",),
    "bench_arms": ("sim",),
    "bench_prefix_states": ("remote",),
}


class TestPipeline:
    def run_all(self, config):
        for cmd in ("filter", "generate", "export", "train", "eval", "bench"):
            assert run(cmd, config) == 0, cmd

    def test_end_to_end_artifacts(self, pipeline):
        tmp_path, config, doc = pipeline
        self.run_all(config)
        out = tmp_path / "out"
        for name in ("kept.jsonl", "filter_report.jsonl",
                     "generate_summary.json", "examples.jsonl", "pairs.jsonl",
                     "prm_model.json", "train_curve.json", "eval_report.json",
                     "eval_majority.csv", "eval_weighted.csv",
                     "bench_report.json"):
            assert (out / name).exists(), name
        assert (out / "trees").is_dir()
        # Every kept question has a serialized tree.
        kept = [json.loads(l)["id"]
                for l in (out / "kept.jsonl").read_text().splitlines()]
        assert kept
        for qid in kept:
            assert (out / "trees" / f"{qid}.json").exists()
        # The exported dataset is nonempty and well-formed.
        examples = (out / "examples.jsonl").read_text().splitlines()
        assert examples
        rec = json.loads(examples[0])
        assert set(rec) == {"question_id", "question", "prefix", "step",
                            "mc", "hard_label"}

    def test_generate_resumes(self, pipeline):
        tmp_path, config, doc = pipeline
        assert run("filter", config) == 0
        assert run("generate", config) == 0
        trees = sorted((tmp_path / "out" / "trees").glob("*.json"))
        stamps = {p.name: p.read_bytes() for p in trees}
        assert run("generate", config) == 0
        summary = json.loads(
            (tmp_path / "out" / "generate_summary.json").read_text()
        )
        assert all(q["status"] == "resumed" for q in summary["questions"])
        for p in trees:
            assert p.read_bytes() == stamps[p.name]

    @pytest.mark.parametrize("damage", [
        "truncate", "schema", "question", "budgetless", "token_len",
        "nested_too_deeply"])
    def test_damaged_tree_is_rebuilt(self, pipeline, damage):
        tmp_path, config, doc = pipeline
        out = tmp_path / "out"
        for cmd in ("filter", "generate", "export"):
            assert run(cmd, config) == 0
        trees = sorted((out / "trees").glob("*.json"))
        fresh = {p.name: p.read_bytes() for p in trees}
        fresh_summary = json.loads((out / "generate_summary.json").read_text())
        fresh_examples = (out / "examples.jsonl").read_bytes()
        fresh_pairs = (out / "pairs.jsonl").read_bytes()
        victim = trees[0]
        if damage == "truncate":
            victim.write_bytes(fresh[victim.name][: len(fresh[victim.name]) // 2])
        elif damage == "schema":
            victim.write_bytes(fresh[victim.name].replace(
                b'"schema_version": 1', b'"schema_version": 2'))
        elif damage == "question":
            victim.write_bytes(fresh[trees[1].name])
        elif damage == "nested_too_deeply":
            victim.write_text("[" * 200_000)
        else:
            victim.write_text(json.dumps(damaged_tree(
                json.loads(fresh[victim.name]), damage), indent=2))
        assert run("generate", config) == 0
        summary = json.loads((out / "generate_summary.json").read_text())
        statuses = {q["question_id"]: q["status"] for q in summary["questions"]}
        assert statuses.pop(victim.stem) == "built"
        assert set(statuses.values()) == {"resumed"}
        # Resumed trees count with their stored budgets.
        for key in ("total_policy_calls", "total_searches"):
            assert summary[key] == fresh_summary[key]
        for p in trees:
            assert p.read_bytes() == fresh[p.name], p.name
        assert not list((out / "trees").glob("*.tmp"))
        assert run("export", config) == 0
        assert (out / "examples.jsonl").read_bytes() == fresh_examples
        assert (out / "pairs.jsonl").read_bytes() == fresh_pairs

    def test_rerun_removes_only_dead_writers_tmp_files(self, pipeline):
        tmp_path, config, doc = pipeline
        out = tmp_path / "out"
        for cmd in ("filter", "generate"):
            assert run(cmd, config) == 0
        tree = next((out / "trees").glob("*.json"))
        dead = subprocess.Popen([sys.executable, "-c", ""])
        dead.wait()  # reaped, so its pid names no process
        live = subprocess.Popen([sys.executable, "-c", "input()"],
                                stdin=subprocess.PIPE)
        try:
            planted = {}  # path: whether its writer is alive
            for path in (out / "generate_summary.json", tree):
                for pid in (dead.pid, live.pid):
                    tmp = path.with_name(f"{path.name}.{pid}.tmp")
                    tmp.write_text("partial")
                    planted[tmp] = pid == live.pid
            other = out / "notes.tmp"  # not a writer's temporary file
            other.write_text("kept")
            assert run("generate", config) == 0
        finally:
            live.communicate(b"\n", timeout=30)
        assert {tmp: tmp.exists() for tmp in planted} == planted
        assert other.read_text() == "kept"

    def test_changed_question_is_rebuilt(self, pipeline):
        tmp_path, config, doc = pipeline
        out = tmp_path / "out"
        for cmd in ("filter", "generate"):
            assert run(cmd, config) == 0
        kept = (out / "kept.jsonl").read_text().splitlines()
        victim = json.loads(kept[0])
        victim["golden_answer"] += "1"
        kept[0] = json.dumps(victim)
        (out / "kept.jsonl").write_text("\n".join(kept) + "\n")
        assert run("generate", config) == 0
        summary = json.loads((out / "generate_summary.json").read_text())
        statuses = {q["question_id"]: q["status"] for q in summary["questions"]}
        assert statuses.pop(victim["id"]) == "built"
        assert set(statuses.values()) == {"resumed"}
        tree = json.loads((out / "trees" / f"{victim['id']}.json").read_text())
        assert tree["question"]["golden_answer"] == victim["golden_answer"]

    def test_export_reads_only_kept_trees(self, pipeline):
        tmp_path, config, doc = pipeline
        out = tmp_path / "out"
        for cmd in ("filter", "generate", "export"):
            assert run(cmd, config) == 0
        fresh = {name: (out / name).read_bytes()
                 for name in ("examples.jsonl", "pairs.jsonl")}
        kept = (out / "kept.jsonl").read_text().splitlines()
        stray = json.loads(kept[-1])["id"]
        (out / "kept.jsonl").write_text("\n".join(kept[:-1]) + "\n")
        assert run("export", config) == 0
        exported = {json.loads(line)["question_id"] for line in
                    (out / "examples.jsonl").read_text().splitlines()}
        assert exported and stray not in exported
        # A kept question whose tree holds another question is skipped.
        trees = sorted((out / "trees").glob("*.json"))
        trees[0].write_bytes(trees[1].read_bytes())
        assert run("export", config) == 0
        exported = {json.loads(line)["question_id"] for line in
                    (out / "examples.jsonl").read_text().splitlines()}
        assert exported and trees[0].stem not in exported
        # With every tree back, export writes the same bytes as before.
        (out / "kept.jsonl").write_text("\n".join(kept) + "\n")
        assert run("generate", config) == 0
        assert run("export", config) == 0
        for name, data in fresh.items():
            assert (out / name).read_bytes() == data, name

    @pytest.mark.parametrize("damage", ["budgetless", "token_len"])
    def test_export_of_unreadable_tree_is_3(self, pipeline, capsys, damage):
        tmp_path, config, doc = pipeline
        out = tmp_path / "out"
        for cmd in ("filter", "generate"):
            assert run(cmd, config) == 0
        victim = sorted((out / "trees").glob("*.json"))[0]
        victim.write_text(json.dumps(
            damaged_tree(json.loads(victim.read_text()), damage), indent=2))
        capsys.readouterr()
        assert run("export", config) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "not a readable tree" in err
        assert victim.name in err

    @pytest.mark.parametrize("parallelism", [1, 2])
    @pytest.mark.parametrize("damage", [
        "mc_den_zero", "mc_mismatch", *TREE_DAMAGES])
    def test_tree_with_another_stored_mc_is_unreadable(self, pipeline, capsys,
                                                       damage, parallelism):
        # Export exits 3 on it and leaves its outputs as they were, so it
        # writes no duplicate example, and generate rebuilds it. Besides
        # another stored MC, the damages include edges that are not a tree
        # and counts that are not ints.
        tmp_path, config, doc = pipeline
        out = tmp_path / "out"
        for cmd in ("filter", "generate", "export"):
            assert run(cmd, config) == 0
        fresh = {name: (out / name).read_bytes()
                 for name in ("examples.jsonl", "pairs.jsonl")}
        victim = sorted((out / "trees").glob("*.json"))[0]
        tree = victim.read_bytes()
        victim.write_text(json.dumps(
            damaged_tree(json.loads(tree), damage), indent=2))
        flags = ["--config", str(config), "--parallelism", str(parallelism)]
        capsys.readouterr()
        assert main(["export", *flags]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "not a readable tree" in err
        assert victim.name in err
        for name, data in fresh.items():
            assert (out / name).read_bytes() == data, name
        assert main(["generate", *flags]) == 0
        summary = json.loads((out / "generate_summary.json").read_text())
        statuses = {q["question_id"]: q["status"] for q in summary["questions"]}
        assert statuses.pop(victim.stem) == "built"
        assert set(statuses.values()) == {"resumed"}
        assert victim.read_bytes() == tree
        assert main(["export", *flags]) == 0
        for name, data in fresh.items():
            assert (out / name).read_bytes() == data, name

    @pytest.mark.parametrize("case", ["skipped_trees", "truncated_tree",
                                      "bench"])
    def test_workers_write_what_one_process_writes(self, pipeline, capsys,
                                                   case):
        tmp_path, config, doc = pipeline
        out = tmp_path / "out"
        if case == "bench":
            cmd, names = "bench", ["bench_report.json"]
        else:
            cmd, names = "export", ["examples.jsonl", "pairs.jsonl"]
            for stage in ("filter", "generate"):
                assert run(stage, config) == 0
            trees = sorted((out / "trees").glob("*.json"))
            if case == "skipped_trees":
                trees[0].unlink()  # missing
                trees[1].write_bytes(trees[2].read_bytes())  # another question's
            else:
                trees[1].write_bytes(trees[1].read_bytes()[:1000])
        results = []
        for parallelism in (1, 2):
            capsys.readouterr()
            code = main([cmd, "--config", str(config),
                         "--parallelism", str(parallelism)])
            err = capsys.readouterr().err
            written = [(out / name).read_bytes() if (out / name).exists()
                       else None for name in names]
            for name in names:  # the next run's files are its own
                (out / name).unlink(missing_ok=True)
            results.append((code, err, written))
        assert results[0] == results[1]
        code, err, written = results[0]
        if case == "truncated_tree":
            assert code == 3 and written == [None, None]
            assert err.count("\n") == 1 and "Traceback" not in err
            assert trees[1].name in err
        else:
            assert code == 0 and None not in written
        if case == "skipped_trees":
            exported = {json.loads(line)["question_id"]
                        for line in written[0].decode().splitlines()}
            assert exported == {p.stem for p in trees[2:]}

    def test_export_with_only_stray_trees_is_3(self, pipeline, capsys):
        tmp_path, config, doc = pipeline
        out = tmp_path / "out"
        for cmd in ("filter", "generate"):
            assert run(cmd, config) == 0
        kept = (out / "kept.jsonl").read_text().splitlines()
        (out / "kept.jsonl").write_text(kept[0] + "\n")
        (out / "trees" / f"{json.loads(kept[0])['id']}.json").unlink()
        capsys.readouterr()
        assert run("export", config) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "missing upstream artifact" in err
        (out / "kept.jsonl").unlink()
        assert run("export", config) == 3

    @pytest.mark.parametrize("remote,sent", [
        ({}, (1.0, 1024)),
        ({"temperature": 0.3, "max_tokens": 77}, (0.3, 77)),
    ])
    def test_remote_sampling_params_reach_server(self, tmp_path, fake_server,
                                                 remote, sent):
        write_corpus(tmp_path / "corpus.jsonl", n_questions=2)
        config, doc = write_config(tmp_path)
        doc["completer"] = {"kind": "remote", "remote": dict(
            remote, endpoint=fake_server.url)}
        config.write_text(json.dumps(doc))
        assert run("filter", config) == 0
        assert fake_server.requests_seen
        assert {(b["temperature"], b["max_tokens"])
                for b in fake_server.requests_seen} == {sent}

    def test_rerun_is_byte_identical(self, tmp_path):
        write_corpus(tmp_path / "corpus.jsonl")
        outputs = []
        for out_name in ("out_a", "out_b"):
            config, _ = write_config(tmp_path, out_name=out_name, seed=5)
            self.run_all(config)
            outputs.append(tmp_path / out_name)
        a, b = outputs
        for name in ("kept.jsonl", "examples.jsonl", "pairs.jsonl",
                     "prm_model.json", "eval_report.json",
                     "bench_report.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        for tree in sorted((a / "trees").glob("*.json")):
            assert tree.read_bytes() == (b / "trees" / tree.name).read_bytes()

    def test_seed_changes_results(self, tmp_path):
        write_corpus(tmp_path / "corpus.jsonl")
        config, _ = write_config(tmp_path, out_name="out_s0", seed=0)
        assert run("filter", config) == 0
        assert run("generate", config) == 0
        config2, _ = write_config(tmp_path, out_name="out_s1", seed=1)
        assert run("filter", config2) == 0
        assert run("generate", config2) == 0
        s0 = (tmp_path / "out_s0" / "generate_summary.json").read_bytes()
        s1 = (tmp_path / "out_s1" / "generate_summary.json").read_bytes()
        assert s0 != s1

    def test_output_override_flag(self, pipeline):
        tmp_path, config, doc = pipeline
        override = tmp_path / "elsewhere"
        assert main(["filter", "--config", str(config),
                     "--output", str(override)]) == 0
        assert (override / "kept.jsonl").exists()

    def test_parallel_matches_serial(self, pipeline):
        tmp_path, config, doc = pipeline
        assert run("filter", config) == 0
        assert run("generate", config) == 0
        doc2 = dict(doc, output=str(tmp_path / "out_par"), parallelism=4)
        config2 = tmp_path / "config_par.json"
        config2.write_text(json.dumps(doc2))
        assert run("filter", config2) == 0
        assert run("generate", config2) == 0
        serial = tmp_path / "out"
        parallel = tmp_path / "out_par"
        assert (serial / "kept.jsonl").read_bytes() == \
            (parallel / "kept.jsonl").read_bytes()
        for tree in sorted((serial / "trees").glob("*.json")):
            assert tree.read_bytes() == \
                (parallel / "trees" / tree.name).read_bytes()

    def test_pairwise_training_reads_pairs_only(self, pipeline):
        tmp_path, config, doc = pipeline
        for cmd in ("filter", "generate", "export"):
            assert run(cmd, config) == 0
        (tmp_path / "out" / "examples.jsonl").unlink()
        doc2 = dict(doc, train={"objective": "pairwise", "epochs": 5})
        config2 = tmp_path / "config_pw.json"
        config2.write_text(json.dumps(doc2))
        assert run("train", config2) == 0

    def test_generate_rerun_in_worker_processes_resumes(self, pipeline,
                                                        capsys):
        tmp_path, config, doc = pipeline
        assert run("filter", config) == 0
        assert run("generate", config) == 0
        summary = tmp_path / "out" / "generate_summary.json"
        assert run("generate", config) == 0
        serial = summary.read_bytes()
        n = len(json.loads(serial)["questions"])
        assert n > 1
        config.write_text(json.dumps(dict(doc, parallelism=2)))
        capsys.readouterr()
        assert run("generate", config) == 0
        assert f"built 0, resumed {n} of {n} trees" in capsys.readouterr().out
        assert summary.read_bytes() == serial

    def test_worker_partials_survive_pickle(self, pipeline):
        tmp_path, config, doc = pipeline
        assert run("filter", config) == 0
        questions, chains = import_corpus_jsonl(tmp_path / "out" / "kept.jsonl")
        question = questions[0]
        cfg = RunConfig.from_file(config)
        filter_work = partial(_filter_one, cfg, chains)
        assert pickle.loads(pickle.dumps(filter_work))(question) == \
            filter_work(question)
        trees = tmp_path / "trees"
        trees.mkdir()
        generate_work = partial(_generate_one, cfg, chains, str(trees))
        qid, status, budget = generate_work(question)
        assert status == "built"
        # The copy finds the tree the original saved.
        assert pickle.loads(pickle.dumps(generate_work))(question) == \
            (qid, "resumed", budget)

    @pytest.mark.parametrize("kind", ["sim", "remote"])
    @pytest.mark.parametrize("parallelism", [1, 2])
    @pytest.mark.parametrize("work", sorted(POOL_RULES))
    def test_map_questions_runs_where_its_rule_says(self, work, parallelism,
                                                    kind):
        cfg = RunConfig(completer_kind=kind, parallelism=parallelism,
                        remote=RemoteSettings("http://127.0.0.1:9/complete"))
        questions = [Question(f"q{i}", "s", "1") for i in range(5)]
        results = list(_map_questions(cfg, POOL_RULES[work], _where_run,
                                      questions))
        assert [qid for qid, _, _ in results] == [q.id for q in questions]
        here = {(os.getpid(), threading.get_ident())}
        places = {(pid, thread) for _, pid, thread in results}
        if parallelism == 1 or kind not in POOL_RULES[work]:
            assert places == here  # this process
        elif kind == "sim":
            assert os.getpid() not in {pid for pid, _ in places}  # workers
        else:
            assert {pid for pid, _ in places} == {os.getpid()}  # threads
            assert not places & here

    def test_workers_spawn_beside_another_thread(self):
        cfg = RunConfig(parallelism=2)
        questions = [Question(f"q{i}", "s", "1") for i in range(3)]
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30,))
        other.start()
        try:
            assert _worker_start().get_start_method() == "spawn"
            results = list(_map_questions(cfg, ("sim",), _where_run,
                                          questions))
        finally:
            release.set()
            other.join(timeout=30)
        assert not other.is_alive()
        assert [qid for qid, _, _ in results] == [q.id for q in questions]
        assert all(pid != os.getpid() for _, pid, _ in results)

    def test_map_questions_runs_in_process_items_as_consumed(self):
        ran = []

        def work(item):
            ran.append(item)
            if item == 2:
                raise ValueError(item)
            return item

        results = _map_questions(RunConfig(), ("sim",), work, range(5))
        assert ran == []
        assert next(results) == 0 and ran == [0]
        assert next(results) == 1 and ran == [0, 1]
        with pytest.raises(ValueError):
            next(results)
        assert list(results) == [] and ran == [0, 1, 2]

    def test_pooled_items_queued_behind_a_raise_never_run(self):
        cfg = RunConfig(completer_kind="remote", parallelism=2,
                        remote=RemoteSettings("http://127.0.0.1:9/complete"))
        started = []

        def work(item):
            started.append(item)
            if item == 0:
                raise ValueError(item)
            time.sleep(0.2)
            return item

        with pytest.raises(ValueError):
            list(_map_questions(cfg, ("remote",), work, range(20)))
        # The pool is shut down once the error arrives: the items running
        # then have finished, and no other item starts.
        ran = list(started)
        time.sleep(0.3)
        assert started == ran and len(ran) < 6

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_remote_eval_and_bench_keep_parallelism_requests_in_flight(
            self, pipeline, fake_server_11, parallelism):
        tmp_path, config, doc = pipeline
        for cmd in ("filter", "generate", "export", "train"):
            assert run(cmd, config) == 0
        lock = threading.Lock()
        in_flight = [0]
        peaks = {}

        def respond(body):
            # The peak number of requests the server held at once, per
            # command.
            with lock:
                in_flight[0] += 1
                peaks[cmd] = max(peaks.get(cmd, 0), in_flight[0])
            time.sleep(0.02)
            with lock:
                in_flight[0] -= 1
            return ["step one step two the answer is 4"] * body["n"]

        fake_server_11.respond = respond
        doc.update(parallelism=parallelism, bench={"budget": 200})
        doc["completer"] = {"kind": "remote",
                            "remote": {"endpoint": fake_server_11.url}}
        config.write_text(json.dumps(doc))
        opened = {}
        for cmd in ("eval", "bench"):
            before = fake_server_11.connections
            assert run(cmd, config) == 0
            opened[cmd] = fake_server_11.connections - before
        assert peaks == {"eval": parallelism, "bench": parallelism}
        # A request takes an idle connection before it opens one.
        assert all(1 <= opened[cmd] <= peaks[cmd] for cmd in opened)

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_remote_commands_close_their_connections(
            self, pipeline, fake_server_11, parallelism):
        tmp_path, config, doc = pipeline
        for cmd in ("filter", "generate", "export", "train"):
            assert run(cmd, config) == 0
        shutil.rmtree(tmp_path / "out" / "trees")

        def respond(body):
            # Half right, so filter keeps each question and generate
            # searches it.
            golden = 100 + int(body["prompt"].split("number ")[1].split()[0])
            return [f"step one step two the answer is {golden + i % 2}"
                    for i in range(body["n"])]

        fake_server_11.respond = respond
        doc.update(parallelism=parallelism, bench={"budget": 200})
        doc["completer"] = {"kind": "remote",
                            "remote": {"endpoint": fake_server_11.url}}
        config.write_text(json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for cmd in ("filter", "generate", "eval", "bench"):
                assert run(cmd, config) == 0, cmd
            gc.collect()
        assert fake_server_11.connections > 0
        assert [str(w.message) for w in caught
                if issubclass(w.category, ResourceWarning)] == []

    def test_pairwise_training_path(self, pipeline):
        tmp_path, config, doc = pipeline
        for cmd in ("filter", "generate", "export"):
            assert run(cmd, config) == 0
        doc2 = dict(doc, train={"objective": "pairwise", "epochs": 50})
        config2 = tmp_path / "config_pw.json"
        config2.write_text(json.dumps(doc2))
        assert run("train", config2) == 0
        model = json.loads((tmp_path / "out" / "prm_model.json").read_text())
        assert model["objective"] == "pairwise"


def _where_run(question):
    """The question's id, and the process and thread that ran this."""
    return question.id, os.getpid(), threading.get_ident()


HEAVY_MODULES = ("concurrent.futures", "fractions", "http.client", "numpy")
RUN_MAIN = ("import sys\nfrom omegaprm.cli import main\n"
            "if main(sys.argv[1:]):\n    raise SystemExit(1)")


def _heavy_modules_after(code, *argv):
    """Which of ``HEAVY_MODULES`` a fresh interpreter has loaded once it
    has run ``code`` with ``argv``."""
    probe = (f"{code}\nimport sys\n"
             f"print(*[m for m in {HEAVY_MODULES!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", probe, *argv],
                          env=_src_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


class TestStartupImports:
    """A command loads only the layers it runs: the PRM's numpy, the HTTP
    client and the worker pools are imported where they are used. None
    loads ``fractions``, which pulls in ``decimal`` and ``numbers``: an MC
    is the float of two counts."""

    def test_cli_import_loads_none(self):
        assert _heavy_modules_after("import omegaprm.cli") == []

    def test_only_train_and_eval_load_numpy(self, pipeline):
        tmp_path, config, doc = pipeline
        stages = ("filter", "generate", "export", "train", "eval", "bench")
        loaded = {cmd: _heavy_modules_after(RUN_MAIN, cmd, "--config",
                                            str(config)) for cmd in stages}
        assert loaded == {cmd: ["numpy"] if cmd in ("train", "eval") else []
                          for cmd in stages}

    def test_export_and_bench_load_a_pool_above_parallelism_1(self,
                                                              pipeline):
        # On the simulator, filter and eval run in this process at every
        # parallelism, and train maps nothing.
        tmp_path, config, doc = pipeline
        for cmd in ("filter", "generate", "export", "train"):
            assert run(cmd, config) == 0
        stages = ("filter", "generate", "export", "train", "eval", "bench")
        loaded = {(cmd, p): _heavy_modules_after(
            RUN_MAIN, cmd, "--config", str(config), "--parallelism", str(p))
            for cmd in stages for p in (1, 2)}
        pooled = ("generate", "export", "bench")
        expected = {(cmd, p): [
            *(["concurrent.futures"] if p > 1 and cmd in pooled else []),
            *(["numpy"] if cmd in ("train", "eval") else [])]
            for cmd, p in loaded}
        assert loaded == expected

    def test_remote_bench_maps_only_per_step_requests(self, tmp_path,
                                                     fake_server, monkeypatch):
        write_corpus(tmp_path / "corpus.jsonl", n_questions=2)
        config, doc = write_config(tmp_path)
        doc.update(parallelism=2, bench={"budget": 200})
        doc["completer"]["remote"] = {"endpoint": fake_server.url}
        config.write_text(json.dumps(doc))
        for cmd in ("filter", "generate"):  # trees from the simulator
            assert run(cmd, config) == 0
        maps = {}

        def record(cfg, pooled, work, items):
            maps.setdefault(cmd, []).append((pooled, items))
            yield from map(work, items)

        monkeypatch.setattr(cli, "_map_questions", record)
        for cmd in ("export", "bench"):
            assert main([cmd, "--config", str(config),
                         "--completer", "remote"]) == 0
        # Export pools only on the simulator; bench runs its arms in turn
        # and maps the prefix states of each annotated solution.
        assert fake_server.requests_seen and list(maps) == ["export", "bench"]
        assert [pooled for pooled, _ in maps["export"]] == [("sim",)]
        (arms_pooled, arms), *prefix_maps = maps["bench"]
        assert arms_pooled == ("sim",) and len(arms) == 2
        assert prefix_maps
        for pooled, states in prefix_maps:
            assert pooled == ("remote",)
            assert states and all(isinstance(s, State) for s in states)
            assert [len(s.key()) for s in states] == \
                list(range(1, len(states) + 1))

    @pytest.mark.parametrize("kind", ["sim", "remote"])
    def test_eval_maps_each_question_once(self, pipeline, fake_server,
                                          monkeypatch, kind):
        tmp_path, config, doc = pipeline
        for cmd in ("filter", "generate", "export", "train"):
            assert run(cmd, config) == 0
        lock = threading.Lock()
        served = {}  # per prompt: the replies sent

        def respond(body):
            # A root's first reply is right and its second wrong, so the
            # majority curve reads 1 and the weighted one 0 only if each
            # root's majority request comes before its weighted one.
            prompt = body["prompt"]
            with lock:
                ordinal = served[prompt] = served.get(prompt, 0) + 1
            golden = 100 + int(prompt.split("number ")[1].split()[0])
            answer = golden if ordinal == 1 else 7
            return [f"step one the answer is {answer}"] * body["n"]

        fake_server.respond = respond
        doc["parallelism"] = 2
        if kind == "remote":
            doc["completer"] = {"kind": "remote",
                                "remote": {"endpoint": fake_server.url}}
        config.write_text(json.dumps(doc))
        maps = []
        map_questions = cli._map_questions

        def record(cfg, pooled, work, items):
            maps.append((pooled, len(items)))
            return map_questions(cfg, pooled, work, items)

        monkeypatch.setattr(cli, "_map_questions", record)
        assert run("eval", config) == 0
        out = tmp_path / "out"
        kept = (out / "kept.jsonl").read_text().splitlines()
        assert len(kept) > 1 and maps == [(("remote",), len(kept))]
        if kind == "remote":
            assert list(served.values()) == [2] * len(kept)
            report = json.loads((out / "eval_report.json").read_text())
            assert set(report["majority"]["accuracy_mean"]) == {1.0}
            assert set(report["prm_weighted"]["accuracy_mean"]) == {0.0}

    def test_remote_completer_loads_http_client(self):
        code = ("import sys\n"
                "from omegaprm.policy import RemoteCompleter, RemoteSettings\n"
                "assert 'http.client' not in sys.modules\n"
                "RemoteCompleter({}, RemoteSettings('http://127.0.0.1:9/x'))")
        assert _heavy_modules_after(code) == ["http.client"]
