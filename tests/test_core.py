import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from omegaprm.core import (
    EngineConfig,
    NodeStats,
    Question,
    Rollout,
    State,
    make_step,
    open_replacing,
    state_transition,
)
from omegaprm.dataset import write_json
from omegaprm.errors import UpstreamError


def steps(*texts):
    return tuple(make_step(t) for t in texts)


class TestTypes:
    def test_question_requires_id_and_answer(self):
        with pytest.raises(ValueError):
            Question("", "x", "1")
        with pytest.raises(ValueError):
            Question("q", "x", "")

    def test_step_token_len_matches_tokenizer(self):
        s = make_step("two plus two")
        assert s.token_len == len("two plus two".split()) == 3

    def test_step_rejects_empty_text(self):
        with pytest.raises(ValueError):
            make_step("")

    def test_rollout_token_len_is_sum_of_steps(self):
        r = Rollout(list(steps("a b", "c")), "1", True)
        assert r.token_len == 3
        assert r.steps == steps("a b", "c")  # kept as a tuple


class TestStateTransition:
    def test_from_root(self):
        root = State("q1")
        s = state_transition(root, steps("x1"))
        assert s.prefix_steps == steps("x1")
        assert s.question_id == "q1"

    def test_extends_existing_prefix(self):
        s4 = State("q1", steps("x1", "x2", "x3", "x4"))
        s6 = state_transition(s4, steps("x5", "x6"))
        assert s6.prefix_steps == steps("x1", "x2", "x3", "x4", "x5", "x6")

    def test_composition_equals_single_transition(self):
        root = State("q1")
        a, b = steps("x1", "x2"), steps("x3",)
        assert state_transition(state_transition(root, a), b) == \
            state_transition(root, a + b)

    def test_empty_action_rejected(self):
        with pytest.raises(ValueError, match="nonempty action"):
            state_transition(State("q1"), [])

    def test_key_is_token_sequence(self):
        # Node identity ignores how tokens were grouped into steps.
        a = State("q1", steps("x1 x2", "x3"))
        b = State("q1", steps("x1", "x2 x3"))
        assert a.key() == b.key()

    def test_cached_key_outside_identity(self):
        a = State("q1", steps("x1 x2", "x3"))
        b = State("q1", steps("x1 x2", "x3"))
        assert a.key() == ("x1", "x2", "x3")
        assert a.key() is a.key()
        # Only ``a`` holds its key now; that must not tell the two apart.
        assert a == b
        assert hash(a) == hash(b)
        assert repr(a) == repr(b)

    @given(st.lists(
        st.lists(st.text(alphabet="ab \t\n", min_size=1, max_size=8),
                 min_size=1, max_size=4),
        max_size=5,
    ))
    def test_derived_key_equals_split_prefix(self, actions):
        state = State("q1")
        for texts in actions:
            state = state_transition(state, steps(*texts))
            prefix = state.prefix_steps
            assert state.key() == tuple(
                tok for s in prefix for tok in s.text.split())


class TestNodeStats:
    def test_mc_is_exact_fraction_of_correct_rollouts(self):
        stats = NodeStats()
        stats.add_rollouts([
            Rollout(steps("a"), "1", True),
            Rollout(steps("b"), "2", False),
            Rollout(steps("c"), "1", True),
        ])
        assert stats.mc == Fraction(2, 3)

    def test_mc_boundaries_are_exact(self):
        wrong, right = NodeStats(), NodeStats()
        wrong.add_rollouts([Rollout(steps("a"), "2", False)] * 8)
        assert wrong.mc == 0
        right.add_rollouts([Rollout(steps("a"), "1", True)] * 8)
        assert right.mc == 1

    def test_mc_none_without_rollouts(self):
        assert NodeStats().mc is None

    @given(st.lists(st.lists(st.booleans(), max_size=5), max_size=6))
    def test_running_mc_equals_recount_after_each_addition(self, batches):
        stats = NodeStats()
        for batch in batches:
            stats.add_rollouts(
                Rollout(steps("a"), "1" if ok else "2", ok)
                for ok in batch)
            rollouts = stats.rollouts
            if rollouts:
                correct = sum(1 for r in rollouts if r.is_correct)
                assert stats.mc == Fraction(correct, len(rollouts))
            else:
                assert stats.mc is None


# Holds open_replacing(path) open until a line arrives on stdin.
_HOLDING_WRITER = """
import sys
from omegaprm.core import open_replacing
with open_replacing(sys.argv[1]) as fh:
    fh.write("child")
    print("open", flush=True)
    sys.stdin.readline()
"""


class TestOpenReplacing:
    def test_writers_in_two_processes_do_not_collide(self, tmp_path):
        # One process writes and replaces the path while another holds it
        # open, as an orphaned worker and a rerun can. Each must publish its
        # own whole file.
        path = tmp_path / "artifact.json"
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        child = subprocess.Popen(
            [sys.executable, "-c", _HOLDING_WRITER, str(path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=src))
        try:
            assert child.stdout.readline() == "open\n"
            with open_replacing(path) as fh:
                fh.write("parent")
            assert path.read_text() == "parent"
            child.stdin.write("go\n")
            child.stdin.close()
            assert child.wait(timeout=30) == 0
        finally:
            child.kill()
            child.wait()
            child.stdout.close()
        assert path.read_text() == "child"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.json"]

    def test_failed_block_leaves_no_temporary_file(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("old")
        with pytest.raises(TypeError):
            write_json({"a": object()}, path)
        assert path.read_text() == "old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.json"]
        write_json({"a": 1}, path)  # a block that ends normally renames
        assert json.loads(path.read_text()) == {"a": 1}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.json"]


    def test_path_that_is_a_directory_is_upstream_error(self, tmp_path):
        path = tmp_path / "x.json"
        path.mkdir()
        with pytest.raises(UpstreamError, match=re.escape(str(path))):
            write_json({"a": 1}, path)
        assert path.is_dir()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.json"]


class TestEngineConfig:
    def test_defaults_match_reference_settings(self):
        cfg = EngineConfig()
        assert cfg.alpha == 0.5
        assert cfg.beta == 0.9
        assert cfg.len_scale_L == 500
        assert cfg.c_puct == 0.125
        assert cfg.k_rollouts == 8
        assert cfg.search_limit == 100
        assert cfg.step_split_target == 16

    @pytest.mark.parametrize("field,value", [
        ("alpha", 0.0), ("alpha", 1.5), ("beta", -0.1), ("len_scale_L", 0),
        ("c_puct", -1.0), ("k_rollouts", 0), ("search_limit", 0),
        ("step_split_target", 0),
    ])
    def test_bounds_enforced(self, field, value):
        with pytest.raises(ValueError):
            EngineConfig(**{field: value})
