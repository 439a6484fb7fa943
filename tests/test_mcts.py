"""Search engine behavior: pool selection, binary search, maintenance,
tree construction, budgets, and serialization."""
import json
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from omegaprm.core import (
    EngineConfig,
    Question,
    Rollout,
    State,
    NodeStats,
    Step,
    TreeNode,
    make_step,
    state_transition,
)
from omegaprm.errors import CompleterUnavailable, ParseError
from omegaprm.mcts import (
    _mc_fields,
    OmegaPRMEngine,
    RolloutPool,
    SearchBudget,
    Tree,
    annotate_per_step,
    build_tree,
    dump_tree,
    load_tree,
    monte_carlo_estimate,
    save_tree,
    tree_from_dict,
)
from omegaprm.policy import SimPolicySpec, SimulatedCompleter


def steps(*texts):
    return tuple(make_step(t) for t in texts)


def make_setup(n_steps=8, error_prob=0.0, seed=0, step_split_target=16,
               tokens_per_step=1, **spec_kwargs):
    """A one-question world with a seeded simulated policy."""
    q = Question("q1", "toy question", "10")
    chain = [" ".join(f"s{i}t{j}" for j in range(tokens_per_step))
             for i in range(1, n_steps + 1)]
    comp = SimulatedCompleter(
        {"q1": q}, {"q1": chain},
        SimPolicySpec(per_step_error_prob=error_prob, seed=seed, **spec_kwargs),
    )
    cfg = EngineConfig(step_split_target=step_split_target)
    return q, chain, comp, cfg


def wrong_rollout_at(chain, error_step):
    """A full-length rollout that goes wrong exactly at ``error_step`` (1-based)."""
    out = []
    for i, ground in enumerate(chain, start=1):
        if i < error_step:
            out.append(make_step(ground))
        else:
            toks = " ".join(f"bad{i}x{j}" for j in range(len(ground.split())))
            out.append(make_step(toks))
    return Rollout(out, f"wrong{error_step}", False)


class SampleCounter:
    """``inner``, summing in ``calls`` the rollouts requested of it: the
    policy calls that the caller spends."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self._lock = threading.Lock()

    def sample_rollouts(self, request):
        with self._lock:
            self.calls += request.n_samples
        return self.inner.sample_rollouts(request)

    def reset(self):
        self.inner.reset()


def node_at(engine, rollout, position):
    """The tree node of the root's prefix plus ``rollout``'s first
    ``position`` steps."""
    state = state_transition(engine.tree.root.state, rollout.steps[:position])
    return engine.tree.nodes[state.key()]


def node_with_mc(prefix, mc_rollouts):
    node = TreeNode(state=State("q1", steps(*prefix)))
    node.stats.add_rollouts(
        Rollout(steps("x"), "10" if ok else "0", ok) for ok in mc_rollouts
    )
    return node


class TestRolloutPool:
    WRONG = Rollout(steps("a b c"), "0", False)

    def test_rejects_correct_rollouts(self):
        pool = RolloutPool()
        node = node_with_mc(["p"], [True, False])
        assert not pool.add(node, Rollout(steps("a"), "10", True))
        assert len(pool) == 0

    def test_rejects_resolved_states(self):
        pool = RolloutPool()
        assert not pool.add(node_with_mc(["p"], [True, True]), self.WRONG)
        assert not pool.add(node_with_mc(["p"], [False, False]), self.WRONG)
        assert pool.add(node_with_mc(["p"], [True, False]), self.WRONG)

    def test_rejects_stepless_rollouts(self):
        # A short or empty remote completion: nothing to bisect.
        pool = RolloutPool()
        node = node_with_mc(["p"], [True, False])
        assert not pool.add(node, Rollout([], "", False))
        assert len(pool) == 0

    def test_deduplicates_identical_candidates(self):
        pool = RolloutPool()
        node = node_with_mc(["p"], [True, False])
        assert pool.add(node, self.WRONG)
        assert not pool.add(node, self.WRONG)
        assert len(pool) == 1

    def test_select_pops_highest_scoring(self):
        cfg = EngineConfig()
        pool = RolloutPool()
        hi = node_with_mc(["hi"], [True, True, True, False])   # MC = 3/4
        lo = node_with_mc(["lo"], [True, False, False, False])  # MC = 1/4
        pool.add(lo, self.WRONG)
        pool.add(hi, Rollout(steps("d e f"), "0", False))
        node, _ = pool.select(cfg)
        assert node is hi
        assert len(pool) == 1

    def test_tie_breaks_to_earliest(self):
        cfg = EngineConfig()
        pool = RolloutPool()
        a = node_with_mc(["a"], [True, False])
        b = node_with_mc(["b"], [True, False])
        pool.add(a, self.WRONG)
        pool.add(b, Rollout(steps("a b c"), "0", False))
        assert pool.select(cfg)[0] is a

    def test_exploration_prefers_unvisited(self):
        cfg = EngineConfig(c_puct=10.0)  # exaggerate the bonus
        pool = RolloutPool()
        visited = node_with_mc(["a"], [True, True, True, False])
        visited.stats.visit_count = 50
        fresh = node_with_mc(["b"], [True, False, False, False])
        pool.add(visited, self.WRONG)
        pool.add(fresh, Rollout(steps("d e f"), "0", False))
        assert pool.select(cfg)[0] is fresh

    def test_empty_pool_raises(self):
        with pytest.raises(IndexError):
            RolloutPool().select(EngineConfig())


class TestMonteCarloEstimate:
    def test_exact_fraction(self):
        q, chain, comp, cfg = make_setup(error_prob=0.5, seed=9)
        counter = SampleCounter(comp)
        mc, rollouts = monte_carlo_estimate(counter, 16, State("q1"))
        assert mc == sum(r.is_correct for r in rollouts) / 16
        assert 0 < mc < 1 and len(rollouts) == counter.calls == 16

    def test_rejects_nonpositive_k(self):
        q, chain, comp, cfg = make_setup()
        with pytest.raises(ValueError):
            monte_carlo_estimate(comp, 0, State("q1"))

    def test_completer_failure_propagates(self):
        class Dead:
            def sample_rollouts(self, request):
                raise CompleterUnavailable("down")

        with pytest.raises(CompleterUnavailable):
            monte_carlo_estimate(Dead(), 4, State("q1"))


class TestSplitPoint:
    def test_even_tokens_left_biased(self):
        # cum boundaries 0..8 over unit steps: midpoint 4 is a boundary.
        cum = list(range(9))
        assert OmegaPRMEngine._split_point(cum, 0, 8) == 4
        # Span (0, 7]: midpoint 3.5 ties boundaries 3 and 4; left wins.
        assert OmegaPRMEngine._split_point(cum, 0, 7) == 3

    def test_unequal_steps_snap_to_nearest(self):
        # Steps of 2, 10, 2 tokens: cum = [0, 2, 12, 14], midpoint 7 is
        # closer to boundary 1 (dist 5) than 2 (dist 5)... exactly tied,
        # left-biased -> 1.
        assert OmegaPRMEngine._split_point([0, 2, 12, 14], 0, 3) == 1
        # Steps 1, 1, 6: midpoint 4 nearer cum[2]=2? |1-4|=3, |2-4|=2 -> 2.
        assert OmegaPRMEngine._split_point([0, 1, 2, 8], 0, 3) == 2

    def test_two_step_span_has_single_interior(self):
        assert OmegaPRMEngine._split_point([0, 3, 4], 0, 2) == 1


class TestLocateFirstError:
    def test_reference_probe_sequence(self):
        # 8-step solution wrong from step 7: probes land on 4, 6, 7.
        q, chain, comp, cfg = make_setup(n_steps=8)
        engine = OmegaPRMEngine(q, comp, cfg)
        engine.seed_root()
        rollout = wrong_rollout_at(chain, 7)
        result = engine.locate_first_error(engine.tree.root, rollout)
        assert result.probe_positions == [4, 6, 7]
        assert result.first_error_index == 7
        # Each probed prefix is a tree node.
        assert [node_at(engine, rollout, m).mc
                for m in result.probe_positions] == [1, 1, 0]
        assert result.rollouts_spent == 3 * cfg.k_rollouts

    def test_matches_exhaustive_oracle(self):
        # Noiseless policy: binary search must find the same first error as
        # checking every prefix in order.
        for n_steps, error_step in [(4, 1), (5, 5), (8, 3), (13, 7), (32, 19)]:
            q, chain, comp, cfg = make_setup(n_steps=n_steps)
            engine = OmegaPRMEngine(q, comp, cfg)
            engine.seed_root()
            rollout = wrong_rollout_at(chain, error_step)
            result = engine.locate_first_error(engine.tree.root, rollout)
            oracle = annotate_per_step(comp, q, rollout, cfg.k_rollouts)
            first = next(t for t, mc in oracle if mc == 0)
            assert result.first_error_index == first == error_step

    def test_rollout_budget_logarithmic(self):
        for n_steps in (4, 8, 16, 31, 32):
            for error_step in (1, n_steps // 2, n_steps):
                q, chain, comp, cfg = make_setup(n_steps=n_steps)
                engine = OmegaPRMEngine(q, comp, cfg)
                engine.seed_root()
                result = engine.locate_first_error(
                    engine.tree.root, wrong_rollout_at(chain, error_step)
                )
                cap = cfg.k_rollouts * math.ceil(math.log2(n_steps))
                assert result.rollouts_spent <= cap

    def test_probe_reuse_skips_known_prefixes(self):
        q, chain, comp, cfg = make_setup(n_steps=8)
        engine = OmegaPRMEngine(q, comp, cfg)
        engine.seed_root()
        first = engine.locate_first_error(
            engine.tree.root, wrong_rollout_at(chain, 7)
        )
        before = engine.budget.policy_calls
        # Same failing prefix again: probes at 4 and 6 already have MC.
        second = engine.locate_first_error(
            engine.tree.root, wrong_rollout_at(chain, 7)
        )
        assert second.first_error_index == first.first_error_index
        assert engine.budget.policy_calls == before

    def test_threshold_stops_early(self):
        # With a coarse threshold the search may stop on a multi-step span.
        q, chain, comp, cfg = make_setup(n_steps=16, step_split_target=2)
        engine = OmegaPRMEngine(q, comp, cfg)
        engine.seed_root()
        assert engine.tree.threshold == 8.0
        result = engine.locate_first_error(
            engine.tree.root, wrong_rollout_at(chain, 3)
        )
        # Span (lo, hi] shrank below 8 tokens and stopped; the reported
        # position still upper-bounds the true first error.
        assert result.first_error_index >= 3
        assert len(result.probe_positions) <= 2

    def test_terminal_error_node_forced_mc_zero(self):
        q, chain, comp, cfg = make_setup(n_steps=8)
        engine = OmegaPRMEngine(q, comp, cfg)
        engine.seed_root()
        rollout = wrong_rollout_at(chain, 7)
        result = engine.locate_first_error(engine.tree.root, rollout)
        error_node = node_at(engine, rollout, result.first_error_index)
        assert error_node.mc == 0

    def test_preconditions(self):
        q, chain, comp, cfg = make_setup(n_steps=4)
        engine = OmegaPRMEngine(q, comp, cfg)
        engine.seed_root()
        good = Rollout(steps(*chain), "10", True)
        with pytest.raises(ValueError, match="correct final answer"):
            engine.locate_first_error(engine.tree.root, good)
        dead = TreeNode(state=State("q1", steps("zz")))
        dead.stats.add_rollouts([Rollout(steps("x"), "0", False)])
        with pytest.raises(ValueError, match="MC > 0"):
            engine.locate_first_error(dead, wrong_rollout_at(chain, 2))


class TestMaintenance:
    def test_visit_count_updates_selected_state_only(self):
        q, chain, comp, cfg = make_setup(error_prob=0.25, seed=5)
        engine = OmegaPRMEngine(q, comp, cfg)
        engine.seed_root()
        assert len(engine.pool) > 0
        selected, _ = engine.pool.entries[0]  # earliest entry wins at start
        others_before = {
            key: node.stats.visit_count
            for key, node in engine.tree.nodes.items()
            if node is not selected
        }
        assert engine.run_search()
        assert selected.stats.visit_count == 1
        for key, count in others_before.items():
            node = engine.tree.nodes[key]
            assert node.stats.visit_count == count

    def test_run_search_on_empty_pool_returns_false(self):
        q, chain, comp, cfg = make_setup()
        engine = OmegaPRMEngine(q, comp, cfg)
        assert not engine.run_search()
        assert engine.budget.searches_done == 0

    def test_search_counter_and_labels(self):
        q, chain, comp, cfg = make_setup(error_prob=0.25, seed=5)
        engine = OmegaPRMEngine(q, comp, cfg)
        engine.seed_root()
        assert engine.run_search()
        assert engine.budget.searches_done == 1
        assert engine.labels_produced >= 1


class TestBuild:
    @staticmethod
    def build(seed, error_prob=0.3, n_steps=8, limit=100):
        q, chain, comp, cfg = make_setup(n_steps=n_steps, error_prob=error_prob,
                                         seed=seed)
        cfg = EngineConfig(search_limit=limit,
                           step_split_target=cfg.step_split_target)
        engine = OmegaPRMEngine(q, comp, cfg)
        tree, budget = engine.build()
        return engine, tree, budget

    def test_respects_search_limit(self):
        engine, tree, budget = self.build(seed=1, limit=10)
        assert budget.searches_done <= 10

    def test_structural_invariants(self):
        # Seed 5 grows a tree; seeds 0-4 leave the root alone.
        engine, tree, budget = self.build(seed=5)
        assert len(tree.nodes) > 1
        for parent in tree.nodes.values():
            for child in parent.children:
                # Child prefix = parent prefix + action, token-for-token.
                assert child.state.key()[: len(parent.state.key())] == \
                    parent.state.key()
                action_tokens = tuple(
                    t for s in child.action_steps for t in s.text.split()
                )
                assert child.state.key() == parent.state.key() + action_tokens
        # MC of every node recomputes from its stored rollouts.
        for node in tree.nodes.values():
            if node.stats.rollouts:
                correct = sum(r.is_correct for r in node.stats.rollouts)
                assert node.mc == correct / len(node.stats.rollouts)

    def test_pool_membership_invariants(self):
        # The search limit stops seed 5 with entries left in the pool.
        engine, tree, budget = self.build(seed=5, limit=10)
        assert engine.pool.entries
        for node, rollout in engine.pool.entries:
            assert not rollout.is_correct
            assert node.mc is not None
            assert 0 < node.mc < 1

    def test_stepless_wrong_rollouts_are_never_searched(self):
        # The last rollout of every call comes back without steps, as a
        # remote completer pads a short reply. Its length is 0, so it
        # would win every selection if it entered the pool.
        q, chain, sim, cfg = make_setup(error_prob=0.1, seed=1)

        class ShortReplies:
            def sample_rollouts(self, request):
                rollouts = sim.sample_rollouts(request)
                return rollouts[:-1] + [Rollout([], "", False)]

        engine = OmegaPRMEngine(q, ShortReplies(), cfg)
        tree, budget = engine.build()
        assert budget.searches_done > 0
        assert all(rollout.steps for _, rollout in engine.pool.entries)

    def test_max_policy_calls_is_hard_cap(self):
        q, chain, comp, cfg = make_setup(error_prob=0.3, seed=4)
        engine = OmegaPRMEngine(q, comp, cfg, max_policy_calls=100)
        engine.build()
        assert engine.budget.policy_calls <= 100

    @settings(deadline=None, max_examples=10)
    @given(st.integers(0, 10_000))
    def test_seeded_build_determinism(self, seed):
        _, t1, b1 = self.build(seed=seed, limit=20)
        _, t2, b2 = self.build(seed=seed, limit=20)
        assert dump_tree(t1, b1) == dump_tree(t2, b2)


class TestAnnotatePerStep:
    def test_cost_is_k_per_step(self):
        q, chain, comp, cfg = make_setup(n_steps=8)
        counter = SampleCounter(comp)
        rollout = wrong_rollout_at(chain, 5)
        labels = annotate_per_step(counter, q, rollout, 8)
        assert counter.calls == 8 * 8
        assert [t for t, _ in labels] == list(range(1, 9))
        assert [mc for t, mc in labels] == [1] * 4 + [0] * 4

    def test_max_steps_cap(self):
        q, chain, comp, cfg = make_setup(n_steps=8)
        labels = annotate_per_step(comp, q, wrong_rollout_at(chain, 5), 4,
                                   max_steps=3)
        assert len(labels) == 3


    @pytest.mark.parametrize("mapped", ["threads", "reversed"])
    def test_mapped_requests_match_a_serial_run(self, mapped):
        # Each prefix is its own state, so the simulator answers it as in a
        # serial run whatever order the requests are sent in.
        q, chain, comp, cfg = make_setup(n_steps=8, error_prob=0.3, seed=5)
        rollout = wrong_rollout_at(chain, 7)
        serial_counter = SampleCounter(comp)
        serial = annotate_per_step(serial_counter, q, rollout, 4)
        comp.reset()
        counter = SampleCounter(comp)
        if mapped == "threads":
            with ThreadPoolExecutor(2) as pool:
                labels = annotate_per_step(counter, q, rollout, 4,
                                           map_states=pool.map)
        else:
            labels = annotate_per_step(
                counter, q, rollout, 4,
                map_states=lambda work, states: [
                    work(s) for s in states[::-1]][::-1])
        assert labels == serial
        assert [t for t, _ in labels] == list(range(1, 9))
        assert len({mc for _, mc in labels[:6]}) > 1  # noisy estimates
        assert counter.calls == serial_counter.calls == 4 * 8

def _edited(text, edit):
    """The tree text ``text`` with ``edit`` applied to its parsed document."""
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc, indent=2)


def _rollout_token_len_off_by_one(doc):
    """The last stored rollout's token_len no longer sums its steps."""
    [r for nd in doc["nodes"] for r in nd["rollouts"]][-1]["token_len"] += 1


def _stored_mc_seven(doc):
    """A node with rollouts stores 7/1, which no rollouts give."""
    nd = next(nd for nd in doc["nodes"] if nd["rollouts"])
    nd["mc_num"], nd["mc_den"] = 7, 1


def _forced_mc_zero_denominator(doc):
    """A node without rollouts stores its MC of 0 as 0/0."""
    next(nd for nd in doc["nodes"]
         if not nd["rollouts"] and nd["mc_num"] is not None)["mc_den"] = 0


def _root_id(doc):
    return next(nd["id"] for nd in doc["nodes"] if not nd["prefix_steps"])


def _duplicate_edge(doc):
    """A single-step edge is listed twice."""
    edges = doc["edges"]
    edges.append(dict(next(e for e in edges if len(e["action_steps"]) == 1)))


def _edge_into_root(doc):
    """The root's first child gets an edge back into the root."""
    edge = next(e for e in doc["edges"] if e["parent"] == _root_id(doc))
    doc["edges"].append(dict(edge, parent=edge["child"], child=edge["parent"]))


def _second_parent(doc):
    """A node two edges below the root is also linked under the root, by
    the action that spells its whole prefix."""
    root = _root_id(doc)
    child = next(e["child"] for e in doc["edges"] if e["parent"] != root)
    prefix = next(nd["prefix_steps"] for nd in doc["nodes"]
                  if nd["id"] == child)
    doc["edges"].append(
        {"parent": root, "child": child, "action_steps": prefix})


def _empty_action(doc):
    doc["edges"][-1]["action_steps"] = []


def _second_record(doc):
    """A second record of the last node's prefix, under a new id."""
    doc["nodes"].append(dict(doc["nodes"][-1], id=len(doc["nodes"])))


def _budget_str(doc):
    doc["budget"] = {"searches_done": "x", "policy_calls": "y"}


def _visit_count_str(doc):
    node = doc["nodes"][-1]
    node["visit_count"] = str(node["visit_count"])


def _visit_count_bool(doc):
    doc["nodes"][-1]["visit_count"] = True


def _threshold_str(doc):
    doc["threshold"] = "x"


def _threshold_nan(doc):
    doc["threshold"] = math.nan


def _reversed_edges(doc):
    """The edges listed last to first, which reverses each node's
    children."""
    doc["edges"].reverse()


def _shifted_ids(doc):
    """Every node id, and every edge's ids, 100 higher."""
    for nd in doc["nodes"]:
        nd["id"] += 100
    for ed in doc["edges"]:
        ed["parent"] += 100
        ed["child"] += 100


def _question_extra_key(doc):
    doc["question"]["extra"] = "x"


# Edits that leave a tree document parseable JSON but not a readable tree:
# its edges are not a tree, a count is not an int >= 0, or it is laid out
# otherwise than the writer lays it out.
TREE_DAMAGES = {
    "duplicate_edge": _duplicate_edge,
    "edge_into_root": _edge_into_root,
    "second_parent": _second_parent,
    "empty_action": _empty_action,
    "second_record": _second_record,
    "budget_str": _budget_str,
    "visit_count_str": _visit_count_str,
    "visit_count_bool": _visit_count_bool,
    "threshold_str": _threshold_str,
    "threshold_nan": _threshold_nan,
    "reversed_edges": _reversed_edges,
    "shifted_ids": _shifted_ids,
    "question_extra_key": _question_extra_key,
}


class TestSerialization:
    def test_round_trip_preserves_bytes(self):
        q, chain, comp, cfg = make_setup(error_prob=0.3, seed=6)
        tree, budget = build_tree(q, comp, cfg)
        text = dump_tree(tree, budget)
        tree2, budget2 = tree_from_dict(json.loads(text))
        assert dump_tree(tree2, budget2) == text
        assert budget2.policy_calls == budget.policy_calls

    def test_round_trip_preserves_statistics(self):
        q, chain, comp, cfg = make_setup(error_prob=0.3, seed=7)
        tree, budget = build_tree(q, comp, cfg)
        tree2, _ = tree_from_dict(json.loads(dump_tree(tree, budget)))
        assert set(tree2.nodes) == set(tree.nodes)
        for key, node in tree.nodes.items():
            other = tree2.nodes[key]
            assert other.mc == node.mc
            assert other.stats.visit_count == node.stats.visit_count
        assert tree2.threshold == tree.threshold

    def test_forced_mc_survives_round_trip(self):
        # An error at the final step is never probed (the span above it is a
        # single step), so its MC = 0 is recorded without rollouts.
        q, chain, comp, cfg = make_setup(n_steps=8)
        engine = OmegaPRMEngine(q, comp, cfg)
        engine.seed_root()
        rollout = wrong_rollout_at(chain, 8)
        result = engine.locate_first_error(engine.tree.root, rollout)
        error_node = node_at(engine, rollout, result.first_error_index)
        error_key = error_node.state.key()
        assert error_node.stats.forced_wrong and error_node.mc == 0
        tree2, _ = tree_from_dict(
            json.loads(dump_tree(engine.tree, engine.budget)))
        assert tree2.nodes[error_key].mc == 0
        assert not tree2.nodes[error_key].stats.rollouts

    def test_counts_give_what_exact_fractions_gave(self):
        # The stored fields and the MC are those of Fraction(c, t), which
        # the counts replace, for every 0 <= c <= t <= 256, so no tree,
        # example or pair changes by a byte.
        right = Rollout(steps("a"), "10", True)
        wrong = Rollout(steps("b"), "0", False)
        for c in range(257):
            stats = NodeStats()
            stats.add_rollouts([right] * c)
            for t in range(max(c, 1), 257):
                stats.add_rollouts([wrong] * (t - len(stats.rollouts)))
                exact = Fraction(c, t)
                assert _mc_fields(stats) == {"mc_num": exact.numerator,
                                             "mc_den": exact.denominator}
                assert type(stats.mc) is float and stats.mc == float(exact)
        forced = NodeStats()
        forced.forced_wrong = True
        assert _mc_fields(forced) == {"mc_num": 0, "mc_den": 1}
        assert type(forced.mc) is float and forced.mc == float(Fraction(0))
        assert _mc_fields(NodeStats()) == {"mc_num": None, "mc_den": None}
        assert NodeStats().mc is None


def reference_tree_dict(tree, budget):
    """The nested-dict form of a tree; schema v1 is this dict as written by
    ``json.dumps(..., indent=2)``. The oracle for ``dump_tree``."""
    def step(s):
        return {"text": s.text, "token_len": s.token_len}

    ids = {key: i for i, key in enumerate(tree.nodes)}
    nodes = []
    edges = []
    for key, node in tree.nodes.items():
        rollouts = node.stats.rollouts
        mc = (Fraction(sum(r.is_correct for r in rollouts), len(rollouts))
              if rollouts else Fraction(0) if node.stats.forced_wrong
              else None)
        nodes.append({
            "id": ids[key],
            "prefix_steps": [step(s) for s in node.state.prefix_steps],
            "visit_count": node.stats.visit_count,
            "mc_num": mc.numerator if mc is not None else None,
            "mc_den": mc.denominator if mc is not None else None,
            "rollouts": [{
                "steps": [step(s) for s in r.steps],
                "final_answer": r.final_answer,
                "is_correct": r.is_correct,
                "token_len": r.token_len,
            } for r in node.stats.rollouts],
        })
        for child in node.children:
            edges.append({
                "parent": ids[key],
                "child": ids[child.state.key()],
                "action_steps": [step(s) for s in child.action_steps],
            })
    return {
        "schema_version": 1,
        "question": {
            "id": tree.question.id,
            "statement": tree.question.statement,
            "golden_answer": tree.question.golden_answer,
        },
        "avg_solution_tokens": tree.avg_solution_tokens,
        "threshold": tree.threshold,
        "nodes": nodes,
        "edges": edges,
        "budget": {
            "searches_done": budget.searches_done,
            "policy_calls": budget.policy_calls,
        },
    }


# Texts with quotes, backslashes, control characters, non-ASCII and
# astral characters, which JSON must escape.
_odd_texts = st.text(
    alphabet=st.one_of(st.sampled_from('"\\\n\t\x00\x1f\x7f é€😀\u2028'),
                       st.characters()),
    min_size=1, max_size=6,
)


@st.composite
def odd_trees(draw):
    question = Question(draw(_odd_texts), draw(st.text(max_size=6)),
                        draw(_odd_texts))
    tree = Tree(question)
    step = st.builds(Step, _odd_texts, st.integers(0, 10**12))
    nodes = [tree.root]
    for _ in range(draw(st.integers(0, 4))):
        parent = draw(st.sampled_from(nodes))
        action = tuple(draw(st.lists(step, min_size=1, max_size=3)))
        nodes.append(tree.ensure_child(
            parent, action, state_transition(parent.state, action)))
    for node in tree.nodes.values():
        node.stats.visit_count = draw(st.integers(0, 10**12))
        for _ in range(draw(st.integers(0, 2))):
            steps = tuple(draw(st.lists(step, max_size=3)))
            node.stats.add_rollouts([Rollout(
                steps=steps,
                final_answer=draw(st.one_of(st.just(""), _odd_texts)),
                is_correct=draw(st.booleans()),
            )])
        if not node.stats.rollouts:
            node.stats.forced_wrong = draw(st.booleans())
    tree.avg_solution_tokens = draw(st.floats())
    tree.threshold = draw(st.floats())
    budget = draw(st.builds(
        SearchBudget, st.integers(0, 10**6), st.integers(0, 10**9)))
    return tree, budget


class TestTreeWriter:
    @settings(deadline=None, max_examples=150)
    @given(odd_trees())
    def test_dump_equals_reference_json(self, tree_and_budget):
        tree, budget = tree_and_budget
        assert dump_tree(tree, budget) == json.dumps(
            reference_tree_dict(tree, budget), indent=2)

    def test_saved_built_trees_equal_reference_json(self, tmp_path):
        for seed in range(4):
            q, chain, comp, cfg = make_setup(error_prob=0.3, seed=seed,
                                             tokens_per_step=2)
            tree, budget = build_tree(q, comp, cfg)
            path = tmp_path / f"{seed}.json"
            save_tree(tree, path, budget)
            assert path.read_text(encoding="utf-8") == json.dumps(
                reference_tree_dict(tree, budget), indent=2) + "\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            [f"{seed}.json" for seed in range(4)]

    def test_load_keeps_one_step_per_value(self, tmp_path):
        q, chain, comp, cfg = make_setup(error_prob=0.3, seed=2)
        tree, budget = build_tree(q, comp, cfg)
        save_tree(tree, tmp_path / "t.json", budget)
        loaded, _ = load_tree(tmp_path / "t.json")
        found = {}
        for node in loaded.nodes.values():
            every = list(node.state.prefix_steps)
            every += [s for r in node.stats.rollouts for s in r.steps]
            every += [s for child in node.children for s in child.action_steps]
            for s in every:
                assert found.setdefault(s, s) is s

    @pytest.mark.parametrize("damage", [
        lambda text: text[: len(text) // 2],
        lambda text: "",
        lambda text: text.replace('"schema_version": 1', '"schema_version": 2'),
        lambda text: "[1, 2]",
        lambda text: text.replace('"nodes"', '"nodez"'),
        lambda text: text.replace('"budget"', '"budgets"'),
        lambda text: _edited(text, _rollout_token_len_off_by_one),
        *(pytest.param(partial(_edited, edit=edit), id=name)
          for name, edit in TREE_DAMAGES.items()),
    ])
    def test_unreadable_tree_raises_parse_error(self, tmp_path, damage):
        # Seed 5 grows a tree, so a cut lands among its nodes and edges and
        # the last stored rollout belongs to a node below the root.
        q, chain, comp, cfg = make_setup(error_prob=0.3, seed=5)
        tree, budget = build_tree(q, comp, cfg)
        below_root = list(tree.nodes.values())[1:]
        assert tree.root.children and any(n.stats.rollouts for n in below_root)
        path = tmp_path / "t.json"
        save_tree(tree, path, budget)
        path.write_text(damage(path.read_text()))
        with pytest.raises(ParseError):
            load_tree(path)

    @pytest.mark.parametrize("edit", [
        _stored_mc_seven, _forced_mc_zero_denominator])
    def test_stored_mc_other_than_the_nodes_raises_parse_error(self, tmp_path,
                                                              edit):
        # Seed 5 builds a tree with forced-MC nodes, which have no rollouts.
        q, chain, comp, cfg = make_setup(error_prob=0.3, seed=5)
        tree, budget = build_tree(q, comp, cfg)
        path = tmp_path / "t.json"
        save_tree(tree, path, budget)
        path.write_text(_edited(path.read_text(), edit))
        with pytest.raises(ParseError, match="stored MC"):
            load_tree(path)
