"""The search engine: Monte Carlo estimation, binary-search error location,
PUCT-style rollout selection, statistics maintenance, and tree construction.

One engine instance builds the state-action tree for a single question.
The tree and pool have a single writer; determinism comes from the
completer's seeded RNG streams plus the engine's deterministic tie-breaks.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import partial
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .core import (
    EngineConfig,
    Question,
    Rollout,
    State,
    Step,
    TreeNode,
    open_replacing,
    state_transition,
)
from .errors import ParseError
from .policy import Completer, CompleterRequest


def rollout_value(mc, rollout_token_len, cfg: EngineConfig) -> float:
    """Value of a (state, rollout) pair: alpha^(1-MC) * beta^(len/L).

    Increasing in MC (supposed-to-be-correct states first) and decreasing
    in rollout length (length penalty).
    """
    return cfg.alpha ** (1.0 - float(mc)) * cfg.beta ** (
        rollout_token_len / cfg.len_scale_L
    )


def exploration_bonus(state_visits, total_pool_visits, cfg: EngineConfig) -> float:
    """PUCT-style exploration term: c_puct * sqrt(sum N) / (1 + N(s))."""
    return cfg.c_puct * math.sqrt(total_pool_visits) / (1.0 + state_visits)


@dataclass
class SearchBudget:
    searches_done: int = 0
    policy_calls: int = 0


class RolloutPool:
    """Wrong-answer rollouts attached to states with 0 < MC < 1.

    Duplicate (state, rollout text) pairs are rejected so repeated sampling
    of an identical completion cannot trigger redundant searches, and so
    is a rollout without steps (a short or empty remote completion), which
    has nothing to bisect.
    """

    def __init__(self):
        self.entries = []
        self._seen = set()

    def __len__(self):
        return len(self.entries)

    def add(self, node: TreeNode, rollout: Rollout) -> bool:
        if rollout.is_correct or not rollout.steps:
            return False
        mc = node.mc
        if mc is None or not (0 < mc < 1):
            return False
        key = (node.state.key(), rollout.text, rollout.final_answer)
        if key in self._seen:
            return False
        self._seen.add(key)
        self.entries.append((node, rollout))
        return True

    def select(self, cfg: EngineConfig) -> tuple:
        """Pop the (node, rollout) maximizing Q(s, r) + U(s), the earliest on
        ties. An empty pool raises IndexError, as ``list.pop`` does."""
        states = {node.state.key(): node for node, _ in self.entries}
        total = sum(node.stats.visit_count for node in states.values())
        best_idx = 0
        best_score = -math.inf
        for idx, (node, rollout) in enumerate(self.entries):
            q = rollout_value(node.mc, rollout.token_len, cfg)
            u = exploration_bonus(node.stats.visit_count, total, cfg)
            score = q + u
            if score > best_score:
                best_score = score
                best_idx = idx
        return self.entries.pop(best_idx)


class Tree:
    """State-action tree for one question, with nodes merged by prefix."""

    def __init__(self, question: Question):
        self.question = question
        self.root = TreeNode(state=State(question_id=question.id))
        self.nodes = {self.root.state.key(): self.root}
        self.avg_solution_tokens = 0.0
        self.threshold = 0.0

    def ensure_child(self, parent: TreeNode, action_steps, child_state: State):
        """The node of ``child_state``, made and linked under ``parent`` by
        ``action_steps`` if new; a known prefix keeps its first parent."""
        key = child_state.key()
        child = self.nodes.get(key)
        if child is None:
            child = self.nodes[key] = TreeNode(state=child_state)
            child.action_steps = tuple(action_steps)
            parent.children.append(child)
        return child


@dataclass
class SearchResult:
    first_error_index: int
    probe_positions: list
    rollouts_spent: int


class BudgetExhausted(Exception):
    """Internal: the engine hit its policy-call cap (benchmark mode)."""


def monte_carlo_estimate(completer: Completer, state: State, k: int,
                         budget: SearchBudget):
    """Sample k rollouts from ``state``, count them in ``budget``, and
    return (MC, rollouts).

    MC is the exact fraction of rollouts whose final answer matched the
    golden answer.
    """
    rollouts = completer.sample_rollouts(
        CompleterRequest(state=state, n_samples=k)
    )
    budget.policy_calls += k
    correct = sum(1 for r in rollouts if r.is_correct)
    return Fraction(correct, k), rollouts


class OmegaPRMEngine:
    """Builds the state-action tree for one question."""

    def __init__(self, question: Question, completer: Completer,
                 cfg: EngineConfig, max_policy_calls=None):
        self.completer = completer
        self.cfg = cfg
        self.max_policy_calls = max_policy_calls
        self.tree = Tree(question)
        self.pool = RolloutPool()
        self.budget = SearchBudget()
        # Per-step supervision labels certified by completed searches: each
        # search annotates its rollout up to the located first error.
        self.labels_produced = 0

    # -- sampling ----------------------------------------------------------

    def _sample(self, state: State, n: int):
        if (self.max_policy_calls is not None
                and self.budget.policy_calls + n > self.max_policy_calls):
            raise BudgetExhausted
        return monte_carlo_estimate(self.completer, state, n, self.budget)

    # -- root seeding ------------------------------------------------------

    def seed_root(self):
        root = self.tree.root
        _, rollouts = self._sample(root.state, self.cfg.k_rollouts)
        root.stats.add_rollouts(rollouts)
        self.tree.avg_solution_tokens = sum(
            r.token_len for r in rollouts
        ) / len(rollouts)
        self.tree.threshold = (
            self.tree.avg_solution_tokens / self.cfg.step_split_target
        )
        for r in rollouts:
            self.pool.add(root, r)

    # -- binary search -----------------------------------------------------

    @staticmethod
    def _split_point(cum, lo, hi):
        """Interior step boundary nearest the token midpoint of (lo, hi];
        left-biased on ties."""
        mid = (cum[lo] + cum[hi]) / 2.0
        best = lo + 1
        best_dist = abs(cum[best] - mid)
        for j in range(lo + 2, hi):
            dist = abs(cum[j] - mid)
            if dist < best_dist:
                best, best_dist = j, dist
        return best

    def locate_first_error(self, node: TreeNode, rollout: Rollout) -> SearchResult:
        """Bisect the rollout to its first error, growing the tree.

        Maintains the invariant that the prefix through ``lo`` is verified
        correct (MC > 0) and the prefix through ``hi`` is known wrong.
        Probed prefixes with MC > 0 become chained tree nodes; ones with
        0 < MC < 1 feed their wrong rollouts to the pool. Stops once the
        unverified span is a single step or shorter than the tree's
        step-length threshold. ``BudgetExhausted`` and
        ``CompleterUnavailable`` propagate; the nodes already probed stay in
        the tree, since their statistics are valid.
        """
        if rollout.is_correct:
            raise ValueError("rollout has a correct final answer")
        if node.mc is None or node.mc <= 0:
            raise ValueError("search target state must have MC > 0")
        if not rollout.steps:
            raise ValueError("rollout has no steps to search")

        steps = rollout.steps
        cum = [0]
        for s in steps:
            cum.append(cum[-1] + s.token_len)
        lo, hi = 0, len(steps)
        probes = []
        spent_before = self.budget.policy_calls
        prev_node, prev_pos = node, 0
        error_rollouts = ()

        while hi - lo > 1 and (cum[hi] - cum[lo]) >= self.tree.threshold:
            m = self._split_point(cum, lo, hi)
            prefix_state = state_transition(node.state, steps[:m])
            existing = self.tree.nodes.get(prefix_state.key())
            if existing is not None and existing.mc is not None:
                mc, new_rollouts = existing.mc, []
            else:
                mc, new_rollouts = self._sample(
                    prefix_state, self.cfg.k_rollouts
                )
            probes.append(m)
            if mc > 0:
                probe_node = self.tree.ensure_child(
                    prev_node, steps[prev_pos:m], prefix_state
                )
                probe_node.stats.add_rollouts(new_rollouts)
                for r in new_rollouts:
                    self.pool.add(probe_node, r)
                prev_node, prev_pos = probe_node, m
                lo = m
            else:
                error_rollouts = new_rollouts
                hi = m

        error_state = state_transition(node.state, steps[:hi])
        error_node = self.tree.ensure_child(
            prev_node, steps[prev_pos:hi], error_state
        )
        error_node.stats.add_rollouts(error_rollouts)
        if error_node.mc is None:
            # Terminal wrong end, never probed: its answer is wrong, MC = 0.
            error_node.stats.forced_wrong = True
        return SearchResult(
            first_error_index=hi,
            probe_positions=probes,
            rollouts_spent=self.budget.policy_calls - spent_before,
        )

    # -- main loop ---------------------------------------------------------

    def run_search(self) -> bool:
        """One select -> binary search -> maintain iteration.

        Returns False when the pool is exhausted. A search aborted by
        ``CompleterUnavailable`` propagates and does not count against the
        search limit; its probed statistics are kept.
        """
        if not self.pool:
            return False
        node, rollout = self.pool.select(self.cfg)
        result = self.locate_first_error(node, rollout)
        node.stats.visit_count += 1
        self.budget.searches_done += 1
        self.labels_produced += (
            len(node.state.prefix_steps) + result.first_error_index
        )
        return True

    def build(self):
        """Seed the root, then iterate searches until limit or pool empty."""
        try:
            self.seed_root()
            while self.budget.searches_done < self.cfg.search_limit:
                if not self.run_search():
                    break
        except BudgetExhausted:
            pass
        return self.tree, self.budget


def build_tree(question: Question, completer: Completer, cfg: EngineConfig):
    return OmegaPRMEngine(question, completer, cfg).build()


# -- brute-force baseline (per-step annotation) ----------------------------

def _prefix_mc(completer: Completer, k: int, state: State):
    """The MC of ``state`` from k rollouts, counted in no budget."""
    return monte_carlo_estimate(completer, state, k, SearchBudget())[0]


def annotate_per_step(completer: Completer, question: Question,
                      rollout: Rollout, k: int, budget: SearchBudget,
                      max_steps=None, map_states=map):
    """Math-Shepherd-style annotation: the MC of every step prefix.

    Returns a list of (step_index, MC) pairs in step order; costs exactly k
    rollouts per annotated step, counted in ``budget`` once all are in.
    Used as the brute-force arm of the efficiency benchmark and as the
    exhaustive oracle in tests.

    ``map_states(work, states)`` runs ``work`` on each prefix state and
    returns the results in state order, so the requests may overlap. Each
    prefix is one ``sample_rollouts`` call, and no two prefixes of a
    rollout whose steps hold a token each are the same state, so a
    completer whose reply depends on the state and on the calls for it
    before answers each call as it would in a serial run.
    """
    root = State(question_id=question.id)
    n = len(rollout.steps)
    if max_steps is not None:
        n = min(n, max_steps)
    states = [state_transition(root, rollout.steps[:t])
              for t in range(1, n + 1)]
    mcs = list(map_states(partial(_prefix_mc, completer, k), states))
    budget.policy_calls += k * n
    return list(enumerate(mcs, start=1))


# -- serialization ---------------------------------------------------------

SCHEMA_VERSION = 1


def _mc_fields(mc) -> dict:
    """The stored fields of a node's MC: both null for a node without one."""
    return {"mc_num": getattr(mc, "numerator", None),
            "mc_den": getattr(mc, "denominator", None)}


def tree_doc(tree: Tree, budget: SearchBudget) -> dict:
    """The schema-v1 document of ``tree`` and its budget, the inverse of
    ``tree_from_dict``. Each step sequence stays the tuple of its
    ``Step``s; a file spells a step as ``{"text", "token_len"}``."""
    ids = {key: i for i, key in enumerate(tree.nodes)}
    return {
        "schema_version": SCHEMA_VERSION,
        "question": asdict(tree.question),
        "avg_solution_tokens": tree.avg_solution_tokens,
        "threshold": tree.threshold,
        "nodes": [{
            "id": i,
            "prefix_steps": node.state.prefix_steps,
            "visit_count": node.stats.visit_count,
            **_mc_fields(node.mc),
            "rollouts": [{
                "steps": r.steps,
                "final_answer": r.final_answer,
                "is_correct": r.is_correct,
                "token_len": r.token_len,
            } for r in node.stats.rollouts],
        } for i, node in enumerate(tree.nodes.values())],
        "edges": [{
            "parent": ids[key],
            "child": ids[child.state.key()],
            "action_steps": child.action_steps,
        } for key, node in tree.nodes.items() for child in node.children],
        "budget": asdict(budget),
    }


# How ``json.dumps`` spells a value of each scalar type.
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: json.dumps,  # NaN and infinities as json spells them
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _render(value, depth, steps) -> str:
    """``value`` spelled as ``json.dumps(value, indent=2)`` spells it at
    nesting ``depth``. A tuple is a sequence of ``Step``s, each spelled once
    per depth through ``steps``, a dict of depth -> ``_StepFragments``."""
    spell = _SCALARS.get(type(value))
    if spell is not None:
        return spell(value)
    outer = "\n" + "  " * depth
    inner = outer + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{encode_basestring_ascii(key)}: "
                 f"{_render(item, depth + 1, steps)}"
                 for key, item in value.items()]
        return f"{{{inner}{(',' + inner).join(items)}{outer}}}"
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"not a JSON value: {value!r}")
    if not value:
        return "[]"
    if isinstance(value, tuple):
        memo = steps.get(depth + 1)
        if memo is None:
            memo = steps[depth + 1] = _StepFragments(depth + 1)
        items = [memo[s] for s in value]
    else:
        items = [_render(item, depth + 1, steps) for item in value]
    return f"[{inner}{(',' + inner).join(items)}{outer}]"


class _StepFragments(dict):
    """Step -> its ``{"text", "token_len"}`` object rendered at one depth,
    filled on first use."""

    def __init__(self, depth):
        super().__init__()
        self.depth = depth

    def __missing__(self, step):
        text = self[step] = _render(
            {"text": step.text, "token_len": step.token_len}, self.depth, None)
        return text


def dump_tree(tree: Tree, budget: SearchBudget) -> str:
    """The schema-v1 text of ``tree``: ``json.dumps(tree_doc(tree, budget),
    indent=2)``, each ``Step`` in it spelled as ``{"text", "token_len"}``."""
    return _render(tree_doc(tree, budget), 0, {})


def save_tree(tree: Tree, path, budget: SearchBudget):
    """Write ``tree`` to ``path`` through a temporary file, so ``path``
    holds either its previous content or the whole new tree."""
    with open_replacing(path) as fh:
        fh.write(dump_tree(tree, budget))
        fh.write("\n")


# A step dict's (text, token_len).
_SPELLING = itemgetter("text", "token_len")


class _Steps(dict):
    """(text, token_len) -> the one ``Step`` of that value, made on first
    use, so a tree's equal steps are one object."""

    def __missing__(self, key):
        step = self[key] = Step(*key)
        return step


def tree_from_dict(doc):
    """Rebuild a tree and its budget from a parsed schema-v1 file. Raises
    ``ValueError`` for another version, a rollout ``token_len`` other than
    its steps' sum, an MC other than ``tree_doc`` writes, a count not an
    ``int`` >= 0, and records that are not one tree (two of a prefix, or a
    node below the root without one edge that extends its parent to it)."""
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ValueError(
            f"schema_version {doc['schema_version']!r}, "
            f"expected {SCHEMA_VERSION}"
        )
    interned = _Steps().__getitem__

    def steps(dicts):
        """The tuple of the interned ``Step``s that the step dicts spell."""
        return tuple(map(interned, map(_SPELLING, dicts)))

    q = doc["question"]
    question = Question(
        id=q["id"], statement=q["statement"], golden_answer=q["golden_answer"]
    )
    tree = Tree(question)
    tree.avg_solution_tokens = doc["avg_solution_tokens"]
    tree.threshold = doc["threshold"]
    by_id = {}
    for nd in doc["nodes"]:
        prefix = steps(nd["prefix_steps"])
        node = TreeNode(State(question.id, prefix)) if prefix else tree.root
        tree.nodes[node.state.key()] = node
        rollouts = []
        for d in nd["rollouts"]:
            rollout = Rollout(steps(d["steps"]), d["final_answer"],
                              d["is_correct"])
            if rollout.token_len != d["token_len"]:
                raise ValueError(f"rollout token_len {d['token_len']!r}, but "
                                 f"its steps sum to {rollout.token_len}")
            rollouts.append(rollout)
        stats = node.stats
        stats.visit_count = nd["visit_count"]
        stats.add_rollouts(rollouts)
        # A zero MC without rollouts is the only MC a search forces.
        stats.forced_wrong = not rollouts and nd["mc_num"] is not None
        written = _mc_fields(stats.mc)
        if any(type(nd[k]) is not type(v) or nd[k] != v
               for k, v in written.items()):
            raise ValueError(f"stored MC {nd['mc_num']!r}/{nd['mc_den']!r}, "
                             f"expected {written['mc_num']!r}/"
                             f"{written['mc_den']!r}")
        by_id[nd["id"]] = node
    for ed in doc["edges"]:
        parent, child = by_id[ed["parent"]], by_id[ed["child"]]
        action = steps(ed["action_steps"])
        if (not action or child.action_steps or
                parent.state.prefix_steps + action != child.state.prefix_steps):
            raise ValueError(f"edge {ed['parent']!r} -> {ed['child']!r} is "
                             f"not the one edge into its child")
        child.action_steps = action
        parent.children.append(child)
    # Two records of a prefix, or a node below the root without a parent.
    if not len(doc["nodes"]) == len(tree.nodes) == len(doc["edges"]) + 1:
        raise ValueError("the node records and edges are not one tree")
    budget = SearchBudget(**doc["budget"])
    counts = [*asdict(budget).values(),
              *(node.stats.visit_count for node in tree.nodes.values())]
    if any(type(n) is not int or n < 0 for n in counts):  # a bool is no count
        raise ValueError("a budget field or visit count is not an int >= 0")
    return tree, budget


def load_tree(path):
    """Read the tree file at ``path``. Raises ``ParseError`` when the file
    is not a whole schema-v1 tree: truncated, malformed, of another
    version, without a budget, or failing a check of ``tree_from_dict``."""
    with open(path, encoding="utf-8") as fh:
        try:
            return tree_from_dict(json.load(fh))
        except (ValueError, KeyError, TypeError) as exc:
            raise ParseError(f"not a readable tree ({exc})") from exc
