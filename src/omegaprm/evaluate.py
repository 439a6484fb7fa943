"""Weighted self-consistency decoding and the efficiency benchmark."""
from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from .core import EngineConfig, Question, State, open_replacing
from .dataset import tree_to_examples
from .errors import CompleterUnavailable
from .mcts import (
    OmegaPRMEngine,
    SearchBudget,
    annotate_per_step,
    monte_carlo_estimate,
)
from .policy import CompleterRequest, answer_key, answers_equivalent
from .prm import ToyPrmModel, score_solution


@dataclass
class EvalSettings:
    """The ``eval`` section; ``pool_size`` defaults to max(k_max, 64)."""

    k_max: int = 16
    n_resamples: int = 100
    pool_size: Optional[int] = None

    def __post_init__(self):
        if self.pool_size is None:
            self.pool_size = max(self.k_max, 64)
        if not 1 <= self.k_max <= self.pool_size or self.n_resamples < 1:
            raise ValueError("need 1 <= k_max <= pool_size and "
                             "n_resamples >= 1")


@dataclass
class CandidateSolution:
    final_answer: str
    aggregate_score: Optional[float] = None


@dataclass
class EvalReport:
    method: str  # "majority" or "prm_weighted"
    ks: list
    accuracy_mean: list
    accuracy_std: list
    n_resamples: int
    per_question: list  # per-question accuracy at the largest k
    config: dict = field(default_factory=dict)

    def write_csv(self, path):
        with open_replacing(path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k", "accuracy_mean", "accuracy_std"])
            for k, mean, std in zip(self.ks, self.accuracy_mean, self.accuracy_std):
                writer.writerow([k, mean, std])


class _Pool:
    """One sampled pool's vote tables, computed once. Each candidate's class
    numbers its ``answer_key`` in order of first appearance; per class, the
    first answer and whether it matches the golden answer (an empty golden
    answer matches none); per candidate, its vote: its aggregate score when
    ``weighted``, else 1."""

    def __init__(self, candidates, weighted: bool, golden_answer: str = ""):
        import numpy as np

        votes = [cand.aggregate_score if weighted else 1.0
                 for cand in candidates]
        if None in votes:
            raise ValueError("weighted voting requires aggregate scores")
        index = {}
        self.answers = []  # per class: its first answer
        classes = []  # per candidate: its class
        for cand in candidates:
            c = index.setdefault(answer_key(cand.final_answer), len(index))
            if c == len(self.answers):
                self.answers.append(cand.final_answer)
            classes.append(c)
        self.classes = np.array(classes, dtype=np.intp)
        self.weights = np.array(votes, dtype=float)
        self.golden = np.array(
            [answers_equivalent(a, golden_answer) for a in self.answers],
            dtype=bool)

    def vote(self, subsets):
        """The winning class of the vote over each row of ``subsets``, an
        R×k array of pool indices in pool order. A class scores the sum of
        its members' votes, added in row order; the top score wins, and a
        tie goes to the class whose first member comes first in the row."""
        import numpy as np

        n_rows, n_classes = len(subsets), len(self.answers)
        ids = self.classes[subsets]
        scores = np.bincount(
            (ids + n_classes * np.arange(n_rows)[:, None]).ravel(),
            weights=self.weights[subsets].ravel(),
            minlength=n_rows * n_classes,
        ).reshape(n_rows, n_classes)
        # The first position holding a top-scoring class.
        first = np.take_along_axis(scores, ids, axis=1).argmax(axis=1)
        return ids[np.arange(n_rows), first]


def weighted_vote(candidates, weighted: bool) -> str:
    """The answer of the winning class of ``_Pool.vote`` over all of
    ``candidates`` in list order: its first member's answer.

    Candidates with equivalent answers (equal ``answer_key``) form a class,
    scored by the sum of aggregate scores (weighted) or the count
    (unweighted); ties go to the class whose first member came earliest.
    """
    import numpy as np

    if not candidates:
        raise ValueError("weighted_vote requires at least one candidate")
    pool = _Pool(candidates, weighted)
    return pool.answers[pool.vote(np.arange(len(candidates))[None])[0]]


def sample_candidates(question: Question, completer, pool_size: int,
                      model: Optional[ToyPrmModel] = None):
    """Sample a fixed pool of full solutions from the question root."""
    rollouts = completer.sample_rollouts(CompleterRequest(
        state=State(question_id=question.id),
        n_samples=pool_size,
    ))
    step_cache = {}  # shared by the pool's solutions, dropped with the pool
    candidates = []
    for r in rollouts:
        score = None
        if model is not None and r.steps:
            score = score_solution(model, [s.text for s in r.steps],
                                   cache=step_cache)
        elif model is not None:
            score = 0.0  # empty completion: no evidence of correctness
        candidates.append(CandidateSolution(r.final_answer, score))
    return candidates


def _k_schedule(k_max: int):
    ks = []
    k = 1
    while k < k_max:
        ks.append(k)
        k *= 2
    ks.append(k_max)
    return ks


def _question_pool(completer, pool_size: int, model, question):
    """The ``_Pool`` of ``question``'s sampled candidates, scored by
    ``model`` when one is given, or None when the completer is
    unavailable."""
    try:
        candidates = sample_candidates(question, completer, pool_size, model)
    except CompleterUnavailable:
        return None
    return _Pool(candidates, model is not None, question.golden_answer)


def accuracy_curve(questions, completer, model, settings: EvalSettings,
                   seed: int = 0, map_questions=map) -> dict:
    """Majority and PRM-weighted voting accuracy against the number of
    sampled solutions, as ``{"majority": EvalReport, "prm_weighted":
    EvalReport}``.

    After a ``completer.reset()``, each method samples one fixed pool of
    ``settings.pool_size`` solutions per question, scored by ``model`` for
    the weighted one. A question whose pool fails for either method is
    skipped by both and listed in both reports' ``skipped``. Per k,
    accuracy is averaged over seeded random subsets of size k, each drawn
    once and voted by both methods; subsets keep pool order so the vote
    tie-break is stable, and k = pool size has zero resampling freedom.

    ``map_questions(work, questions)`` samples one method's pools and
    returns them in question order. Each pool is one ``sample_rollouts``
    call on its question's root, a state no other question shares, so the
    pools may be sampled in any order, or at once, from a completer whose
    reply depends on the state and on the calls for it before.

    Every subset is voted as ``weighted_vote`` votes it in pool order: on
    answer classes computed once per pool, per (question, k) in numpy, all
    resamples at once. A voted class counts as correct when its first
    answer in the pool matches the golden answer; every member's would.
    """
    import numpy as np

    k_max, pool_size = settings.k_max, settings.pool_size
    scorers = {"majority": None, "prm_weighted": model}
    # Per method and question index: the pool's vote tables. The weighted
    # pass samples only the questions the majority pass could.
    tables = {}
    usable = list(range(len(questions)))
    for method, scorer in scorers.items():
        completer.reset()
        tables[method] = dict(zip(usable, map_questions(
            partial(_question_pool, completer, pool_size, scorer),
            [questions[i] for i in usable])))
        usable = [i for i in usable if tables[method][i] is not None]

    rng = random.Random(seed)
    ks = _k_schedule(k_max)
    accs = {method: [] for method in scorers}  # per k: one per resample
    for k in ks:
        n_runs = 1 if k == pool_size else settings.n_resamples
        # subsets[r, q]: resample r's subset for usable question q, drawn
        # in resample then question order, in the narrowest index dtype.
        subsets = np.empty((n_runs, len(usable), k),
                           dtype=np.min_scalar_type(pool_size))
        for r in range(n_runs):
            for q in range(len(usable)):
                subsets[r, q] = (range(pool_size) if k == pool_size
                                 else sorted(rng.sample(range(pool_size), k)))
        hits = {}
        for method, table in tables.items():
            hits[method] = np.zeros((n_runs, len(usable)), dtype=bool)
            for q, i in enumerate(usable):
                pool = table[i]
                hits[method][:, q] = pool.golden[pool.vote(subsets[:, q])]
            accs[method].append([int(n) / len(usable) if usable else 0.0
                                 for n in hits[method].sum(axis=1)])
    skipped = [q.id for i, q in enumerate(questions) if i not in usable]
    reports = {}
    for method, per_k in accs.items():
        means = [sum(runs) / len(runs) for runs in per_k]
        stds = [(sum((a - mean) ** 2 for a in runs) / (len(runs) - 1)) ** 0.5
                if len(runs) > 1 else 0.0 for runs, mean in zip(per_k, means)]
        reports[method] = EvalReport(
            method=method,
            ks=ks,
            accuracy_mean=means,
            accuracy_std=stds,
            n_resamples=settings.n_resamples,
            # The last subset vote at the largest k.
            per_question=[{"question_id": questions[i].id, "correct": bool(ok)}
                          for i, ok in zip(usable, hits[method][-1])],
            config={"k_max": k_max, "pool_size": pool_size, "seed": seed,
                    "skipped": list(skipped)},
        )
    return reports


def _brute_force_arm(questions, completer, cfg: EngineConfig, budget: int,
                     map_states):
    """Per-step Monte Carlo annotation: sample a solution and run k rollouts
    for every step prefix (one example per annotated step), question after
    question, until ``budget`` policy calls are spent. ``map_states`` maps
    one solution's prefix requests (see ``annotate_per_step``); each
    solution is annotated to its end before the next one is sampled.
    Returns (policy calls, examples)."""
    completer.reset()
    spent = SearchBudget()
    examples = 0
    idx = 0
    while questions and spent.policy_calls + 1 + cfg.k_rollouts <= budget:
        question = questions[idx % len(questions)]
        idx += 1
        root = State(question_id=question.id)
        _, sols = monte_carlo_estimate(completer, root, 1, spent)
        solution = sols[0]
        if not solution.steps:
            continue
        affordable = (budget - spent.policy_calls) // cfg.k_rollouts
        labels = annotate_per_step(
            completer, question, solution, cfg.k_rollouts,
            budget=spent, max_steps=affordable, map_states=map_states,
        )
        examples += len(labels)
    return spent.policy_calls, examples


def _search_arm(questions, completer, cfg: EngineConfig, budget: int):
    """Tree construction under the same cap. Each completed search annotates
    its rollout up to the located first error, so it certifies one per-step
    label for every step through that error. Returns (policy calls,
    examples, single-step edges)."""
    completer.reset()
    calls = examples = single_step_edges = 0
    for question in questions:
        remaining = budget - calls
        if remaining < cfg.k_rollouts:
            break
        engine = OmegaPRMEngine(
            question, completer, cfg, max_policy_calls=remaining
        )
        tree, tree_budget = engine.build()
        calls += tree_budget.policy_calls
        examples += engine.labels_produced
        single_step_edges += len(tree_to_examples(tree))
    return calls, examples, single_step_edges


def _run_arm(questions, completer, cfg: EngineConfig, budget: int, arm):
    """``arm(questions, completer, cfg, budget)``: the arm comes last, so a
    ``partial`` of the rest maps over the arms, in a worker too."""
    return arm(questions, completer, cfg, budget)


def efficiency_benchmark(questions, completer, cfg: EngineConfig,
                         budget: int, map_arms, map_states=map) -> dict:
    """Compare examples-per-policy-call of per-step annotation vs the
    tree search, under the same total rollout budget.

    ``map_arms(work, arms)`` runs ``work`` on each arm and returns the
    results in arm order; each arm starts with ``completer.reset()``, so
    the arms are independent. ``map_states`` maps the per-step arm's
    requests for the prefixes of one solution.
    """
    arms = (partial(_brute_force_arm, map_states=map_states), _search_arm)
    (brute_calls, brute_examples), (omega_calls, omega_examples, edges) = (
        map_arms(partial(_run_arm, questions, completer, cfg, budget), arms))

    def per_call(examples, calls):
        return examples / calls if calls else 0.0

    brute_epc = per_call(brute_examples, brute_calls)
    omega_epc = per_call(omega_examples, omega_calls)
    return {
        "budget": budget,
        "brute_force": {
            "policy_calls": brute_calls,
            "examples": brute_examples,
            "examples_per_call": brute_epc,
        },
        "omegaprm": {
            "policy_calls": omega_calls,
            "examples": omega_examples,
            "examples_per_call": omega_epc,
            "single_step_edges": edges,
        },
        "ratio": (omega_epc / brute_epc) if brute_epc else 0.0,
    }
