"""Acceptance suite: the eight headline checks, one printed PASS/FAIL line
each (run with ``pytest tests/test_acceptance.py -v -s`` to see the lines).

Tolerances and thresholds are pinned here on purpose; do not relax them.
"""
import json
import math
import random
import time
from dataclasses import asdict

import numpy as np
import pytest

from omegaprm.core import EngineConfig, Question, Rollout, make_step
from omegaprm.dataset import (
    tree_to_examples,
    tree_to_pairs,
)
from omegaprm.evaluate import (
    EvalSettings,
    accuracy_curve,
    efficiency_benchmark,
)
from omegaprm.mcts import (
    OmegaPRMEngine,
    annotate_per_step,
    build_tree,
    dump_tree,
    exploration_bonus,
    rollout_value,
    tree_from_dict,
)
from omegaprm.policy import SimPolicySpec, SimulatedCompleter
from omegaprm.prm import (
    pairwise_objective,
    pointwise_objective,
    train_toy_prm,
)
from test_mcts import SampleCounter
from test_prm import step_accuracy


def report(criterion, ok, detail=""):
    print(f"\ncriterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def one_question_world(qid, n_steps, error_prob, seed, tokens_per_step=1,
                       **spec_kwargs):
    q = Question(qid, f"question {qid}", "10")
    chain = [" ".join(f"s{i}t{j}" for j in range(tokens_per_step))
             for i in range(1, n_steps + 1)]
    comp = SimulatedCompleter(
        {qid: q}, {qid: chain},
        SimPolicySpec(per_step_error_prob=error_prob, seed=seed, **spec_kwargs),
    )
    return q, chain, comp


def wrong_rollout_at(chain, error_step):
    out = []
    for i, ground in enumerate(chain, start=1):
        if i < error_step:
            out.append(make_step(ground))
        else:
            out.append(make_step(" ".join(
                f"bad{i}x{j}" for j in range(len(ground.split()))
            )))
    return Rollout(out, f"wrong{error_step}", False)


# -- criteria 1 & 2: oracle equivalence and complexity bound ---------------

N_SWEEP = 500


@pytest.fixture(scope="module")
def oracle_sweep():
    """500 randomized noiseless instances, solution length M in [4, 32] and
    a uniformly placed first error; binary search vs exhaustive oracle."""
    rng = random.Random(20_240_601)
    cfg = EngineConfig()
    rows = []
    t0 = time.perf_counter()
    for i in range(N_SWEEP):
        m = rng.randint(4, 32)
        error_step = rng.randint(1, m)
        q, chain, comp = one_question_world(f"q{i}", m, 0.0, seed=i)
        engine = OmegaPRMEngine(q, comp, cfg)
        engine.seed_root()
        rollout = wrong_rollout_at(chain, error_step)
        result = engine.locate_first_error(engine.tree.root, rollout)

        brute = SampleCounter(comp)
        oracle = annotate_per_step(brute, q, rollout, cfg.k_rollouts)
        oracle_first = next(t for t, mc in oracle if mc == 0)
        rows.append({
            "m": m,
            "error_step": error_step,
            "found": result.first_error_index,
            "oracle": oracle_first,
            "search_rollouts": result.rollouts_spent,
            "brute_rollouts": brute.calls,
        })
    return rows, time.perf_counter() - t0, cfg


def test_criterion_1_binary_search_oracle_equivalence(oracle_sweep):
    rows, elapsed, cfg = oracle_sweep
    matches = sum(r["found"] == r["oracle"] == r["error_step"] for r in rows)

    # The documented reference instance: 8 steps, first error at step 7,
    # probed prefix lengths 4 -> 6 -> 7.
    q, chain, comp = one_question_world("fig", 8, 0.0, seed=0)
    engine = OmegaPRMEngine(q, comp, EngineConfig())
    engine.seed_root()
    result = engine.locate_first_error(engine.tree.root,
                                       wrong_rollout_at(chain, 7))
    fig_ok = (result.probe_positions == [4, 6, 7]
              and result.first_error_index == 7)

    ok = matches == N_SWEEP and fig_ok and elapsed < 60.0
    report(1, ok,
           f"{matches}/{N_SWEEP} oracle matches, reference probes "
           f"{result.probe_positions}, {elapsed:.1f}s")


def test_criterion_2_rollout_complexity_bound(oracle_sweep):
    rows, _, cfg = oracle_sweep
    k = cfg.k_rollouts
    violations = [
        r for r in rows
        if r["search_rollouts"] > k * math.ceil(math.log2(r["m"]))
        or r["brute_rollouts"] != k * r["m"]
    ]
    worst = max(r["search_rollouts"] / (k * math.ceil(math.log2(r["m"])))
                for r in rows)
    report(2, not violations,
           f"0 of {len(rows)} instances exceed k*ceil(log2 M) "
           f"(worst utilization {worst:.2f}); brute force exactly k*M")


# -- criterion 3: efficiency ratio -----------------------------------------

def test_criterion_3_examples_per_call_ratio():
    questions = []
    completers = {}
    chains = {}
    for i in range(50):
        qid = f"b{i:02d}"
        q = Question(qid, f"benchmark question {i}", "10")
        questions.append(q)
        chains[qid] = [f"{qid}s{j}" for j in range(1, 17)]  # M = 16
    comp = SimulatedCompleter(
        {q.id: q for q in questions}, chains,
        SimPolicySpec(per_step_error_prob=0.1, seed=3),
    )
    cfg = EngineConfig()  # k = 8
    t0 = time.perf_counter()
    result = efficiency_benchmark(questions, comp, cfg, budget=20_000,
                                  map_arms=map)
    elapsed = time.perf_counter() - t0
    ok = result["ratio"] >= 3.0 and elapsed < 300.0
    report(3, ok,
           f"ratio {result['ratio']:.2f}x "
           f"(search {result['omegaprm']['examples_per_call']:.3f} vs "
           f"per-step {result['brute_force']['examples_per_call']:.3f} "
           f"examples/call), {elapsed:.1f}s")


# -- criterion 4: formula unit suite ---------------------------------------

def logit(y):
    return float(np.log(y) - np.log1p(-y))


def pointwise(y_hat, z):
    """(loss, dL/dz) of one example with label y_hat and logit z."""
    loss, g = pointwise_objective(np.array([z]), np.array([y_hat]))
    return float(loss), float(g[0])


def pairwise(pref, za, zb):
    """(loss, dL/dza, dL/dzb) of one pair with target pref and logits
    za, zb."""
    loss, ga, gb = pairwise_objective(
        np.array([za]), np.array([zb]), np.array([pref]))
    return float(loss), float(ga[0]), float(gb[0])


def test_criterion_4_formula_values_and_gradients():
    cfg = EngineConfig()
    rel = 1e-9
    checks = [
        math.isclose(rollout_value(0.5, 500, cfg), 0.636396103067892772,
                     rel_tol=rel),
        math.isclose(rollout_value(0, 1000, cfg), 0.405, rel_tol=rel),
        rollout_value(1, 0, cfg) == 1.0,
        math.isclose(exploration_bonus(3, 16, cfg), 0.125, rel_tol=rel),
        math.isclose(pointwise(2 / 3, logit(2 / 3))[0], 0.636514168294812818,
                     rel_tol=rel),
        math.isclose(pointwise(0.0, logit(0.5))[0], 0.693147180559945309,
                     rel_tol=rel),
        math.isclose(pairwise(0.5, logit(0.4), logit(0.4))[0],
                     0.693147180559945309, rel_tol=rel),
    ]
    from omegaprm.dataset import normalize_pair

    pa, pb = normalize_pair(0.75, 0.25)
    checks.append(math.isclose(pa, 0.75, rel_tol=rel) and
                  math.isclose(pb, 0.25, rel_tol=rel))

    h = 1e-6
    grad_ok = True
    for y_hat, y in [(0.0, 0.3), (1.0, 0.7), (2 / 3, 0.2), (0.9, 0.85)]:
        z = logit(y)
        _, g = pointwise(y_hat, z)
        fd = (pointwise(y_hat, z + h)[0] - pointwise(y_hat, z - h)[0]) / (2 * h)
        grad_ok &= math.isclose(g, fd, rel_tol=1e-6)
    for pref, ya, yb in [(0.75, 0.6, 0.3), (1.0, 0.8, 0.4), (0.25, 0.2, 0.7)]:
        za, zb = logit(ya), logit(yb)
        _, ga, gb = pairwise(pref, za, zb)
        fda = (pairwise(pref, za + h, zb)[0]
               - pairwise(pref, za - h, zb)[0]) / (2 * h)
        fdb = (pairwise(pref, za, zb + h)[0]
               - pairwise(pref, za, zb - h)[0]) / (2 * h)
        grad_ok &= math.isclose(ga, fda, rel_tol=1e-5, abs_tol=1e-9)
        grad_ok &= math.isclose(gb, fdb, rel_tol=1e-5, abs_tol=1e-9)

    ok = all(checks) and grad_ok
    report(4, ok,
           f"{sum(checks)}/{len(checks)} value checks at 1e-9 rel tol; "
           f"gradients vs central differences at 1e-6: "
           f"{'ok' if grad_ok else 'mismatch'}")


# -- criterion 5: tree invariant suite -------------------------------------

def test_criterion_5_tree_invariants_over_seeded_builds():
    failures = []
    for seed in range(20):
        q, chain, comp = one_question_world(f"inv{seed}", 8, 0.3, seed=seed)
        cfg = EngineConfig(search_limit=100)
        engine = OmegaPRMEngine(q, comp, cfg)
        tree, budget = engine.build()
        for node, rollout in engine.pool.entries:
            if rollout.is_correct or not (0 < node.mc < 1):
                failures.append((seed, "pool"))
        for node in tree.nodes.values():
            if node.stats.rollouts:
                correct = sum(r.is_correct for r in node.stats.rollouts)
                if node.mc != correct / len(node.stats.rollouts):
                    failures.append((seed, "mc"))
        for parent in tree.nodes.values():
            for child in parent.children:
                child_key = child.state.key()
                if child_key[: len(parent.state.key())] != parent.state.key():
                    failures.append((seed, "prefix"))
        text = dump_tree(tree, budget)
        tree2, budget2 = tree_from_dict(json.loads(text))
        if dump_tree(tree2, budget2) != text:
            failures.append((seed, "serialization"))
    report(5, not failures,
           f"20 seeded builds (limit=100): pool, MC recount, prefix, and "
           f"serialization invariants all hold ({len(failures)} violations)")


# -- criteria 6 & 7: end-to-end lift and objective ordering ----------------

class DispatchCompleter:
    """Routes each request to a per-question completer (the corpus mixes
    difficulty levels, which one SimPolicySpec cannot express)."""

    def __init__(self, completers):
        self.completers = completers

    def sample_rollouts(self, request):
        return self.completers[request.state.question_id].sample_rollouts(request)

    def reset(self):
        for comp in self.completers.values():
            comp.reset()


EASY_ERROR_P = 0.02   # per-step; (1 - p)^8 ~ 0.85 solve rate
HARD_ERROR_P = 0.108  # (1 - p)^8 ~ 0.40: the clustered distractor nearly ties


def lift_corpus(seed_scope):
    """12 easy + 8 adversarial questions, 8 two-token steps each; every
    wrong rollout of a question lands on the same distractor answer."""
    questions = []
    chains = {}
    completers = {}
    for i in range(20):
        qid = f"L{i:02d}"
        error_p = EASY_ERROR_P if i < 12 else HARD_ERROR_P
        q = Question(qid, f"word problem number {i}", str(100 + i))
        questions.append(q)
        chains[qid] = [f"{qid}w{j} v{j}" for j in range(1, 9)]
        completers[qid] = SimulatedCompleter(
            {qid: q}, {qid: chains[qid]},
            SimPolicySpec(
                per_step_error_prob=error_p,
                seed=int.from_bytes(f"{seed_scope}/{qid}".encode()[-8:], "big"),
                wrong_answer_pool=["666"],
            ),
        )
    return questions, chains, completers


@pytest.fixture(scope="module")
def lift_run():
    t0 = time.perf_counter()
    questions, chains, gen_completers = lift_corpus("gen")
    cfg = EngineConfig(search_limit=50, step_split_target=4)
    examples = []
    for q in questions:
        tree, _ = build_tree(q, gen_completers[q.id], cfg)
        examples.extend(tree_to_examples(tree))
    model, _ = train_toy_prm(examples, objective="soft")

    _, _, eval_completers = lift_corpus("eval")
    eval_comp = DispatchCompleter(eval_completers)
    reports = accuracy_curve(questions, eval_comp, model, EvalSettings(
        k_max=16, n_resamples=100, pool_size=64), seed=0)
    return {
        "examples": examples,
        "majority_at_16": reports["majority"].accuracy_mean[-1],
        "weighted_at_16": reports["prm_weighted"].accuracy_mean[-1],
        "elapsed": time.perf_counter() - t0,
    }


def test_criterion_6_prm_weighted_voting_lift(lift_run):
    maj = lift_run["majority_at_16"]
    wgt = lift_run["weighted_at_16"]
    ok = (0.55 <= maj <= 0.75
          and wgt - maj >= 0.03
          and lift_run["elapsed"] < 600.0)
    report(6, ok,
           f"majority@16 {maj:.3f} (band 0.55-0.75), prm-weighted@16 "
           f"{wgt:.3f}, lift {100 * (wgt - maj):.1f} points over 100 "
           f"resamples, {lift_run['elapsed']:.1f}s")


def test_criterion_7_soft_vs_hard_objective():
    """Monte Carlo labels carry false positives: a wrong step can still
    luck into the golden answer, so its estimated MC is often a small
    positive fraction, which the hard objective rounds up to a full
    positive label while the soft objective keeps it near zero. Both
    objectives train on the same noisy k=8 MC estimates and are judged on
    ground-truth step labels from a held-out draw."""
    from omegaprm.dataset import TrainingExample

    k = 8
    p_good, p_bad = 0.9, 0.15  # per-rollout success rates feeding MC
    rng = random.Random(4242)

    def draw(n, seed_offset, with_truth=False):
        out = []
        for i in range(n):
            is_good = i % 2 == 0
            if is_good:
                step = (f"combine the {rng.randrange(100)} terms and "
                        f"simplify {rng.randrange(100)}")
            else:
                step = " ".join(f"err{rng.randrange(1_000_000)}"
                                for _ in range(6))
            rate = p_good if is_good else p_bad
            mc = sum(rng.random() < rate for _ in range(k)) / k
            out.append(TrainingExample(
                question_id=f"s{seed_offset + i}", question="stmt",
                prefix="", step=step,
                mc=1.0 if (with_truth and is_good) else
                (0.0 if with_truth else mc),
                hard_label=int(is_good) if with_truth else int(mc > 0),
            ))
        return out

    train_examples = draw(240, 0)
    held_out = draw(120, 1000, with_truth=True)
    false_positive_rate = sum(
        1 for ex in train_examples if ex.hard_label == 1 and ex.mc < 0.5
    ) / len(train_examples)
    soft_model, _ = train_toy_prm(train_examples, objective="soft")
    hard_model, _ = train_toy_prm(train_examples, objective="hard")
    soft_acc = step_accuracy(soft_model, held_out)
    hard_acc = step_accuracy(hard_model, held_out)
    ok = soft_acc >= hard_acc - 0.01
    report(7, ok,
           f"ground-truth step accuracy: soft {soft_acc:.3f} vs hard "
           f"{hard_acc:.3f} (tolerance 1 point; {len(train_examples)} noisy "
           f"MC-labeled training examples, {false_positive_rate:.0%} hard "
           f"false positives)")


# -- criterion 8: determinism ----------------------------------------------

def _artifact_bundle(seed):
    """One compact pass over every artifact-producing stage, serialized."""
    q, chain, comp = one_question_world("det", 8, 0.1, seed=seed,
                                        tokens_per_step=2)
    cfg = EngineConfig(search_limit=30, step_split_target=4)
    tree, budget = build_tree(q, comp, cfg)
    examples = tree_to_examples(tree)
    pairs = tree_to_pairs(tree)
    model, curve = train_toy_prm(examples, objective="soft")
    reports = accuracy_curve([q], comp, model, EvalSettings(
        k_max=4, n_resamples=10, pool_size=8), seed=seed)
    comp.reset()
    bench = efficiency_benchmark([q], comp, EngineConfig(), budget=500,
                                 map_arms=map)
    return {
        "tree": dump_tree(tree, budget),
        "examples": json.dumps([vars(ex) for ex in examples]),
        "pairs": json.dumps([[p.prefix, p.step_a, p.step_b, p.pref_a]
                             for p in pairs]),
        "weights": json.dumps([float(w) for w in model.weights]),
        "curve": json.dumps(curve),
        "eval": json.dumps({m: asdict(r) for m, r in reports.items()}),
        "bench": json.dumps(bench),
    }


def test_criterion_8_same_seed_byte_identical():
    a = _artifact_bundle(seed=5)
    b = _artifact_bundle(seed=5)
    mismatched = [k for k in a if a[k] != b[k]]
    different_seed = _artifact_bundle(seed=6)
    distinct = different_seed["tree"] != a["tree"]
    report(8, not mismatched and distinct,
           f"{len(a)} artifact kinds byte-identical across two seed-5 runs "
           f"(mismatches: {mismatched or 'none'}); seed 6 differs as expected")
