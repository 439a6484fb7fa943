"""Voting, accuracy curves, and the annotation-efficiency benchmark."""
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, strategies as st

from omegaprm.core import EngineConfig, Question, Rollout, make_step
from omegaprm.errors import CompleterUnavailable
from omegaprm.evaluate import (
    CandidateSolution,
    EvalSettings,
    _Pool,
    _k_schedule,
    accuracy_curve,
    efficiency_benchmark,
    sample_candidates,
    weighted_vote,
)
from omegaprm.policy import (
    Completer,
    SimPolicySpec,
    SimulatedCompleter,
    answer_key,
    answers_equivalent,
)
from omegaprm.prm import train_toy_prm
from test_prm import separable_examples


def cand(answer, score=None):
    return CandidateSolution(final_answer=answer, aggregate_score=score)


@pytest.fixture(scope="module")
def model():
    return train_toy_prm(separable_examples(), objective="hard")[0]


class TestWeightedVote:
    def test_weighted_beats_count(self):
        # Two low-scored votes for A lose to one high-scored vote for B.
        candidates = [cand("A", 0.3), cand("A", 0.3), cand("B", 0.9)]
        assert weighted_vote(candidates, weighted=True) == "B"
        assert weighted_vote(candidates, weighted=False) == "A"

    def test_equivalent_answers_share_a_class(self):
        candidates = [cand("0.5", 0.4), cand("1/2", 0.4), cand("7", 0.6)]
        assert weighted_vote(candidates, weighted=True) == "0.5"

    def test_tie_goes_to_earliest_class(self):
        candidates = [cand("B", 0.5), cand("A", 0.5)]
        assert weighted_vote(candidates, weighted=True) == "B"
        assert weighted_vote([cand("X"), cand("Y")], weighted=False) == "X"

    def test_weighted_requires_scores(self):
        with pytest.raises(ValueError):
            weighted_vote([cand("A", None)], weighted=True)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            weighted_vote([], weighted=True)

    @given(st.lists(st.sampled_from(["A", "B", "C"]), min_size=1, max_size=12))
    def test_unit_weights_reduce_to_majority(self, answers):
        candidates = [cand(a, 1.0) for a in answers]
        assert weighted_vote(candidates, weighted=True) == \
            weighted_vote(candidates, weighted=False)

    @given(
        st.lists(
            st.tuples(st.sampled_from(["A", "B", "C"]),
                      st.floats(0.01, 1.0)),
            min_size=1, max_size=10,
        ),
        st.floats(0.1, 10.0),
    )
    def test_scale_invariance(self, pairs, scale):
        base = [cand(a, s) for a, s in pairs]
        scaled = [cand(a, s * scale) for a, s in pairs]
        assert weighted_vote(base, weighted=True) == \
            weighted_vote(scaled, weighted=True)


def reference_vote(candidates, weighted):
    """The greedy class vote written out directly: one equivalence test
    per (class, candidate) pair, no precomputed tables."""
    classes = []  # (representative answer, score)
    for c in candidates:
        vote = c.aggregate_score if weighted else 1.0
        for cls in classes:
            if answers_equivalent(cls[0], c.final_answer) or (
                cls[0] == c.final_answer
            ):
                cls[1] += vote
                break
        else:
            classes.append([c.final_answer, vote])
    best = classes[0]
    for cls in classes[1:]:
        if cls[1] > best[1]:
            best = cls
    return best[0]


# "1", "1.0000000005" and "1.0000000015" lie within 1e-9 of each other but
# are three classes: numbers match only when equal. "1,000" and "1000", and
# "A" and "a", are distinct strings in one class; "" is equivalent to
# nothing but equal to itself.
TRICKY_ANSWERS = ["1", "1.0000000005", "1.0000000015", "1,000", "1000", "",
                  "A", "a"]


def tricky_pools(n_pools, seed):
    rng = random.Random(seed)
    for _ in range(n_pools):
        n = rng.randint(1, 24)
        # Scores on a grid of binary fractions, so class sums tie exactly.
        yield [cand(rng.choice(TRICKY_ANSWERS), rng.choice([0.25, 0.5, 1.0]))
               for _ in range(n)]


class _TrickyCompleter(Completer):
    """Seeded pools of two-step solutions with TRICKY_ANSWERS answers, from
    one stream per state, so a reply depends on the state and on the calls
    for it before. With ``replays`` its ``reset`` replays the pools, as the
    simulator's does; without, ``reset`` is a no-op and every pool is new,
    as a remote completer's are."""

    def __init__(self, seed, replays=False):
        self.seed = seed
        self.replays = replays
        self.streams = {}

    def reset(self):
        if self.replays:
            self.streams = {}

    def sample_rollouts(self, request):
        state = request.state
        rng = self.streams.get(state)
        if rng is None:
            rng = self.streams[state] = random.Random(
                f"{self.seed} {state.question_id} {state.prefix_text}")
        return [
            Rollout(
                [make_step(f"add {rng.randrange(4)} to both sides"),
                 make_step(rng.choice(["err1 err2 err3", "so it is done"]))],
                rng.choice(TRICKY_ANSWERS), False,
            )
            for _ in range(request.n_samples)
        ]


class TestPooledVote:
    @pytest.mark.parametrize("weighted", [True, False])
    def test_matches_reference_on_random_subsets(self, weighted):
        rng = random.Random(11)
        for pool in tricky_pools(200, seed=7):
            for _ in range(10):
                k = rng.randint(1, len(pool))
                subset = [pool[i]
                          for i in sorted(rng.sample(range(len(pool)), k))]
                assert weighted_vote(subset, weighted) == \
                    reference_vote(subset, weighted)

    @pytest.mark.parametrize("weighted", [True, False])
    def test_vectorized_vote_matches_vote(self, weighted):
        # Every row of every k, all resamples at once, against the reference.
        # A class's first answer in the pool can differ from its first answer
        # in the subset, so the two are compared by answer key.
        rng = random.Random(5)
        for pool in tricky_pools(60, seed=9):
            table = _Pool(pool, weighted, "1000")
            for k in range(1, len(pool) + 1):
                subsets = np.array([sorted(rng.sample(range(len(pool)), k))
                                    for _ in range(20)])
                for row, c in zip(subsets.tolist(), table.vote(subsets)):
                    expected = reference_vote([pool[i] for i in row], weighted)
                    assert answer_key(table.answers[c]) == answer_key(expected)
                    assert table.golden[c] == answers_equivalent(expected,
                                                                 "1000")
        # "" is equivalent to nothing but equal to itself: a class of its own.
        table = _Pool([cand(""), cand("A"), cand(""), cand("a")], False, "")
        assert table.classes.tolist() == [0, 1, 0, 1]
        assert not table.golden.any()

    @pytest.mark.parametrize("replays", [True, False])
    def test_curve_matches_reference_curve(self, model, replays):
        check_reference_curve(model, lambda: _TrickyCompleter(3, replays))


def check_reference_curve(model, make_completer):
    """One call gives both curves; each must equal its method's curve
    written out directly, over its own pools and its own
    random.Random(seed), which draws the same subsets."""
    questions = [Question(f"q{i}", f"question {i}", golden)
                 for i, golden in enumerate(["1", "1000", "1.0000000015", "a"])]
    reports = accuracy_curve(questions, make_completer(), model,
                             EvalSettings(12, 30, 12), seed=4)
    completer = make_completer()
    for method, scorer in (("majority", None), ("prm_weighted", model)):
        completer.reset()
        pools = [sample_candidates(q, completer, 12, scorer)
                 for q in questions]
        rng = random.Random(4)
        means = []
        for k in _k_schedule(12):
            accs = []
            for _ in range(1 if k == 12 else 30):
                correct = []
                for q, pool in zip(questions, pools):
                    idxs = (sorted(rng.sample(range(12), k)) if k < 12
                            else range(12))
                    answer = reference_vote([pool[i] for i in idxs],
                                            scorer is not None)
                    correct.append(answers_equivalent(answer,
                                                      q.golden_answer))
                accs.append(sum(correct) / len(questions))
            means.append(sum(accs) / len(accs))
        report = reports[method]
        assert report.method == method
        assert report.accuracy_mean == means
        assert [r["correct"] for r in report.per_question] == correct


def sim_world(n_questions=4, error_prob=0.0, seed=0, **spec_kwargs):
    questions = [
        Question(f"q{i}", f"question {i}", str(10 + i))
        for i in range(n_questions)
    ]
    chains = {q.id: [f"{q.id}s{j}" for j in range(1, 9)] for q in questions}
    comp = SimulatedCompleter(
        {q.id: q for q in questions}, chains,
        SimPolicySpec(per_step_error_prob=error_prob, seed=seed, **spec_kwargs),
    )
    return questions, comp


class _EmptyCompleter:
    def sample_rollouts(self, request):
        return [Rollout((), "", False)] * request.n_samples


class TestSampleCandidates:
    def test_pool_size_and_answers(self):
        questions, comp = sim_world(error_prob=0.0)
        pool = sample_candidates(questions[0], comp, pool_size=6)
        assert len(pool) == 6
        assert all(c.final_answer == "10" for c in pool)
        assert all(c.aggregate_score is None for c in pool)

    def test_scores_attached_with_model(self):
        trained, _ = train_toy_prm(separable_examples(), objective="hard")
        questions, comp = sim_world(error_prob=0.3, seed=2)
        pool = sample_candidates(questions[0], comp, 8, model=trained)
        assert all(0.0 < c.aggregate_score < 1.0 for c in pool)

    def test_empty_completions_scored_zero(self):
        trained, _ = train_toy_prm(separable_examples(), objective="hard")
        questions, _ = sim_world()
        pool = sample_candidates(questions[0], _EmptyCompleter(), 3,
                                 model=trained)
        assert [c.aggregate_score for c in pool] == [0.0, 0.0, 0.0]


class _FailingCompleter(Completer):
    """``inner``, except that the sample of ``question_id`` after its first
    ``samples`` ones raises CompleterUnavailable."""

    def __init__(self, inner, question_id, samples):
        self.inner = inner
        self.question_id = question_id
        self.samples = samples
        self.seen = 0

    def reset(self):
        self.inner.reset()

    def sample_rollouts(self, request):
        if request.state.question_id == self.question_id:
            self.seen += 1
            if self.seen == self.samples + 1:
                raise CompleterUnavailable("down")
        return self.inner.sample_rollouts(request)


class _DownCompleter(Completer):
    def sample_rollouts(self, request):
        raise CompleterUnavailable("down")


class TestAccuracyCurve:
    def test_noiseless_policy_is_always_right(self, model):
        questions, comp = sim_world(error_prob=0.0)
        reports = accuracy_curve(questions, comp, model,
                                 EvalSettings(8, n_resamples=5, pool_size=8))
        assert list(reports) == ["majority", "prm_weighted"]
        for method, report in reports.items():
            assert report.method == method
            assert report.ks == [1, 2, 4, 8]
            assert report.accuracy_mean == [1.0] * 4
            assert all(r["correct"] for r in report.per_question)

    def test_zero_variance_at_full_pool(self, model):
        questions, comp = sim_world(error_prob=0.4, seed=5)
        reports = accuracy_curve(questions, comp, model,
                                 EvalSettings(8, n_resamples=20, pool_size=8))
        assert all(r.accuracy_std[-1] == 0.0 for r in reports.values())

    def test_k_schedule_includes_non_power_max(self, model):
        questions, comp = sim_world()
        reports = accuracy_curve(questions, comp, model,
                                 EvalSettings(6, pool_size=6))
        assert all(r.ks == [1, 2, 4, 6] for r in reports.values())

    def test_k_max_cannot_exceed_pool(self, model):
        with pytest.raises(ValueError):
            EvalSettings(8, pool_size=4)

    def test_deterministic_given_seeds(self, model):
        # accuracy_curve resets the completer itself.
        questions, comp = sim_world(error_prob=0.4, seed=5)
        settings = EvalSettings(8, n_resamples=10, pool_size=8)
        r1 = accuracy_curve(questions, comp, model, settings, seed=3)
        r2 = accuracy_curve(questions, comp, model, settings, seed=3)
        assert {m: asdict(r) for m, r in r1.items()} == \
            {m: asdict(r) for m, r in r2.items()}

    @pytest.mark.parametrize("samples", [0, 1], ids=["majority", "weighted"])
    def test_failed_pool_is_skipped_by_both(self, model, samples):
        # The subset draws depend on the number of usable questions only,
        # so both curves equal those of the corpus without the question.
        questions, comp = sim_world(error_prob=0.4, seed=5)
        settings = EvalSettings(8, n_resamples=10, pool_size=8)
        reports = accuracy_curve(questions, _FailingCompleter(comp, "q1",
                                                              samples),
                                 model, settings, seed=3)
        rest = [q for q in questions if q.id != "q1"]
        expected = accuracy_curve(rest, comp, model, settings, seed=3)
        for method, report in reports.items():
            assert report.config["skipped"] == ["q1"]
            assert [r["question_id"] for r in report.per_question] == \
                ["q0", "q2", "q3"]
            assert report.accuracy_mean == expected[method].accuracy_mean
            assert report.per_question == expected[method].per_question

    @pytest.mark.parametrize("samples", [0, 1], ids=["majority", "weighted"])
    def test_threaded_map_matches_a_serial_run(self, model, samples):
        # q1's majority sample fails, or only its weighted one; on threads
        # as in one, it is skipped by both curves.
        questions, comp = sim_world(error_prob=0.4, seed=5)
        settings = EvalSettings(8, n_resamples=10, pool_size=8)
        serial = accuracy_curve(questions, _FailingCompleter(comp, "q1",
                                                             samples),
                                model, settings, seed=3)
        with ThreadPoolExecutor(2) as pool:
            mapped = accuracy_curve(questions, _FailingCompleter(comp, "q1",
                                                                 samples),
                                    model, settings, seed=3,
                                    map_questions=pool.map)
        assert {m: asdict(r) for m, r in mapped.items()} == \
            {m: asdict(r) for m, r in serial.items()}
        assert all(r.config["skipped"] == ["q1"] for r in mapped.values())

    def test_report_holds_python_types(self, model):
        questions, comp = sim_world(error_prob=0.4, seed=5)
        reports = accuracy_curve(questions, comp, model,
                                 EvalSettings(8, n_resamples=5, pool_size=8))
        for report in reports.values():
            assert all(type(a) is float for a in report.accuracy_mean)
            assert all(type(a) is float for a in report.accuracy_std)
            assert all(type(r["correct"]) is bool for r in report.per_question)

    def test_every_pool_failed(self, model):
        questions, _ = sim_world()
        reports = accuracy_curve(questions, _DownCompleter(), model,
                                 EvalSettings(8, n_resamples=5, pool_size=8))
        for report in reports.values():
            assert report.accuracy_mean == [0.0] * 4
            assert report.accuracy_std == [0.0] * 4
            assert all(type(a) is float for a in report.accuracy_mean)
            assert report.per_question == []
            assert report.config["skipped"] == ["q0", "q1", "q2", "q3"]

    def test_csv_export(self, tmp_path, model):
        questions, comp = sim_world()
        report = accuracy_curve(questions, comp, model,
                                EvalSettings(4, pool_size=4))["majority"]
        path = tmp_path / "curve.csv"
        report.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,accuracy_mean,accuracy_std"
        assert len(lines) == 1 + len(report.ks)


class TestEfficiencyBenchmark:
    def test_search_beats_per_step_annotation(self):
        questions, comp = sim_world(n_questions=6, error_prob=0.15, seed=9)
        result = efficiency_benchmark(questions, comp, EngineConfig(),
                                      budget=4000, map_arms=map)
        assert result["brute_force"]["policy_calls"] <= 4000
        assert result["omegaprm"]["policy_calls"] <= 4000
        assert result["brute_force"]["examples"] > 0
        assert result["ratio"] > 1.0

    def test_zero_budget(self):
        questions, comp = sim_world()
        result = efficiency_benchmark(questions, comp, EngineConfig(),
                                      budget=0, map_arms=map)
        assert result["brute_force"]["policy_calls"] == 0
        assert result["omegaprm"]["policy_calls"] == 0
        assert result["ratio"] == 0.0

    def test_report_is_deterministic(self):
        questions, comp = sim_world(n_questions=4, error_prob=0.2, seed=11)
        r1, r2 = (efficiency_benchmark(questions, comp, EngineConfig(),
                                       budget=2000, map_arms=map)
                  for _ in range(2))
        assert r1 == r2
