"""Toy process-reward model: features, training objectives, scoring,
aggregation, and checkpoints."""
import random

import numpy as np
import pytest

from omegaprm.dataset import PreferencePair, TrainingExample
from omegaprm.errors import ParseError
from omegaprm.prm import (
    N_FEATURES,
    _sigmoid,
    aggregate_solution_score,
    featurize,
    load_model,
    save_model,
    score_solution,
    ToyPrmModel,
    train_toy_prm,
)


def example(step, mc, prefix="", qid="q1"):
    return TrainingExample(
        question_id=qid, question="stmt", prefix=prefix,
        step=step, mc=mc, hard_label=int(mc > 0),
    )


def score(model, prefix, step):
    """The score of one (prefix, step) pair: the reference that
    ``score_solution`` reproduces step by step."""
    return model._score_row(featurize(prefix, step))


def step_accuracy(model, examples):
    """Fraction of examples whose thresholded score matches the hard label."""
    X = np.stack([featurize(ex.prefix, ex.step) for ex in examples])
    pred = _sigmoid(X @ model.weights) > 0.5
    labels = np.array([ex.hard_label for ex in examples], dtype=bool)
    return float(np.mean(pred == labels))


def separable_examples(n=80, seed=0):
    """Good steps reuse clean words; bad steps carry err tokens, as the
    simulated policy produces."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        if i % 2 == 0:
            out.append(example(f"add {rng.randrange(100)} to both sides", 1.0))
        else:
            toks = " ".join(f"err{rng.randrange(1000)}" for _ in range(3))
            out.append(example(toks, 0.0))
    return out


class TestFeaturize:
    def test_shape_and_bias(self):
        phi = featurize("a prefix", "a step")
        assert phi.shape == (N_FEATURES,)
        assert phi[64] == 1.0

    def test_whitespace_invariance(self):
        a = featurize("p", "step text")
        b = featurize("p", "  step text \n")
        assert np.array_equal(a, b)

    def test_overlap_feature(self):
        full = featurize("x y z", "x y")
        none = featurize("a b c", "x y")
        assert full[66] == 1.0
        assert none[66] == 0.0

    def test_digit_ratio(self):
        phi = featurize("", "12ab")
        assert phi[67] == 0.5


class TestTraining:
    def test_separable_data_learned(self):
        examples = separable_examples()
        model, curve = train_toy_prm(examples, objective="hard")
        assert step_accuracy(model, examples) >= 0.95
        assert curve[-1] < curve[0]

    def test_soft_objective_learns_the_same_signal(self):
        examples = separable_examples()
        model, _ = train_toy_prm(examples, objective="soft")
        assert step_accuracy(model, examples) >= 0.95

    def test_soft_targets_shift_predictions(self):
        # Same steps, soft labels 0.75 vs hard 1.0: soft predictions for the
        # positive class must sit below the hard ones.
        base = separable_examples()
        soft = [
            example(ex.step, 0.75 if ex.hard_label else 0.0)
            for ex in base
        ]
        hard_model, _ = train_toy_prm(base, objective="hard")
        soft_model, _ = train_toy_prm(soft, objective="soft")
        positives = [ex for ex in base if ex.hard_label]
        hard_mean = np.mean([
            score(hard_model, ex.prefix, ex.step)
            for ex in positives
        ])
        soft_mean = np.mean([
            score(soft_model, ex.prefix, ex.step)
            for ex in positives
        ])
        assert soft_mean < hard_mean

    def test_pairwise_objective_ranks_siblings(self):
        rng = random.Random(1)
        pairs = []
        for i in range(60):
            good = f"combine {rng.randrange(100)} terms"
            bad = " ".join(f"err{rng.randrange(1000)}" for _ in range(3))
            pairs.append(PreferencePair(
                question_id="q1", question="stmt", prefix="",
                step_a=good, step_b=bad, pref_a=1.0,
            ))
        model, curve = train_toy_prm(objective="pairwise", pairs=pairs)
        assert curve[-1] < curve[0]
        better = sum(
            score(model, p.prefix, p.step_a)
            > score(model, p.prefix, p.step_b)
            for p in pairs
        )
        assert better / len(pairs) >= 0.95

    def test_shuffled_labels_not_learnable(self):
        rng = random.Random(3)
        examples = separable_examples()
        labels = [ex.mc for ex in examples]
        rng.shuffle(labels)
        shuffled = [example(ex.step, mc)
                    for ex, mc in zip(examples, labels)]
        model, _ = train_toy_prm(shuffled, objective="hard")
        # Held-out fresh draws from the same generators: near-chance.
        holdout = separable_examples(seed=99)
        assert abs(step_accuracy(model, holdout) - 0.5) <= 0.15

    def test_training_is_deterministic(self):
        examples = separable_examples()
        m1, c1 = train_toy_prm(examples, objective="soft")
        m2, c2 = train_toy_prm(examples, objective="soft")
        assert np.array_equal(m1.weights, m2.weights)
        assert c1 == c2

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="requires examples"):
            train_toy_prm([], objective="soft")
        with pytest.raises(ValueError, match="requires preference pairs"):
            train_toy_prm(objective="pairwise", pairs=[])

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError):
            train_toy_prm(separable_examples(), objective="listwise")


@pytest.fixture(scope="module")
def model():
    trained, _ = train_toy_prm(separable_examples(), objective="hard")
    return trained


class TestScoring:

    def test_scores_in_open_interval(self, model):
        s = score(model, "prefix", "any step at all")
        assert 0.0 < s < 1.0

    def test_deterministic(self, model):
        args = ("prefix text", "a candidate step")
        assert score(model, *args) == score(model, *args)

    def test_aggregation_product(self):
        assert aggregate_solution_score([0.5, 0.5, 0.8]) == pytest.approx(0.2)

    def test_aggregation_min(self):
        assert aggregate_solution_score([0.9, 0.3, 0.7], mode="min") == 0.3

    def test_aggregation_empty_rejected(self):
        with pytest.raises(ValueError, match="empty list"):
            aggregate_solution_score([])

    def test_solution_score_bounded_by_worst_step(self, model):
        steps = ["add 1 to both sides", "err999 err998 err997"]
        total = score_solution(model, steps)
        worst = min(score(model, "", steps[0]), score(model, steps[0], steps[1]))
        assert total <= worst

    def test_solution_score_uses_growing_prefix(self, model):
        a = score_solution(model, ["foo bar", "foo bar"])
        b = score_solution(model, ["foo bar", "baz qux"])
        assert a != b

    @staticmethod
    def long_solution(seed, n_steps=40):
        rng = random.Random(seed)
        words = ["add", "take", "half", "twice", "err7", "x", "12", "1/2"]
        return [
            " ".join(rng.choice(words) for _ in range(rng.randint(0, 5)))
            + rng.choice(["", " ", "\n"])
            for _ in range(n_steps)
        ]

    @staticmethod
    def per_step_scores(model, steps):
        """Each step scored on the row that training fits for it: the steps
        before it joined by spaces, then the step."""
        return [score(model, " ".join(steps[:i]), step)
                for i, step in enumerate(steps)]

    # Random weights on every feature: the trained model above never sees
    # a prefix, so its overlap weight is 0 and it would hide overlap errors.
    DENSE = ToyPrmModel(weights=np.random.default_rng(0).normal(size=N_FEATURES))

    def test_solution_score_equals_per_step_featurize(self):
        # The running prefix token set must reproduce featurize on the full
        # prefix string bit for bit, empty and padded steps included.
        for seed in range(5):
            steps = self.long_solution(seed)
            expected = self.per_step_scores(self.DENSE, steps)
            assert score_solution(self.DENSE, steps) == \
                aggregate_solution_score(expected)
            assert score_solution(self.DENSE, steps, mode="min") == \
                min(expected)

    def test_shared_cache_never_changes_a_score(self):
        # Solutions share leading steps, so the cache is hit at equal and at
        # different prefixes.
        cache = {}
        for seed in range(20):
            steps = self.long_solution(seed % 4, n_steps=8 + seed)
            expected = self.per_step_scores(self.DENSE, steps)
            assert score_solution(self.DENSE, steps, cache=cache) == \
                aggregate_solution_score(expected)


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        model, _ = train_toy_prm(separable_examples(), objective="soft")
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.weights, model.weights)
        assert loaded.objective == "soft"
        assert score(loaded, "p", "s") == score(model, "p", "s")

    def test_version_mismatch_rejected(self, tmp_path):
        import json

        model, _ = train_toy_prm(separable_examples(), objective="soft")
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["feature_version"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            load_model(path)

    DAMAGE = {
        "truncated": lambda text: text[: len(text) // 2],
        "empty": lambda text: "",
        "not_object": lambda text: "[1, 2]",
        "weights_length": lambda text: text.replace(
            '"weights": [', '"weights": [1.0, '),
        "buckets": lambda text: text.replace(
            '"n_hash_buckets": 64', '"n_hash_buckets": 32'),
        "settings": lambda text: text.replace(
            '"settings": {', '"settings": {"x": 1, '),
    }

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_unreadable_checkpoint_raises_parse_error(self, tmp_path, damage):
        model, _ = train_toy_prm(separable_examples(), objective="soft")
        path = tmp_path / "model.json"
        save_model(model, path)
        text = path.read_text()
        assert self.DAMAGE[damage](text) != text
        path.write_text(self.DAMAGE[damage](text))
        with pytest.raises(ParseError):
            load_model(path)
