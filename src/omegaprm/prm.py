"""Process-reward-model scoring and training.

The real PRM in this setting is a large neural model; here a small
logistic model over hand-crafted (prefix, step) features stands in so the
full pipeline can be verified end to end. The three training objectives
(pointwise soft, pointwise hard, pairwise Bradley-Terry) share one
prediction head y = sigmoid(w . phi(prefix, step)).
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .dataset import write_json
from .errors import EmptyDataset, EmptySolution

SCORE_EPS = 1e-7
FEATURE_VERSION = 1
N_HASH_BUCKETS = 64
N_FEATURES = N_HASH_BUCKETS + 4  # buckets + bias, length, overlap, digit ratio
OVERLAP = N_HASH_BUCKETS + 2  # the only feature that depends on the prefix


def clamp_score(y: float) -> float:
    return min(max(y, SCORE_EPS), 1.0 - SCORE_EPS)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic function, clipped to [SCORE_EPS, 1 - SCORE_EPS]."""
    return np.clip(1.0 / (1.0 + np.exp(-z)), SCORE_EPS, 1.0 - SCORE_EPS)


# -- losses ----------------------------------------------------------------

def pointwise_loss(y_hat: float, y: float) -> float:
    """Cross-entropy of prediction y against (possibly soft) label y_hat."""
    y = clamp_score(y)
    return -(y_hat * math.log(y) + (1.0 - y_hat) * math.log(1.0 - y))


def pointwise_loss_grad(y_hat: float, y: float) -> float:
    """d(pointwise_loss)/dy."""
    y = clamp_score(y)
    return -(y_hat / y) + (1.0 - y_hat) / (1.0 - y)


def pairwise_loss(pref_a: float, y_a: float, y_b: float) -> float:
    """Cross-entropy between the preference target (pref_a, 1 - pref_a) and
    the Bradley-Terry prediction (y_a, y_b) / (y_a + y_b)."""
    y_a, y_b = clamp_score(y_a), clamp_score(y_b)
    p_a = y_a / (y_a + y_b)
    p_a = clamp_score(p_a)
    return -(pref_a * math.log(p_a) + (1.0 - pref_a) * math.log(1.0 - p_a))


def pairwise_loss_grad(pref_a: float, y_a: float, y_b: float):
    """(dL/dy_a, dL/dy_b) for the pairwise loss."""
    y_a, y_b = clamp_score(y_a), clamp_score(y_b)
    s = y_a + y_b
    p_a = clamp_score(y_a / s)
    dl_dpa = -(pref_a / p_a) + (1.0 - pref_a) / (1.0 - p_a)
    return dl_dpa * (y_b / s**2), dl_dpa * (-y_a / s**2)


# -- featurization ---------------------------------------------------------

def _bucket(gram: str) -> int:
    digest = hashlib.blake2b(gram.encode(), digest_size=4).digest()
    return int.from_bytes(digest, "big") % N_HASH_BUCKETS


def _step_features(step_text: str):
    """The features of a stripped step that do not depend on the prefix:
    trigram buckets, bias, length and digit ratio, with the overlap slot
    left at 0. Returns (phi, step tokens)."""
    phi = np.zeros(N_FEATURES)
    padded = f" {step_text} "
    for i in range(len(padded) - 2):
        phi[_bucket(padded[i:i + 3])] += 1.0
    n_grams = max(len(padded) - 2, 1)
    phi[:N_HASH_BUCKETS] /= n_grams
    step_tokens = step_text.split()
    phi[N_HASH_BUCKETS] = 1.0  # bias
    phi[N_HASH_BUCKETS + 1] = len(step_tokens) / 16.0
    if step_text:
        phi[N_HASH_BUCKETS + 3] = sum(c.isdigit() for c in step_text) / len(step_text)
    return phi, step_tokens


def _overlap(step_tokens, prefix_tokens) -> float:
    """Share of the step's tokens that occur in the prefix token set."""
    if not step_tokens:
        return 0.0
    return sum(1 for t in step_tokens if t in prefix_tokens) / len(step_tokens)


def featurize(prefix_text: str, step_text: str) -> np.ndarray:
    """Fixed-dimension features of a (prefix, step) pair.

    Character trigram hash buckets over the step text, plus bias, step
    length, token overlap with the prefix, and digit ratio. Trailing
    whitespace is stripped first, so scores are invariant to it.
    """
    phi, step_tokens = _step_features(step_text.strip())
    phi[OVERLAP] = _overlap(step_tokens, set(prefix_text.split()))
    return phi


# -- model -----------------------------------------------------------------

@dataclass
class TrainSettings:
    learning_rate: float = 2.0
    epochs: int = 300


@dataclass
class ToyPrmModel:
    weights: np.ndarray
    objective: str = "soft"
    settings: TrainSettings = field(default_factory=TrainSettings)
    feature_version: int = FEATURE_VERSION

    def predict_features(self, X: np.ndarray) -> np.ndarray:
        return _sigmoid(X @ self.weights)

    def score(self, prefix_text: str, step_text: str) -> float:
        """Deterministic step score in (0, 1)."""
        return self._score_row(featurize(prefix_text, step_text))

    def _score_row(self, phi: np.ndarray) -> float:
        # One row at a time: a batched X @ w may round differently.
        return float(self.predict_features(phi[None, :])[0])


def aggregate_solution_score(step_scores, mode: str = "product") -> float:
    """Solution score: product of step scores (or the minimum)."""
    scores = list(step_scores)
    if not scores:
        raise EmptySolution("cannot aggregate an empty list of step scores")
    if mode == "min":
        return min(scores)
    out = 1.0
    for s in scores:
        out *= s
    return out


def score_solution(model: ToyPrmModel, question_statement: str, step_texts,
                   mode: str = "product", cache=None) -> float:
    """Score each step given the question plus preceding steps, then aggregate.

    Step i is scored exactly as ``model.score(prefix, step_i)`` with
    ``prefix`` the statement and steps before i joined by spaces. The
    prefix's token set grows step by step instead of being re-split.
    ``cache`` is a dict from step text to its step-only features and its
    scores per overlap value; pass one dict to all solutions of a pool so
    each distinct step is featurized once, and drop it with the pool. A
    cache holds scores, so it serves one model only.
    """
    cache = {} if cache is None else cache
    prefix_tokens = set(question_statement.split())
    scores = []
    for step in step_texts:
        entry = cache.get(step)
        if entry is None:
            entry = cache[step] = (*_step_features(step.strip()), {})
        phi, step_tokens, by_overlap = entry
        overlap = _overlap(step_tokens, prefix_tokens)
        score = by_overlap.get(overlap)
        if score is None:
            row = phi.copy()
            row[OVERLAP] = overlap
            score = by_overlap[overlap] = model._score_row(row)
        scores.append(score)
        prefix_tokens.update(step_tokens)
    return aggregate_solution_score(scores, mode=mode)


# -- training --------------------------------------------------------------

def _pointwise_fit(X, targets, settings):
    n = len(targets)
    w = np.zeros(X.shape[1])
    curve = []
    for _ in range(settings.epochs):
        y = _sigmoid(X @ w)
        loss = -np.mean(targets * np.log(y) + (1 - targets) * np.log(1 - y))
        curve.append(float(loss))
        grad = X.T @ (y - targets) / n
        w -= settings.learning_rate * grad
    return w, curve


def _pairwise_fit(Xa, Xb, prefs, settings):
    n = len(prefs)
    w = np.zeros(Xa.shape[1])
    curve = []
    for _ in range(settings.epochs):
        ya = _sigmoid(Xa @ w)
        yb = _sigmoid(Xb @ w)
        s = ya + yb
        pa = np.clip(ya / s, SCORE_EPS, 1.0 - SCORE_EPS)
        loss = -np.mean(prefs * np.log(pa) + (1 - prefs) * np.log(1 - pa))
        curve.append(float(loss))
        dl_dpa = -(prefs / pa) + (1 - prefs) / (1 - pa)
        dl_dya = dl_dpa * yb / s**2
        dl_dyb = dl_dpa * (-ya) / s**2
        grad = (
            Xa.T @ (dl_dya * ya * (1 - ya)) + Xb.T @ (dl_dyb * yb * (1 - yb))
        ) / n
        w -= settings.learning_rate * grad
    return w, curve


def train_toy_prm(examples=None, objective: str = "soft", settings=None,
                  pairs=None):
    """Fit the toy PRM with one of the three objectives.

    ``examples`` feeds the pointwise objectives (soft uses MC values, hard
    uses the 0/1 labels); ``pairs`` feeds the pairwise objective. Returns
    (model, loss_curve). Deterministic: full-batch gradient descent from a
    zero initialization.
    """
    settings = settings or TrainSettings()
    if objective in ("soft", "hard"):
        if not examples:
            raise EmptyDataset("pointwise training requires examples")
        X = np.stack([featurize(ex.prefix_text, ex.step_text) for ex in examples])
        if objective == "soft":
            targets = np.array([ex.mc_value for ex in examples], dtype=float)
        else:
            targets = np.array([ex.hard_label for ex in examples], dtype=float)
        w, curve = _pointwise_fit(X, targets, settings)
    elif objective == "pairwise":
        if not pairs:
            raise EmptyDataset("pairwise training requires preference pairs")
        Xa = np.stack([featurize(p.prefix_text, p.step_a) for p in pairs])
        Xb = np.stack([featurize(p.prefix_text, p.step_b) for p in pairs])
        prefs = np.array([p.pref_a for p in pairs], dtype=float)
        w, curve = _pairwise_fit(Xa, Xb, prefs, settings)
    else:
        raise ValueError(f"unknown objective: {objective!r}")
    model = ToyPrmModel(weights=w, objective=objective, settings=settings)
    return model, curve


def step_accuracy(model: ToyPrmModel, examples) -> float:
    """Fraction of examples whose thresholded score matches the hard label."""
    if not examples:
        raise EmptyDataset("accuracy requires a nonempty dataset")
    X = np.stack([featurize(ex.prefix_text, ex.step_text) for ex in examples])
    pred = model.predict_features(X) > 0.5
    labels = np.array([ex.hard_label for ex in examples], dtype=bool)
    return float(np.mean(pred == labels))


# -- checkpoints -----------------------------------------------------------

def save_model(model: ToyPrmModel, path):
    doc = {
        "feature_version": model.feature_version,
        "n_hash_buckets": N_HASH_BUCKETS,
        "objective": model.objective,
        "settings": asdict(model.settings),
        "weights": [float(w) for w in model.weights],
    }
    write_json(doc, path)


def load_model(path) -> ToyPrmModel:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc["feature_version"] != FEATURE_VERSION:
        raise ValueError("checkpoint feature map version mismatch")
    return ToyPrmModel(
        weights=np.array(doc["weights"], dtype=float),
        objective=doc["objective"],
        settings=TrainSettings(**doc["settings"]),
        feature_version=doc["feature_version"],
    )
