"""Process-reward-model scoring and training.

The real PRM in this setting is a large neural model; here a small
logistic model over hand-crafted (prefix, step) features stands in so the
full pipeline can be verified end to end. The three training objectives
(pointwise soft, pointwise hard, pairwise Bradley-Terry) share one
prediction head y = sigmoid(w . phi(prefix, step)).
"""
from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field, asdict
from typing import TYPE_CHECKING

from .dataset import write_json
from .errors import ParseError

if TYPE_CHECKING:  # each function imports numpy: only train and eval load it
    import numpy as np

SCORE_EPS = 1e-7
FEATURE_VERSION = 1
N_HASH_BUCKETS = 64
N_FEATURES = N_HASH_BUCKETS + 4  # buckets + bias, length, overlap, digit ratio
OVERLAP = N_HASH_BUCKETS + 2  # the only feature that depends on the prefix


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic function, clipped to [SCORE_EPS, 1 - SCORE_EPS]."""
    import numpy as np

    return np.clip(1.0 / (1.0 + np.exp(-z)), SCORE_EPS, 1.0 - SCORE_EPS)


# -- objectives ------------------------------------------------------------
# Each takes logits and targets, and returns the mean loss followed by each
# example's loss gradient with respect to its logits (the mean's gradient
# is that divided by the number of examples).

def pointwise_objective(z, targets):
    """Cross-entropy of predictions sigmoid(z) against (possibly soft)
    labels ``targets``."""
    import numpy as np

    y = _sigmoid(z)
    loss = -np.mean(targets * np.log(y) + (1 - targets) * np.log(1 - y))
    return loss, y - targets


def pairwise_objective(za, zb, prefs):
    """Cross-entropy between the preference targets (prefs, 1 - prefs) and
    the Bradley-Terry predictions (ya, yb) / (ya + yb), y = sigmoid(z)."""
    import numpy as np

    ya = _sigmoid(za)
    yb = _sigmoid(zb)
    s = ya + yb
    pa = np.clip(ya / s, SCORE_EPS, 1.0 - SCORE_EPS)
    loss = -np.mean(prefs * np.log(pa) + (1 - prefs) * np.log(1 - pa))
    dl_dpa = -(prefs / pa) + (1 - prefs) / (1 - pa)
    return (loss, dl_dpa * yb / s**2 * ya * (1 - ya),
            dl_dpa * (-ya) / s**2 * yb * (1 - yb))


# -- featurization ---------------------------------------------------------

@functools.lru_cache(maxsize=1 << 16)  # trigrams recur across steps
def _bucket(gram: str) -> int:
    digest = hashlib.blake2b(gram.encode(), digest_size=4).digest()
    return int.from_bytes(digest, "big") % N_HASH_BUCKETS


def _step_features(step_text: str):
    """The features of a stripped step that do not depend on the prefix:
    trigram buckets, bias, length and digit ratio, with the overlap slot
    left at 0. Returns (phi, step tokens)."""
    import numpy as np

    padded = f" {step_text} "
    buckets = np.fromiter(
        (_bucket(padded[i:i + 3]) for i in range(len(padded) - 2)), np.intp)
    phi = np.zeros(N_FEATURES)
    # Exact integer counts, so the shares are those of counting one by one.
    phi[:N_HASH_BUCKETS] = np.bincount(buckets, minlength=N_HASH_BUCKETS)
    phi[:N_HASH_BUCKETS] /= max(len(buckets), 1)
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

    def __post_init__(self):
        if self.epochs < 1 or self.learning_rate <= 0:
            raise ValueError("need epochs >= 1 and learning_rate > 0")


@dataclass
class ToyPrmModel:
    weights: np.ndarray
    objective: str = "soft"
    settings: TrainSettings = field(default_factory=TrainSettings)

    def _score_row(self, phi: np.ndarray) -> float:
        # One row at a time: a batched X @ w may round differently.
        return float(_sigmoid(phi[None, :] @ self.weights)[0])


def aggregate_solution_score(step_scores, mode: str = "product") -> float:
    """Solution score: product of step scores (or the minimum)."""
    scores = list(step_scores)
    if not scores:
        raise ValueError("cannot aggregate an empty list of step scores")
    if mode == "min":
        return min(scores)
    out = 1.0
    for s in scores:
        out *= s
    return out


def score_solution(model: ToyPrmModel, step_texts, mode: str = "product",
                   cache=None) -> float:
    """Score each step given the steps before it, then aggregate.

    Step i is scored exactly as ``model._score_row(featurize(prefix,
    step_i))``, with ``prefix`` the steps before i joined by spaces: the
    (prefix, step) row that training fits for a tree edge. The prefix's
    token set grows step by step instead of being re-split.
    ``cache`` is a dict from step text to its step-only features and its
    scores per overlap value; pass one dict to all solutions of a pool so
    each distinct step is featurized once, and drop it with the pool. A
    cache holds scores, so it serves one model only.
    """
    cache = {} if cache is None else cache
    prefix_tokens = set()
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

def _descend(objective, Xs, targets, settings):
    """Full-batch gradient descent from w = 0 on ``objective`` of the logits
    X @ w of each feature matrix in ``Xs``. Returns (w, loss curve)."""
    import numpy as np

    w = np.zeros(Xs[0].shape[1])
    curve = []
    for _ in range(settings.epochs):
        loss, *grads = objective(*(X @ w for X in Xs), targets)
        curve.append(float(loss))
        grad = sum(X.T @ g for X, g in zip(Xs, grads)) / len(targets)
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
    import numpy as np

    settings = settings or TrainSettings()
    if objective in ("soft", "hard"):
        if not examples:
            raise ValueError("pointwise training requires examples")
        X = np.stack([featurize(ex.prefix, ex.step) for ex in examples])
        label = "mc" if objective == "soft" else "hard_label"
        targets = np.array([getattr(ex, label) for ex in examples], dtype=float)
        w, curve = _descend(pointwise_objective, (X,), targets, settings)
    elif objective == "pairwise":
        if not pairs:
            raise ValueError("pairwise training requires preference pairs")
        Xa = np.stack([featurize(p.prefix, p.step_a) for p in pairs])
        Xb = np.stack([featurize(p.prefix, p.step_b) for p in pairs])
        prefs = np.array([p.pref_a for p in pairs], dtype=float)
        w, curve = _descend(pairwise_objective, (Xa, Xb), prefs, settings)
    else:
        raise ValueError(f"unknown objective: {objective!r}")
    model = ToyPrmModel(weights=w, objective=objective, settings=settings)
    return model, curve


# -- checkpoints -----------------------------------------------------------

def save_model(model: ToyPrmModel, path):
    doc = {
        "feature_version": FEATURE_VERSION,
        "n_hash_buckets": N_HASH_BUCKETS,
        "objective": model.objective,
        "settings": asdict(model.settings),
        "weights": [float(w) for w in model.weights],
    }
    write_json(doc, path)


def load_model(path) -> ToyPrmModel:
    """Read the checkpoint at ``path``. Raises ``ParseError`` when it is not
    a whole checkpoint of this feature map (malformed, truncated, nested too
    deeply to parse, another feature version or bucket count, or weights of
    another length or not all finite)."""
    import numpy as np

    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc["feature_version"] != FEATURE_VERSION:
            raise ValueError(f"feature_version {doc['feature_version']!r}, "
                             f"expected {FEATURE_VERSION}")
        if doc["n_hash_buckets"] != N_HASH_BUCKETS:
            raise ValueError(f"n_hash_buckets {doc['n_hash_buckets']!r}, "
                             f"expected {N_HASH_BUCKETS}")
        weights = np.array(doc["weights"], dtype=float)
        if weights.shape != (N_FEATURES,):
            raise ValueError(f"weights of shape {weights.shape}, "
                             f"expected ({N_FEATURES},)")
        if not np.isfinite(weights).all():  # json reads NaN and Infinity
            raise ValueError("a weight is not finite")
        return ToyPrmModel(
            weights=weights,
            objective=doc["objective"],
            settings=TrainSettings(**doc["settings"]),
        )
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise ParseError(f"not a readable model ({exc})") from exc
