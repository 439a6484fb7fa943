"""Unit checks of the closed-form pieces against independently computed values.

Expected constants were evaluated with mpmath at 30 digits and frozen here.
"""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from omegaprm.core import EngineConfig
from omegaprm.dataset import normalize_pair
from omegaprm.mcts import exploration_bonus, rollout_value
from omegaprm.prm import pairwise_objective, pointwise_objective

REL = 1e-9
CFG = EngineConfig()


def relclose(a, b, rel=REL):
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)


def logit(y):
    """The logit of prediction y; 0 and 1 map to -inf and inf."""
    with np.errstate(divide="ignore"):
        return float(np.log(y) - np.log1p(-y))


def pointwise(y_hat, z):
    """(loss, dL/dz) of one example with label y_hat and logit z."""
    # A logit far below 0 overflows exp to inf; the sigmoid's clip then
    # gives SCORE_EPS as intended.
    with np.errstate(over="ignore"):
        loss, g = pointwise_objective(np.array([z]), np.array([y_hat]))
    return float(loss), float(g[0])


def pairwise(pref, za, zb):
    """(loss, dL/dza, dL/dzb) of one pair with target pref and logits
    za, zb."""
    loss, ga, gb = pairwise_objective(
        np.array([za]), np.array([zb]), np.array([pref]))
    return float(loss), float(ga[0]), float(gb[0])


def pointwise_loss(y_hat, y):
    """The loss alone, of a prediction y rather than a logit."""
    return pointwise(y_hat, logit(y))[0]


def pairwise_loss(pref, ya, yb):
    """The loss alone, of predictions ya, yb rather than logits."""
    return pairwise(pref, logit(ya), logit(yb))[0]


class TestRolloutValue:
    def test_perfect_short_rollout(self):
        assert rollout_value(1, 0, CFG) == 1.0

    def test_half_mc_at_scale_length(self):
        assert relclose(rollout_value(0.5, 500, CFG), 0.636396103067892772)

    def test_zero_mc_long_rollout(self):
        assert relclose(rollout_value(0, 1000, CFG), 0.405)

    @given(
        st.floats(0, 1), st.floats(0, 1),
        st.integers(0, 5000), st.integers(0, 5000),
    )
    def test_monotone_in_mc_and_length(self, mc1, mc2, l1, l2):
        lo_mc, hi_mc = sorted([mc1, mc2])
        short, long = sorted([l1, l2])
        assert rollout_value(lo_mc, short, CFG) <= rollout_value(hi_mc, short, CFG)
        assert rollout_value(hi_mc, long, CFG) <= rollout_value(hi_mc, short, CFG)


class TestExplorationBonus:
    def test_zero_total_visits(self):
        assert exploration_bonus(5, 0, CFG) == 0.0

    def test_reference_point(self):
        assert relclose(exploration_bonus(3, 16, CFG), 0.125)

    def test_unvisited_state(self):
        assert relclose(exploration_bonus(0, 1, CFG), 0.125)

    def test_decreasing_in_state_visits(self):
        assert exploration_bonus(0, 16, CFG) > exploration_bonus(4, 16, CFG)


class TestNormalizePair:
    def test_certain_preference(self):
        assert normalize_pair(1.0, 0.0) == (1.0, 0.0)

    def test_symmetry_at_equal_mc(self):
        assert normalize_pair(0.3, 0.3) == (0.5, 0.5)

    def test_reference_point(self):
        pa, pb = normalize_pair(0.75, 0.25)
        assert relclose(pa, 0.75) and relclose(pb, 0.25)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            normalize_pair(1.2, 0.5)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            normalize_pair(0.5, -0.1)

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_outputs_sum_to_one_and_in_range(self, p, q):
        pa, pb = normalize_pair(p, q)
        assert relclose(pa + pb, 1.0, rel=1e-12)
        assert 0.0 <= pa <= 1.0 and 0.0 <= pb <= 1.0

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_swap_symmetry(self, p, q):
        pa, _ = normalize_pair(p, q)
        qb, _ = normalize_pair(q, p)
        assert relclose(pa, 1.0 - qb, rel=1e-12)


class TestPointwiseLoss:
    def test_perfect_prediction(self):
        assert pointwise_loss(1.0, 1.0) < 1e-6

    def test_entropy_at_soft_label(self):
        assert relclose(pointwise_loss(2 / 3, 2 / 3), 0.636514168294812818)

    def test_uniform_prediction_of_wrong_step(self):
        assert relclose(pointwise_loss(0.0, 0.5), 0.693147180559945309)

    @pytest.mark.parametrize("y_hat", [0.0, 0.25, 2 / 3, 1.0])
    def test_minimized_at_label(self, y_hat):
        # Grid scan: no prediction beats y = y_hat.
        at_label = pointwise_loss(y_hat, y_hat)
        for i in range(1, 100):
            assert pointwise_loss(y_hat, i / 100) >= at_label - 1e-12

    @given(st.floats(0, 1), st.floats(0.01, 0.99))
    def test_calibration(self, y_hat, y):
        assert pointwise_loss(y_hat, y) >= pointwise_loss(y_hat, y_hat) - 1e-12


class TestPairwiseLoss:
    def test_confident_correct_preference(self):
        assert pairwise_loss(1.0, 0.999999, 1e-6) < 1e-4

    def test_uniform_target_uniform_prediction(self):
        assert relclose(pairwise_loss(0.5, 0.4, 0.4), 0.693147180559945309)

    @given(st.floats(0, 1), st.floats(0.01, 0.99), st.floats(0.01, 0.99))
    def test_swap_invariance(self, pref, ya, yb):
        assert math.isclose(
            pairwise_loss(pref, ya, yb),
            pairwise_loss(1.0 - pref, yb, ya),
            rel_tol=1e-12,
        )


class TestLossGradients:
    POINTS = [
        (0.0, 0.3), (1.0, 0.7), (0.5, 0.5), (2 / 3, 0.2), (0.9, 0.85),
    ]

    @pytest.mark.parametrize("y_hat,y", POINTS)
    def test_pointwise_grad_matches_finite_differences(self, y_hat, y):
        h = 1e-6
        z = logit(y)
        _, g = pointwise(y_hat, z)
        fd = (pointwise(y_hat, z + h)[0] - pointwise(y_hat, z - h)[0]) / (2 * h)
        assert math.isclose(g, fd, rel_tol=1e-6)

    PAIR_POINTS = [
        (0.75, 0.6, 0.3), (0.5, 0.5, 0.5), (1.0, 0.8, 0.4), (0.25, 0.2, 0.7),
    ]

    @pytest.mark.parametrize("pref,ya,yb", PAIR_POINTS)
    def test_pairwise_grad_matches_finite_differences(self, pref, ya, yb):
        h = 1e-6
        za, zb = logit(ya), logit(yb)
        _, ga, gb = pairwise(pref, za, zb)
        fda = (pairwise(pref, za + h, zb)[0] - pairwise(pref, za - h, zb)[0]) / (2 * h)
        fdb = (pairwise(pref, za, zb + h)[0] - pairwise(pref, za, zb - h)[0]) / (2 * h)
        assert math.isclose(ga, fda, rel_tol=1e-5, abs_tol=1e-9)
        assert math.isclose(gb, fdb, rel_tol=1e-5, abs_tol=1e-9)
