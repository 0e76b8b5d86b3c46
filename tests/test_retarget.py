"""Retargeting recovers the joint vectors whose kinematics made its targets."""
import numpy as np
import pytest

from demo2dex.pipeline import resolve_hand
from demo2dex.retarget import HUMAN_FINGERS, RetargetWeights, retarget_frame

from conftest import BUNDLED_HANDS

RNG = np.random.default_rng(7)


def fk_frame(model, q) -> np.ndarray:
    """Hand frame of the robot at `q`: its mapped fingertips and its palm normal.
    Human fingers the hand does not map keep zeros, which the solver never reads."""
    fk = model.fk(q)
    tips = np.zeros((HUMAN_FINGERS, 3))
    for finger, site in model.correspondence.items():
        tips[finger] = fk.sites[model.fingertip_order[site]]
    return np.concatenate([tips.ravel(), model.palm_normal(fk)])


@pytest.mark.parametrize("hand_name", BUNDLED_HANDS)
def test_retarget_frame_recovers_fk_targets(hand_name):
    model, _ = resolve_hand(hand_name)
    weights = RetargetWeights(smooth_weight=0.0)
    for _ in range(3):
        q_star = model.limits_lo + RNG.random(model.dof) * (model.limits_hi - model.limits_lo)
        q0 = model.clamp(q_star + RNG.uniform(-0.1, 0.1, model.dof))
        res = retarget_frame(model, fk_frame(model, q_star), q0, weights)
        assert res.mean_tip_error <= 1e-3
