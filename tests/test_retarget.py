"""Retargeting recovers the joint vectors whose kinematics made its targets,
and every solve goes through the module's `minimize`."""
import numpy as np
import pytest
import scipy.optimize

from demo2dex import retarget
from demo2dex.pipeline import resolve_demo, resolve_hand
from demo2dex.retarget import HUMAN_FINGERS, retarget_frame

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
    for _ in range(3):
        q_star = model.limits_lo + RNG.random(model.dof) * (model.limits_hi - model.limits_lo)
        q0 = model.clamp(q_star + RNG.uniform(-0.1, 0.1, model.dof))
        res = retarget_frame(model, fk_frame(model, q_star), q0, smooth_weight=0.0)
        assert res.mean_tip_error <= 1e-3


def test_every_solve_goes_through_the_module_minimize(monkeypatch):
    # a profiler wraps `retarget.minimize` by name: it must see each solve
    # scipy makes, the warm start of every frame and every restart
    model, _ = resolve_hand("toy3")
    demo, _ = resolve_demo("lift_box")
    frames = demo.hand[::60]
    solved, seen = [], []
    scipy_minimize, module_minimize = scipy.optimize.minimize, retarget.minimize

    def scipy_counted(fun, x0, **kwargs):
        solved.append(x0)
        return scipy_minimize(fun, x0, **kwargs)

    def module_counted(fun, x0, **kwargs):
        seen.append(x0)
        return module_minimize(fun, x0, **kwargs)

    monkeypatch.setattr(scipy.optimize, "minimize", scipy_counted)
    monkeypatch.setattr(retarget, "minimize", module_counted)
    seq = retarget.retarget_sequence(model, frames)
    assert len(seen) == len(solved)
    assert all(a is b for a, b in zip(seen, solved))
    # each frame's warm start is the clamped previous solution; every other
    # solve is a restart, and this stretch of the lift needs some
    warm = [model.clamp(q) for q in [model.mid_range(), *seq.q_path[:-1]]]
    starts = [i for i, x0 in enumerate(seen) if any(np.array_equal(x0, w) for w in warm)]
    assert len(starts) == len(frames)
    assert len(seen) > len(frames)
