"""Retargeting recovers the joint vectors whose kinematics made its targets,
every solve goes through the module's `minimize`, and that L-BFGS-B loop
gives what `scipy.optimize.minimize` gives, bit for bit."""
import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import _lbfgsb

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
    # the L-BFGS-B kernel starts, the warm start of every frame and every restart
    model, _ = resolve_hand("toy3")
    demo, _ = resolve_demo("lift_box")
    frames = demo.hand[::60]
    started, seen = [], []
    kernel, module_minimize = _lbfgsb.setulb, retarget.minimize

    def kernel_counted(m, x, l, u, nbd, f, g, factr, pgtol, wa, iwa, task, *rest):
        if task[0] == 0:  # START: a new solve
            started.append(x.copy())
        return kernel(m, x, l, u, nbd, f, g, factr, pgtol, wa, iwa, task, *rest)

    def module_counted(fun, x0, lo, hi):
        seen.append(x0)
        return module_minimize(fun, x0, lo, hi)

    monkeypatch.setattr(_lbfgsb, "setulb", kernel_counted)
    monkeypatch.setattr(retarget, "minimize", module_counted)
    seq = retarget.retarget_sequence(model, frames)
    assert len(seen) == len(started)
    assert all(np.array_equal(model.clamp(a), b) for a, b in zip(seen, started))
    # each frame's warm start is the previous solution; every other solve is
    # a restart, and this stretch of the lift needs some
    warm = [model.clamp(q) for q in [model.mid_range(), *seq.q_path[:-1]]]
    starts = [i for i, x0 in enumerate(started) if any(np.array_equal(x0, w) for w in warm)]
    assert len(starts) == len(frames)
    assert len(seen) > len(frames)


# -- the L-BFGS-B loop against scipy's own --------------------------------------------

def kernel_calls(monkeypatch, calls: list):
    """Record every `setulb` call, from either loop: the bytes of x, f, g and
    the task it is given, and its settings and workspace sizes."""
    kernel = _lbfgsb.setulb

    def recorded(m, x, l, u, nbd, f, g, factr, pgtol, wa, iwa, task, lsave, isave, dsave, maxls, ln_task):
        settings = (m, l.tobytes(), u.tobytes(), nbd.tolist(), float(factr), float(pgtol), maxls)
        sizes = tuple(len(a) for a in (wa, iwa, task, lsave, isave, dsave, ln_task))
        calls.append((x.tobytes(), float(f), g.tobytes(), task.tobytes(), settings, sizes))
        return kernel(m, x, l, u, nbd, f, g, factr, pgtol, wa, iwa, task, lsave, isave, dsave, maxls, ln_task)

    monkeypatch.setattr(_lbfgsb, "setulb", recorded)


def assert_matches_scipy(monkeypatch, fun, x0, lo, hi):
    """`retarget.minimize` against `scipy.optimize.minimize` with the same
    options: the same result bit for bit, the same points evaluated and the
    same values handed to the kernel. Returns the result."""
    runs = []
    for solve in ("ours", "scipy"):
        points, calls = [], []

        def logged(x):
            points.append(x.tobytes())
            return fun(x)

        with monkeypatch.context() as patch:
            kernel_calls(patch, calls)
            if solve == "ours":
                res = retarget.minimize(logged, x0, lo, hi)
            else:
                res = scipy.optimize.minimize(
                    logged,
                    x0,
                    jac=True,
                    method="L-BFGS-B",
                    bounds=list(zip(lo, hi)),
                    options={
                        "maxiter": retarget.MAX_ITER,
                        "ftol": retarget.FTOL,
                        "gtol": retarget.GRAD_TOL,
                        "maxfun": retarget.MAX_FUN,
                    },
                )
        runs.append((res, points, calls))
    (ours, our_points, our_calls), (ref, ref_points, ref_calls) = runs
    assert ours.x.tobytes() == ref.x.tobytes()
    assert ours.fun == ref.fun
    assert (ours.nit, ours.status, ours.success) == (ref.nit, ref.status, ref.success)
    assert our_points == ref_points
    assert our_calls == ref_calls
    return ours


def frame_objective(model, h, q_prev, smooth_weight=retarget.SMOOTH_WEIGHT):
    """The objective `retarget_frame` minimises for hand frame `h`."""
    tips, normal = retarget.split_hand_frame(h)
    targets = retarget._mapped_targets(model, tips)

    def fun(q):
        f, g, _ = retarget._objective_terms(model, q, targets, normal, q_prev, smooth_weight)
        return f, g

    return fun


@pytest.mark.parametrize("hand_name", BUNDLED_HANDS)
def test_minimize_matches_scipy_on_the_bundled_recording(hand_name, monkeypatch):
    model, _ = resolve_hand(hand_name)
    demo, _ = resolve_demo("lift_box")
    lo, hi = model.limits_lo, model.limits_hi
    q_prev = model.mid_range()
    fun = frame_objective(model, demo.hand[120], q_prev)
    warm = assert_matches_scipy(monkeypatch, fun, q_prev, lo, hi)
    assert warm.status == 0 and warm.nit > 1
    restart = lo + np.random.default_rng(3).random(model.dof) * (hi - lo)
    assert_matches_scipy(monkeypatch, fun, restart, lo, hi)


def test_minimize_stopped_by_max_iter_matches_scipy(monkeypatch):
    model, _ = resolve_hand("allegro16")
    demo, _ = resolve_demo("lift_box")
    fun = frame_objective(model, demo.hand[0], model.mid_range(), 0.0)
    monkeypatch.setattr(retarget, "MAX_ITER", 3)
    res = assert_matches_scipy(monkeypatch, fun, model.mid_range(), model.limits_lo, model.limits_hi)
    assert (res.nit, res.status, res.success) == (3, 1, False)


def test_minimize_matches_scipy_on_every_bound_type(monkeypatch):
    # no bound, lower only, upper only, both: scipy's bound types 0, 1, 3, 2;
    # the lower and the upper bound hold at the optimum, and the start lies
    # outside the box, so it is clipped
    lo = np.array([-np.inf, 0.5, -np.inf, -1.0])
    hi = np.array([np.inf, np.inf, -0.5, 1.0])
    target = np.array([1.0, -1.0, 1.0, 0.3])

    def fun(x):
        d = x - target
        coupled = x[0] * x[1]
        return float(d.dot(d) + coupled * coupled), 2.0 * d + 2.0 * coupled * np.array([x[1], x[0], 0.0, 0.0])

    calls = []
    kernel_calls(monkeypatch, calls)
    res = retarget.minimize(fun, np.array([3.0, -2.0, 2.0, 4.0]), lo, hi)
    settings = calls[0][4]
    assert settings[3] == [0, 1, 3, 2]  # nbd
    assert res.success and res.x[1] == 0.5 and res.x[2] == -0.5
    monkeypatch.undo()
    assert_matches_scipy(monkeypatch, fun, np.array([3.0, -2.0, 2.0, 4.0]), lo, hi)
