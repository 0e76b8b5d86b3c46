"""Reward components, action rescaling, and episode construction."""
import numpy as np
import pytest

from demo2dex.adapt import (
    DELTA_MAX,
    DIVERGENCE_PENALTY,
    EPSILON,
    ActionRescaler,
    AdaptError,
    EpisodeSpec,
    GraspEnv,
    MappedContact,
    compute_reward,
    find_goal_frame,
    map_contacts,
    select_pregrasp,
)
from demo2dex.demo import ContactSet
from demo2dex.geometry import Pose6, Rotation3
from demo2dex.hand import HandModel
from demo2dex.retarget import ControlPlan, fit_smooth_trajectory
from demo2dex.simworld import SimConfig, SimWorld

RNG = np.random.default_rng(31)


def reward_args(
    tips,
    contacts,
    q=None,
    q_target=None,
    distal=None,
    obj_pos=(0.0, 0.0, 0.0),
    obj_rot=None,
    target_pos=(0.0, 0.0, 0.1),
    target_rot=None,
    z0=0.0,
    d_closest=None,
):
    """Assemble compute_reward arguments with plain defaults."""
    n = len(contacts)
    mapped = [MappedContact(finger=i, point_obj=np.asarray(c, dtype=np.float64)) for i, c in enumerate(contacts)]
    return dict(
        q=np.asarray(q if q is not None else [1.0, 0.0], dtype=np.float64),
        q_target=np.asarray(q_target if q_target is not None else [1.0, 0.0], dtype=np.float64),
        fingertips=np.asarray(tips, dtype=np.float64),
        distal_distances=np.asarray(distal if distal is not None else [1.0] * n),
        object_pose=Pose6(np.asarray(obj_pos, dtype=np.float64), obj_rot or Rotation3.identity()),
        object_z0=z0,
        target_pose=Pose6(np.asarray(target_pos, dtype=np.float64), target_rot or Rotation3.identity()),
        mapped=mapped,
        d_closest=d_closest,
    )


def test_approach_reward_tracks_running_minimum():
    # one contact at the origin, fingertip walking in then back out
    distances = [0.05, 0.03, 0.04, 0.01]
    d_closest = None
    seen = []
    for d in distances:
        args = reward_args(tips=[[d, 0.0, 0.0]], contacts=[[0.0, 0.0, 0.0]])
        args["d_closest"] = d_closest
        total, comp, d_closest = compute_reward(**args)
        seen.append(comp["r_approach"])
    assert np.allclose(seen, [0.0, 0.02, 0.0, 0.02], atol=1e-12)
    assert d_closest == pytest.approx(0.01)


def test_enclosure_gates_grasp_term():
    # both tips inside epsilon: the grasp term pays out
    args = reward_args(
        tips=[[0.01, 0, 0], [0.0, 0.05, 0]],
        contacts=[[0, 0, 0], [0, 0, 0]],
        distal=[0.001, 0.1],
    )
    total, comp, _ = compute_reward(**args)
    assert comp["enclosed"] == 1.0
    assert comp["r_con"] == 1.0
    assert total == pytest.approx(10.0 * comp["r_approach"] + 10.0 * comp["r_grasp"])
    # one tip drifts past epsilon: same contact geometry pays nothing
    args = reward_args(
        tips=[[0.01, 0, 0], [0.0, EPSILON + 1e-6, 0]],
        contacts=[[0, 0, 0], [0, 0, 0]],
        distal=[0.001, 0.1],
    )
    total2, comp2, _ = compute_reward(**args)
    assert comp2["enclosed"] == 0.0
    assert total2 == pytest.approx(10.0 * comp2["r_approach"])


def test_hold_requires_first_distal_plus_another():
    tips = [[0.0, 0, 0], [0.0, 0.01, 0]]
    contacts = [[0, 0, 0], [0, 0.01, 0]]
    # both touching: hold
    _, comp, _ = compute_reward(**reward_args(tips, contacts, distal=[0.001, 0.001]))
    assert comp["hold"] == 1.0
    # only the second touching: no hold without the first digit
    _, comp, _ = compute_reward(**reward_args(tips, contacts, distal=[0.1, 0.001]))
    assert comp["hold"] == 0.0
    # only the first: still no hold
    _, comp, _ = compute_reward(**reward_args(tips, contacts, distal=[0.001, 0.1]))
    assert comp["hold"] == 0.0


def test_lift_reward_branches():
    tips = [[0.0, 0, 0], [0.0, 0.01, 0]]
    contacts = [[0, 0, 0], [0, 0.01, 0]]
    # below the height gate: proportional, saturating at 2
    args = reward_args(tips, contacts, distal=[0.001, 0.001], obj_pos=(0, 0, 0.015))
    _, comp, _ = compute_reward(**args)
    assert comp["r_lift"] == pytest.approx(1.5)
    args = reward_args(tips, contacts, distal=[0.001, 0.001], obj_pos=(0, 0, 0.02))
    _, comp, _ = compute_reward(**args)
    assert comp["r_lift"] == pytest.approx(2.0)
    # above the gate: pose-tracking branch, max 15 at the target
    args = reward_args(
        tips, contacts, distal=[0.001, 0.001], obj_pos=(0, 0, 0.1), target_pos=(0, 0, 0.1)
    )
    _, comp, _ = compute_reward(**args)
    assert comp["r_lift"] == pytest.approx(15.0)
    # position error and tilt are both charged
    rot = Rotation3.from_axis_angle([1, 0, 0], 0.2)
    args = reward_args(
        tips, contacts, distal=[0.001, 0.001],
        obj_pos=(0.0, 0.02, 0.1), obj_rot=rot, target_pos=(0, 0, 0.1),
    )
    _, comp, _ = compute_reward(**args)
    assert comp["r_lift"] == pytest.approx(15.0 - 10.0 * 0.2 - 50.0 * 0.02)


def test_similarity_is_cosine_of_full_vector():
    tips = [[0, 0, 0]]
    contacts = [[0, 0, 0]]
    q = [1.0, 0.0, 1.0]
    q_target = [1.0, 1.0, 0.0]
    _, comp, _ = compute_reward(**reward_args(tips, contacts, q=q, q_target=q_target, distal=[1.0]))
    assert comp["r_sim"] == pytest.approx(0.5)
    _, comp, _ = compute_reward(**reward_args(tips, contacts, q=[0, 0, 0], q_target=q_target, distal=[1.0]))
    assert comp["r_sim"] == 0.0


def test_total_composition_weights():
    # tips riding with the lifted object: all gates open
    tips = [[0.0, 0, 0.1], [0.0, 0.01, 0.1]]
    contacts = [[0, 0, 0], [0, 0.01, 0]]
    args = reward_args(
        tips, contacts, distal=[0.001, 0.001], obj_pos=(0, 0, 0.1),
        target_pos=(0, 0, 0.1), d_closest=0.5,
    )
    total, comp, _ = compute_reward(**args)
    assert comp["enclosed"] == 1.0 and comp["hold"] == 1.0
    assert total == pytest.approx(10.0 * 0.5 + 10.0 * 1.5 + 20.0 * 15.0, abs=1e-12)
    # the composite honors both boolean gates multiplicatively
    want = (
        10.0 * comp["r_approach"]
        + comp["enclosed"] * 10.0 * comp["r_grasp"]
        + comp["hold"] * 20.0 * comp["r_lift"]
    )
    assert total == pytest.approx(want, abs=1e-12)


def test_map_contacts_resolves_fingers(toy_hand):
    cs = ContactSet(
        points=np.array([[0.03, 0.0, 0.0], [-0.03, 0.0, 0.0]]),
        finger_ids=(0, 1),
    )
    mapped = map_contacts(cs, toy_hand)
    assert len(mapped) == 2
    n_tips = len(toy_hand.fingertip_sites)
    for mc in mapped:
        assert 0 <= mc.finger < n_tips
        assert mc.point_obj.shape == (3,)
    assert mapped[0].finger != mapped[1].finger


def test_map_contacts_rejects_unmapped_finger(toy_hand):
    cs = ContactSet(points=np.zeros((1, 3)), finger_ids=(4,))
    if 4 not in toy_hand.correspondence:
        with pytest.raises(AdaptError):
            map_contacts(cs, toy_hand)


class TestActionRescaler:
    def make(self, toy_hand):
        return ActionRescaler(toy_hand)

    def test_decode_centers_on_base(self, toy_hand):
        rs = self.make(toy_hand)
        base = toy_hand.mid_range()
        out = rs.decode(np.zeros(toy_hand.dof), base)
        # zero action reproduces the base wherever the base is inside bounds
        assert np.allclose(out[:6], base[:6], atol=1e-12)

    def test_wrist_containment_bulk(self, toy_hand):
        rs = self.make(toy_hand)
        base = toy_hand.mid_range()
        for _ in range(2000):
            a = RNG.uniform(-5, 5, toy_hand.dof)
            out = rs.decode(a, base)
            assert np.all(out[:6] <= base[:6] + rs.rho + 1e-12)
            assert np.all(out[:6] >= base[:6] - rs.rho - 1e-12)
            assert np.all(out >= toy_hand.limits_lo - 1e-12)
            assert np.all(out <= toy_hand.limits_hi + 1e-12)

    def test_fingers_reach_full_range(self, toy_hand):
        rs = self.make(toy_hand)
        base = toy_hand.mid_range()
        hi = rs.decode(np.full(toy_hand.dof, 50.0), base)
        lo = rs.decode(np.full(toy_hand.dof, -50.0), base)
        assert np.allclose(hi[6:], toy_hand.limits_hi[6:], atol=1e-9)
        assert np.allclose(lo[6:], toy_hand.limits_lo[6:], atol=1e-9)

    def test_residual_clamped_in_normalized_units(self, toy_hand):
        rs = self.make(toy_hand)
        base = toy_hand.mid_range()
        out = rs.residual(base, np.full(toy_hand.dof, 100.0))
        moved = rs.encode(out, base) - rs.encode(base, base)
        assert np.all(np.abs(moved) <= DELTA_MAX + 1e-9)
        # and within the wrist box regardless of the residual's size
        assert np.all(np.abs(out[:6] - base[:6]) <= rs.rho + 1e-12)

    def test_encode_decode_round_trip(self, toy_hand):
        rs = self.make(toy_hand)
        base = toy_hand.mid_range()
        for _ in range(100):
            a = RNG.uniform(-0.15, 0.15, toy_hand.dof)
            out = rs.decode(a, base)
            back = rs.encode(out, base)
            assert np.allclose(rs.decode(back, base), out, atol=1e-9)


class FakeRecord:
    """Replay-record stand-in carrying only what pre-grasp selection reads."""

    def __init__(self, dist, contact):
        self.hand_contact = contact
        self.object_pose = Pose6.identity()
        self.fingertips = np.array([[dist, 0.0, 0.0]])


GUIDE_MAP = [MappedContact(finger=0, point_obj=np.zeros(3))]


def fake_records(tip_dists, contacts):
    return [FakeRecord(d, c) for d, c in zip(tip_dists, contacts)]


def small_env(toy_hand, lift_demo) -> GraspEnv:
    """A ten-step episode holding toy3 at mid-range beside the resting box."""
    q0 = toy_hand.mid_range()
    q_path = np.tile(q0, (4, 1))
    plan = ControlPlan(
        q_path=q_path,
        spline=fit_smooth_trajectory(q_path, 30.0),
        a_primary=np.tile(q0, (10, 1)),
        frequency=120.0,
        fps=30.0,
    )
    episode = EpisodeSpec(
        pregrasp_step=0, goal_step=5, horizon=10, target_pose=lift_demo.object_poses[-1]
    )
    world = SimWorld(toy_hand, lift_demo.geometry, SimConfig(), q0, lift_demo.object_poses[0])
    return GraspEnv(world, plan, episode, GUIDE_MAP)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_action_ends_episode_as_divergence(toy_hand, lift_demo, bad):
    env = small_env(toy_hand, lift_demo)
    env.reset()
    action = np.zeros(env.dim_act)
    action[-1] = bad
    obs, reward, done, info = env.step(action)
    assert reward == DIVERGENCE_PENALTY
    assert done and info["diverged"]
    assert obs.shape == (env.dim_obs,)
    assert not env.success()


def test_one_fk_per_env_step(toy_hand, lift_demo, monkeypatch):
    env = small_env(toy_hand, lift_demo)
    calls = []
    fk = HandModel.fk

    def counted_fk(self, q):
        calls.append(q)
        return fk(self, q)

    monkeypatch.setattr(HandModel, "fk", counted_fk)
    env.reset()
    assert not calls  # the reset reads the start snapshot's cached kinematics
    done, steps = False, 0
    while not done:
        _, _, done, _ = env.step(np.zeros(env.dim_act))
        steps += 1
        assert len(calls) == steps
    assert steps == 10


def test_select_pregrasp_nearest_keeps_earliest_on_plateau():
    dists = [0.5, 0.3, 0.1, 0.05, 0.02, 0.011, 0.01, 0.0099999, 0.0099998]
    recs = fake_records(dists, [False] * 9)
    idx, warnings = select_pregrasp(recs, GUIDE_MAP)
    assert idx == 6  # sub-micron creep does not move the selection
    assert warnings == []


def test_select_pregrasp_skips_contact_steps():
    dists = [0.5, 0.3, 0.1, 0.05, 0.02, 0.011, 0.01, 0.005, 0.001]
    contact = [False] * 7 + [True, True]
    recs = fake_records(dists, contact)
    idx, _ = select_pregrasp(recs, GUIDE_MAP)
    assert idx == 6  # closer steps are already touching and ineligible


def test_select_pregrasp_threshold_mode():
    dists = [0.5, 0.3, 0.1, 0.05, 0.02, 0.011, 0.01, 0.01, 0.01]
    recs = fake_records(dists, [False] * 9)
    idx, warnings = select_pregrasp(recs, GUIDE_MAP, threshold=0.06)
    assert idx == 3  # first contact-free step under the threshold
    assert warnings == []


def test_select_pregrasp_threshold_fallback_warns():
    dists = [0.5, 0.3, 0.1]
    recs = fake_records(dists, [False] * 3)
    idx, warnings = select_pregrasp(recs, GUIDE_MAP, threshold=0.01)
    assert idx == 2  # nearest fallback
    assert len(warnings) == 1 and "falling back" in warnings[0]


def test_select_pregrasp_all_touching_raises():
    recs = fake_records([0.1, 0.05], [True, True])
    with pytest.raises(AdaptError):
        select_pregrasp(recs, GUIDE_MAP)


def test_find_goal_frame_on_bundled_demo(lift_demo):
    goal, warnings = find_goal_frame(lift_demo)
    # recorded lift tops out 0.1 m above the start at frame 120
    assert goal == 120
    assert warnings == []


def test_find_goal_frame_warns_without_motion(lift_demo):
    import dataclasses

    frozen = dataclasses.replace(
        lift_demo, object_poses=[lift_demo.object_poses[0]] * lift_demo.length
    )
    goal, warnings = find_goal_frame(frozen)
    assert 0 <= goal < frozen.length  # peak-deviation fallback
    assert warnings  # static recording earns an explicit warning
