"""Wrist planning and manipulation tracking tests."""
import numpy as np
import pytest

from demo2dex.collision import ConvexPiece
from demo2dex.demo import DemoSequence, ObjectGeometry
from demo2dex.geometry import Pose6, Rotation3, pose_distance
from demo2dex.hand import hand_from_dict
from demo2dex.simworld import SimConfig, SimWorld
from demo2dex.synthetic import toy_hand_dict
from demo2dex.wrist import (
    ManipulationPlan,
    WristPlanError,
    plan_wrist,
    track_manipulation,
    wrist_targets_for_pose,
)

from conftest import planar_hand_dict

FPS = 30.0


def make_demo(poses, fps=FPS):
    geometry = ObjectGeometry(
        pieces=[ConvexPiece([[sx * 0.03, sy * 0.03, sz * 0.03]
                             for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])],
        com=np.zeros(3),
        mass=0.1,
    )
    hand = np.zeros((len(poses), 18))
    return DemoSequence(fps=fps, hand=hand, object_poses=list(poses), geometry=geometry)


def random_pose(rng, pos_scale=0.5, rot_scale=0.6):
    rv = rng.normal(size=3)
    rv = rv / np.linalg.norm(rv) * rng.uniform(0, rot_scale)
    return Pose6(rng.uniform(-pos_scale, pos_scale, size=3), Rotation3.from_rotvec(rv))


def random_walk_poses(rng, n, step_pos=0.004, step_rot=0.01):
    poses = [random_pose(rng, pos_scale=0.2, rot_scale=0.4)]
    for _ in range(n - 1):
        prev = poses[-1]
        d_rv = rng.normal(size=3) * step_rot
        poses.append(Pose6(
            prev.pos + rng.normal(size=3) * step_pos,
            Rotation3.from_rotvec(d_rv) @ prev.rot,
        ))
    return poses


def realized_wrist_pose(model, control):
    q = control.copy()
    fk = model.fk(q)
    return model.wrist_pose(fk)


class TestPlanWrist:
    def test_attachment_invariant_on_synthetic_trajectories(self, toy_hand):
        """The executed wrist keeps the grasp-time hand-object transform fixed."""
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(20):
            demo = make_demo(random_walk_poses(rng, 60))
            start = int(rng.integers(5, 30))
            t_grasp = Pose6(rng.uniform(-0.3, 0.3, size=3), random_pose(rng).rot)
            o_grasp = random_pose(rng, pos_scale=0.3, rot_scale=0.5)
            control = toy_hand.mid_range()
            plan = plan_wrist(toy_hand, demo, t_grasp, o_grasp, control, start, FPS)
            assert plan.controls.shape[0] == len(plan.reference_poses) > 0
            for k in range(plan.controls.shape[0]):
                t_k = realized_wrist_pose(toy_hand, plan.controls[k])
                att_k = plan.reference_poses[k].inverse() @ t_k
                dp, da = pose_distance(att_k, plan.attachment)
                worst = max(worst, dp, da)
        assert worst < 1e-9

    def test_static_demo_holds_grasp_pose(self, toy_hand):
        o_grasp = Pose6(np.array([0.1, 0.0, 0.2]), Rotation3.from_rotvec([0, 0, 0.3]))
        demo = make_demo([o_grasp] * 40)
        t_grasp = Pose6(np.array([0.1, 0.05, 0.35]), Rotation3.from_rotvec([0.1, 0, 0]))
        control = toy_hand.mid_range()
        plan = plan_wrist(toy_hand, demo, t_grasp, o_grasp, control, 10, FPS)
        for k in range(plan.controls.shape[0]):
            t_k = realized_wrist_pose(toy_hand, plan.controls[k])
            dp, da = pose_distance(t_k, t_grasp)
            assert max(dp, da) < 1e-12

    def test_offset_grasp_replays_relative_motion(self, toy_hand):
        """A grasp secured off the recorded pose still follows the recorded deltas."""
        rng = np.random.default_rng(33)
        poses = random_walk_poses(rng, 50)
        demo = make_demo(poses)
        start = 12
        offset = Pose6(np.array([0.02, -0.01, 0.03]), Rotation3.from_rotvec([0, 0.05, 0]))
        o_grasp = poses[start] @ offset  # secured slightly off the recording
        t_grasp = o_grasp @ Pose6(np.array([0.0, 0.0, 0.15]), Rotation3.identity())
        plan = plan_wrist(toy_hand, demo, t_grasp, o_grasp, toy_hand.mid_range(), start, FPS)
        for k, ref in enumerate(plan.reference_poses):
            fi = min(int(round(start + k + 1)), demo.length - 1)
            expect = (poses[fi] @ poses[start].inverse()) @ o_grasp
            dp, da = pose_distance(ref, expect)
            assert max(dp, da) < 1e-12

    def test_finger_targets_frozen(self, toy_hand):
        rng = np.random.default_rng(7)
        demo = make_demo(random_walk_poses(rng, 40))
        control = toy_hand.mid_range()
        control[6:] = [0.9, 1.1, 0.8, 1.0, 0.7, 1.2]
        plan = plan_wrist(toy_hand, demo, Pose6.identity(), Pose6.identity(), control, 5, FPS)
        for k in range(plan.controls.shape[0]):
            np.testing.assert_array_equal(plan.controls[k, 6:], control[6:])

    def test_yaw_unwrap_across_branch_cut(self, toy_hand):
        n = 90
        poses = [
            Pose6(np.array([0.2, 0.0, 0.2]), Rotation3.from_rotvec([0, 0, 3.15 * t / (n - 1)]))
            for t in range(n)
        ]
        demo = make_demo(poses)
        o_grasp = poses[5]
        t_grasp = o_grasp @ Pose6(np.array([0, 0, 0.1]), Rotation3.identity())
        plan = plan_wrist(toy_hand, demo, t_grasp, o_grasp, toy_hand.mid_range(), 5, FPS)
        yaw = plan.controls[:, 5]
        assert np.all(np.abs(np.diff(yaw)) < 0.2)
        assert yaw.max() > 3.1  # really did continue past the principal branch

    def test_fixed_base_rejected(self):
        data = planar_hand_dict()
        data["floating_base"] = False
        model = hand_from_dict(data)
        demo = make_demo([Pose6.identity()] * 10)
        with pytest.raises(WristPlanError):
            plan_wrist(model, demo, Pose6.identity(), Pose6.identity(),
                       model.mid_range(), 2, FPS)

    def test_bad_control_shape_rejected(self, toy_hand):
        demo = make_demo([Pose6.identity()] * 10)
        with pytest.raises(WristPlanError):
            plan_wrist(toy_hand, demo, Pose6.identity(), Pose6.identity(),
                       np.zeros(3), 2, FPS)

    def test_start_past_recording_rejected(self, toy_hand):
        demo = make_demo([Pose6.identity()] * 10)
        with pytest.raises(WristPlanError):
            plan_wrist(toy_hand, demo, Pose6.identity(), Pose6.identity(),
                       toy_hand.mid_range(), 9, FPS)

    def test_limit_saturation_warns(self, toy_hand):
        # a far-away reanchor pushes translation targets beyond the base range
        demo = make_demo([Pose6.identity()] * 20)
        o_grasp = Pose6(np.array([2.0, 0.0, 0.0]), Rotation3.identity())
        plan = plan_wrist(toy_hand, demo, o_grasp, o_grasp, toy_hand.mid_range(), 4, FPS)
        assert any("saturate" in w for w in plan.warnings)


class TestWristTargetsForPose:
    def test_unwraps_toward_previous(self, toy_hand):
        prev = np.zeros(6)
        prev[5] = 3.1
        pose = Pose6(np.zeros(3), Rotation3.from_rotvec([0, 0, -3.13]))
        q = wrist_targets_for_pose(toy_hand, pose, prev)
        assert abs(q[5] - prev[5]) < np.pi
        assert q[5] == pytest.approx(2 * np.pi - 3.13, abs=1e-9)

    def test_unwrap_respects_limits(self, toy_hand):
        prev = np.zeros(6)
        prev[5] = 3.1
        # unwrapped value would be 2*pi - 2.9 = 3.38, beyond the 3.2 limit
        pose = Pose6(np.zeros(3), Rotation3.from_rotvec([0, 0, -2.9]))
        q = wrist_targets_for_pose(toy_hand, pose, prev)
        assert q[5] == pytest.approx(-2.9, abs=1e-9)


def falling_box_world(config=None):
    model = hand_from_dict(planar_hand_dict())
    q0 = model.mid_range()
    q0[:3] = [1.4, 1.4, 1.4]
    geometry = ObjectGeometry(
        pieces=[ConvexPiece([[sx * 0.03, sy * 0.03, sz * 0.03]
                             for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])],
        com=np.zeros(3),
        mass=0.1,
    )
    world = SimWorld(
        model, geometry, config=config or SimConfig(), q0=q0,
        object_pose0=Pose6(np.array([0.0, 0.0, 0.5]), Rotation3.identity()),
    )
    return model, world


def hold_plan(model, n, start=7):
    q0 = model.mid_range()
    q0[:3] = [1.4, 1.4, 1.4]
    return ManipulationPlan(
        controls=np.tile(q0, (n, 1)),
        reference_poses=[Pose6.identity()] * n,
        start_step=start,
        attachment=Pose6.identity(),
    )


class TestTrackManipulation:
    def test_drop_detected_after_streak(self):
        model, world = falling_box_world()
        plan = hold_plan(model, 12, start=7)
        out = track_manipulation(world, plan, drop_steps=5)
        assert out.dropped and not out.diverged
        assert out.drop_step == 7 + 5
        assert len(out.records) == 12  # tracking runs to the end regardless

    def test_contact_resets_streak(self):
        # box resting on the ground is still contact-free for the hand
        model, world = falling_box_world()
        plan = hold_plan(model, 4)
        out = track_manipulation(world, plan, drop_steps=10)
        assert not out.dropped
        assert out.drop_step is None

    def test_wrist_gains_doubled_for_carry(self):
        model, world = falling_box_world()
        kp0, kd0 = world.kp.copy(), world.kd.copy()
        clone = world.clone()
        track_manipulation(world, hold_plan(model, 2), drop_steps=5)
        np.testing.assert_allclose(world.kp[:6], 2.0 * kp0[:6])
        np.testing.assert_allclose(world.kd[:6], 2.0 * kd0[:6])
        np.testing.assert_allclose(world.kp[6:], kp0[6:])
        np.testing.assert_allclose(world.kd[6:], kd0[6:])
        # a clone taken before the carry keeps the grasp gains
        np.testing.assert_array_equal(clone.kp, kp0)
        np.testing.assert_array_equal(clone.kd, kd0)

    def test_divergence_truncates_and_flags(self):
        cfg = SimConfig(energy_limit=1e-6)
        model, world = falling_box_world(config=cfg)
        plan = hold_plan(model, 10, start=3)
        out = track_manipulation(world, plan, drop_steps=5)
        assert out.diverged and out.dropped
        assert out.drop_step == 3
        assert len(out.records) < 10
