"""Dynamics checks: closed-form kinematics of falling bodies, inertia
tensors, resting and sliding contact, determinism, replay snapshots."""
import hashlib

import numpy as np
import pytest

from demo2dex.collision import ConvexPiece
from demo2dex.demo import ObjectGeometry
from demo2dex.geometry import Pose6, Rotation3
from demo2dex.hand import FKResult, hand_from_dict
from demo2dex.simworld import (
    DT,
    SUBSTEPS,
    SimConfig,
    SimDivergenceError,
    SimWorld,
    _body_inertia,
    replay,
)
from demo2dex.synthetic import WRIST_GRASP

from conftest import planar_hand_dict

GRAV = 9.81


def box_geometry(half=(0.03, 0.03, 0.03), mass=0.1, com=(0.0, 0.0, 0.0)) -> ObjectGeometry:
    h = np.asarray(half, dtype=np.float64)
    corners = np.array([
        h * np.array([sx, sy, sz])
        for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)
    ])
    return ObjectGeometry(
        pieces=[ConvexPiece(corners)], com=np.asarray(com, dtype=np.float64), mass=mass
    )


def far_hand_world(geometry, config=None, pose=None) -> SimWorld:
    """World whose hand is parked far from the object."""
    model = hand_from_dict(planar_hand_dict())
    q0 = model.mid_range()
    q0[:3] = [1.4, 1.4, 1.4]
    return SimWorld(
        model, geometry, config=config or SimConfig(), q0=q0,
        object_pose0=pose or Pose6(np.array([0.0, 0.0, 1.0]), Rotation3.identity()),
    )


def test_box_inertia_matches_analytic():
    m = 0.37
    a, b, c = 0.05, 0.02, 0.08  # half extents
    geo = box_geometry(half=(a, b, c), mass=m)
    inertia = _body_inertia(geo)
    lx, ly, lz = 2 * a, 2 * b, 2 * c
    want = m / 12.0 * np.diag([ly**2 + lz**2, lx**2 + lz**2, lx**2 + ly**2])
    assert np.allclose(inertia, want, rtol=1e-9, atol=1e-12)


def test_box_inertia_with_lowered_com():
    m = 0.2
    h = 0.03
    s = np.array([0.0, 0.0, -0.012])  # declared COM below the centroid
    geo = box_geometry(half=(h, h, h), mass=m, com=s)
    inertia = _body_inertia(geo)
    side = 2 * h
    i_c = m / 12.0 * np.diag([2 * side**2, 2 * side**2, 2 * side**2]) / 2
    i_c = m / 12.0 * np.diag([side**2 + side**2, side**2 + side**2, side**2 + side**2])
    shift = m * (np.dot(s, s) * np.eye(3) - np.outer(s, s))
    assert np.allclose(inertia, i_c + shift, rtol=1e-9, atol=1e-12)


def test_free_fall_matches_discrete_closed_form():
    world = far_hand_world(box_geometry())
    z0 = world.object_pose().pos[2]
    hand_q = world.q.copy()
    steps = 30
    for _ in range(steps):
        state = world.step(hand_q)
    n = steps * SUBSTEPS
    h = DT / SUBSTEPS
    drop_discrete = GRAV * h * h * n * (n + 1) / 2.0
    got = z0 - state.object_pose.pos[2]
    assert abs(got - drop_discrete) < 1e-12
    # and the continuous law within the integrator's O(1/n) bias
    t = steps * DT
    assert abs(got - 0.5 * GRAV * t * t) / (0.5 * GRAV * t * t) < 0.02


def test_free_fall_keeps_orientation_and_xy():
    world = far_hand_world(box_geometry())
    hand_q = world.q.copy()
    for _ in range(40):
        state = world.step(hand_q)
    assert np.allclose(state.object_pose.pos[:2], 0.0, atol=1e-12)
    assert np.allclose(state.object_pose.rot.as_matrix(), np.eye(3), atol=1e-12)
    assert not state.hand_contact


def test_resting_contact_settles_on_ground():
    cfg = SimConfig()
    geo = box_geometry(mass=0.1)
    start = Pose6(np.array([0.2, -0.1, 0.03]), Rotation3.identity())
    world = far_hand_world(geo, config=cfg, pose=start)
    hand_q = world.q.copy()
    for _ in range(600):
        state = world.step(hand_q)
    z = state.object_pose.pos[2]
    # weight spread over the four bottom corners compresses each spring
    pen_expected = geo.mass * GRAV / (4 * cfg.contact_stiffness)
    assert abs((0.03 - z) - pen_expected) < pen_expected * 0.5
    assert np.linalg.norm(state.object_pose.pos[:2] - start.pos[:2]) < 1e-6
    assert world.kinetic_energy() < 1e-10
    assert np.linalg.norm(state.v) < 1e-4


def test_ground_friction_brakes_sliding():
    geo = box_geometry(mass=0.1)
    start = Pose6(np.array([0.0, 0.0, 0.0299]), Rotation3.identity())

    def slide(mu):
        cfg = SimConfig(friction_mu=mu)
        world = far_hand_world(geo, config=cfg, pose=start)
        world.reset(world.q, start, v=np.array([0.2, 0.0, 0.0]))
        hand_q = world.q.copy()
        for _ in range(240):
            state = world.step(hand_q)
        return float(np.linalg.norm(state.v[:2])), float(state.object_pose.pos[0])

    speed_mu, x_mu = slide(0.6)
    speed_free, x_free = slide(0.0)
    assert speed_mu < 0.05  # friction stops the slide inside two seconds
    assert x_mu < 0.05
    assert speed_free > 0.18  # frictionless keeps nearly all momentum
    assert abs(x_free - 0.4) < 0.01  # two seconds at constant speed


def test_step_determinism_and_clone():
    geo = box_geometry()
    w1 = far_hand_world(geo, pose=Pose6(np.array([0.0, 0.0, 0.04]), Rotation3.identity()))
    w2 = far_hand_world(geo, pose=Pose6(np.array([0.0, 0.0, 0.04]), Rotation3.identity()))
    base = w1.q.copy()
    controls = [base + 0.01 * np.sin(0.1 * k) for k in range(50)]
    snap = None
    for k in range(50):
        s1 = w1.step(controls[k])
        s2 = w2.step(controls[k])
        assert np.array_equal(s1.q, s2.q)
        assert np.array_equal(s1.object_pose.pos, s2.object_pose.pos)
        if k == 24:
            snap = w1.clone()
    for k in range(25, 50):
        s_clone = snap.step(controls[k])
    assert np.array_equal(s_clone.q, s1.q)
    assert np.array_equal(s_clone.object_pose.pos, s1.object_pose.pos)
    assert np.array_equal(s_clone.qdot, s1.qdot)


def assert_fk_cached(world):
    """The world's cached kinematics are those of its joint vector, field by field."""
    want = world.model.fk(world.q)
    for name in FKResult.__slots__:
        got, ref = getattr(world.fkres, name), getattr(want, name)
        if isinstance(ref, dict):
            assert got.keys() == ref.keys(), name
            for key in ref:
                assert np.array_equal(got[key], ref[key]), (name, key)
        else:
            assert np.array_equal(got, ref), name


def test_energy_guard_raises():
    world = far_hand_world(box_geometry())
    world.reset(world.q, Pose6(np.array([0.0, 0.0, 5.0]), Rotation3.identity()),
                v=np.array([200.0, 0.0, 0.0]))
    with pytest.raises(SimDivergenceError):
        world.step(world.q + 0.05)
    assert_fk_cached(world)


def test_pd_servo_tracks_joint_targets():
    world = far_hand_world(box_geometry())
    target = world.q.copy()
    target[6] += 0.3
    target[7] += 0.2
    for _ in range(240):
        state = world.step(target)
    assert np.max(np.abs(state.q[6:] - target[6:])) < 1e-3
    assert np.max(np.abs(state.qdot)) < 1e-2


def test_joint_limits_enforced():
    world = far_hand_world(box_geometry())
    target = world.q.copy()
    target[6] = 50.0  # way past the 1.8 rad limit
    for _ in range(200):
        state = world.step(np.clip(target, world.model.limits_lo, world.model.limits_hi))
    assert state.q[6] <= world.model.limits_hi[6] + 1e-12


def test_hand_contact_detected_when_pressed():
    model = hand_from_dict(planar_hand_dict())
    geo = box_geometry(half=(0.03, 0.03, 0.03))
    pose = Pose6(np.array([0.0, 0.0, 0.03]), Rotation3.identity())
    q0 = model.mid_range()
    q0[:3] = [0.0, 0.0, 0.16]  # finger hangs straight down over the box top
    q0[3:] = 0.0
    world = SimWorld(model, geo, q0=q0, object_pose0=pose)
    press = q0.copy()
    press[2] = 0.12  # drive the fingertip into the surface
    saw_contact = False
    for _ in range(120):
        state = world.step(press)
        saw_contact = saw_contact or state.hand_contact
    assert saw_contact
    assert world.collision_query().min() < 1e-3


def assert_same_state(got, want):
    for name in ("q", "qdot", "v", "w", "fingertips"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert np.array_equal(got.object_pose.pos, want.object_pose.pos)
    assert np.array_equal(got.object_pose.rot.q, want.object_pose.rot.q)
    assert got.hand_contact == want.hand_contact


def closing_controls(toy_hand) -> np.ndarray:
    """toy3 at the recorded grasp pose closes its fingers on the resting box."""
    q_open = np.zeros(toy_hand.dof)
    q_open[:3] = WRIST_GRASP
    q_shut = q_open.copy()
    q_shut[6:] = 0.6
    return np.linspace(q_open, q_shut, 40)


def test_cached_fk_follows_the_joint_vector(toy_hand, lift_demo):
    controls = closing_controls(toy_hand)
    obj0 = lift_demo.object_poses[0]
    world = SimWorld(toy_hand, lift_demo.geometry, SimConfig(), controls[-1], obj0)
    world.step(controls[-1])
    world.reset(controls[0], obj0)
    assert_fk_cached(world)
    states, starts = replay(world, controls)
    assert any(s.hand_contact for s in states)
    for snap in [*starts, world]:  # the world after each step, and after the last
        assert_fk_cached(snap)
    clone = world.clone()
    assert clone.fkres is world.fkres
    world.step(controls[0])
    assert_fk_cached(clone)  # stepping the original leaves the clone's cache alone
    assert_fk_cached(world)


def test_replay_snapshots_match_a_fresh_prefix_replay(toy_hand, lift_demo):
    controls = closing_controls(toy_hand)
    q_open = controls[0]
    obj0 = lift_demo.object_poses[0]
    world = SimWorld(toy_hand, lift_demo.geometry, SimConfig(), q_open, obj0)
    states, starts = replay(world, controls)
    assert len(starts) == len(states) == len(controls)
    touch = next(k for k, s in enumerate(states) if s.hand_contact)
    for k in (0, touch + 1, len(controls) - 1):
        # the reference: a second world stepped through the prefix
        ref = SimWorld(toy_hand, lift_demo.geometry, SimConfig(), q_open, obj0)
        for a in controls[:k]:
            ref.step(a)
        snap = starts[k]
        for name in ("q", "qdot", "com_w", "v", "w"):
            assert np.array_equal(getattr(snap, name), getattr(ref, name)), (k, name)
        assert np.array_equal(snap.rot.q, ref.rot.q)
        assert snap.step_index == ref.step_index == k
        assert snap._contacts.keys() == ref._contacts.keys()
        assert bool(ref._contacts) == (k > 0)  # contacts form during the first step
        for key, c in ref._contacts.items():
            assert np.array_equal(snap._contacts[key].anchor, c.anchor), (k, key)
        for a, want in zip(controls[k:], states[k:]):
            assert_same_state(snap.step(a), want)


def test_closing_replay_contact_records_are_pinned(toy_hand, lift_demo):
    """Body, piece and the bytes of point, normal and force of every contact
    record of the closing replay, in order: each step reports, per contact,
    the last substep that pushed, in the order the contacts first pushed."""
    controls = closing_controls(toy_hand)
    world = SimWorld(toy_hand, lift_demo.geometry, SimConfig(), controls[0], lift_demo.object_poses[0])
    states, _ = replay(world, controls)
    digest = hashlib.sha256()
    n_records = n_hand = 0
    for state in states:
        for c in state.contacts:
            digest.update(f"{c.body}|{c.piece}|".encode())
            digest.update(c.point.tobytes() + c.normal.tobytes() + c.force.tobytes())
            n_records += 1
            n_hand += c.body != "ground"
    assert (n_records, n_hand) == (188, 62)
    assert digest.hexdigest() == "8c03227c7d113addb8c46ad61a808f72abbf078059732ce306d29be445b87b1f"
