"""Dynamics checks: closed-form kinematics of falling bodies, inertia
tensors, resting and sliding contact, determinism, replay snapshots."""
import hashlib
import math
from typing import NamedTuple

import numpy as np
import pytest

from demo2dex import simworld
from demo2dex.collision import ConvexPiece, segment_piece_signed
from demo2dex.demo import ObjectGeometry
from demo2dex.geometry import Pose6, Rotation3
from demo2dex.hand import FKResult, hand_from_dict
from demo2dex.pipeline import resolve_hand
from demo2dex.simworld import (
    CULL_SLACK,
    DETECT_MARGIN,
    DT,
    SUBSTEPS,
    ContactRecord,
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
        world.reset(world.q, start)
        world.v = np.array([0.2, 0.0, 0.0])
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
    world.reset(world.q, Pose6(np.array([0.0, 0.0, 5.0]), Rotation3.identity()))
    world.v = np.array([200.0, 0.0, 0.0])
    with pytest.raises(SimDivergenceError):
        world.step(world.q + 0.05)
    assert_fk_cached(world)


def test_bad_control_is_rejected_before_the_step():
    world = far_hand_world(box_geometry())
    q = world.q.copy()
    dof = world.model.dof
    for bad, problem in ((np.zeros(dof + 1), "shape"), (np.full(dof, np.nan), "non-finite")):
        with pytest.raises(ValueError, match=problem):
            world.step(bad)
        assert world.step_index == 0
        assert world.q.tobytes() == q.tobytes()


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
    world = SimWorld(model, geo, SimConfig(), q0, pose)
    press = q0.copy()
    press[2] = 0.12  # drive the fingertip into the surface
    saw_contact = False
    for _ in range(120):
        state = world.step(press)
        saw_contact = saw_contact or state.hand_contact
    assert saw_contact
    assert world.collision_query().all()


def assert_same_state(got, want):
    for name in ("q", "qdot", "v", "w", "fingertips"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert np.array_equal(got.object_pose.pos, want.object_pose.pos)
    assert np.array_equal(got.object_pose.rot.q, want.object_pose.rot.q)
    assert got.hand_contact == want.hand_contact


def closing_controls(model) -> np.ndarray:
    """The hand at the recorded grasp wrist pose closes every finger joint to
    0.6; toy3 closes its fingers on the resting box."""
    q_open = np.zeros(model.dof)
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


def test_step_builds_the_object_pose_once(toy_hand, lift_demo, monkeypatch):
    # detection's pose is the one the step returns with its state
    controls = closing_controls(toy_hand)
    world = SimWorld(toy_hand, lift_demo.geometry, SimConfig(), controls[0], lift_demo.object_poses[0])
    object_pose, built = SimWorld.object_pose, []

    def counted(self):
        built.append(self.step_index)
        return object_pose(self)

    monkeypatch.setattr(SimWorld, "object_pose", counted)
    touched = False
    for k, a in enumerate(controls, start=1):
        state = world.step(a)
        assert built == [k]
        built.clear()
        want = object_pose(world)
        assert np.array_equal(state.object_pose.pos, want.pos)
        assert np.array_equal(state.object_pose.rot.q, want.rot.q)
        touched = touched or state.hand_contact
    assert touched


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
        # detection runs from reset on: before the first step the box rests on
        # the ground and the open hand touches nothing
        assert ref._contacts
        if k == 0:
            assert all(key[0] == "g" for key in ref._contacts)
        for key, c in ref._contacts.items():
            assert np.array_equal(snap._contacts[key].anchor, c.anchor), (k, key)
        for a, want in zip(controls[k:], states[k:]):
            assert_same_state(snap.step(a), want)


def assert_same_step(got, want):
    """Two steps' states and contact records, byte for byte."""
    assert_same_state(got, want)
    assert [(c.body, c.piece) for c in got.contacts] == [(c.body, c.piece) for c in want.contacts]
    for g, c in zip(got.contacts, want.contacts):
        for name in ("point", "normal", "force"):
            assert np.array(getattr(g, name)).tobytes() == np.array(getattr(c, name)).tobytes(), name


def assert_same_world(got: SimWorld, want: SimWorld):
    """Two worlds' object state and contact sets, byte for byte."""
    for name in ("q", "qdot", "com_w", "v", "w"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.rot.q.tobytes() == want.rot.q.tobytes()
    assert list(got._contacts) == list(want._contacts)

    def fields(c):
        return np.array((c.pen, *c.anchor, *c.p_other, *c.v_other, *c.rel)).tobytes()

    for key, c in want._contacts.items():
        assert fields(got._contacts[key]) == fields(c), key


def without_table(world: SimWorld) -> SimWorld:
    """A clone that reads no lineage table: every step integrates the object."""
    ref = world.clone()
    ref._lineage = None
    return ref


def hand_in_set(world: SimWorld) -> bool:
    return any(key[0] == "h" for key in world._contacts)


def counted_object_work(monkeypatch) -> list:
    """Record every world-frame inertia lookup: each object substep makes one,
    and so does the kinetic-energy check that ends a full step."""
    calls, world_inertia = [], SimWorld._world_inertia

    def counted(self, rot):
        calls.append(self.step_index)
        return world_inertia(self, rot)

    monkeypatch.setattr(SimWorld, "_world_inertia", counted)
    return calls


def closing_replay(model, geometry, obj0):
    controls = closing_controls(model)
    world = SimWorld(model, geometry, SimConfig(), controls[0], obj0)
    return controls, *replay(world, controls)


def test_untouched_episode_reads_the_replay_table(toy_hand, lift_demo, monkeypatch):
    # from a snapshot before the replay's first hand contact, the hand lifts
    # away: other controls than the replay's, and the box rests untouched
    controls, _, starts = closing_replay(toy_hand, lift_demo.geometry, lift_demo.object_poses[0])
    snap = starts[5]
    assert snap._lineage is starts[0]._lineage and 5 in snap._lineage
    away = np.tile(controls[0], (30, 1))
    away[:, 2] += np.linspace(0.0, 0.05, 30)
    work = counted_object_work(monkeypatch)
    world, ref = snap.clone(), without_table(snap)
    for a in away:
        read = world.step_index in world._lineage
        work.clear()
        got = world.step(a)
        assert (not work) == read  # a table entry replaces the object's integration
        want = ref.step(a)
        assert not want.hand_contact
        assert_same_step(got, want)
        assert_same_world(world, ref)
    assert world._lineage is snap._lineage
    assert sorted(world._lineage) == list(range(5 + len(away)))  # this episode extended it


def test_episode_that_touches_stops_reading_the_table(toy_hand, lift_demo):
    # closing faster than the replay: the hand reaches the box mid-episode
    controls, _, starts = closing_replay(toy_hand, lift_demo.geometry, lift_demo.object_poses[0])
    snap = starts[5]
    closing = np.vstack([np.linspace(controls[0], controls[-1], 25), np.tile(controls[-1], (10, 1))])
    world, ref = snap.clone(), without_table(snap)
    touched_at = None
    for a in closing:
        if touched_at is None and hand_in_set(world):
            touched_at = world.step_index
        got, want = world.step(a), ref.step(a)
        assert_same_step(got, want)
        assert_same_world(world, ref)
        assert (world._lineage is None) == (touched_at is not None)
    assert touched_at is not None
    # the table holds only steps that no hand reached
    assert max(snap._lineage) < touched_at


def test_reset_starts_an_empty_table(toy_hand, lift_demo):
    controls = closing_controls(toy_hand)
    world = SimWorld(toy_hand, lift_demo.geometry, SimConfig(), controls[0], lift_demo.object_poses[0])
    assert world._lineage == {}
    world.step(controls[0])
    table = world._lineage
    assert list(table) == [0]
    snap = world.clone()
    world.reset(controls[0], lift_demo.object_poses[0])
    assert world._lineage == {} and world._lineage is not table
    assert snap._lineage is table  # a clone taken before keeps its lineage


def test_second_episode_integrates_no_object_before_its_first_contact(toy_hand, lift_demo, monkeypatch):
    # closing slower than the replay, so the first episode records steps past
    # the replay's table, and the second reads them
    controls, _, starts = closing_replay(toy_hand, lift_demo.geometry, lift_demo.object_poses[0])
    snap = starts[5]
    replayed = len(snap._lineage)
    closing = np.linspace(controls[0], controls[-1], 60)
    episode = snap.clone()
    first = [episode.step(a) for a in closing]
    assert len(snap._lineage) > replayed
    work = counted_object_work(monkeypatch)
    world = snap.clone()
    contact_step = None
    for a, want in zip(closing, first):
        if contact_step is None and hand_in_set(world):
            contact_step = world.step_index
        assert_same_step(world.step(a), want)
        if contact_step is None:
            assert not work, world.step_index
    assert contact_step is not None and contact_step > replayed
    assert work and min(work) == contact_step  # the object moves again once touched


def distal_within_margin(world: SimWorld) -> np.ndarray:
    """Per distal link, in fingertip order, whether the signed distance from
    its primitives to the object's pieces, queried pair by pair with no broad
    phase, is at most DETECT_MARGIN somewhere."""
    inv = world.object_pose().inverse()
    out = []
    for link in world.model.distal_links:
        rot, pos = world.fkres.link_rot[link], world.fkres.link_pos[link]
        d = min(
            segment_piece_signed(inv.apply(rot @ p.a + pos), inv.apply(rot @ p.b + pos), p.radius, piece)[0]
            for p in world.model.links[link].collisions
            for piece in world.geometry.pieces
        )
        out.append(d <= DETECT_MARGIN)
    return np.array(out)


def test_collision_query_matches_a_direct_distance_query(toy_hand, lift_demo):
    controls = closing_controls(toy_hand)
    world = SimWorld(toy_hand, lift_demo.geometry, SimConfig(), controls[0], lift_demo.object_poses[0])
    _, starts = replay(world, controls)
    touching = 0
    for snap in [*starts, world]:  # the reset state, then the state after each step
        want = distal_within_margin(snap)
        got = snap.collision_query()
        assert got.dtype == bool and np.array_equal(got, want), snap.step_index
        touching += bool(want.any())
    assert touching == 23


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
            digest.update(np.array(c.point).tobytes() + np.array(c.normal).tobytes() + np.array(c.force).tobytes())
            n_records += 1
            n_hand += c.body != "ground"
    assert (n_records, n_hand) == (188, 62)
    assert digest.hexdigest() == "8c03227c7d113addb8c46ad61a808f72abbf078059732ce306d29be445b87b1f"


def test_contact_records_are_immutable_and_shared_along_a_lineage(toy_hand, lift_demo):
    """Every record field is a str, an int or a triple of Python floats, no
    field can be assigned, and a clone that reads a recorded lineage step
    hands out the very records that the recording world returned."""
    controls = closing_controls(toy_hand)
    world = SimWorld(toy_hand, lift_demo.geometry, SimConfig(), controls[0], lift_demo.object_poses[0])
    states, starts = replay(world, controls)
    records = [c for state in states for c in state.contacts]
    assert any(c.body != "ground" for c in records)
    for c in records:
        assert type(c.body) is str and type(c.piece) is int
        for triple in (c.point, c.normal, c.force):
            assert type(triple) is tuple and [type(x) for x in triple] == [float] * 3
    for name in ContactRecord._fields:
        with pytest.raises(AttributeError):
            setattr(records[0], name, getattr(records[0], name))
    clone = starts[0]
    recorded = sorted(clone._lineage)
    assert recorded == list(range(len(recorded))) and 0 < len(recorded) < len(controls)
    for k in recorded:
        got = clone.step(controls[k])
        assert got.contacts is states[k].contacts, k
    assert any(states[k].contacts for k in recorded)


class Pair(NamedTuple):
    key: tuple[int, int]  # (primitive, piece)
    ends: bytes  # the segment endpoints in the piece frame, as queried
    d: float  # signed distance
    diff: np.ndarray  # from the piece centre to the primitive's midpoint, world
    reach: float  # the bounding-sphere reach
    normal: np.ndarray  # world, from the primitive toward the object
    beyond: float  # the most by which both endpoints lie beyond one face plane
    face: np.ndarray  # that face's outward normal, world
    cull: float  # the plane test skips the pair when `beyond` exceeds this


def prim_pairs(world: SimWorld):
    """Every (primitive, piece) pair, queried directly with no broad phase,
    primitives numbered link by link as SimWorld numbers them."""
    pose = world.object_pose()
    inv = pose.inverse()
    fk = world.fkres
    prims = [(name, p) for name, link in world.model.links.items() for p in link.collisions]
    for idx, (name, prim) in enumerate(prims):
        rot, pos = fk.link_rot[name], fk.link_pos[name]
        a_w, b_w = rot @ prim.a + pos, rot @ prim.b + pos
        a_l, b_l = inv.apply(a_w), inv.apply(b_w)
        seg = b_w - a_w
        for pi, piece in enumerate(world.geometry.pieces):
            d, _, _, n_local = segment_piece_signed(a_l, b_l, prim.radius, piece)
            diff = 0.5 * (a_w + b_w) - pose.apply(piece.centroid)
            reach = 0.5 * math.sqrt(seg.dot(seg)) + prim.radius + piece.bound_radius + DETECT_MARGIN
            beyond = np.minimum(piece.face_n @ a_l, piece.face_n @ b_l) - piece.face_b
            f = int(np.argmax(beyond))
            yield Pair(
                (idx, pi), a_l.tobytes() + b_l.tobytes(), d, diff, reach, pose.rot.apply(n_local),
                float(beyond[f]), pose.rot.apply(piece.face_n[f]), (prim.radius + DETECT_MARGIN) * CULL_SLACK,
            )


def jittered_poses(world: SimWorld, rng: np.random.Generator):
    """Object poses, each moving the object so that one pair sits near a
    detection boundary: its signed distance within 1 mm of DETECT_MARGIN
    ("margin"), its midpoint within a relative 1e-9 of the broad-phase reach
    ("sphere"), or its endpoints within a relative 1e-9 of the plane test's
    threshold beyond its most separating face plane ("plane").
    Yields (pose, kind, pair)."""
    pos, rot = world.object_pose().pos, world.rot
    for p in prim_pairs(world):
        yield Pose6(pos - (p.d - DETECT_MARGIN - rng.uniform(-1e-3, 1e-3)) * p.normal, rot), "margin", p.key
        scale = p.reach * (1.0 + rng.choice([-1e-9, -1e-15, 0.0, 1e-15, 1e-9])) / math.sqrt(p.diff @ p.diff)
        yield Pose6(pos + p.diff * (1.0 - scale), rot), "sphere", p.key
        # moving the object along the face normal moves both endpoints the
        # same distance across that face plane
        target = p.cull * (1.0 + rng.choice([-1e-9, 1e-9]))
        yield Pose6(pos + (p.beyond - target) * p.face, rot), "plane", p.key


@pytest.mark.parametrize("hand_name", ["toy3", "allegro16"])
def test_broad_phase_never_drops_a_pair(hand_name, lift_demo, monkeypatch):
    """Detection queries exactly the pairs whose bounding spheres come within
    DETECT_MARGIN and that no face plane separates by more than the
    primitive's radius plus DETECT_MARGIN, and leaves a hand contact for
    exactly the pairs within DETECT_MARGIN, in closing-replay states with the
    object moved to put one pair on either side of each boundary."""
    model, _ = resolve_hand(hand_name)
    controls = closing_controls(model)
    world = SimWorld(model, lift_demo.geometry, SimConfig(), controls[0], lift_demo.object_poses[0])
    _, starts = replay(world, controls)
    queries = []
    real_query = simworld.segment_piece_signed
    pieces = world.geometry.pieces

    def counted(*args):
        queries.append((args[0].tobytes() + args[1].tobytes(), pieces.index(args[3])))
        return real_query(*args)

    monkeypatch.setattr(simworld, "segment_piece_signed", counted)
    rng = np.random.default_rng(11)
    sides = {"margin": set(), "sphere": set(), "plane": set()}
    for snap in starts[::4]:
        for pose, kind, pair in jittered_poses(snap, rng):
            world.reset(snap.q, pose)
            pairs = list(prim_pairs(world))
            near = {p.key for p in pairs if p.d <= DETECT_MARGIN}
            spheres = {p.key for p in pairs if p.diff @ p.diff <= p.reach * p.reach}
            planes = {p.key for p in pairs if p.beyond > p.cull}
            got = {(key[1], key[2]) for key in world._contacts if key[0] == "h"}
            assert got == near, (snap.step_index, kind, pair)
            by_query = {(p.ends, p.key[1]): p.key for p in pairs}
            queried = [by_query[q] for q in queries]
            assert len(queried) == len(set(queried))
            assert set(queried) == spheres - planes, (snap.step_index, kind, pair)
            queries.clear()
            sides[kind].add(pair in {"margin": near, "sphere": spheres, "plane": planes}[kind])
    assert sides == {kind: {True, False} for kind in sides}


@pytest.mark.parametrize("field, value", [
    ("contact_stiffness", 0.0), ("contact_stiffness", math.nan),
    ("friction_mu", -0.1), ("friction_mu", math.nan),
    ("force_cap", 0.0), ("force_cap", -4.0), ("force_cap", math.nan),
])
def test_sim_config_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=field.split("_")[0]):
        SimConfig(**{field: value})
