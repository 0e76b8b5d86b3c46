"""Kinematics against a hand-derived oracle and finite differences."""
import copy

import numpy as np
import pytest

from demo2dex.geometry import Pose6, Rotation3, geodesic_angle, random_rotation
from demo2dex.hand import HandModelError, hand_from_dict
from demo2dex.pipeline import resolve_hand

from conftest import BUNDLED_HANDS, planar_hand_dict, planar_tip

RNG = np.random.default_rng(11)


def test_planar_fk_matches_trigonometry(planar_hand):
    for _ in range(200):
        q = RNG.uniform(-0.9, 0.9, planar_hand.dof)
        fk = planar_hand.fk(q)
        tip = planar_hand.fingertip_positions(fk)[0]
        assert np.linalg.norm(tip - planar_tip(q)) < 1e-12


def test_planar_palm_normal_at_rest(planar_hand):
    fk = planar_hand.fk(np.zeros(planar_hand.dof))
    assert np.allclose(planar_hand.palm_normal(fk), [0, 0, 1], atol=1e-12)


def numeric_point_jacobian(model, q, site_idx, eps=1e-7):
    jac = np.zeros((3, model.dof))
    for k in range(model.dof):
        qp, qm = q.copy(), q.copy()
        qp[k] += eps
        qm[k] -= eps
        pp = model.fingertip_positions(model.fk(qp))[site_idx]
        pm = model.fingertip_positions(model.fk(qm))[site_idx]
        jac[:, k] = (pp - pm) / (2 * eps)
    return jac


@pytest.mark.parametrize("hand_name", BUNDLED_HANDS)
def test_point_jacobian_matches_finite_differences(hand_name):
    model, _ = resolve_hand(hand_name)
    for trial in range(5):
        q = model.clamp(RNG.uniform(-0.7, 0.7, model.dof))
        fk = model.fk(q)
        for i, site in enumerate(model.fingertip_sites):
            p = fk.site_pos[site.name]
            jac = model.point_jacobian(fk, site.link, p)
            num = numeric_point_jacobian(model, q, i)
            assert np.max(np.abs(jac - num)) < 1e-5


@pytest.mark.parametrize("hand_name", BUNDLED_HANDS)
def test_palm_normal_jacobian_matches_finite_differences(hand_name):
    model, _ = resolve_hand(hand_name)
    eps = 1e-7
    for trial in range(3):
        q = model.clamp(RNG.uniform(-0.6, 0.6, model.dof))
        _, dn = model.palm_normal_jacobian(model.fk(q))
        for k in range(model.dof):
            qp, qm = q.copy(), q.copy()
            qp[k] += eps
            qm[k] -= eps
            fd = (model.palm_normal(model.fk(qp)) - model.palm_normal(model.fk(qm))) / (2 * eps)
            assert np.max(np.abs(dn[:, k] - fd)) < 1e-5


def test_wrist_pose_round_trip(toy_hand):
    for _ in range(100):
        pose = Pose6(RNG.uniform(-0.5, 0.5, 3), random_rotation(RNG))
        q6 = toy_hand.wrist_q_from_pose(pose)
        q = toy_hand.mid_range()
        q[:6] = q6
        back = toy_hand.wrist_pose(toy_hand.fk(q))
        assert np.linalg.norm(back.pos - pose.pos) < 1e-9
        assert geodesic_angle(back.rot, pose.rot) < 1e-9


def test_wrist_round_trip_near_gimbal(toy_hand):
    # pitch at +-pi/2 collapses one Euler degree of freedom; the recovered
    # angles may differ but the pose itself must survive the round trip
    for sign in (1.0, -1.0):
        for wiggle in (0.0, 1e-8, 1e-4):
            rot = Rotation3.from_axis_angle([0, 1, 0], sign * (np.pi / 2 - wiggle))
            rot = rot @ Rotation3.from_axis_angle([0, 0, 1], 0.4)
            pose = Pose6(np.array([0.1, -0.2, 0.3]), rot)
            q6 = toy_hand.wrist_q_from_pose(pose)
            q = toy_hand.mid_range()
            q[:6] = q6
            back = toy_hand.wrist_pose(toy_hand.fk(q))
            assert np.linalg.norm(back.pos - pose.pos) < 1e-8
            assert geodesic_angle(back.rot, pose.rot) < 1e-6


def test_chain_of_reaches_root(planar_hand):
    chain = planar_hand.chain_of("dist")
    assert len(chain) == 8  # six base joints plus two finger joints
    assert planar_hand.chain_of("palm") == chain[:6]


def test_clamp_and_mid_range(planar_hand):
    q = planar_hand.clamp(np.full(planar_hand.dof, 100.0))
    assert np.all(q <= planar_hand.limits_hi + 1e-12)
    mid = planar_hand.mid_range()
    assert np.all(mid >= planar_hand.limits_lo) and np.all(mid <= planar_hand.limits_hi)


def test_fingertip_order_is_stable(toy_hand):
    fk = toy_hand.fk(toy_hand.mid_range())
    tips = toy_hand.fingertip_positions(fk)
    assert tips.shape == (len(toy_hand.fingertip_sites), 3)


@pytest.mark.parametrize("hand_name", BUNDLED_HANDS)
def test_bundled_hands_load_and_validate(hand_name):
    model, path = resolve_hand(hand_name)
    assert path.exists()
    assert model.floating_base
    assert model.dof >= 8
    assert len(model.palm_sites) == 3
    # correspondence maps recorded fingers onto existing fingertip sites
    names = {s.name for s in model.fingertip_sites}
    for human_idx, site in model.correspondence.items():
        assert 0 <= human_idx < 5
        assert site in names


def test_malformed_hand_rejected():
    bad = planar_hand_dict()
    bad["joints"][7]["parent"] = "nowhere"
    with pytest.raises(HandModelError):
        hand_from_dict(bad)

    cycle = planar_hand_dict()
    cycle["joints"][6]["parent"] = "dist"
    with pytest.raises(HandModelError):
        hand_from_dict(cycle)

    dup = planar_hand_dict()
    dup["links"].append({"name": "palm"})
    with pytest.raises(HandModelError):
        hand_from_dict(dup)

    missing = planar_hand_dict()
    del missing["correspondence"]
    with pytest.raises(HandModelError):
        hand_from_dict(missing)

    swapped = planar_hand_dict()
    swapped["joints"][7]["limits"] = [1.8, -0.3]
    with pytest.raises(HandModelError):
        hand_from_dict(swapped)


def test_gravity_torques_zero_for_massless(planar_hand):
    fk = planar_hand.fk(planar_hand.mid_range())
    assert np.allclose(planar_hand.gravity_torques(fk), 0.0)


def test_gravity_torques_match_potential_gradient():
    data = planar_hand_dict()
    for entry in data["links"]:
        if entry["name"] in ("prox", "dist"):
            entry["mass"] = 0.02
            entry["com"] = [0.0, 0.0, -0.02]
    model = hand_from_dict(data)
    g = np.array([0.0, 0.0, -9.81])

    def potential(q):
        fk = model.fk(q)
        u = 0.0
        for link in model.links.values():
            if link.mass > 0.0:
                com_w = fk.link_rot[link.name] @ link.com + fk.link_pos[link.name]
                u -= link.mass * float(g @ com_w)
        return u

    eps = 1e-7
    for _ in range(5):
        q = model.clamp(RNG.uniform(-0.5, 0.5, model.dof))
        tau = model.gravity_torques(model.fk(q))
        for k in range(model.dof):
            qp, qm = q.copy(), q.copy()
            qp[k] += eps
            qm[k] -= eps
            grad_u = (potential(qp) - potential(qm)) / (2 * eps)
            # the torque gravity exerts is minus the potential gradient
            assert abs(tau[k] + grad_u) < 1e-5
