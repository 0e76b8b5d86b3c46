"""Kinematics against a hand-derived oracle and finite differences."""
import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demo2dex.geometry import Pose6, Rotation3, geodesic_angle
from demo2dex.hand import HandModelError, hand_from_dict
from demo2dex.pipeline import asset_path, resolve_hand

from conftest import BUNDLED_HANDS, planar_hand_dict, planar_tip, random_rotation

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
            jac = model.point_jacobian(fk, site.link, fk.sites[i])
            num = numeric_point_jacobian(model, q, i)
            assert np.max(np.abs(jac - num)) < 1e-5


@pytest.mark.parametrize("hand_name", BUNDLED_HANDS)
def test_palm_normal_jacobian_matches_finite_differences(hand_name):
    model, _ = resolve_hand(hand_name)
    eps = 1e-7
    for trial in range(3):
        q = model.clamp(RNG.uniform(-0.6, 0.6, model.dof))
        fk = model.fk(q)
        _, dn = model.palm_normal_jacobian(fk, model.site_jacobians(fk))
        for k in range(model.dof):
            qp, qm = q.copy(), q.copy()
            qp[k] += eps
            qm[k] -= eps
            fd = (model.palm_normal(model.fk(qp)) - model.palm_normal(model.fk(qm))) / (2 * eps)
            assert np.max(np.abs(dn[:, k] - fd)) < 1e-5


def reference_point_jacobian(model, fk, link, p):
    """Per-joint `np.cross` loop: the chain jacobian column by column."""
    jac = np.zeros((3, model.dof))
    for ji in model.chain_of(link):
        if model.joints[ji].jtype == "revolute":
            jac[:, ji] = np.cross(fk.joint_axis_w[ji], p - fk.joint_pos_w[ji])
        else:
            jac[:, ji] = fk.joint_axis_w[ji]
    return jac


def reference_palm_normal_jacobian(model, fk):
    """Palm normal and its jacobian from batched `np.cross` calls."""
    palm = fk.sites[len(model.fingertip_sites):]
    p_i, p_r, p_w = palm
    j_i, j_r, j_w = (
        reference_point_jacobian(model, fk, s.link, p) for s, p in zip(model.palm_sites, palm)
    )
    e1, e2 = p_i - p_w, p_r - p_w
    de1, de2 = j_i - j_w, j_r - j_w
    u = np.cross(e1, e2)
    norm_u = np.linalg.norm(u)
    du = np.cross(de1.T, e2).T + np.cross(e1, de2.T).T
    n_hat = u / norm_u
    dn = (np.eye(3) - np.outer(n_hat, n_hat)) @ du / norm_u
    return model.palm_normal_sign * n_hat, model.palm_normal_sign * dn


@pytest.mark.parametrize("hand_name", BUNDLED_HANDS)
def test_jacobians_bitwise_equal_np_cross_reference(hand_name):
    model, _ = resolve_hand(hand_name)
    for _ in range(10):
        q = model.limits_lo + RNG.random(model.dof) * (model.limits_hi - model.limits_lo)
        fk = model.fk(q)
        for link in model.links:
            p = RNG.normal(scale=0.2, size=3)
            want = reference_point_jacobian(model, fk, link, p)
            assert np.array_equal(model.point_jacobian(fk, link, p), want), link
        n, dn = model.palm_normal_jacobian(fk, model.site_jacobians(fk))
        n_ref, dn_ref = reference_palm_normal_jacobian(model, fk)
        assert np.array_equal(n, n_ref)
        assert np.array_equal(dn, dn_ref)


def _skew(v):
    return np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]], dtype=np.float64)


def reference_fk(model, q):
    """The per-joint loop: every origin, axis and Rodrigues product as a numpy
    matmul, each site placed by its own matrix-vector product."""
    link_rot = {"world": np.eye(3)}
    link_pos = {"world": np.zeros(3)}
    axis_w = np.empty((model.dof, 3))
    pos_w = np.empty((model.dof, 3))
    eye = np.eye(3)
    for i, j in enumerate(model.joints):
        rp, pp = link_rot[j.parent], link_pos[j.parent]
        rj = rp @ j.origin_rot.as_matrix()
        pj = rp @ j.origin_pos + pp
        axis_w[i] = rj @ j.axis
        pos_w[i] = pj
        if j.jtype == "revolute":
            k = _skew(j.axis)
            s, c = np.sin(q[i]), np.cos(q[i])
            link_rot[j.child] = rj @ (eye + s * k + (1.0 - c) * (k @ k))
            link_pos[j.child] = pj
        else:
            link_rot[j.child] = rj
            link_pos[j.child] = pj + q[i] * axis_w[i]
    site_pos = {
        s.name: link_rot[s.link] @ s.pos + link_pos[s.link]
        for s in model.fingertip_sites + model.palm_sites
    }
    return link_rot, link_pos, axis_w, pos_w, site_pos


def joint_vectors(model):
    """q with every joint drawn from its range, or exactly 0, -0 or a limit."""
    return st.tuples(*(
        st.sampled_from([0.0, -0.0, lo, hi]) | st.floats(lo, hi)
        for lo, hi in zip(model.limits_lo.tolist(), model.limits_hi.tolist())
    )).map(np.array)


def skewed_hand_dict() -> dict:
    """The planar hand with tilted finger axes and a prismatic joint after a
    revolute one: every bundled hand turns about basis axes only."""
    data = planar_hand_dict()
    mcp, pip = data["joints"][6], data["joints"][7]
    mcp["axis"] = [0.48, 0.6, 0.64]
    pip.update(type="prismatic", axis=[0.6, 0.0, -0.8], limits=[-0.02, 0.03])
    return data


REFERENCE_MODELS = {name: resolve_hand(name)[0] for name in BUNDLED_HANDS}
REFERENCE_MODELS["skewed"] = hand_from_dict(skewed_hand_dict())


@pytest.mark.parametrize("hand_name", list(REFERENCE_MODELS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_fk_and_site_jacobians_bitwise_equal_per_joint_reference(hand_name, data):
    model = REFERENCE_MODELS[hand_name]
    assert_matches_per_joint_reference(model, data.draw(joint_vectors(model)))


def float_palm_normal_jacobian(model, fk, sjac):
    """The palm normal's jacobian with du written per row on Python floats,
    as np.cross computes each column."""
    n_tips = len(model.fingertip_sites)
    p_i, p_r, p_w = fk.sites[n_tips:]
    j_i, j_r, j_w = sjac[n_tips:]
    e1, e2 = p_i - p_w, p_r - p_w
    u = np.cross(e1, e2)
    norm_u = np.sqrt(u @ u)
    a0, a1, a2 = j_i - j_w
    b0, b1, b2 = j_r - j_w
    x0, x1, x2 = e1.tolist()
    y0, y1, y2 = e2.tolist()
    du = np.array([
        (a1 * y2 - a2 * y1) + (x1 * b2 - x2 * b1),
        (a2 * y0 - a0 * y2) + (x2 * b0 - x0 * b2),
        (a0 * y1 - a1 * y0) + (x0 * b1 - x1 * b0),
    ])
    n_hat = u / norm_u
    dn = (np.eye(3) - n_hat[:, None] * n_hat) @ du / norm_u
    return model.palm_normal_sign * n_hat, model.palm_normal_sign * dn


def test_skipped_identity_product_turns_a_signed_zero_into_zero():
    """Here the skewed hand's proximal rotation holds a -0.0 (an underflowed
    product), and the matmul by the prismatic joint's identity origin
    rotation returns 0.0 in its place."""
    q = np.array([0.0, 0.8499041808514662, -0.9363381631193785, -0.31887649518490235,
                  5e-324, -0.0, -5e-324, -0.0193613957856771])
    model = REFERENCE_MODELS["skewed"]
    prox = reference_fk(model, q)[0]["prox"]
    assert np.signbit(prox[prox == 0.0]).any()
    assert_matches_per_joint_reference(model, q)


def assert_matches_per_joint_reference(model, q):
    fk = model.fk(q)
    link_rot, link_pos, axis_w, pos_w, site_pos = reference_fk(model, q)
    assert fk.link_rot.keys() == link_rot.keys()
    for name in link_rot:  # tobytes tells a signed zero from zero
        assert fk.link_rot[name].tobytes() == link_rot[name].tobytes(), name
        assert fk.link_pos[name].tobytes() == link_pos[name].tobytes(), name
    assert fk.joint_axis_w.tobytes() == axis_w.tobytes()
    assert fk.joint_pos_w.tobytes() == pos_w.tobytes()
    sites = model.fingertip_sites + model.palm_sites
    assert fk.sites.shape == (len(sites), 3)
    for k, site in enumerate(sites):
        assert fk.sites[k].tobytes() == site_pos[site.name].tobytes(), site.name
    sjac = model.site_jacobians(fk)
    assert sjac.shape == (len(sites), 3, model.dof)
    for k, site in enumerate(sites):
        want = model.point_jacobian(fk, site.link, fk.sites[k])
        assert sjac[k].tobytes() == want.tobytes(), site.name
    # equal in value: the reference's `np.cross` hands BLAS a transposed
    # layout, which at subnormal inputs can round a zero to -0.0 differently
    n, dn = model.palm_normal_jacobian(fk, sjac)
    n_ref, dn_ref = reference_palm_normal_jacobian(model, fk)
    assert np.array_equal(n, n_ref)
    assert np.array_equal(dn, dn_ref)
    # and in bytes what the per-row float formula gives
    n_row, dn_row = float_palm_normal_jacobian(model, fk, sjac)
    assert n.tobytes() == n_row.tobytes()
    assert dn.tobytes() == dn_row.tobytes()


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


def test_bundled_hands_are_every_hand_asset():
    # so the load check below, and the tree check inside it, sees every hand
    assert sorted(BUNDLED_HANDS) == sorted(p.stem for p in asset_path("hands").glob("*.json"))


@pytest.mark.parametrize("hand_name", BUNDLED_HANDS)
def test_bundled_hands_load_and_validate(hand_name):
    model, path = resolve_hand(hand_name)
    assert path.exists()
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

    # prox -> dist -> prox: the first joint of the loop comes before its parent
    cycle = planar_hand_dict()
    cycle["joints"][6]["parent"] = "dist"
    with pytest.raises(HandModelError, match="'f_mcp' appears before its parent link 'dist'"):
        hand_from_dict(cycle)

    loose = planar_hand_dict()
    loose["links"].append({"name": "spare"})  # a link that no joint moves
    with pytest.raises(HandModelError, match="'spare' is not connected to the tree root"):
        hand_from_dict(loose)

    dup = planar_hand_dict()
    dup["links"].append({"name": "palm"})
    with pytest.raises(HandModelError):
        hand_from_dict(dup)

    missing = planar_hand_dict()
    del missing["correspondence"]
    with pytest.raises(HandModelError):
        hand_from_dict(missing)

    for finger in ("5", "-1"):  # recorded fingers are 0 to 4
        beyond = planar_hand_dict()
        beyond["correspondence"] = {finger: "tip"}
        with pytest.raises(HandModelError, match=f"finger index {finger} out of range"):
            hand_from_dict(beyond)

    swapped = planar_hand_dict()
    swapped["joints"][7]["limits"] = [1.8, -0.3]
    with pytest.raises(HandModelError):
        hand_from_dict(swapped)

    scaled = planar_hand_dict()
    scaled["palm_normal_sign"] = 2.0  # the palm normal must stay a unit vector
    with pytest.raises(HandModelError):
        hand_from_dict(scaled)

    # every hand floats on six base joints and carries no link mass
    fixed = planar_hand_dict()
    fixed["floating_base"] = False
    with pytest.raises(HandModelError, match="floating_base"):
        hand_from_dict(fixed)

    undeclared = planar_hand_dict()
    del undeclared["floating_base"]
    with pytest.raises(HandModelError, match="floating_base"):
        hand_from_dict(undeclared)

    heavy = planar_hand_dict()
    heavy["links"][-1]["mass"] = 0.02
    with pytest.raises(HandModelError, match="'dist'.*mass"):
        hand_from_dict(heavy)

    # the reward's touch test reads the contacts of a fingertip's link
    bare = planar_hand_dict()
    del bare["links"][-1]["collisions"]
    with pytest.raises(HandModelError, match="'dist' has no collision primitive"):
        hand_from_dict(bare)
