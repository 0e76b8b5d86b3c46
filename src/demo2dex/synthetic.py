"""Bundled synthetic assets: four hand models and a scripted lift-box recording.

The hands are deliberately heterogeneous (different fingertip counts, joint
splits, mounting frames) so the rest of the toolkit stays honest about being
hand-agnostic. The recording is generated from the small three-finger hand's
own kinematics with the fingers held slightly open: replaying it verbatim
hovers next to the box without touching it, which is exactly the gap the
contact optimization stage is supposed to close.

Run ``python -m demo2dex.synthetic`` to regenerate the asset files in place.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .collision import ConvexPiece, segment_piece_signed
from .geometry import Rotation3
from .hand import hand_from_dict
from .jsonio import dump_json
from .pipeline import asset_path

FPS = 120

# lift-box script, in frames at FPS
APPROACH_END = 70
LIFT_START = 95
LIFT_END = 120
DESCEND_START = 210
DESCEND_END = 228
TOTAL_FRAMES = 240
LIFT_HEIGHT = 0.1

BOX_HALF = 0.03
BOX_CENTER = np.array([0.4, 0.0, BOX_HALF])
BOX_MASS = 0.1
WRIST_HIGH = np.array([0.34, 0.0, 0.28])
WRIST_GRASP = np.array([0.4, 0.0, 0.124])
CLOSE_GAP = 0.0025  # capsule-to-box clearance left after the recorded pre-close

# the unmapped human fingers are folded far away from the object
RING_OFFSET = np.array([-0.08, 0.0, 0.12])
PINKY_OFFSET = np.array([-0.12, 0.0, 0.16])

BASE_PRISMATIC_LIMIT = 1.5
BASE_REVOLUTE_LIMIT = 3.2


def _quat(az: float = 0.0, ax: float = 0.0) -> list[float]:
    r = Rotation3.from_axis_angle([0.0, 0.0, 1.0], az) @ Rotation3.from_axis_angle(
        [1.0, 0.0, 0.0], ax
    )
    return [float(x) for x in r.q]


def _base_chain(joints: list, links: list, root: str) -> None:
    """Six virtual joints (tx ty tz rx ry rz) from the world to the root link."""
    axes = [[1, 0, 0], [0, 1, 0], [0, 0, 1]] * 2
    names = ["base_tx", "base_ty", "base_tz", "base_rx", "base_ry", "base_rz"]
    parent = "world"
    for i, name in enumerate(names):
        child = root if i == 5 else name
        if i < 5:
            links.append({"name": name})
        jtype = "prismatic" if i < 3 else "revolute"
        lim = BASE_PRISMATIC_LIMIT if i < 3 else BASE_REVOLUTE_LIMIT
        joints.append(
            {
                "name": name,
                "type": jtype,
                "axis": [float(a) for a in axes[i]],
                "parent": parent,
                "child": child,
                "limits": [-lim, lim],
            }
        )
        parent = child


def _finger_chain(
    joints: list,
    links: list,
    sites: list,
    finger: str,
    mount_pos,
    mount_quat,
    direction,
    axes,
    seg_lengths,
    tip_offset: float,
    limits,
    radius: float,
    parent: str = "palm",
) -> None:
    """Serial finger: one joint per axis, capsule links along `direction`.

    seg_lengths has one entry per joint except the last; the distal link ends
    at the fingertip site, tip_offset along the chain direction.
    """
    d = np.asarray(direction, dtype=np.float64)
    inset = 0.005
    prev = parent
    offset = np.asarray(mount_pos, dtype=np.float64)
    quat = mount_quat
    n = len(axes)
    for i in range(n):
        is_last = i == n - 1
        length = tip_offset if is_last else seg_lengths[i]
        link_name = f"{finger}_distal" if is_last else f"{finger}_{i}"
        cap_end = max(length - (0.004 if is_last else inset), inset + 1e-3)
        prim = {
            "type": "capsule",
            "a": (d * inset).tolist(),
            "b": (d * cap_end).tolist(),
            "radius": radius,
        }
        links.append({"name": link_name, "collisions": [prim] if length > 0.01 else []})
        joints.append(
            {
                "name": f"{finger}_j{i}",
                "type": "revolute",
                "axis": [float(a) for a in axes[i]],
                "parent": prev,
                "child": link_name,
                "origin": {"pos": offset.tolist(), "quat": quat},
                "limits": [float(limits[i][0]), float(limits[i][1])],
            }
        )
        prev = link_name
        offset = d * length
        quat = [1.0, 0.0, 0.0, 0.0]
    sites.append({"name": f"{finger}_tip", "link": f"{finger}_distal", "pos": (d * tip_offset).tolist()})


def toy_hand_dict() -> dict:
    """Three-finger vertical pinch gripper: thumb opposing index and middle."""
    joints: list = []
    links: list = [{"name": "palm", "collisions": [{"type": "sphere", "center": [0.0, 0.0, 0.0], "radius": 0.015}]}]
    sites: list = []
    _base_chain(joints, links, "palm")
    down = [0.0, 0.0, -1.0]
    flex = [(-0.3, 1.4), (-0.3, 1.4)]
    _finger_chain(
        joints, links, sites, "thumb", [0.0, -0.045, -0.01], _quat(),
        down, [[1, 0, 0], [1, 0, 0]], [0.05], 0.034, flex, 0.008,
    )
    _finger_chain(
        joints, links, sites, "index", [0.02, 0.045, -0.01], _quat(),
        down, [[-1, 0, 0], [-1, 0, 0]], [0.05], 0.034, flex, 0.008,
    )
    _finger_chain(
        joints, links, sites, "middle", [-0.02, 0.045, -0.01], _quat(),
        down, [[-1, 0, 0], [-1, 0, 0]], [0.05], 0.034, flex, 0.008,
    )
    return {
        "name": "toy3",
        "floating_base": True,
        "palm_normal_sign": -1.0,
        "links": links,
        "joints": joints,
        "fingertip_sites": sites,
        "palm_sites": [
            {"name": "palm_index", "link": "palm", "pos": [0.02, 0.045, -0.01]},
            {"name": "palm_ring", "link": "palm", "pos": [-0.02, 0.045, -0.01]},
            {"name": "palm_wrist", "link": "palm", "pos": [0.0, 0.0, 0.0]},
        ],
        "correspondence": {"0": "thumb_tip", "1": "index_tip", "2": "middle_tip"},
    }


def adroit_hand_dict() -> dict:
    """Five-finger hand, 18 finger dof (4+4+4+3+3)."""
    joints: list = []
    links: list = [{"name": "palm", "collisions": [
        {"type": "capsule", "a": [0.02, 0.0, 0.0], "b": [0.08, 0.0, 0.0], "radius": 0.03}
    ]}]
    sites: list = []
    _base_chain(joints, links, "palm")
    fwd = [1.0, 0.0, 0.0]
    abd = [0, 0, 1]
    fl = [0, 1, 0]
    abd_lim = (-0.35, 0.35)
    flex_lim = (-0.26, 1.6)
    _finger_chain(
        joints, links, sites, "thumb", [0.025, 0.04, -0.008], _quat(1.2, -1.1),
        fwd, [abd, fl, fl, fl], [0.004, 0.045, 0.038], 0.030,
        [(-0.6, 0.6), (-0.3, 1.3), flex_lim, flex_lim], 0.009,
    )
    _finger_chain(
        joints, links, sites, "index", [0.095, 0.033, 0.0], _quat(),
        fwd, [abd, fl, fl, fl], [0.004, 0.045, 0.028], 0.024,
        [abd_lim, flex_lim, flex_lim, flex_lim], 0.009,
    )
    _finger_chain(
        joints, links, sites, "middle", [0.099, 0.011, 0.0], _quat(),
        fwd, [abd, fl, fl, fl], [0.004, 0.048, 0.030], 0.025,
        [abd_lim, flex_lim, flex_lim, flex_lim], 0.009,
    )
    _finger_chain(
        joints, links, sites, "ring", [0.095, -0.011, 0.0], _quat(),
        fwd, [fl, fl, fl], [0.042, 0.027], 0.024,
        [flex_lim, flex_lim, flex_lim], 0.009,
    )
    _finger_chain(
        joints, links, sites, "pinky", [0.088, -0.033, 0.0], _quat(),
        fwd, [fl, fl, fl], [0.035, 0.022], 0.021,
        [flex_lim, flex_lim, flex_lim], 0.009,
    )
    return {
        "name": "adroit24",
        "floating_base": True,
        "palm_normal_sign": 1.0,
        "links": links,
        "joints": joints,
        "fingertip_sites": sites,
        "palm_sites": [
            {"name": "palm_index", "link": "palm", "pos": [0.09, 0.033, 0.0]},
            {"name": "palm_ring", "link": "palm", "pos": [0.09, -0.011, 0.0]},
            {"name": "palm_wrist", "link": "palm", "pos": [0.0, 0.0, 0.0]},
        ],
        "correspondence": {
            "0": "thumb_tip", "1": "index_tip", "2": "middle_tip",
            "3": "ring_tip", "4": "pinky_tip",
        },
    }


def allegro_hand_dict() -> dict:
    """Four-finger hand, 10 finger dof (3+3+2+2)."""
    joints: list = []
    links: list = [{"name": "palm", "collisions": [
        {"type": "capsule", "a": [0.02, 0.0, 0.0], "b": [0.075, 0.0, 0.0], "radius": 0.032}
    ]}]
    sites: list = []
    _base_chain(joints, links, "palm")
    fwd = [1.0, 0.0, 0.0]
    abd = [0, 0, 1]
    fl = [0, 1, 0]
    abd_lim = (-0.45, 0.45)
    flex_lim = (-0.2, 1.7)
    _finger_chain(
        joints, links, sites, "thumb", [0.02, 0.045, -0.01], _quat(1.3, -1.0),
        fwd, [abd, fl, fl], [0.005, 0.05], 0.035,
        [(-0.5, 0.7), (-0.25, 1.4), flex_lim], 0.01,
    )
    _finger_chain(
        joints, links, sites, "index", [0.095, 0.03, 0.0], _quat(),
        fwd, [abd, fl, fl], [0.004, 0.05], 0.030,
        [abd_lim, flex_lim, flex_lim], 0.01,
    )
    _finger_chain(
        joints, links, sites, "middle", [0.098, 0.0, 0.0], _quat(),
        fwd, [fl, fl], [0.052], 0.032, [flex_lim, flex_lim], 0.01,
    )
    _finger_chain(
        joints, links, sites, "ring", [0.093, -0.03, 0.0], _quat(),
        fwd, [fl, fl], [0.048], 0.030, [flex_lim, flex_lim], 0.01,
    )
    return {
        "name": "allegro16",
        "floating_base": True,
        "palm_normal_sign": 1.0,
        "links": links,
        "joints": joints,
        "fingertip_sites": sites,
        "palm_sites": [
            {"name": "palm_index", "link": "palm", "pos": [0.09, 0.03, 0.0]},
            {"name": "palm_ring", "link": "palm", "pos": [0.09, -0.03, 0.0]},
            {"name": "palm_wrist", "link": "palm", "pos": [0.0, 0.0, 0.0]},
        ],
        "correspondence": {
            "0": "thumb_tip", "1": "index_tip", "2": "middle_tip", "3": "ring_tip",
        },
    }


def leap_hand_dict() -> dict:
    """Four-finger hand, 10 finger dof (2+3+3+2)."""
    joints: list = []
    links: list = [{"name": "palm", "collisions": [
        {"type": "capsule", "a": [0.015, 0.0, 0.0], "b": [0.07, 0.0, 0.0], "radius": 0.028}
    ]}]
    sites: list = []
    _base_chain(joints, links, "palm")
    fwd = [1.0, 0.0, 0.0]
    abd = [0, 0, 1]
    fl = [0, 1, 0]
    abd_lim = (-0.4, 0.4)
    flex_lim = (-0.3, 1.5)
    _finger_chain(
        joints, links, sites, "thumb", [0.015, 0.042, -0.012], _quat(1.4, -0.9),
        fwd, [fl, fl], [0.052], 0.038, [(-0.35, 1.3), flex_lim], 0.0085,
    )
    _finger_chain(
        joints, links, sites, "index", [0.092, 0.028, 0.0], _quat(),
        fwd, [abd, fl, fl], [0.005, 0.046], 0.028,
        [abd_lim, flex_lim, flex_lim], 0.0085,
    )
    _finger_chain(
        joints, links, sites, "middle", [0.096, 0.0, 0.0], _quat(),
        fwd, [abd, fl, fl], [0.005, 0.049], 0.029,
        [abd_lim, flex_lim, flex_lim], 0.0085,
    )
    _finger_chain(
        joints, links, sites, "ring", [0.09, -0.028, 0.0], _quat(),
        fwd, [fl, fl], [0.044], 0.027, [flex_lim, flex_lim], 0.0085,
    )
    return {
        "name": "leap16",
        "floating_base": True,
        "palm_normal_sign": 1.0,
        "links": links,
        "joints": joints,
        "fingertip_sites": sites,
        "palm_sites": [
            {"name": "palm_index", "link": "palm", "pos": [0.088, 0.028, 0.0]},
            {"name": "palm_ring", "link": "palm", "pos": [0.088, -0.028, 0.0]},
            {"name": "palm_wrist", "link": "palm", "pos": [0.0, 0.0, 0.0]},
        ],
        "correspondence": {
            "0": "thumb_tip", "1": "index_tip", "2": "middle_tip", "3": "ring_tip",
        },
    }


HAND_BUILDERS = {
    "toy3": toy_hand_dict,
    "adroit24": adroit_hand_dict,
    "allegro16": allegro_hand_dict,
    "leap16": leap_hand_dict,
}


# -- the scripted lift-box recording -------------------------------------------


def _smoothstep(u: float) -> float:
    u = min(max(u, 0.0), 1.0)
    return u * u * (3.0 - 2.0 * u)


def _wrist_at(t: int) -> np.ndarray:
    if t <= APPROACH_END:
        s = _smoothstep(t / APPROACH_END)
        return WRIST_HIGH + s * (WRIST_GRASP - WRIST_HIGH)
    p = WRIST_GRASP.copy()
    p[2] += _object_z(t) - BOX_CENTER[2]
    return p


def _finger_close_angle(model) -> float:
    """Flexion angle at which the distal capsules stop CLOSE_GAP short of the box.

    Solved against the real collision distance so the recorded pre-close is
    contact-free by construction, whatever the capsule geometry.
    """
    piece = ConvexPiece([
        [sx * BOX_HALF + BOX_CENTER[0], sy * BOX_HALF + BOX_CENTER[1], sz * BOX_HALF + BOX_CENTER[2]]
        for sx in (-1.0, 1.0) for sy in (-1.0, 1.0) for sz in (-1.0, 1.0)
    ])

    def clearance(theta: float) -> float:
        q = np.zeros(model.dof)
        q[0:3] = WRIST_GRASP
        q[6:] = theta
        fk = model.fk(q)
        dmin = math.inf
        for link in model.links.values():
            rot, pos = fk.link_rot[link.name], fk.link_pos[link.name]
            for prim in link.collisions:
                a = rot @ np.asarray(prim.a) + pos
                b = rot @ np.asarray(prim.b if prim.b is not None else prim.a) + pos
                d, _, _, _ = segment_piece_signed(a, b, prim.radius, piece)
                dmin = min(dmin, d)
        return dmin - CLOSE_GAP

    lo, hi = 0.0, 0.6
    if clearance(lo) <= 0.0:
        raise ValueError("open hand already touches the box")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if clearance(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def _finger_curl(t: int, q_close: float) -> float:
    if t <= APPROACH_END:
        return 0.0
    if t >= LIFT_START:
        return q_close
    return q_close * _smoothstep((t - APPROACH_END) / (LIFT_START - APPROACH_END))


def _object_z(t: int) -> float:
    z0 = BOX_CENTER[2]
    if t <= LIFT_START:
        return z0
    if t <= LIFT_END:
        return z0 + LIFT_HEIGHT * (t - LIFT_START) / (LIFT_END - LIFT_START)
    if t <= DESCEND_START:
        return z0 + LIFT_HEIGHT
    if t <= DESCEND_END:
        return z0 + LIFT_HEIGHT * (1.0 - (t - DESCEND_START) / (DESCEND_END - DESCEND_START))
    return z0


def lift_box_demo_dict() -> dict:
    """Recording of a vertical pick, hold, and put-down of a small box.

    Fingertip tracks come from the toy hand's own kinematics. The fingers stay
    open through the approach, pre-close during the hover to a small clearance
    (CLOSE_GAP past the collision capsules), and hold that curl for the rest of
    the motion: replaying the recording verbatim never touches the box, and the
    contact optimization stage only has to close the last few millimetres.
    """
    model = hand_from_dict(toy_hand_dict())
    q_close = _finger_close_angle(model)
    frames = []
    for t in range(TOTAL_FRAMES):
        q = np.zeros(model.dof)
        q[0:3] = _wrist_at(t)
        q[6:] = _finger_curl(t, q_close)
        fk = model.fk(q)
        tips = model.fingertip_positions(fk)
        normal = model.palm_normal(fk)
        ring = tips[2] + RING_OFFSET
        pinky = tips[2] + PINKY_OFFSET
        hand = np.concatenate([tips[0], tips[1], tips[2], ring, pinky, normal])
        frames.append(
            {
                "hand": [float(x) for x in hand],
                "object": {
                    "pos": [float(BOX_CENTER[0]), float(BOX_CENTER[1]), float(_object_z(t))],
                    "quat": [1.0, 0.0, 0.0, 0.0],
                },
            }
        )
    h = BOX_HALF
    verts = [
        [sx * h, sy * h, sz * h]
        for sx in (-1.0, 1.0)
        for sy in (-1.0, 1.0)
        for sz in (-1.0, 1.0)
    ]
    return {
        "fps": FPS,
        "frames": frames,
        "object_geometry": {"pieces": [verts], "com": [0.0, 0.0, 0.0], "mass": BOX_MASS},
    }


def lift_box_config_dict() -> dict:
    """End-to-end run configuration for the toy pick-and-place task."""
    return {
        "name": "lift_box_toy",
        "hand": "toy3",
        "demo": "lift_box",
        "rl": {"total_steps": 56000},
        # softer contacts, a low force cap, and grippy pads widen the range of
        # residuals that hold the box without crushing it out of the pinch
        "sim": {"contact_stiffness": 1000.0, "force_cap": 4.0, "friction_mu": 1.5},
    }


def write_bundled_assets(root: Path | None = None) -> list[Path]:
    root = Path(root) if root is not None else asset_path()
    written = []
    for name, builder in HAND_BUILDERS.items():
        p = root / "hands" / f"{name}.json"
        p.parent.mkdir(parents=True, exist_ok=True)
        dump_json(builder(), p)
        written.append(p)
    p = root / "demos" / "lift_box.json"
    p.parent.mkdir(parents=True, exist_ok=True)
    dump_json(lift_box_demo_dict(), p)
    written.append(p)
    p = root / "configs" / "lift_box_toy.json"
    p.parent.mkdir(parents=True, exist_ok=True)
    dump_json(lift_box_config_dict(), p)
    written.append(p)
    return written


if __name__ == "__main__":
    for path in write_bundled_assets():
        print(path)
