"""Shared fixtures: bundled assets, a hand-written miniature hand, and one
finished toy3 run.

The planar hand is small enough that its kinematics can be checked by
trigonometry on paper, which keeps the FK and jacobian tests independent of
the code under test.
"""
import json

import numpy as np
import pytest

from demo2dex.geometry import Pose6, Rotation3, geodesic_angle
from demo2dex.hand import hand_from_dict
from demo2dex.pipeline import resolve_config, resolve_demo, resolve_hand, run_transfer
from demo2dex.synthetic import asset_path

STRIDE = 4  # toy3 run recording: every 4th frame of the bundled lift

BUNDLED_HANDS = ["toy3", "adroit24", "allegro16", "leap16"]

# coplanar, collinear and coincident vertex sets: convex pieces with no volume
FLAT_PIECES = {
    "coplanar": [[0.0, 0.0, 0.0], [0.02, 0.0, 0.0], [0.0, 0.02, 0.0], [0.02, 0.02, 0.0], [0.01, 0.01, 0.0]],
    "collinear": [[0.01 * k, 0.02 * k, -0.01 * k] for k in range(5)],
    "coincident": [[0.01, 0.02, 0.03]] * 4,
}

L1, L2 = 0.05, 0.04  # planar finger segment lengths


def random_rotation(rng: np.random.Generator) -> Rotation3:
    # Shoemake's uniform quaternion sampling.
    u1, u2, u3 = rng.random(3)
    a, b = np.sqrt(1.0 - u1), np.sqrt(u1)
    return Rotation3(
        np.array(
            [
                a * np.sin(2 * np.pi * u2),
                a * np.cos(2 * np.pi * u2),
                b * np.sin(2 * np.pi * u3),
                b * np.cos(2 * np.pi * u3),
            ]
        )
    )


def pose_distance(a: Pose6, b: Pose6) -> tuple[float, float]:
    """(translation distance in meters, rotation distance in radians)."""
    return float(np.linalg.norm(a.pos - b.pos)), geodesic_angle(a.rot, b.rot)


def planar_hand_dict() -> dict:
    """Floating base plus one two-segment finger along -z of the palm."""
    joints = []
    links = []
    axes = [[1, 0, 0], [0, 1, 0], [0, 0, 1]] * 2
    names = ["base_tx", "base_ty", "base_tz", "base_rx", "base_ry", "base_rz"]
    parent = "world"
    for i, name in enumerate(names):
        child = "palm" if i == 5 else name
        if i < 5:
            links.append({"name": name})
        joints.append({
            "name": name,
            "type": "prismatic" if i < 3 else "revolute",
            "axis": axes[i],
            "parent": parent,
            "child": child,
            "limits": [-1.5, 1.5] if i < 3 else [-3.2, 3.2],
        })
        parent = child
    links.append({"name": "palm"})
    links.append({"name": "prox", "collisions": [
        {"type": "capsule", "a": [0, 0, -0.005], "b": [0, 0, -L1 + 0.005], "radius": 0.008}]})
    links.append({"name": "dist", "collisions": [
        {"type": "capsule", "a": [0, 0, -0.005], "b": [0, 0, -L2 + 0.004], "radius": 0.007}]})
    joints.append({
        "name": "f_mcp", "type": "revolute", "axis": [0, 1, 0],
        "parent": "palm", "child": "prox", "limits": [-0.3, 1.8],
    })
    joints.append({
        "name": "f_pip", "type": "revolute", "axis": [0, 1, 0],
        "parent": "prox", "child": "dist",
        "origin": {"pos": [0, 0, -L1], "quat": [1, 0, 0, 0]},
        "limits": [-0.3, 1.8],
    })
    return {
        "name": "planar",
        "joints": joints,
        "links": links,
        "fingertip_sites": [{"name": "tip", "link": "dist", "pos": [0, 0, -L2]}],
        "palm_sites": [
            {"name": "palm_i", "link": "palm", "pos": [0.02, 0.01, 0]},
            {"name": "palm_r", "link": "palm", "pos": [-0.02, 0.01, 0]},
            {"name": "palm_w", "link": "palm", "pos": [0, -0.03, 0]},
        ],
        "correspondence": {"0": "tip"},
        "floating_base": True,
        "palm_normal_sign": 1.0,
    }


def planar_tip(q: np.ndarray) -> np.ndarray:
    """Trigonometric fingertip position for the planar hand.

    Base frame: translation (q0,q1,q2), rotation Rx(q3) Ry(q4) Rz(q5) in that
    chain order. The finger folds about +y: tip_local has
    x = -(L1 sin q6 + L2 sin(q6+q7)), z = -(L1 cos q6 + L2 cos(q6+q7)).
    """
    def rx(a):
        c, s = np.cos(a), np.sin(a)
        return np.array([[1, 0, 0], [0, c, -s], [0, s, c]])

    def ry(a):
        c, s = np.cos(a), np.sin(a)
        return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])

    def rz(a):
        c, s = np.cos(a), np.sin(a)
        return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])

    tip_local = np.array([
        -(L1 * np.sin(q[6]) + L2 * np.sin(q[6] + q[7])),
        0.0,
        -(L1 * np.cos(q[6]) + L2 * np.cos(q[6] + q[7])),
    ])
    r = rx(q[3]) @ ry(q[4]) @ rz(q[5])
    return q[:3] + r @ tip_local


@pytest.fixture(scope="session")
def planar_hand():
    return hand_from_dict(planar_hand_dict())


@pytest.fixture(scope="session")
def toy_hand():
    model, _ = resolve_hand("toy3")
    return model


@pytest.fixture(scope="session")
def lift_demo():
    demo, _ = resolve_demo("lift_box")
    return demo


@pytest.fixture(scope="session")
def toy_config():
    return resolve_config("lift_box_toy")


@pytest.fixture(scope="session")
def toy3_config(tmp_path_factory):
    """The bundled config on the lift at every 4th frame, which keeps one
    fresh `--no-rl` run near four seconds."""
    work = tmp_path_factory.mktemp("toy3")
    recording = json.loads(asset_path("demos", "lift_box.json").read_text())
    recording["frames"] = recording["frames"][::STRIDE]
    recording["fps"] = recording["fps"] / STRIDE
    rec_path = work / "recording.json"
    rec_path.write_text(json.dumps(recording))
    config = resolve_config("lift_box_toy")
    config["demo"] = str(rec_path)
    return config


@pytest.fixture(scope="session")
def toy3_run(toy3_config, tmp_path_factory):
    return run_transfer(toy3_config, tmp_path_factory.mktemp("runs"), no_rl=True)
