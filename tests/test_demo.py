"""Recording validation: `demo_from_dict` accepts the bundled recording and
rejects each kind of malformed input; grasp contacts and the lowered centre of
mass of the bundled recording."""
import copy
import json

import numpy as np
import pytest

from demo2dex.collision import project_to_surface
from demo2dex.demo import (
    COM_LOWER_FRACTION,
    DemoError,
    demo_from_dict,
    extract_contacts,
    summed_tip_distances,
)
from demo2dex.synthetic import BOX_HALF, asset_path


@pytest.fixture(scope="module")
def record() -> dict:
    data = json.loads(asset_path("demos", "lift_box.json").read_text())
    data["frames"] = data["frames"][:3]
    return data


def drop_fps(d):
    del d["fps"]


def zero_fps(d):
    d["fps"] = 0.0


def single_frame(d):
    d["frames"] = d["frames"][:1]


def short_hand_vector(d):
    d["frames"][1]["hand"] = d["frames"][1]["hand"][:17]


def non_finite_hand(d):
    d["frames"][1]["hand"][4] = float("nan")


def non_unit_quaternion(d):
    d["frames"][1]["object"]["quat"] = [1.0, 0.1, 0.0, 0.0]


def test_accepts_the_bundled_record(record):
    demo = demo_from_dict(copy.deepcopy(record))
    assert demo.length == 3


@pytest.mark.parametrize(
    "corrupt",
    [drop_fps, zero_fps, single_frame, short_hand_vector, non_finite_hand, non_unit_quaternion],
)
def test_rejects_malformed_record(record, corrupt):
    data = copy.deepcopy(record)
    corrupt(data)
    with pytest.raises(DemoError):
        demo_from_dict(data)


def test_extract_contacts_on_the_bundled_recording(lift_demo):
    contacts = extract_contacts(lift_demo)
    # the three toy-hand fingers touch; ring and pinky are folded away
    assert contacts.finger_ids == (0, 1, 2)
    # the points are the projections at the argmin of the summed tip distances
    grasp = int(np.argmin(summed_tip_distances(lift_demo)))
    inv = lift_demo.object_poses[grasp].inverse()
    tips = lift_demo.hand[grasp, :15].reshape(5, 3)
    want = [project_to_surface(inv.apply(tips[i]), lift_demo.geometry.pieces)[1] for i in range(3)]
    np.testing.assert_array_equal(contacts.points, np.array(want))
    # every point lies on a face of the box, whose centre is the object origin
    for p in contacts.points:
        assert np.max(np.abs(p)) == pytest.approx(BOX_HALF, abs=1e-12)


def test_com_is_lowered_by_a_fraction_of_the_box_height(lift_demo):
    # the recording declares the box centre as its COM
    assert lift_demo.geometry.com.tolist() == [0.0, 0.0, -COM_LOWER_FRACTION * 2 * BOX_HALF]
