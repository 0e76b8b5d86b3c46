"""Recording validation: `demo_from_dict` accepts the bundled recording and
rejects each kind of malformed input; grasp contacts and the lowered centre of
mass of the bundled recording."""
import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demo2dex.collision import project_to_surface
from demo2dex.demo import (
    COM_LOWER_FRACTION,
    DemoError,
    demo_from_dict,
    extract_contacts,
    summed_tip_distances,
)
from demo2dex.retarget import HAND_FRAME_DIM
from demo2dex.synthetic import BOX_HALF, asset_path

from conftest import FLAT_PIECES


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


@pytest.mark.parametrize("flat", sorted(FLAT_PIECES))
def test_flat_piece_is_named_by_its_index(record, flat):
    data = copy.deepcopy(record)
    box = data["object_geometry"]["pieces"][0]
    data["object_geometry"]["pieces"] = [box, FLAT_PIECES[flat]]
    with pytest.raises(DemoError, match="object piece 1: degenerate convex piece: coplanar"):
        demo_from_dict(data)


def frame_by_frame_error(frames) -> str | None:
    """The frame checks as one loop over the frames, each frame's checks in
    order: the definition the stacked checks of `demo_from_dict` keep."""
    for t, fr in enumerate(frames):
        try:
            h = np.asarray(fr["hand"], dtype=np.float64)
            pos = np.asarray(fr["object"]["pos"], dtype=np.float64)
            quat = np.asarray(fr["object"]["quat"], dtype=np.float64)
        except (KeyError, TypeError) as exc:
            return f"frame {t}: malformed record ({exc})"
        if h.shape != (HAND_FRAME_DIM,):
            return f"frame {t}: hand vector must have {HAND_FRAME_DIM} entries"
        if not np.all(np.isfinite(h)):
            return f"frame {t}: hand vector has non-finite entries"
        if pos.shape != (3,) or not np.all(np.isfinite(pos)):
            return f"frame {t}: object position invalid"
        if quat.shape != (4,) or not np.all(np.isfinite(quat)):
            return f"frame {t}: object quaternion invalid"
        if abs(np.linalg.norm(quat) - 1.0) > 1e-6:
            return f"frame {t}: object quaternion is not unit norm"
    return None


WIDTH = {"hand": HAND_FRAME_DIM, "pos": 3, "quat": 4}
KINDS = ["drop", "drop_object", "not_a_record", "short", "nested", "null", "nan",
         "inf_entry", "off_unit", "near_unit"]


def corrupt(frames, t, kind, field):
    fr = frames[t]
    if not isinstance(fr, dict):
        return
    if kind == "not_a_record":
        frames[t] = 5
    elif kind == "drop_object":
        fr.pop("object", None)
    else:
        owner = fr if field == "hand" else fr.get("object")
        if not isinstance(owner, dict):
            return
        n = WIDTH[field]
        if kind == "drop":
            owner.pop(field, None)
            return
        owner[field] = {
            "short": [0.1] * (n - 1),
            "nested": [[0.1] * n],
            "null": None,
            "nan": [float("nan")] * n,
            "inf_entry": [float("inf")] + [0.1] * (n - 1),
            "off_unit": [1.0 + 2e-6] + [0.0] * (n - 1),
            "near_unit": [1.0 + 5e-7] + [0.0] * (n - 1),
        }[kind]


@given(st.lists(
    st.tuples(st.integers(0, 2), st.sampled_from(KINDS), st.sampled_from(sorted(WIDTH))),
    max_size=4,
))
@settings(max_examples=300, deadline=None)
def test_stacked_checks_raise_what_the_frame_loop_raises(record, faults):
    # every fault the frame loop reports, the stacked checks report with the
    # same message, naming the first bad frame
    data = copy.deepcopy(record)
    for t, kind, field in faults:
        corrupt(data["frames"], t, kind, field)
    want = frame_by_frame_error(data["frames"])
    if want is None:
        assert demo_from_dict(data).length == 3
    else:
        with pytest.raises(DemoError) as exc:
            demo_from_dict(data)
        assert str(exc.value) == want


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
