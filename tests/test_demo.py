"""Recording validation: `demo_from_dict` accepts the bundled recording and
rejects each kind of malformed input."""
import copy
import json

import pytest

from demo2dex.demo import DemoError, demo_from_dict
from demo2dex.synthetic import asset_path


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
