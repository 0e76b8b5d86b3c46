"""Canonical JSON: the byte form every artifact and run key is made from."""
import math

import numpy as np
import pytest

from demo2dex.jsonio import canonical_dumps, dump_json, load_json, sha256_of


@pytest.mark.parametrize("obj, text", [
    ({"b": 1, "a": [1, 2], "c": {"z": None, "y": True}}, '{"a":[1,2],"b":1,"c":{"y":true,"z":null}}'),
    (np.array([[1.5, 2.0], [3.0, -0.25]]), "[[1.5,2.0],[3.0,-0.25]]"),
    ({"f": np.float64(0.1), "i": np.int64(7), "t": np.bool_(True)}, '{"f":0.1,"i":7,"t":true}'),
    ((1, (np.int64(2), [np.float64(3.5)]), ()), "[1,[2,[3.5]],[]]"),
])
def test_canonical_dumps(obj, text):
    assert canonical_dumps(obj) == text


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.array([1.0, np.nan])])
def test_non_finite_numbers_rejected(bad):
    with pytest.raises(ValueError):
        canonical_dumps({"x": bad})


def test_hash_ignores_insertion_order():
    assert sha256_of({"a": 1, "b": [2.0, 3]}) == sha256_of({"b": [2.0, 3], "a": 1})
    assert sha256_of({"a": 1}) != sha256_of({"a": 2})


def test_dump_load_round_trip(tmp_path):
    obj = {"q": np.linspace(0.0, 1.0, 4), "n": np.int64(3), "name": "toy3"}
    path = tmp_path / "x.json"
    dump_json(obj, path)
    raw = path.read_bytes()
    assert raw.endswith(b"}\n") and not raw.endswith(b"\n\n")
    assert load_json(path) == {"q": [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0], "n": 3, "name": "toy3"}
