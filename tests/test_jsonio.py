"""Canonical JSON: the byte form every artifact and run key is made from,
against the recursive walk it replaced."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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


@pytest.mark.parametrize("bad", [np.float64(math.nan), np.float32(-math.inf), np.array(math.inf)],
                         ids=["float64_nan", "float32_-inf", "0d_inf"])
def test_numpy_non_finite_numbers_rejected(bad):
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


def plain(obj):
    """The walk `canonical_dumps` once made before encoding: numpy values to
    their Python values, tuples to lists, every container rebuilt."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    return obj


def walked_dumps(obj) -> str:
    return json.dumps(plain(obj), sort_keys=True, separators=(",", ":"), allow_nan=False)


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
               1.7976931348623157e308, 0.1, 1 / 3]
finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_FLOATS))
INT64 = [np.iinfo(np.int64).min, np.iinfo(np.int64).max, -1, 0, 1]
leaf = st.one_of(
    finite,
    finite.map(np.float64),
    finite.filter(lambda x: abs(x) < 3e38).map(np.float32),
    st.integers(),
    st.one_of(st.integers(INT64[0], INT64[1]), st.sampled_from(INT64)).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.none(),
    st.text(max_size=4),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=3), elements=finite),
)
nested = st.recursive(
    leaf,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=24,
)


@given(nested)
@settings(max_examples=500, deadline=None)
def test_canonical_dumps_is_the_walk_byte_for_byte(obj):
    assert canonical_dumps(obj) == walked_dumps(obj)


@pytest.mark.parametrize("bad", [object(), {1, 2}, 1j, np.complex128(1j), [np.datetime64("2020-01-01")]],
                         ids=["object", "set", "complex", "complex128", "datetime64"])
def test_unsupported_objects_rejected(bad):
    with pytest.raises(TypeError):
        canonical_dumps({"x": bad})
