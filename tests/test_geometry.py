"""Rotation and pose algebra against scipy and closed-form oracles."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation as ScipyRot

from demo2dex.geometry import Pose6, Rotation3, cross3, geodesic_angle

from conftest import pose_distance, random_rotation

RNG = np.random.default_rng(20240811)

unit_quat = st.tuples(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
).filter(lambda q: sum(x * x for x in q) > 1e-4)


def trace_angle(ra: np.ndarray, rb: np.ndarray) -> float:
    # clamp for the acos; the trace formula is the textbook oracle
    c = (np.trace(ra.T @ rb) - 1.0) / 2.0
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def test_geodesic_matches_trace_formula_bulk():
    for _ in range(1000):
        a = random_rotation(RNG)
        b = random_rotation(RNG)
        want = trace_angle(a.as_matrix(), b.as_matrix())
        assert abs(geodesic_angle(a, b) - want) < 1e-9


def test_geodesic_extremes():
    eye = Rotation3.identity()
    assert geodesic_angle(eye, eye) == 0.0
    half = Rotation3.from_axis_angle([0, 0, 1], np.pi)
    assert abs(geodesic_angle(eye, half) - np.pi) < 1e-12
    # tiny angles stay accurate (trace formula itself degrades here)
    tiny = Rotation3.from_axis_angle([1, 0, 0], 1e-9)
    assert abs(geodesic_angle(eye, tiny) - 1e-9) < 1e-15


@given(unit_quat)
@settings(max_examples=200, deadline=None)
def test_matrix_round_trip(q):
    r = Rotation3(np.array(q))
    m = r.as_matrix()
    assert np.allclose(m @ m.T, np.eye(3), atol=1e-12)
    assert abs(np.linalg.det(m) - 1.0) < 1e-12
    back = Rotation3.from_matrix(m)
    assert geodesic_angle(r, back) < 1e-9


@given(unit_quat)
@settings(max_examples=200, deadline=None)
def test_compose_matches_matrix_product(q):
    a = Rotation3(np.array(q))
    b = Rotation3.from_axis_angle([0.3, -0.5, 0.81], 0.7)
    assert np.allclose((a @ b).as_matrix(), a.as_matrix() @ b.as_matrix(), atol=1e-12)
    assert geodesic_angle(a @ a.inverse(), Rotation3.identity()) < 1e-12


def test_against_scipy_rotations():
    for _ in range(300):
        wxyz = RNG.normal(size=4)
        r = Rotation3(wxyz)
        s = ScipyRot.from_quat(np.roll(r.q, -1))  # scipy wants xyzw
        assert np.allclose(r.as_matrix(), s.as_matrix(), atol=1e-12)
        p = RNG.normal(size=3)
        assert np.allclose(r.apply(p), s.apply(p), atol=1e-12)


def test_apply_preserves_length_and_handedness():
    r = random_rotation(RNG)
    pts = RNG.normal(size=(40, 3))
    out = r.apply(pts)
    assert np.allclose(np.linalg.norm(out, axis=1), np.linalg.norm(pts, axis=1))
    a, b = pts[0], pts[1]
    assert np.allclose(r.apply(np.cross(a, b)), np.cross(r.apply(a), r.apply(b)), atol=1e-9)


vec3 = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3)


@given(vec3, vec3)
@settings(max_examples=500, deadline=None)
def test_cross3_is_bitwise_np_cross(a, b):
    a, b = np.array(a), np.array(b)
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries overflow in both
        want = np.cross(a, b)
    assert cross3(a, b).tobytes() == want.tobytes()


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=4))
@settings(max_examples=500, deadline=None)
def test_sqrt_of_self_dot_is_bitwise_linalg_norm(a):
    a = np.array(a)
    with np.errstate(over="ignore"):  # huge entries overflow to inf in both
        assert np.float64(math.sqrt(a.dot(a))).tobytes() == np.linalg.norm(a).tobytes()


@given(unit_quat)
@settings(max_examples=200, deadline=None)
def test_rotation_keeps_a_read_only_matrix(q):
    wxyz = np.array(q)
    r = Rotation3(wxyz, normalize=False)
    wxyz[0] += 1.0  # the rotation holds its own copy
    with pytest.raises(ValueError):
        r.q[0] = 1.0
    m = r.as_matrix()
    assert r.as_matrix() is m
    with pytest.raises(ValueError):
        m[0, 0] = 1.0
    fresh = Rotation3(r.q, normalize=False).as_matrix()
    assert m.tobytes() == fresh.tobytes()
    pts = RNG.normal(size=(7, 3))
    assert r.apply(pts).tobytes() == (pts @ fresh.T).tobytes()
    assert r.apply(pts[0]).tobytes() == (pts[0] @ fresh.T).tobytes()


def test_pose_compose_matches_homogeneous_matrices():
    for _ in range(100):
        a = Pose6(RNG.normal(size=3), random_rotation(RNG))
        b = Pose6(RNG.normal(size=3), random_rotation(RNG))
        assert np.allclose((a @ b).as_matrix(), a.as_matrix() @ b.as_matrix(), atol=1e-12)
        ident = a @ a.inverse()
        assert np.linalg.norm(ident.pos) < 1e-9
        assert geodesic_angle(ident.rot, Rotation3.identity()) < 1e-9


def test_pose_apply():
    p = Pose6(np.array([1.0, -2.0, 0.5]), Rotation3.from_axis_angle([0, 0, 1], np.pi / 2))
    assert np.allclose(p.apply([1.0, 0.0, 0.0]), [1.0, -1.0, 0.5], atol=1e-12)


def test_pose_distance_components():
    a = Pose6(np.zeros(3), Rotation3.identity())
    b = Pose6(np.array([3.0, 4.0, 0.0]), Rotation3.from_axis_angle([1, 0, 0], 0.25))
    dp, dr = pose_distance(a, b)
    assert abs(dp - 5.0) < 1e-12
    assert abs(dr - 0.25) < 1e-12


def test_degenerate_quaternion_rejected():
    with pytest.raises(ValueError):
        Rotation3(np.zeros(4))
