"""GJK and signed-distance queries against optimization-based oracles, the
face-plane test that lets detection skip a query, and the piece checks and
hull that qhull builds on first read."""
import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.spatial import ConvexHull, _qhull

from demo2dex import collision
from demo2dex.collision import (
    HULL_FIELDS,
    ConvexPiece,
    GeometryError,
    gjk_segment_convex,
    point_piece_signed,
    project_to_surface,
    segment_piece_signed,
)
from demo2dex.simworld import CULL_SLACK, DETECT_MARGIN

from conftest import FLAT_PIECES, random_rotation

RNG = np.random.default_rng(23)


def box_piece(half, center=(0.0, 0.0, 0.0)) -> ConvexPiece:
    h = np.asarray(half, dtype=np.float64)
    c = np.asarray(center, dtype=np.float64)
    corners = [
        c + h * np.array([sx, sy, sz])
        for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)
    ]
    return ConvexPiece(np.array(corners))


def oracle_segment_hull(seg_a, seg_b, verts, restarts=4) -> float:
    """Min distance via SLSQP over (segment parameter, barycentric weights)."""
    seg_a = np.asarray(seg_a, dtype=np.float64)
    seg_b = np.asarray(seg_b, dtype=np.float64)
    verts = np.asarray(verts, dtype=np.float64)
    k = len(verts)

    def objective(x):
        p = seg_a + x[0] * (seg_b - seg_a)
        q = x[1:] @ verts
        return float(np.sum((p - q) ** 2))

    best = np.inf
    for r in range(restarts):
        w0 = RNG.uniform(0.1, 1.0, k)
        x0 = np.concatenate([[RNG.uniform()], w0 / w0.sum()])
        res = minimize(
            objective, x0, method="SLSQP",
            bounds=[(0.0, 1.0)] + [(0.0, 1.0)] * k,
            constraints=[{"type": "eq", "fun": lambda x: np.sum(x[1:]) - 1.0}],
            options={"maxiter": 300, "ftol": 1e-14},
        )
        best = min(best, res.fun)
    return float(np.sqrt(max(best, 0.0)))


def test_point_to_cube_closed_forms():
    piece = box_piece([0.03, 0.03, 0.03])
    cases = [
        # outside a face
        ([0.0, -0.045, 0.0], 0.015, [0.0, -0.03, 0.0]),
        # outside an edge
        ([0.05, 0.05, 0.0], np.sqrt(2) * 0.02, [0.03, 0.03, 0.0]),
        # outside a corner
        ([0.06, 0.06, 0.06], np.sqrt(3) * 0.03, [0.03, 0.03, 0.03]),
    ]
    for p, want_d, want_w in cases:
        d, pa, pb = gjk_segment_convex(np.array(p), np.array(p), piece)
        assert abs(d - want_d) < 1e-9
        assert np.allclose(pa, p, atol=1e-9)
        assert np.allclose(pb, want_w, atol=1e-7)


def test_point_inside_cube_reports_depth():
    piece = box_piece([0.03, 0.03, 0.03])
    d, surf = point_piece_signed(np.array([0.0, 0.0, 0.0]), piece)
    assert abs(d + 0.03) < 1e-9
    d, surf = point_piece_signed(np.array([0.02, 0.0, 0.0]), piece)
    assert abs(d + 0.01) < 1e-9
    assert abs(surf[0] - 0.03) < 1e-9  # pushed out through the near face


def test_segment_cube_against_oracle():
    piece = box_piece([0.04, 0.02, 0.03])
    hits = 0
    for _ in range(150):
        a = RNG.uniform(-0.15, 0.15, 3)
        b = a + RNG.uniform(-0.12, 0.12, 3)
        d, pa, pb = gjk_segment_convex(a, b, piece)
        if d < 1e-9:
            hits += 1  # intersecting pairs are checked separately
            continue
        want = oracle_segment_hull(a, b, piece.vertices)
        assert abs(d - want) < 1e-6
        # witness pair must realize the distance on both shapes
        assert abs(np.linalg.norm(pa - pb) - d) < 1e-9
        t = np.dot(pa - a, b - a) / max(np.dot(b - a, b - a), 1e-300)
        assert -1e-9 <= t <= 1 + 1e-9
        assert np.linalg.norm(a + np.clip(t, 0, 1) * (b - a) - pa) < 1e-7
        assert np.all(piece.face_n @ pb <= piece.face_b + 1e-7)
    assert hits < 120  # the sweep must exercise mostly separated pairs


def test_segment_random_hulls_against_oracle():
    for trial in range(40):
        verts = RNG.uniform(-0.05, 0.05, (7, 3))
        piece = ConvexPiece(verts)
        a = RNG.uniform(-0.2, 0.2, 3)
        b = a + RNG.uniform(-0.1, 0.1, 3)
        d, pa, pb = gjk_segment_convex(a, b, piece)
        if d < 1e-9:
            continue
        want = oracle_segment_hull(a, b, verts)
        assert abs(d - want) < 1e-6


def test_capsule_cube_signed_distance():
    piece = box_piece([0.03, 0.03, 0.03])
    r = 0.007
    # hovering above the top face
    a, b = np.array([-0.01, 0.0, 0.05]), np.array([0.01, 0.0, 0.05])
    d, w_prim, w_piece, n = segment_piece_signed(a, b, r, piece)
    assert abs(d - (0.02 - r)) < 1e-9
    assert np.allclose(n, [0, 0, -1], atol=1e-9)
    assert abs(w_piece[2] - 0.03) < 1e-9
    # shell overlap: core outside, inflated surface inside
    a2 = np.array([0.0, 0.0, 0.035])
    d2, _, _, _ = segment_piece_signed(a2, a2, r, piece)
    assert abs(d2 - (0.005 - r)) < 1e-9
    # core inside: depth grows with penetration and the normal keeps the
    # direction it had before touchdown, so contact forces stay continuous
    a3 = np.array([0.0, 0.0, 0.02])
    d3, _, _, n3 = segment_piece_signed(a3, a3, r, piece)
    assert abs(d3 + (0.01 + r)) < 1e-9
    assert np.allclose(n3, [0, 0, -1], atol=1e-9)


def test_signed_distance_continuity_across_contact():
    """Sliding a sphere through the surface must not jump at touchdown."""
    piece = box_piece([0.03, 0.03, 0.03])
    r = 0.005
    zs = np.linspace(0.05, 0.02, 400)
    prev = None
    for z in zs:
        p = np.array([0.011, -0.004, z])
        d, _, _, _ = segment_piece_signed(p, p, r, piece)
        if prev is not None:
            assert abs(d - prev) < 2e-4  # step size bound, no jumps
        prev = d


def test_rotated_box_matches_frame_change():
    from demo2dex.geometry import Pose6

    half = np.array([0.04, 0.02, 0.03])
    pose = Pose6(np.array([0.1, -0.05, 0.2]), random_rotation(RNG))
    base = box_piece(half)
    world_piece = ConvexPiece(pose.apply(base.vertices))
    for _ in range(50):
        a = RNG.uniform(-0.1, 0.35, 3)
        b = a + RNG.uniform(-0.08, 0.08, 3)
        d_world, _, _ = gjk_segment_convex(a, b, world_piece)
        inv = pose.inverse()
        d_local, _, _ = gjk_segment_convex(inv.apply(a), inv.apply(b), base)
        assert abs(d_world - d_local) < 1e-9


def test_project_to_surface_union():
    left = box_piece([0.01, 0.01, 0.01], center=[-0.05, 0.0, 0.0])
    right = box_piece([0.01, 0.01, 0.01], center=[0.05, 0.0, 0.0])
    d, surf = project_to_surface(np.array([0.03, 0.0, 0.0]), [left, right])
    assert abs(d - 0.01) < 1e-9
    assert abs(surf[0] - 0.04) < 1e-9


def thin_tetrahedron(thickness: float) -> np.ndarray:
    """Four vertices 0.06 m from the origin, one lifted `thickness` off the
    plane of the other three."""
    return np.array([[-0.06, 0.0, 0.0], [0.06, 0.0, 0.0], [0.0, -0.06, 0.0], [0.0, 0.06, thickness]])


def assert_is_qhulls_hull(piece: ConvexPiece):
    """The lazily built hull fields hold, bit for bit, what qhull gives."""
    hull = ConvexHull(piece.vertices)
    assert piece.simplices.dtype == hull.simplices.dtype
    assert piece.simplices.tobytes() == hull.simplices.tobytes()
    assert piece.face_n.tobytes() == np.ascontiguousarray(hull.equations[:, :3]).tobytes()
    assert piece.face_b.tobytes() == (-hull.equations[:, 3]).tobytes()
    assert piece.planes == list(dict.fromkeys(map(tuple, hull.equations.tolist())))
    assert np.float64(piece.volume).tobytes() == np.float64(hull.volume).tobytes()


def test_degenerate_vertices_rejected():
    with pytest.raises(GeometryError):
        ConvexPiece(np.zeros((0, 3)))
    with pytest.raises(GeometryError):
        ConvexPiece(np.array([[0.0, 0.0]]))
    for verts in FLAT_PIECES.values():
        with pytest.raises(GeometryError, match="coplanar, collinear or coincident"):
            ConvexPiece(np.array(verts))


def test_flatness_boundary():
    # qhull builds a tetrahedron 1e-15 thick at this scale; one 1e-16 thick
    # is flat to the rank test and never reaches qhull
    piece = ConvexPiece(thin_tetrahedron(1e-15))
    assert piece.volume > 0.0
    with pytest.raises(GeometryError, match="coplanar, collinear or coincident"):
        ConvexPiece(thin_tetrahedron(1e-16))
    # 7e-16 thick with eight more vertices on the base: qhull builds it, but
    # matrix_rank's default tolerance, which grows with the vertex count,
    # would call it flat
    tet = thin_tetrahedron(7e-16)
    v = np.vstack([tet[:3], [[0.0, -0.03 + 0.01 * k, 0.0] for k in range(8)], tet[3:]])
    assert np.linalg.matrix_rank(v - v[0]) == 2
    assert_is_qhulls_hull(ConvexPiece(v))


def test_piece_that_only_qhull_rejects_raises_on_first_hull_read():
    # found by scanning the thickness: 3e-16 passes the rank test (smallest
    # singular value 5.3 eps of the largest), and qhull refuses it
    piece = ConvexPiece(thin_tetrahedron(3e-16))
    for field in HULL_FIELDS:
        with pytest.raises(GeometryError, match="qhull"):
            getattr(piece, field)


def random_piece(seed: int) -> ConvexPiece:
    """The hull of 4-12 random points, a few centimetres across."""
    rng = np.random.default_rng(seed)
    scale = rng.uniform(0.005, 0.05, 3)
    return ConvexPiece(rng.normal(size=(rng.integers(4, 13), 3)) * scale + rng.uniform(-0.02, 0.02, 3))


span = st.tuples(*[st.floats(-0.12, 0.12)] * 3)


@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_plane_test_skips_only_pairs_beyond_the_margin(lift_demo, data):
    """Whenever both segment endpoints lie beyond one face plane by more than
    (r + DETECT_MARGIN) * CULL_SLACK, as detection tests them, the exact query
    puts the capsule farther than DETECT_MARGIN from the piece. Pieces are
    random hulls and the bundled box; each endpoint lies anywhere around the
    piece, or r + DETECT_MARGIN off a face plane to within 1e-12."""
    if data.draw(st.booleans(), label="bundled box"):
        piece = lift_demo.geometry.pieces[0]
    else:
        piece = random_piece(data.draw(st.integers(0, 2**32 - 1), label="piece seed"))
    r = data.draw(st.floats(0.0, 0.02), label="radius")
    reach = r + DETECT_MARGIN
    plane = data.draw(st.sampled_from(piece.planes), label="face plane")
    n = np.array(plane[:3])
    on_plane = piece.centroid - (n @ piece.centroid + plane[3]) * n
    ends = []
    for _ in range(2):
        if data.draw(st.booleans(), label="off the face"):
            off = reach + data.draw(st.sampled_from([-1e-12, 0.0, 1e-12]))
            off += data.draw(st.sampled_from([0.0, 1e-3, 1e-2]))
            t = np.array(data.draw(span))
            ends.append(on_plane + off * n + (t - (t @ n) * n))
        else:
            ends.append(piece.centroid + np.array(data.draw(span)))
    a, b = ends
    if piece.separates(a.tolist(), b.tolist(), reach * CULL_SLACK):
        assert segment_piece_signed(a, b, r, piece)[0] > DETECT_MARGIN


def test_plane_test_needs_its_slack(lift_demo):
    """Why detection's plane test carries CULL_SLACK: a point 2 mm below the
    bundled box reads beyond the bottom face plane by more than DETECT_MARGIN
    in floats, while the exact query puts it within the margin."""
    piece = lift_demo.geometry.pieces[0]
    p = (0.0, 0.0234375, -0.032)
    assert piece.separates(p, p, DETECT_MARGIN)
    assert not piece.separates(p, p, DETECT_MARGIN * CULL_SLACK)
    d = segment_piece_signed(np.array(p), np.array(p), 0.0, piece)[0]
    assert d == 0.001999999999999995 <= DETECT_MARGIN


def test_bundled_box_hull_is_qhulls(lift_demo):
    for piece in lift_demo.geometry.pieces:
        assert_is_qhulls_hull(piece)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_random_hull_is_qhulls(seed):
    assert_is_qhulls_hull(random_piece(seed))


@pytest.mark.parametrize("first", HULL_FIELDS)
def test_one_hull_read_builds_every_field_once(first, monkeypatch):
    builds = []

    def counting_hull(points):
        builds.append(points)
        return ConvexHull(points)

    # the class a build reads, which `scipy.spatial` re-exports
    monkeypatch.setattr(_qhull, "ConvexHull", counting_hull)
    piece = box_piece([0.01, 0.02, 0.03])
    assert not builds
    getattr(piece, first)
    assert len(builds) == 1
    for field in HULL_FIELDS:
        getattr(piece, field)
    assert len(builds) == 1
    assert not hasattr(piece, "no_such_field")
    assert len(builds) == 1


PIECE_COPIES = """
import copy, pickle, sys

from demo2dex.collision import ConvexPiece

piece = ConvexPiece([[sx * 0.01, sy * 0.02, sz * 0.03] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])
copies = [pickle.loads(pickle.dumps(piece)), copy.deepcopy(piece), copy.copy(piece)]
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, f"copying an unbuilt piece loaded {loaded[:3]}"
"""


def test_copying_an_unbuilt_piece_builds_no_hull():
    # a pickle or deep copy of a fresh piece carries no hull, so it loads no scipy
    src = str(Path(collision.__file__).resolve().parent.parent)
    subprocess.run([sys.executable, "-c", PIECE_COPIES], env={**os.environ, "PYTHONPATH": src}, check=True)


def hull_bytes(piece: ConvexPiece) -> list[bytes]:
    return [np.asarray(getattr(piece, f)).tobytes() for f in HULL_FIELDS]


@pytest.mark.parametrize("built", [False, True])
def test_a_copied_piece_has_the_original_hull_bit_for_bit(built):
    piece = random_piece(5)
    if built:
        assert piece.volume > 0
    copies = [pickle.loads(pickle.dumps(piece)), copy.deepcopy(piece)]
    for other in copies:
        assert other.vertices.tobytes() == piece.vertices.tobytes()
        assert other.verts_t == piece.verts_t
    want = hull_bytes(piece)
    for other in copies:
        assert hull_bytes(other) == want
