"""Distance queries between hand primitives and convex object pieces.

Hand collision geometry is spheres and capsules, i.e. inflated points and
segments. Object geometry is a union of convex vertex sets. Signed distance
between a primitive and a piece is the segment-to-hull distance minus the
primitive radius; penetration beyond the hull surface falls back to the
precomputed face planes. The GJK core works on plain float tuples because it
sits inside the simulation inner loop.

A piece checks its vertices when it is made: at least four 3D points, all
finite, spanning a volume (rank 3 about the first vertex). Its hull (the
triangles, face planes and volume) is built by qhull the first time any of
those fields is read, and that build also checks that every vertex lies
inside the hull. The build loads scipy's qhull extension on its own
(`kernels.scipy_kernel`), after the LAPACK table it imports
(`scipy.linalg.cython_lapack`), not the `scipy.spatial` or `scipy.linalg`
package, and reads `ConvexHull` and `QhullError` from it at each build.
So loading and scoring a recording never loads scipy, and a piece that passes
the rank test but that qhull rejects raises `GeometryError` at that first
read. Qhull stays the only hull code because `simworld._body_inertia` sums
over its triangles in its order: each of 200 random orders of the bundled
box's 12 triangles changed the inertia's bits.
"""
from __future__ import annotations

import numpy as np

from .kernels import scipy_kernel

GJK_MAX_ITER = 64  # GJK iterations before the current witness pair is returned
HULL_FIELDS = ("simplices", "face_n", "face_b", "planes", "volume")  # built by qhull on first read
# a piece whose smallest singular value (of its vertices about the first) is at
# most this times its largest is flat. `matrix_rank`'s default tolerance grows
# with the vertex count, and so rejects a few near-flat pieces that qhull builds.
FLAT_RTOL = 3 * np.finfo(np.float64).eps


class GeometryError(ValueError):
    pass


# -- scalar vector helpers ------------------------------------------------------


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _sub(u, v):
    return (u[0] - v[0], u[1] - v[1], u[2] - v[2])


def _add(u, v):
    return (u[0] + v[0], u[1] + v[1], u[2] + v[2])


def _scale(u, s):
    return (u[0] * s, u[1] * s, u[2] * s)


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


class ConvexPiece:
    """One convex component of an object, in the object's local frame."""

    __slots__ = ("vertices", "verts_t", "centroid", "bound_radius", *HULL_FIELDS)

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] != 3 or v.shape[0] < 4:
            raise GeometryError("a convex piece needs at least four 3D vertices")
        if not np.all(np.isfinite(v)):
            raise GeometryError("convex piece has non-finite vertices")
        sv = np.linalg.svd(v - v[0], compute_uv=False)
        if sv[2] <= FLAT_RTOL * sv[0]:  # rank below 3
            raise GeometryError("degenerate convex piece: coplanar, collinear or coincident vertices")
        self.vertices = v
        self.verts_t = [tuple(p) for p in v]
        self.centroid = v.mean(axis=0)
        self.bound_radius = float(np.max(np.linalg.norm(v - self.centroid, axis=1)))

    def __getattr__(self, name):
        # only reached while a slot is unset; once built, the hull fields are
        # plain slot reads
        if name not in HULL_FIELDS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self._build_hull()
        return object.__getattribute__(self, name)

    def __getstate__(self):
        # the set slots, in `object.__getstate__`'s form: reading an unset
        # hull field would build the hull, so a copy of an unbuilt piece
        # stays unbuilt
        slots = {}
        for name in self.__slots__:
            try:
                slots[name] = object.__getattribute__(self, name)
            except AttributeError:
                pass
        return None, slots

    def _build_hull(self) -> None:
        scipy_kernel("linalg", "cython_lapack")  # else _qhull's import of it runs scipy.linalg's __init__
        qhull = scipy_kernel("spatial", "_qhull")
        try:
            hull = qhull.ConvexHull(self.vertices)
        except qhull.QhullError as exc:
            raise GeometryError(f"degenerate convex piece (qhull: {exc})") from exc
        # outward faces: n . x <= b
        face_n = hull.equations[:, :3].copy()
        face_b = -hull.equations[:, 3].copy()
        # sanity: every input vertex must be inside its own hull
        for p in self.vertices:
            if not np.all(face_n @ p <= face_b + 1e-9):
                raise GeometryError("vertex escapes its own hull")
        self.simplices = hull.simplices  # (F, 3) vertex indices of the hull's triangles
        self.face_n = face_n
        self.face_b = face_b
        # each distinct face plane once (qhull repeats the plane of a face
        # split into triangles), as floats: n . x + e <= 0 inside
        self.planes = list(dict.fromkeys(map(tuple, hull.equations.tolist())))
        self.volume = float(hull.volume)

    def support(self, d):
        best = None
        best_dot = -1e300
        for p in self.verts_t:
            dd = p[0] * d[0] + p[1] * d[1] + p[2] * d[2]
            if dd > best_dot:
                best_dot = dd
                best = p
        return best

    def separates(self, a, b, dist: float) -> bool:
        """Whether both points lie beyond one face plane by more than `dist`.

        The hull lies inside every face half-space and the face normals are
        unit vectors, so then every point of the segment [a, b] is farther
        than `dist` from the hull. `a` and `b` are float triples.
        """
        a0, a1, a2 = a
        b0, b1, b2 = b
        for n0, n1, n2, e in self.planes:
            if n0 * a0 + n1 * a1 + n2 * a2 + e > dist and n0 * b0 + n1 * b1 + n2 * b2 + e > dist:
                return True
        return False

    def interior_depth(self, p):
        """(depth, surface point, outward normal) for a point inside the hull.

        Depth is the distance to the nearest face plane; exact for convex
        shapes as long as the nearest feature is a face, which holds for
        interior points.
        """
        slack = self.face_b - self.face_n @ np.asarray(p, dtype=np.float64)
        i = int(np.argmin(slack))
        depth = float(slack[i])
        n = self.face_n[i]
        surf = np.asarray(p) + depth * n
        return depth, surf, n


# -- GJK ------------------------------------------------------------------------


def _closest_on_segment(a, b):
    ab = _sub(b, a)
    denom = _dot(ab, ab)
    if denom < 1e-300:
        return a, (1.0, 0.0)
    t = -_dot(a, ab) / denom
    if t <= 0.0:
        return a, (1.0, 0.0)
    if t >= 1.0:
        return b, (0.0, 1.0)
    return _add(a, _scale(ab, t)), (1.0 - t, t)


def _closest_on_triangle(a, b, c):
    # Ericson, Real-Time Collision Detection, 5.1.5, with P at the origin.
    ab = _sub(b, a)
    ac = _sub(c, a)
    ap = _scale(a, -1.0)
    d1 = _dot(ab, ap)
    d2 = _dot(ac, ap)
    if d1 <= 0.0 and d2 <= 0.0:
        return a, (1.0, 0.0, 0.0)
    bp = _scale(b, -1.0)
    d3 = _dot(ab, bp)
    d4 = _dot(ac, bp)
    if d3 >= 0.0 and d4 <= d3:
        return b, (0.0, 1.0, 0.0)
    vc = d1 * d4 - d3 * d2
    if vc <= 0.0 and d1 >= 0.0 and d3 <= 0.0:
        t = d1 / (d1 - d3)
        return _add(a, _scale(ab, t)), (1.0 - t, t, 0.0)
    cp = _scale(c, -1.0)
    d5 = _dot(ab, cp)
    d6 = _dot(ac, cp)
    if d6 >= 0.0 and d5 <= d6:
        return c, (0.0, 0.0, 1.0)
    vb = d5 * d2 - d1 * d6
    if vb <= 0.0 and d2 >= 0.0 and d6 <= 0.0:
        t = d2 / (d2 - d6)
        return _add(a, _scale(ac, t)), (1.0 - t, 0.0, t)
    va = d3 * d6 - d5 * d4
    if va <= 0.0 and (d4 - d3) >= 0.0 and (d5 - d6) >= 0.0:
        t = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        return _add(b, _scale(_sub(c, b), t)), (0.0, 1.0 - t, t)
    denom = 1.0 / (va + vb + vc)
    v = vb * denom
    w = vc * denom
    return _add(a, _add(_scale(ab, v), _scale(ac, w))), (1.0 - v - w, v, w)


def _closest_simplex(pts):
    """Closest point to the origin on a 1-3 point simplex.

    Returns (point, lambdas, keep_indices). Tetrahedra are reduced by the
    caller before this is invoked.
    """
    k = len(pts)
    if k == 1:
        return pts[0], (1.0,), (0,)
    if k == 2:
        p, lam = _closest_on_segment(pts[0], pts[1])
        keep = tuple(i for i in range(2) if lam[i] > 0.0)
        return p, lam, keep
    p, lam = _closest_on_triangle(pts[0], pts[1], pts[2])
    keep = tuple(i for i in range(3) if lam[i] > 0.0)
    return p, lam, keep


def _origin_in_tetra(pts):
    a, b, c, d = pts
    def same_side(p0, p1, p2, p3):
        n = _cross(_sub(p1, p0), _sub(p2, p0))
        sd = _dot(n, _sub(p3, p0))
        so = -_dot(n, p0)
        return sd * so >= 0.0
    return (
        same_side(a, b, c, d)
        and same_side(b, c, d, a)
        and same_side(c, d, a, b)
        and same_side(d, a, b, c)
    )


def gjk_segment_convex(seg_a, seg_b, piece: ConvexPiece):
    """Distance between segment [a, b] and a convex piece, with witness points.

    Returns (distance, point_on_segment, point_on_piece); distance is 0.0 when
    the segment core intersects the hull (use face planes for depth).
    """
    sa = tuple(map(float, seg_a))
    sb = tuple(map(float, seg_b))

    def support(d):
        pa = sa if _dot(sa, d) >= _dot(sb, d) else sb
        nd = (-d[0], -d[1], -d[2])
        pb = piece.support(nd)
        return _sub(pa, pb), pa, pb

    d0 = _sub(sa, tuple(piece.centroid))
    if _dot(d0, d0) < 1e-18:
        d0 = (1.0, 0.0, 0.0)
    w, pa, pb = support(d0)
    simplex = [(w, pa, pb)]
    v = w
    for _ in range(GJK_MAX_ITER):
        vv = _dot(v, v)
        if vv < 1e-22:
            return 0.0, np.array(pa), np.array(pb)
        nd = (-v[0], -v[1], -v[2])
        w_new, pa_new, pb_new = support(nd)
        # no further progress toward the origin: pa/pb already hold the
        # converged witness combination, the probe point must not clobber them
        if vv - _dot(v, w_new) <= 1e-12 * max(1.0, vv):
            break
        simplex.append((w_new, pa_new, pb_new))
        pts = [s[0] for s in simplex]
        if len(pts) == 4:
            if _origin_in_tetra(pts):
                return 0.0, np.array(pa), np.array(pb)
            # reduce: closest face of the tetrahedron
            best = None
            for drop in range(4):
                face = [pts[i] for i in range(4) if i != drop]
                p, lam, keep = _closest_simplex(face)
                dd = _dot(p, p)
                if best is None or dd < best[0]:
                    idxs = [i for i in range(4) if i != drop]
                    best = (dd, p, lam, [idxs[i] for i in keep], [lam[i] for i in keep])
            _, v, lam, keep_idx, keep_lam = best
            simplex = [simplex[i] for i in keep_idx]
            lam = keep_lam
        else:
            p, lam, keep = _closest_simplex(pts)
            v = p
            simplex = [simplex[i] for i in keep]
            lam = [lam[i] for i in keep]
        # renormalize barycentric weights of the kept vertices
        s = sum(lam)
        if s <= 0.0:
            lam = [1.0] + [0.0] * (len(simplex) - 1)
            s = 1.0
        lam = [x / s for x in lam]
        wa = (0.0, 0.0, 0.0)
        wb = (0.0, 0.0, 0.0)
        for (wv, a_i, b_i), l in zip(simplex, lam):
            wa = _add(wa, _scale(a_i, l))
            wb = _add(wb, _scale(b_i, l))
        pa, pb = wa, wb
        v = _sub(pa, pb)
    dist = float(np.sqrt(max(_dot(v, v), 0.0)))
    return dist, np.array(pa), np.array(pb)


# -- public queries ---------------------------------------------------------------


def segment_piece_signed(seg_a, seg_b, radius: float, piece: ConvexPiece):
    """Signed distance between an inflated segment (capsule/sphere) and a piece.

    Returns (signed_distance, witness_on_primitive_surface, witness_on_piece,
    normal). The normal points from the primitive toward the piece. Negative
    distance means penetration by that depth.
    """
    core_d, p_seg, p_hull = gjk_segment_convex(seg_a, seg_b, piece)
    if core_d > 1e-9:
        n = (p_hull - p_seg) / core_d
        return core_d - radius, p_seg + radius * n, p_hull, n
    # segment core touches or enters the hull: face-plane fallback on the
    # deepest of the endpoints and midpoint
    candidates = [np.asarray(seg_a, dtype=np.float64)]
    if not np.array_equal(seg_a, seg_b):
        candidates.append(0.5 * (np.asarray(seg_a) + np.asarray(seg_b)))
        candidates.append(np.asarray(seg_b, dtype=np.float64))
    best = None
    for p in candidates:
        depth, surf, n = piece.interior_depth(p)
        if best is None or depth > best[0]:
            best = (depth, surf, n, p)
    depth, surf, n, p = best
    if depth < 0.0:
        # grazing contact right at the surface
        return -radius, p + radius * (-n), surf, -n
    # normal from primitive into free space is -n (outward face normal);
    # primitive center is inside, so the push-out direction for the piece is -n
    return -(depth + radius), p - radius * n, surf, -n


def point_piece_signed(p, piece: ConvexPiece):
    """Signed distance from a point to the hull surface (negative inside)."""
    p = np.asarray(p, dtype=np.float64)
    d, _, p_hull = gjk_segment_convex(p, p, piece)
    if d > 1e-9:
        return float(d), p_hull
    depth, surf, _ = piece.interior_depth(p)
    return -float(depth), surf


def project_to_surface(p, pieces) -> tuple[float, np.ndarray]:
    """Distance from a point to the nearest surface over a union of pieces.

    Returns (signed_distance, closest surface point). Inside any piece counts
    as negative.
    """
    best = None
    for piece in pieces:
        d, surf = point_piece_signed(p, piece)
        if best is None or d < best[0]:
            best = (d, surf)
    return best
