"""Rotations and rigid poses.

Rotations are stored as scalar-first unit quaternions (w, x, y, z); poses as a
translation plus a rotation. Everything is float64 numpy and deterministic.
"""
from __future__ import annotations

import math

import numpy as np

_EPS = 1e-12


class Rotation3:
    """A 3D rotation backed by a unit quaternion (w, x, y, z).

    Immutable: `q` is a read-only copy, and the matrix is computed on first
    use and kept, read-only, for every later `as_matrix` and `apply`.
    """

    __slots__ = ("q", "_m")

    def __init__(self, wxyz, normalize: bool = True):
        q = np.asarray(wxyz, dtype=np.float64)
        if q.shape != (4,):
            raise ValueError(f"quaternion must have shape (4,), got {q.shape}")
        if not all(map(math.isfinite, q.tolist())):
            raise ValueError("quaternion has non-finite entries")
        n = math.sqrt(q.dot(q))  # np.linalg.norm's own arithmetic for a 1-D array
        if n < 1e-8:
            raise ValueError("quaternion norm too small to normalize")
        q = q / n if normalize else q.copy()  # never the caller's array, which stays writable
        q.flags.writeable = False
        self.q = q
        self._m = None

    # constructors

    @staticmethod
    def identity() -> "Rotation3":
        return Rotation3(np.array([1.0, 0.0, 0.0, 0.0]), normalize=False)

    @staticmethod
    def from_axis_angle(axis, angle: float) -> "Rotation3":
        axis = np.asarray(axis, dtype=np.float64)
        n = math.sqrt(axis.dot(axis))
        if n < _EPS:
            raise ValueError("axis must be nonzero")
        half = 0.5 * float(angle)
        return Rotation3(
            np.concatenate(([np.cos(half)], np.sin(half) * axis / n)), normalize=False
        )

    @staticmethod
    def from_rotvec(v) -> "Rotation3":
        v = np.asarray(v, dtype=np.float64)
        angle = math.sqrt(v.dot(v))
        if angle < 1e-14:
            # second-order series keeps the map smooth through zero
            q = np.concatenate(([1.0 - angle * angle / 8.0], 0.5 * v))
            return Rotation3(q)
        return Rotation3.from_axis_angle(v / angle, angle)

    @staticmethod
    def from_matrix(m) -> "Rotation3":
        # Shepperd's method: pick the largest diagonal combination for stability.
        m = np.asarray(m, dtype=np.float64)
        if m.shape != (3, 3):
            raise ValueError("rotation matrix must be 3x3")
        t = np.trace(m)
        if t > m[0, 0] and t > m[1, 1] and t > m[2, 2]:
            r = np.sqrt(1.0 + t)
            s = 0.5 / r
            q = np.array(
                [0.5 * r, (m[2, 1] - m[1, 2]) * s, (m[0, 2] - m[2, 0]) * s, (m[1, 0] - m[0, 1]) * s]
            )
        else:
            i = int(np.argmax(np.diag(m)))
            j, k = (i + 1) % 3, (i + 2) % 3
            r = np.sqrt(1.0 + m[i, i] - m[j, j] - m[k, k])
            s = 0.5 / r
            xyz = np.empty(3)
            xyz[i] = 0.5 * r
            xyz[j] = (m[j, i] + m[i, j]) * s
            xyz[k] = (m[k, i] + m[i, k]) * s
            q = np.concatenate(([(m[k, j] - m[j, k]) * s], xyz))
        return Rotation3(q)

    # conversions

    def as_matrix(self) -> np.ndarray:
        if self._m is not None:
            return self._m
        w, x, y, z = self.q
        xx, yy, zz = x * x, y * y, z * z
        wx, wy, wz = w * x, w * y, w * z
        xy, xz, yz = x * y, x * z, y * z
        m = np.array(
            [
                [1.0 - 2.0 * (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy)],
                [2.0 * (xy + wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz - wx)],
                [2.0 * (xz - wy), 2.0 * (yz + wx), 1.0 - 2.0 * (xx + yy)],
            ]
        )
        m.flags.writeable = False
        self._m = m
        return m

    def as_rotvec(self) -> np.ndarray:
        w, x, y, z = self.q
        if w < 0.0:  # keep angle in [0, pi]
            w, x, y, z = -w, -x, -y, -z
        sin_half = np.sqrt(x * x + y * y + z * z)
        angle = 2.0 * np.arctan2(sin_half, w)
        if sin_half < 1e-12:
            return 2.0 * np.array([x, y, z])
        return (angle / sin_half) * np.array([x, y, z])

    # algebra

    def compose(self, other: "Rotation3") -> "Rotation3":
        w1, x1, y1, z1 = self.q
        w2, x2, y2, z2 = other.q
        return Rotation3(
            np.array(
                [
                    w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                    w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                    w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
                    w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
                ]
            )
        )

    def __matmul__(self, other: "Rotation3") -> "Rotation3":
        return self.compose(other)

    def inverse(self) -> "Rotation3":
        w, x, y, z = self.q
        return Rotation3(np.array([w, -x, -y, -z]), normalize=False)

    def apply(self, points) -> np.ndarray:
        """Rotate one point (3,) or a stack of points (n, 3)."""
        p = np.asarray(points, dtype=np.float64)
        return p.dot(self.as_matrix().T)

    def __repr__(self) -> str:
        return f"Rotation3({self.q.tolist()})"


def geodesic_angle(a: Rotation3, b: Rotation3) -> float:
    """Angular distance between two rotations, in radians, in [0, pi].

    Uses 2*atan2(|vec|, |w|) of the relative quaternion, which is well behaved
    near both 0 and pi.
    """
    qr = a.inverse().compose(b).q
    return 2.0 * float(np.arctan2(np.linalg.norm(qr[1:]), abs(qr[0])))


def row_dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot product of each row of an (n, k) float64 array with the same row of
    another.

    The stacked matmul makes one BLAS dot per row, the call `np.dot` makes on
    two 1-D arrays, so each result is bitwise equal to `u[i].dot(v[i])`; a
    float expression of the products is not.
    """
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, bitwise equal to `np.linalg.norm(row)` and
    to the norm `Rotation3` normalises by: both are `sqrt(row.dot(row))`."""
    return np.sqrt(row_dots(v, v))


def cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product of two float64 arrays of shape (3,).

    The same products and differences, in the same order, as `np.cross`, so
    the result is bitwise equal; it skips `np.cross`'s broadcasting and axis
    handling, which cost far more than the arithmetic on one pair of vectors.
    """
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def unit_vector_angle(u, v) -> float:
    """Angle in [0, pi] between two 3-vectors (geodesic distance on the sphere)."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu < _EPS or nv < _EPS:
        raise ValueError("cannot measure angle against a zero vector")
    return float(np.arctan2(np.linalg.norm(cross3(u, v)), float(np.dot(u, v))))


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


class Pose6:
    """Rigid transform: rotation followed by translation (x' = R x + p)."""

    __slots__ = ("pos", "rot")

    def __init__(self, pos, rot: Rotation3):
        p = np.asarray(pos, dtype=np.float64)
        if p.shape != (3,):
            raise ValueError(f"position must have shape (3,), got {p.shape}")
        if not all(map(math.isfinite, p.tolist())):  # np.isfinite's verdict, without its call cost
            raise ValueError("position has non-finite entries")
        self.pos = p.copy()
        self.rot = rot

    @staticmethod
    def identity() -> "Pose6":
        return Pose6(np.zeros(3), Rotation3.identity())

    @staticmethod
    def from_matrix(m) -> "Pose6":
        m = np.asarray(m, dtype=np.float64)
        return Pose6(m[:3, 3], Rotation3.from_matrix(m[:3, :3]))

    def as_matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rot.as_matrix()
        m[:3, 3] = self.pos
        return m

    def compose(self, other: "Pose6") -> "Pose6":
        return Pose6(self.pos + self.rot.apply(other.pos), self.rot.compose(other.rot))

    def __matmul__(self, other: "Pose6") -> "Pose6":
        return self.compose(other)

    def inverse(self) -> "Pose6":
        rinv = self.rot.inverse()
        return Pose6(-rinv.apply(self.pos), rinv)

    def apply(self, points) -> np.ndarray:
        return self.rot.apply(points) + self.pos

    def __repr__(self) -> str:
        return f"Pose6(pos={self.pos.tolist()}, rot={self.rot.q.tolist()})"


def pose_distance(a: Pose6, b: Pose6) -> tuple[float, float]:
    """(translation distance in meters, rotation distance in radians)."""
    return float(np.linalg.norm(a.pos - b.pos)), geodesic_angle(a.rot, b.rot)
