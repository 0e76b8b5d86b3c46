"""Evaluation metrics for executed object trajectories.

Geometric fidelity (mean position/rotation error), grasp and follow success
flags, and a coarse semantic comparison: both trajectories are summarized as
strings of motion labels over sliding windows, and the label strings are
aligned with dynamic time warping under a 0/1 substitution cost.

A pose series is scored as one (N, 7) array of rows (x, y, z, w, qx, qy, qz)
with unit quaternions, every row or window at once. The per-pose definitions
are `np.linalg.norm`, `geodesic_angle`, `Rotation3`'s `compose` and `apply`,
`unit_vector_angle` and `as_rotvec` (both defined in tests/test_metrics.py),
and sums taken in sequence; the arrays reproduce them bit for bit under one
arithmetic rule. Elementwise arithmetic
runs on whole columns, in the definitions' term order. Every reduction is a
BLAS dot per row (`geometry.row_dots`, `row_norms`), the call the per-pose
code makes. Each column of errors is summed in sequence on Python floats.
Elementwise IEEE arithmetic gives the same bits on a column as on one pose; a
reduction does not: a float expression of the products, or numpy's pairwise
`sum`, changes the last bits of Ep and Er.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import row_dots, row_norms

# semantic encoding
WINDOW = 10  # frames per window
STEP = 5  # frames between window starts
POS_THRESHOLD = 0.03  # m of displacement that counts as motion
TILT_THRESHOLD_DEG = 15.0  # degrees of z-axis tilt that count as a tilt
ZROT_THRESHOLD_DEG = 5.0  # degrees of rotation about z that count as a rotation

MOTIONLESS, LIFT, FALL, TRANSLATE, TILT, ROTATE = 0, 1, 2, 3, 4, 5

TSR_THRESHOLD = 0.3
HOLD_STEPS = 60  # 0.5 s at 120 Hz
SUCCESS_RADIUS = 0.05


def _nearest(times: np.ndarray, n: int) -> np.ndarray:
    # rint rounds half to even, as Python's round does
    return np.clip(np.rint(times), 0, n - 1).astype(np.intp)


def align_reference(n_frames: int, fps: float, n_samples: int, frequency: float) -> np.ndarray:
    """Recorded frame index per executed sample via nearest-frame lookup.

    Sample k is taken at time k / frequency, with sample 0 the initial state.
    """
    return _nearest(np.arange(n_samples) * fps / frequency, n_frames)


def resample_to_frames(n_samples: int, frequency: float, fps: float, n_frames: int) -> np.ndarray:
    """Executed sample index per recorded-frame time via nearest-sample lookup."""
    return _nearest(np.arange(n_frames) * frequency / fps, n_samples)


def _sum_in_order(values: np.ndarray) -> float:
    total = 0.0
    for v in values.tolist():
        total += v
    return total


def _conjugate(q: np.ndarray) -> np.ndarray:
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def _compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise products of (N, 4) quaternions, with the terms of
    `Rotation3.compose`, normalised as its constructor normalises."""
    w1, x1, y1, z1 = a.T
    w2, x2, y2, z2 = b.T
    q = np.stack(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ],
        axis=1,
    )
    q /= row_norms(q)[:, None]
    return q


def ep_er(executed: np.ndarray, reference: np.ndarray) -> tuple[float, float]:
    """Mean position error (m) and mean geodesic rotation error (degrees) of
    two (N, 7) pose arrays, row k of one against row k of the other."""
    if executed.shape != reference.shape:
        raise ValueError("executed and reference series must have equal length")
    if not len(executed):
        raise ValueError("cannot score an empty trajectory")
    pos = row_norms(executed[:, :3] - reference[:, :3])
    rel = _compose(_conjugate(executed[:, 3:]), reference[:, 3:])
    rot = 2.0 * np.arctan2(row_norms(rel[:, 1:]), np.abs(rel[:, 0]))  # as `geodesic_angle`
    n = len(executed)
    return _sum_in_order(pos) / n, float(np.degrees(_sum_in_order(rot) / n))


def sr_grasp(positions: np.ndarray, target: np.ndarray) -> bool:
    """Object ends the grasp phase within SUCCESS_RADIUS of the goal and stays
    there for the last HOLD_STEPS positions or more."""
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[0] < HOLD_STEPS:
        return False
    tail = positions[-HOLD_STEPS:]
    err = np.linalg.norm(tail - np.asarray(target, dtype=np.float64), axis=1)
    return bool(np.all(err <= SUCCESS_RADIUS))


# -- semantic encoding ------------------------------------------------------------


def _z_axes(q: np.ndarray) -> np.ndarray:
    """Each rotation applied to the z axis: the third column of its matrix,
    with the terms of `Rotation3.as_matrix`."""
    w, x, y, z = q.T
    return np.stack([2.0 * (x * z + w * y), 2.0 * (y * z - w * x), 1.0 - 2.0 * (x * x + y * y)], axis=1)


def _window_features(first: np.ndarray, last: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per window, from the pose rows it starts and ends on: the rise, the
    horizontal and the full displacement, the tilt of the z axis and the
    rotation about z, both in degrees."""
    dpos = last[:, :3] - first[:, :3]
    # tilt: `unit_vector_angle` of the two z axes, the cross product with the
    # terms of `cross3`
    u, v = _z_axes(first[:, 3:]), _z_axes(last[:, 3:])
    (u0, u1, u2), (v0, v1, v2) = u.T, v.T
    cross = np.stack([u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0], axis=1)
    tilt = np.degrees(np.arctan2(row_norms(cross), row_dots(u, v)))
    # rotation about z: the z entry of `as_rotvec` of last * first^-1, with
    # its flip to w >= 0 and its limit 2 * vec for a vanishing angle
    w, x, y, z = _compose(last[:, 3:], _conjugate(first[:, 3:])).T
    flip = w < 0.0
    w, z = np.where(flip, -w, w), np.where(flip, -z, z)
    sin_half = np.sqrt(x * x + y * y + z * z)
    small = sin_half < 1e-12
    scale = np.where(small, 2.0, 2.0 * np.arctan2(sin_half, w) / np.where(small, 1.0, sin_half))
    return dpos[:, 2], row_norms(dpos[:, :2]), row_norms(dpos), tilt, np.abs(np.degrees(scale * z))


def encode_semantics(poses: np.ndarray) -> list[int]:
    """Label string for an (N, 7) pose series: windowed motion classes, idle
    dropped, consecutive repeats collapsed."""
    first = np.arange(0, len(poses) - WINDOW + 1, STEP)
    dz, dxy, dist, tilt, zrot = _window_features(poses[first], poses[first + WINDOW - 1])
    vertical = (np.abs(dz) >= POS_THRESHOLD) & (np.abs(dz) >= dxy)
    labels = np.select(
        [vertical & (dz > 0), vertical, dist >= POS_THRESHOLD, tilt >= TILT_THRESHOLD_DEG,
         zrot >= ZROT_THRESHOLD_DEG],
        [LIFT, FALL, TRANSLATE, TILT, ROTATE],
        MOTIONLESS,
    )
    out: list[int] = []
    for lab in labels.tolist():
        if lab == MOTIONLESS:
            continue
        if not out or out[-1] != lab:
            out.append(lab)
    return out


def dtw_normalized(seq_a: list[int], seq_b: list[int]) -> float:
    """Warping cost per aligned pair under 0/1 substitution cost.

    Among all minimum-cost warping paths the shortest one is used for the
    normalization, so identical strings score exactly 0 and fully disjoint
    equal-length strings score exactly 1.
    """
    n, m = len(seq_a), len(seq_b)
    if n == 0 and m == 0:
        return 0.0
    if n == 0 or m == 0:
        return 1.0
    big = (float("inf"), 0)
    # cell = (cumulative cost, path length), compared lexicographically
    table = [[big] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            d = 0 if seq_a[i] == seq_b[j] else 1
            if i == 0 and j == 0:
                table[i][j] = (d, 1)
                continue
            cands = []
            if i > 0 and j > 0:
                cands.append(table[i - 1][j - 1])
            if i > 0:
                cands.append(table[i - 1][j])
            if j > 0:
                cands.append(table[i][j - 1])
            c, l = min(cands)
            table[i][j] = (c + d, l + 1)
    cost, length = table[n - 1][m - 1]
    return cost / length


def tsr(executed_labels: list[int], recorded_labels: list[int]) -> tuple[float, bool]:
    score = dtw_normalized(executed_labels, recorded_labels)
    return score, score < TSR_THRESHOLD


# -- report -----------------------------------------------------------------------


@dataclass
class MetricReport:
    ep: float
    er_deg: float
    sr_grasp: bool
    sr_follow: bool
    tsr_score: float
    tsr_success: bool
    semantics_executed: list[int] = field(default_factory=list)
    semantics_recorded: list[int] = field(default_factory=list)

    def to_dict(self) -> dict:
        return dict(vars(self))
