"""Evaluation metrics for executed object trajectories.

Geometric fidelity (mean position/rotation error), grasp and follow success
flags, and a coarse semantic comparison: both trajectories are summarized as
strings of motion labels over sliding windows, and the label strings are
aligned with dynamic time warping under a 0/1 substitution cost.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Pose6, geodesic_angle, unit_vector_angle

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


def align_reference(demo_poses: list[Pose6], fps: float, n_samples: int, frequency: float) -> list[Pose6]:
    """Recorded pose per executed sample via nearest-frame lookup.

    Sample k is taken at time k / frequency, with sample 0 the initial state.
    """
    out = []
    last = len(demo_poses) - 1
    for k in range(n_samples):
        frame = int(round(k * fps / frequency))
        out.append(demo_poses[min(max(frame, 0), last)])
    return out


def resample_to_frames(poses: list[Pose6], frequency: float, fps: float, n_frames: int) -> list[Pose6]:
    """Executed pose per recorded-frame time via nearest-sample lookup."""
    out = []
    last = len(poses) - 1
    for i in range(n_frames):
        k = int(round(i * frequency / fps))
        out.append(poses[min(max(k, 0), last)])
    return out


def ep_er(executed: list[Pose6], reference: list[Pose6]) -> tuple[float, float]:
    """Mean position error (m) and mean geodesic rotation error (degrees)."""
    if len(executed) != len(reference):
        raise ValueError("executed and reference series must have equal length")
    if not executed:
        raise ValueError("cannot score an empty trajectory")
    pos = 0.0
    rot = 0.0
    for a, b in zip(executed, reference):
        pos += float(np.linalg.norm(a.pos - b.pos))
        rot += geodesic_angle(a.rot, b.rot)
    n = len(executed)
    return pos / n, float(np.degrees(rot / n))


def sr_grasp(
    positions: np.ndarray,
    target: np.ndarray,
    radius: float = SUCCESS_RADIUS,
    hold_steps: int = HOLD_STEPS,
) -> bool:
    """Object ends the grasp phase at the goal and stays there >= hold_steps."""
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[0] < hold_steps:
        return False
    tail = positions[-hold_steps:]
    err = np.linalg.norm(tail - np.asarray(target, dtype=np.float64), axis=1)
    return bool(np.all(err <= radius))


# -- semantic encoding ------------------------------------------------------------


def _window_label(start: Pose6, end: Pose6) -> int:
    dpos = end.pos - start.pos
    dz = float(dpos[2])
    dxy = float(np.linalg.norm(dpos[:2]))
    if abs(dz) >= POS_THRESHOLD and abs(dz) >= dxy:
        return LIFT if dz > 0 else FALL
    if float(np.linalg.norm(dpos)) >= POS_THRESHOLD:
        return TRANSLATE
    ez = np.array([0.0, 0.0, 1.0])
    tilt = np.degrees(unit_vector_angle(start.rot.apply(ez), end.rot.apply(ez)))
    if tilt >= TILT_THRESHOLD_DEG:
        return TILT
    rel = end.rot @ start.rot.inverse()
    zrot = abs(np.degrees(float(rel.as_rotvec()[2])))
    if zrot >= ZROT_THRESHOLD_DEG:
        return ROTATE
    return MOTIONLESS


def encode_semantics(poses: list[Pose6]) -> list[int]:
    """Label string for a pose series: windowed motion classes, idle dropped,
    consecutive repeats collapsed."""
    labels = []
    i = 0
    while i + WINDOW <= len(poses):
        labels.append(_window_label(poses[i], poses[i + WINDOW - 1]))
        i += STEP
    out: list[int] = []
    for lab in labels:
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


def tsr(executed_labels: list[int], recorded_labels: list[int], threshold: float = TSR_THRESHOLD) -> tuple[float, bool]:
    score = dtw_normalized(executed_labels, recorded_labels)
    return score, score < threshold


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
        return {
            "ep": self.ep,
            "er_deg": self.er_deg,
            "sr_grasp": self.sr_grasp,
            "sr_follow": self.sr_follow,
            "tsr_score": self.tsr_score,
            "tsr_success": self.tsr_success,
            "semantics_executed": list(self.semantics_executed),
            "semantics_recorded": list(self.semantics_recorded),
        }

    @staticmethod
    def from_dict(d: dict) -> "MetricReport":
        return MetricReport(
            ep=float(d["ep"]),
            er_deg=float(d["er_deg"]),
            sr_grasp=bool(d["sr_grasp"]),
            sr_follow=bool(d["sr_follow"]),
            tsr_score=float(d["tsr_score"]),
            tsr_success=bool(d["tsr_success"]),
            semantics_executed=[int(x) for x in d["semantics_executed"]],
            semantics_recorded=[int(x) for x in d["semantics_recorded"]],
        )
