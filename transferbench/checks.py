"""Output checks that do not reuse the program's own scoring or kinematics.

Each check reads the artifacts of a finished run directory together with the
inputs the benchmark generated (hand description, recording) and returns a
list of problems; an empty list means the check passed.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# Mean fingertip error of the toy3 plan against the recording; measured
# 0.38 mm on the bundled recording, so 1 mm leaves room without hiding a
# broken solver.
TOY3_TIP_TOL_M = 1e-3
LIMIT_TOL = 1e-9
SPLINE_TOL = 1e-9
QUAT_TOL = 1e-6
METRIC_RTOL = 1e-9


def _load(run_dir: Path, name: str):
    return json.loads((run_dir / name).read_text())


def _quat_matrix(q) -> np.ndarray:
    w, x, y, z = np.asarray(q, dtype=np.float64) / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def _axis_rotation(axis, angle: float) -> np.ndarray:
    k = np.asarray(axis, dtype=np.float64)
    k = k / np.linalg.norm(k)
    kx = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + np.sin(angle) * kx + (1.0 - np.cos(angle)) * (kx @ kx)


def site_positions(hand: dict, q: np.ndarray) -> dict[str, np.ndarray]:
    """Fingertip site positions from the hand description, by plain chaining."""
    rot = {"world": np.eye(3)}
    pos = {"world": np.zeros(3)}
    for i, j in enumerate(hand["joints"]):
        origin = j.get("origin", {})
        r = rot[j["parent"]] @ _quat_matrix(origin.get("quat", [1.0, 0.0, 0.0, 0.0]))
        p = rot[j["parent"]] @ np.asarray(origin.get("pos", [0.0, 0.0, 0.0])) + pos[j["parent"]]
        if j["type"] == "revolute":
            rot[j["child"]] = r @ _axis_rotation(j["axis"], q[i])
            pos[j["child"]] = p
        else:
            rot[j["child"]] = r
            pos[j["child"]] = p + q[i] * (r @ np.asarray(j["axis"], dtype=np.float64))
    return {s["name"]: rot[s["link"]] @ np.asarray(s["pos"]) + pos[s["link"]] for s in hand["fingertip_sites"]}


def mean_tip_error(hand: dict, recording: dict, q_path: np.ndarray) -> float:
    """Mean distance between planned and recorded fingertips over mapped fingers."""
    errs = []
    for t, frame in enumerate(recording["frames"]):
        tips = np.asarray(frame["hand"][:15]).reshape(5, 3)
        sites = site_positions(hand, q_path[t])
        for finger, site in hand["correspondence"].items():
            errs.append(np.linalg.norm(sites[site] - tips[int(finger)]))
    return float(np.mean(errs))


def check_plan(run_dir: Path, hand: dict, recording: dict, tip_tol: float | None) -> list[str]:
    problems = []
    plan = _load(run_dir, "plan.json")
    q_path = np.asarray(plan["q_path"], dtype=np.float64)
    a = np.asarray(plan["a_primary"], dtype=np.float64)
    lo = np.array([j["limits"][0] for j in hand["joints"]])
    hi = np.array([j["limits"][1] for j in hand["joints"]])
    n_frames = len(recording["frames"])
    if q_path.shape != (n_frames, len(hand["joints"])):
        return [f"q_path has shape {q_path.shape}, expected ({n_frames}, {len(hand['joints'])})"]
    for label, arr in (("q_path", q_path), ("a_primary", a)):
        if not np.all(np.isfinite(arr)):
            problems.append(f"{label} has non-finite entries")
        elif np.any(arr < lo - LIMIT_TOL) or np.any(arr > hi + LIMIT_TOL):
            problems.append(f"{label} leaves the joint limits")
    # the spline interpolates q_path at the frame times, and with the ideal
    # plant the control at each frame instant equals the planned joints
    fps, freq = float(plan["fps"]), float(plan["frequency"])
    times = np.asarray(plan["spline"]["times"])
    if not np.allclose(times, np.arange(n_frames) / fps, rtol=0.0, atol=1e-12):
        problems.append("spline knots are not at the frame times")
    if np.max(np.abs(np.asarray(plan["spline"]["values"]) - q_path)) > SPLINE_TOL:
        problems.append("spline values differ from q_path at the knots")
    idx = np.rint(np.arange(n_frames) * freq / fps).astype(int)
    if idx[-1] >= a.shape[0]:
        problems.append(f"a_primary has {a.shape[0]} samples, fewer than the frames need")
    elif np.max(np.abs(a[idx] - q_path)) > SPLINE_TOL:
        problems.append(f"a_primary misses q_path at frame instants by {np.max(np.abs(a[idx] - q_path)):.3g}")
    if tip_tol is not None:
        err = mean_tip_error(hand, recording, q_path)
        if err > tip_tol:
            problems.append(f"mean fingertip error {1e3 * err:.3f} mm exceeds {1e3 * tip_tol:.3f} mm")
    return problems


def _geodesic_deg(q1, q2) -> float:
    """Angle of the relative rotation conj(q1) * q2, via atan2 so it stays exact near 0."""
    w1, v1 = q1[0], -np.asarray(q1[1:])
    w2, v2 = q2[0], np.asarray(q2[1:])
    w = w1 * w2 - v1 @ v2
    v = w1 * v2 + w2 * v1 + np.cross(v1, v2)
    return float(np.degrees(2.0 * np.arctan2(np.linalg.norm(v), abs(w))))


def check_trajectory(run_dir: Path, recording: dict) -> list[str]:
    """Unit quaternions, consistent phase lengths, and Ep/Er recomputed here."""
    problems = []
    traj = _load(run_dir, "trajectory.json")
    poses = np.asarray(traj["poses"], dtype=np.float64)
    n = traj["prefix_len"] + traj["grasp_len"] + traj["manip_len"]
    if poses.shape != (n, 7):
        return [f"trajectory has {poses.shape} poses, expected ({n}, 7)"]
    if not np.all(np.isfinite(poses)):
        return ["trajectory has non-finite poses"]
    if np.max(np.abs(np.linalg.norm(poses[:, 3:], axis=1) - 1.0)) > QUAT_TOL:
        problems.append("trajectory quaternions are not unit norm")
    # nearest recorded frame for each executed sample, sample k at k / frequency
    fps, freq = float(recording["fps"]), float(traj["frequency"])
    frames = recording["frames"]
    ref = [frames[min(int(round(k * fps / freq)), len(frames) - 1)]["object"] for k in range(n)]
    ep = float(np.mean([np.linalg.norm(poses[k, :3] - np.asarray(r["pos"])) for k, r in enumerate(ref)]))
    er = float(np.mean([_geodesic_deg(poses[k, 3:], r["quat"]) for k, r in enumerate(ref)]))
    stored = _load(run_dir, "metrics.json")["metrics"]
    for name, mine in (("ep", ep), ("er_deg", er)):
        theirs = float(stored[name])
        if abs(mine - theirs) > METRIC_RTOL * max(abs(theirs), 1e-12) + 1e-12:
            problems.append(f"{name}: metrics.json has {theirs!r}, recomputed {mine!r}")
    return problems


def check_training_log(run_dir: Path, budget: int) -> list[str]:
    rows = [json.loads(line) for line in (run_dir / "training_log.jsonl").read_text().splitlines()]
    updates = [r for r in rows if r.get("type") == "update"]
    if not updates:
        return ["training log has no update rows"]
    if updates[-1]["env_steps"] < budget:
        return [f"training stopped at {updates[-1]['env_steps']} env steps, budget {budget}"]
    return []
