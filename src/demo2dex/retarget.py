"""Kinematic retargeting of recorded hand frames onto a robot hand.

Each recorded frame carries five fingertip positions and a palm normal; the
solver finds joint angles that place the robot's corresponding fingertips at
the recorded positions while aligning the palm plane and staying close to the
previous frame's solution:

    min over q of  w_f * sum_i ||tip_i(q) - target_i||^2
                 + w_o * angle(palm_normal(q), recorded_normal)^2
                 + w_s * ||q - q_prev||^2

with w_f = FINGERTIP_WEIGHT, w_o = PALM_WEIGHT and w_s = SMOOTH_WEIGHT. The
squared palm angle keeps the objective smooth at zero. Joint limits are box
constraints handled by the solver.

The solver is L-BFGS-B (Byrd, Lu, Nocedal and Zhu, 1995): `minimize` drives
scipy's compiled kernel `scipy.optimize._lbfgsb.setulb` in a loop of its own.
The loop mirrors scipy's `_minimize_lbfgsb` call for call, so it gives what
`scipy.optimize.minimize(method="L-BFGS-B")` gives, bit for bit, without the
wrappers that method builds around each evaluation. A reference test compares
the two and guards the loop against a scipy upgrade.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .geometry import cross3, row_dots
from .hand import HUMAN_FINGERS, HandModel
from .spline import JerkMinSpline

HAND_FRAME_DIM = 18  # five fingertips (15) plus palm normal (3)
MAX_ITER = 200  # L-BFGS-B iterations per solve
MAX_FUN = 4000  # L-BFGS-B objective evaluations per solve
GRAD_TOL = 1e-8  # L-BFGS-B projected-gradient tolerance
FTOL = 1e-16  # L-BFGS-B relative objective-decrease tolerance
LBFGS_MEMORY = 10  # L-BFGS-B correction pairs kept (scipy's `maxcor`)
LBFGS_MAX_LS = 20  # L-BFGS-B line-search steps per iteration
RESTARTS = 2  # random restarts allowed per frame after the warm-started solve
RESTART_THRESHOLD = 3e-3  # m of mean tip error above which a frame is restarted
FINGERTIP_WEIGHT = 1.0  # w_f
PALM_WEIGHT = 0.1  # w_o
SMOOTH_WEIGHT = 0.05  # w_s; a sequence's first frame has no predecessor and uses 0

# `setulb` task codes in task[0]; with _STOP, task[1] 502 means MAX_FUN and 504 MAX_ITER
_FG, _NEW_X, _CONVERGED, _STOP = 3, 1, 4, 5


class Solve(NamedTuple):
    """One `minimize` result, its fields named as in scipy's `OptimizeResult`."""

    x: np.ndarray
    fun: float
    nit: int
    status: int  # 0 converged, 1 stopped by MAX_ITER or MAX_FUN, 2 otherwise
    success: bool


def minimize(fun, x0, lo, hi) -> Solve:
    """L-BFGS-B on `fun(x) -> (f, grad)` from `x0` inside the box [lo, hi].

    The loop of scipy 1.17's `_minimize_lbfgsb`, with its settings and
    workspaces, so every value passed to `setulb` is the one scipy passes.
    scipy evaluates `fun` once at the clipped `x0` up front and answers the
    first evaluation request from that; here the request itself evaluates, so
    the evaluated points are the same. `fun` gets the solver's own `x`, which
    changes in place, so it must not keep it. scipy is imported on the first
    call, so that a process that never retargets never loads it. Solves go
    through this module name, which a profiler can wrap.
    """
    from scipy.optimize._lbfgsb import setulb

    m, n = LBFGS_MEMORY, len(x0)
    has_lo, has_hi = np.isfinite(lo), np.isfinite(hi)
    # scipy's bound types: 0 none, 1 lower only, 2 both, 3 upper only
    nbd = np.where(has_lo, np.where(has_hi, 2, 1), np.where(has_hi, 3, 0)).astype(np.int32)
    low = np.where(has_lo, lo, 0.0)
    up = np.where(has_hi, hi, 0.0)
    factr = FTOL / np.finfo(float).eps
    x = np.clip(x0, lo, hi)
    f, g = 0.0, np.zeros(n)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task = np.zeros(2, dtype=np.int32)
    ln_task = np.zeros(2, dtype=np.int32)
    lsave = np.zeros(4, dtype=np.int32)
    isave = np.zeros(44, dtype=np.int32)
    dsave = np.zeros(29)
    nfev = nit = 0
    while True:
        setulb(m, x, low, up, nbd, f, g, factr, GRAD_TOL, wa, iwa, task, lsave, isave, dsave, LBFGS_MAX_LS, ln_task)
        if task[0] == _FG:
            f, g = fun(x)
            nfev += 1
        elif task[0] == _NEW_X:
            # the limits are checked between iterations, never inside a line search
            nit += 1
            if nit >= MAX_ITER:
                task[:] = _STOP, 504
            elif nfev > MAX_FUN:
                task[:] = _STOP, 502
        else:
            break
    status = 0 if task[0] == _CONVERGED else 1 if nfev > MAX_FUN or nit >= MAX_ITER else 2
    return Solve(x, f, nit, status, status == 0)


class RetargetError(ValueError):
    pass


@dataclass
class FrameResult:
    q: np.ndarray
    objective: float
    converged: bool
    mean_tip_error: float


def split_hand_frame(h):
    """(fingertip positions (5, 3), palm normal (3,)) from one 18-vector."""
    h = np.asarray(h, dtype=np.float64)
    if h.shape != (HAND_FRAME_DIM,):
        raise RetargetError(f"hand frame must have shape ({HAND_FRAME_DIM},), got {h.shape}")
    tips = h[:15].reshape(5, 3)
    normal = h[15:]
    n = np.linalg.norm(normal)
    if n < 1e-9:
        raise RetargetError("palm normal in hand frame is zero")
    return tips, normal / n


def _mapped_targets(model: HandModel, tips: np.ndarray):
    """(fingertip site indices (K,), target positions (K, 3)) of the fingers the hand maps."""
    ks, out = [], []
    for finger, name in sorted(model.correspondence.items()):
        ks.append(model.fingertip_order[name])
        out.append(tips[finger])
    return np.array(ks, dtype=np.intp), np.array(out).reshape(-1, 3)


def _objective_terms(model, q, targets, normal_h, q_prev, smooth_weight):
    ks, tips = targets
    fkres = model.fk(q)
    sjac = model.site_jacobians(fkres)
    r = fkres.sites[ks] - tips
    # per target, the same ddot and (D, 3) x 3 product as on one row, summed
    # in target order from zero (a reduction over the outer axis adds rows
    # in order)
    e_f = 0.0
    tip_err = 0.0
    for d in row_dots(r, r).tolist():
        e_f += d
        tip_err += math.sqrt(d)
    g = 2.0 * FINGERTIP_WEIGHT * (sjac[ks].transpose(0, 2, 1) @ r[:, :, None])[:, :, 0]
    grad = np.add.reduce(g, axis=0, initial=0.0)
    n_r, dn = model.palm_normal_jacobian(fkres, sjac)
    cos_t = min(max(float(n_r.dot(normal_h)), -1.0), 1.0)  # np.clip, without its call cost
    v = cross3(n_r, normal_h)
    sin_t = math.sqrt(v.dot(v))
    theta = float(np.arctan2(sin_t, cos_t))
    e_o = theta * theta
    # d(theta^2)/dq = -2 (theta / sin theta) * d(cos theta)/dq, smooth at 0
    factor = theta / sin_t if sin_t > 1e-8 else 1.0
    grad += PALM_WEIGHT * (-2.0 * factor) * dn.T.dot(normal_h)
    dq = q - q_prev
    e_s = float(dq.dot(dq))
    grad += 2.0 * smooth_weight * dq
    f = FINGERTIP_WEIGHT * e_f + PALM_WEIGHT * e_o + smooth_weight * e_s
    return f, grad, tip_err / max(len(ks), 1)


def retarget_frame(model: HandModel, h_frame, q_prev, smooth_weight: float = SMOOTH_WEIGHT) -> FrameResult:
    """Solve one frame. `q_prev` is both the warm start and the smoothing anchor."""
    tips, normal_h = split_hand_frame(h_frame)
    q_prev = np.asarray(q_prev, dtype=np.float64)
    if q_prev.shape != (model.dof,):
        raise RetargetError(f"q_prev must have shape ({model.dof},)")
    targets = _mapped_targets(model, tips)

    def fun(q):
        f, g, _ = _objective_terms(model, q, targets, normal_h, q_prev, smooth_weight)
        return f, g

    def solve_from(q0):
        res = minimize(fun, q0, model.limits_lo, model.limits_hi)
        _, _, tip_err = _objective_terms(model, res.x, targets, normal_h, q_prev, smooth_weight)
        return FrameResult(
            q=res.x,
            objective=float(res.fun),
            converged=bool(res.success) or res.status == 1,
            mean_tip_error=tip_err,
        )

    best = solve_from(q_prev)
    attempt = 0
    while best.mean_tip_error > RESTART_THRESHOLD and attempt < RESTARTS:
        # deterministic restart seeded by the target content and attempt index
        digest = hashlib.sha256(np.ascontiguousarray(h_frame).tobytes() + bytes([attempt])).digest()
        rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
        q0 = model.limits_lo + rng.random(model.dof) * (model.limits_hi - model.limits_lo)
        cand = solve_from(q0)
        if cand.objective < best.objective:
            best = cand
        attempt += 1
    return best


@dataclass
class SequenceResult:
    q_path: np.ndarray  # (T, D)
    frame_results: list[FrameResult]
    warnings: list[str] = field(default_factory=list)


def retarget_sequence(model: HandModel, hand_frames) -> SequenceResult:
    """Frame-by-frame solve with warm starting.

    The first frame starts from mid-range and has no predecessor, so its
    smoothness term is dropped; later frames anchor to the previous solution.
    """
    frames = np.asarray(hand_frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] != HAND_FRAME_DIM:
        raise RetargetError(f"hand frames must have shape (T, {HAND_FRAME_DIM})")
    q_prev = model.mid_range()
    q_path = np.empty((frames.shape[0], model.dof))
    results = []
    warnings = []
    for t in range(frames.shape[0]):
        res = retarget_frame(model, frames[t], q_prev, 0.0 if t == 0 else SMOOTH_WEIGHT)
        if not res.converged:
            warnings.append(f"frame {t}: solver stopped before convergence")
        q_path[t] = res.q
        results.append(res)
        q_prev = res.q
    return SequenceResult(q_path=q_path, frame_results=results, warnings=warnings)


# -- control conversion -----------------------------------------------------------


def fit_smooth_trajectory(q_path: np.ndarray, fps: float) -> JerkMinSpline:
    q_path = np.asarray(q_path, dtype=np.float64)
    if q_path.ndim != 2 or q_path.shape[0] < 4:
        raise RetargetError("need at least four frames to fit a trajectory")
    if fps <= 0:
        raise RetargetError("fps must be positive")
    times = np.arange(q_path.shape[0]) / fps
    return JerkMinSpline.fit(times, q_path)


def to_control_sequence(spline: JerkMinSpline, model: HandModel, frequency: float) -> np.ndarray:
    """Sample the trajectory at `frequency` Hz as PD position targets, clipped to the joint limits.

    The targets are the sampled positions themselves: the PD servo in simworld
    tracks them without an inverse-dynamics feedforward.
    """
    if frequency <= 0:
        raise RetargetError("control frequency must be positive")
    t0, t1 = spline.times[0], spline.times[-1]
    n = int(round((t1 - t0) * frequency)) + 1
    ts = np.minimum(t0 + np.arange(n) / frequency, t1)
    return np.clip(spline.value(ts), model.limits_lo, model.limits_hi)


@dataclass
class ControlPlan:
    """Retargeted joint path, its smooth interpolant, and the sampled controls."""

    q_path: np.ndarray  # (T, D) solver output at demo frames
    spline: JerkMinSpline
    a_primary: np.ndarray  # (S, D) PD position targets at the control rate
    frequency: float
    fps: float

    MAX_STEP = 0.5  # sup-norm bound on adjacent retargeted frames, rad or m

    def __post_init__(self):
        if self.q_path.ndim != 2:
            raise RetargetError("q_path must be (T, D)")
        dq = np.abs(np.diff(self.q_path, axis=0))
        if dq.size and float(dq.max()) > self.MAX_STEP:
            raise RetargetError(
                f"retargeted path jumps by {float(dq.max()):.3f} between frames; "
                f"exceeds the smoothing cap {self.MAX_STEP}"
            )

    def validate_limits(self, model: HandModel) -> None:
        if np.any(self.q_path < model.limits_lo - 1e-9) or np.any(
            self.q_path > model.limits_hi + 1e-9
        ):
            raise RetargetError("retargeted path violates joint limits")

    def to_dict(self) -> dict:
        return {
            "q_path": self.q_path.tolist(),
            "spline": self.spline.to_dict(),
            "a_primary": self.a_primary.tolist(),
            "frequency": self.frequency,
            "fps": self.fps,
        }
