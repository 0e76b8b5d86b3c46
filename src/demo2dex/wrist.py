"""Manipulation-phase wrist planning by rigid attachment.

Once the contact phase ends with the object secured, the hand-object
relationship is treated as welded: the wrist pose that keeps the attachment
fixed while the object replays the recorded relative motion is

    T_t = o_t * inverse(o_grasp) * T_grasp

where (T_grasp, o_grasp) are the executed wrist and object poses at the end of
the grasp episode, and o_t re-anchors the recorded object motion at the
executed grasp pose. Finger targets are frozen at their last executed values
so the squeeze that is holding the object is preserved verbatim.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .demo import DemoSequence
from .geometry import Pose6
from .hand import HandModel
from .simworld import SimDivergenceError, SimWorld, WorldState, default_gains

DROP_STEPS = 24  # control steps without any hand contact that count as a drop
WRIST_GAIN_SCALE = 2.0


class WristPlanError(ValueError):
    pass


@dataclass
class ManipulationPlan:
    controls: np.ndarray  # (S, D) joint-space PD targets
    reference_poses: list[Pose6]  # object poses the plan is trying to realize
    start_step: int  # absolute control step where the manipulation phase begins
    attachment: Pose6  # wrist pose expressed in the object frame
    warnings: list[str] = field(default_factory=list)


@dataclass
class TrackResult:
    records: list[WorldState]
    dropped: bool
    drop_step: int | None
    diverged: bool


def wrist_targets_for_pose(model: HandModel, pose: Pose6, prev_q: np.ndarray | None) -> np.ndarray:
    """Six base-joint values realizing `pose`, unwrapped toward the previous step."""
    q = model.wrist_q_from_pose(pose)
    if prev_q is not None:
        for i in range(3, 6):
            lo, hi = model.joints[i].limits
            while q[i] - prev_q[i] > math.pi and q[i] - 2.0 * math.pi >= lo:
                q[i] -= 2.0 * math.pi
            while q[i] - prev_q[i] < -math.pi and q[i] + 2.0 * math.pi <= hi:
                q[i] += 2.0 * math.pi
    return q


def plan_wrist(
    model: HandModel,
    demo: DemoSequence,
    grasp_wrist_pose: Pose6,
    grasp_object_pose: Pose6,
    grasp_control: np.ndarray,
    start_step: int,
    frequency: float,
) -> ManipulationPlan:
    """Wrist trajectory covering the recording from the grasp handoff onward.

    The recorded object motion is replayed relative to its pose at the handoff
    frame and re-anchored at the executed grasp pose, so a grasp that secured
    the object a little off the recorded pose still follows the same motion.
    """
    if not model.floating_base:
        raise WristPlanError("wrist planning requires a floating-base hand")
    if grasp_control.shape != (model.dof,):
        raise WristPlanError(f"grasp control must have shape ({model.dof},)")
    scale = frequency / demo.fps
    start_frame = int(round(start_step / scale))
    if start_frame >= demo.length - 1:
        raise WristPlanError(
            f"grasp phase ends at recorded frame {start_frame}; nothing left to manipulate"
        )
    attachment = grasp_object_pose.inverse() @ grasp_wrist_pose
    demo_end_inv = demo.object_poses[start_frame].inverse()
    duration = (demo.length - 1) / demo.fps - start_step / frequency
    n_steps = max(int(round(duration * frequency)), 0)
    controls = np.empty((n_steps, model.dof))
    refs: list[Pose6] = []
    warnings: list[str] = []
    prev_q = None
    fingers = grasp_control[6:]
    for k in range(n_steps):
        t_frame = (start_step + k + 1) / scale
        fi = min(int(round(t_frame)), demo.length - 1)
        o_ref = (demo.object_poses[fi] @ demo_end_inv) @ grasp_object_pose
        wrist_pose = o_ref @ attachment
        q6 = wrist_targets_for_pose(model, wrist_pose, prev_q)
        prev_q = q6
        controls[k, :6] = q6
        controls[k, 6:] = fingers
        refs.append(o_ref)
    lo, hi = model.limits_lo[:6], model.limits_hi[:6]
    if n_steps and (np.any(controls[:, :6] < lo - 1e-9) or np.any(controls[:, :6] > hi + 1e-9)):
        warnings.append("some wrist targets exceed base joint limits and will saturate")
    return ManipulationPlan(
        controls=controls,
        reference_poses=refs,
        start_step=start_step,
        attachment=attachment,
        warnings=warnings,
    )


def track_manipulation(
    world: SimWorld, plan: ManipulationPlan, drop_steps: int = DROP_STEPS
) -> TrackResult:
    """Execute the manipulation plan, watching for the object slipping away.

    The wrist uses doubled PD gains for the carry. A drop is declared once
    every hand contact has been absent for more than `drop_steps` consecutive
    control steps; tracking still runs to the end so the executed trajectory
    stays comparable against the recording.
    """
    kp, kd = default_gains(world.model)
    kp[:6] *= WRIST_GAIN_SCALE
    kd[:6] *= WRIST_GAIN_SCALE
    world.kp, world.kd = kp, kd
    records: list[WorldState] = []
    free_streak = 0
    dropped = False
    drop_step: int | None = None
    diverged = False
    for k in range(plan.controls.shape[0]):
        try:
            state = world.step(plan.controls[k])
        except SimDivergenceError:
            diverged = True
            dropped = True
            if drop_step is None:
                drop_step = plan.start_step + k
            break
        records.append(state)
        if state.hand_contact:
            free_streak = 0
        else:
            free_streak += 1
            if free_streak > drop_steps and not dropped:
                dropped = True
                drop_step = plan.start_step + k
    return TrackResult(records=records, dropped=dropped, drop_step=drop_step, diverged=diverged)
