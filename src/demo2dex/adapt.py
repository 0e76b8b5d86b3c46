"""Contact-phase adaptation: residual grasp optimization around a fixed plan.

The primary trajectory gets the hand near the object but was fit purely
kinematically, so it routinely hovers or collides instead of grasping. This
module wraps the simulator in a small episodic environment whose action is a
bounded residual on the primary per-step joint targets, with a staged reward
(approach, then enclosing grasp, then lift-and-place) and an automatically
derived episode window.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .demo import ContactSet, DemoSequence
from .geometry import Pose6, geodesic_angle
from .hand import HandModel
from .metrics import SUCCESS_RADIUS
from .retarget import ControlPlan
from .simworld import SimDivergenceError, SimWorld, WorldState

# residual clamp, normalized units. It doubles as a squeeze governor:
# saturated finger residuals land in the narrow force window that holds the box
# without crushing it out of the pinch, so any sufficiently positive action grips
DELTA_MAX = 0.08
WRIST_RHO = (0.05, 0.05, 0.05, 0.3, 0.3, 0.3)  # wrist residual half-ranges: m, then rad
GRACE_STEPS = 90  # control steps the episode runs past the goal step
GOAL_DEVIATION = 0.1  # m; object displacement that marks the manipulation goal
GUIDE_FINGER = 0  # fingertip that picks the pregrasp step: the first, the opposing digit
# guide-fingertip distance to its recorded contact that starts the episode:
# entering early in the hover leaves settle time for the policy to close before
# the recording starts moving
PREGRASP_THRESHOLD = 0.016  # m
DIVERGENCE_PENALTY = -10.0

# staged reward
EPSILON = 0.06  # m; contact-enclosure distance bound
ALPHA = (10.0, 10.0, 20.0)  # weights of the approach, grasp and lift stages
GRASP_WEIGHTS = (0.5, 0.5)  # contact count and joint similarity within the grasp stage


class AdaptError(ValueError):
    pass


@dataclass(frozen=True)
class MappedContact:
    finger: int  # robot fingertip index
    point_obj: np.ndarray  # contact point in the object frame


def map_contacts(contacts: ContactSet, model: HandModel) -> list[MappedContact]:
    """Resolve recorded contacts onto robot fingertips via the correspondence.

    Human fingers without a counterpart on this hand are dropped; at least one
    contact must survive.
    """
    mapped = []
    for fid, point in zip(contacts.finger_ids, contacts.points):
        site = model.correspondence.get(int(fid))
        if site is None:
            continue
        mapped.append(MappedContact(model.fingertip_order[site], np.asarray(point, dtype=np.float64)))
    if not mapped:
        raise AdaptError("no recorded contact maps onto this hand's fingertips")
    return mapped


# -- action rescaling ------------------------------------------------------------


class ActionRescaler:
    """Maps normalized actions in [-1, 1]^D to joint-space PD targets.

    Wrist coordinates (the first six joints, the floating base) are offsets
    around the current primary target with per-axis half-ranges WRIST_RHO;
    finger coordinates map affinely onto their joint limits. Residuals are
    added in the normalized box, clipped there, then decoded, so executed
    targets can never leave the box no matter what the policy outputs.
    """

    def __init__(self, model: HandModel):
        self.rho = np.asarray(WRIST_RHO, dtype=np.float64)
        self.lo = model.limits_lo.copy()
        self.hi = model.limits_hi.copy()

    def encode(self, targets: np.ndarray, base: np.ndarray) -> np.ndarray:
        """Normalized actions of `targets` around `base`: one row, or a stack of rows."""
        targets = np.asarray(targets, dtype=np.float64)
        base = np.asarray(base, dtype=np.float64)
        a = np.empty_like(targets)
        a[..., :6] = (targets[..., :6] - base[..., :6]) / self.rho
        lo, hi = self.lo[6:], self.hi[6:]
        a[..., 6:] = 2.0 * (targets[..., 6:] - lo) / (hi - lo) - 1.0
        return a

    # np.minimum(np.maximum(x, -c), c) is np.clip(x, -c, c) bit for bit, NaN
    # included, for a nonzero c, at half the cost; at a zero bound the two
    # disagree on the sign of a zero, so the joint limits keep np.clip
    def decode(self, a: np.ndarray, base: np.ndarray) -> np.ndarray:
        a = np.minimum(np.maximum(np.asarray(a, dtype=np.float64), -1.0), 1.0)
        base = np.asarray(base, dtype=np.float64)
        out = np.empty_like(a)
        out[:6] = base[:6] + a[:6] * self.rho
        lo, hi = self.lo[6:], self.hi[6:]
        out[6:] = lo + 0.5 * (a[6:] + 1.0) * (hi - lo)
        return np.clip(out, self.lo, self.hi)

    def residual(self, base: np.ndarray, delta: np.ndarray, a_base: np.ndarray) -> np.ndarray:
        """Executed target for a residual action around the primary target.

        `a_base` is `encode(base, base)`, which a caller that steps through
        fixed targets encodes once per target.
        """
        delta = np.minimum(np.maximum(np.asarray(delta, dtype=np.float64), -DELTA_MAX), DELTA_MAX)
        return self.decode(a_base + delta, base)


# -- episode construction ---------------------------------------------------------


@dataclass
class EpisodeSpec:
    goal_step: int
    horizon: int  # absolute control step at which the episode ends
    target_pose: Pose6  # recorded object pose at the horizon
    warnings: list[str] = field(default_factory=list)
    pregrasp_step: int = 0  # chosen on the primary replay by `select_pregrasp`

    @property
    def length(self) -> int:
        return self.horizon - self.pregrasp_step


def find_goal_frame(demo: DemoSequence) -> tuple[int, list[str]]:
    """First recorded frame whose object position left the start by GOAL_DEVIATION."""
    pos = demo.object_positions()
    dist = np.linalg.norm(pos - pos[0], axis=1)
    idx = np.nonzero(dist >= GOAL_DEVIATION)[0]
    if idx.size:
        return int(idx[0]), []
    far = int(np.argmax(dist))
    return far, [
        f"object never moves {GOAL_DEVIATION:.3f} m from its start; using peak deviation frame {far}"
    ]


def select_pregrasp(records: list[WorldState], mapped: list[MappedContact]) -> tuple[int, list[str]]:
    """Pick the episode start among contact-free steps of the primary replay.

    Every record given is a candidate; the caller replays only the steps
    before the goal. The guide fingertip, GUIDE_FINGER, is measured against its
    own recorded contact point, carried along with the replayed object pose.
    The first step within PREGRASP_THRESHOLD is taken; when no step gets that
    close, the nearest step, with a warning.
    """
    guide_points = [c.point_obj for c in mapped if c.finger == GUIDE_FINGER]
    if not guide_points:
        raise AdaptError(f"guide finger {GUIDE_FINGER} has no recorded contact")
    point_obj = guide_points[0]
    best, best_d = None, math.inf
    for t, rec in enumerate(records):
        if rec.hand_contact:
            continue
        c_world = rec.object_pose.apply(point_obj)
        d = float(np.linalg.norm(rec.fingertips[GUIDE_FINGER] - c_world))
        if d <= PREGRASP_THRESHOLD:
            return t, []
        # strict improvement beyond a micron: on plateaus of near-equal
        # distance keep the earliest step, leaving settle time before motion
        if d < best_d - 1e-6:
            best, best_d = t, d
    if best is None:
        raise AdaptError("no contact-free step available for pregrasp selection")
    return best, [
        f"no contact-free step within threshold {PREGRASP_THRESHOLD:.3f} m; "
        f"falling back to nearest (step {best}, {best_d:.3f} m)"
    ]


def build_episode(demo: DemoSequence, plan: ControlPlan) -> EpisodeSpec:
    """Episode window from the recording alone: the goal step, the horizon
    GRACE_STEPS after it, and the recorded object pose there. The start,
    `pregrasp_step`, is chosen later on the replay of the steps before the goal.
    """
    warnings: list[str] = []
    goal_frame, w = find_goal_frame(demo)
    warnings += w
    scale = plan.frequency / demo.fps
    goal_step = int(round(goal_frame * scale))
    if goal_step < 1:
        raise AdaptError(f"goal step {goal_step} leaves no step for the episode to start at")
    horizon = goal_step + GRACE_STEPS
    n_steps = plan.a_primary.shape[0]
    if horizon > n_steps:
        warnings.append(
            f"horizon {horizon} exceeds the {n_steps}-step plan; holding the final target"
        )
    target_frame = min(int(round(horizon / scale)), demo.length - 1)
    target_pose = demo.object_poses[target_frame]
    return EpisodeSpec(
        goal_step=goal_step,
        horizon=horizon,
        target_pose=target_pose,
        warnings=warnings,
    )


# -- reward ---------------------------------------------------------------------


def compute_reward(
    q: np.ndarray,
    q_target: np.ndarray,
    fingertips: np.ndarray,
    touching: np.ndarray,
    object_pose: Pose6,
    object_z0: float,
    target_pose: Pose6,
    mapped: list[MappedContact],
    d_closest: float | None,
) -> tuple[float, dict[str, float], float]:
    """Staged grasp reward; returns (total, components, updated d_closest).

    `touching` says, per fingertip, whether its distal link touches the
    object, as `SimWorld.collision_query` reports it. d_closest is the running
    minimum of the summed fingertip-to-contact distance, initialized on the
    first call of an episode (pass None).
    """
    d_sum = 0.0
    enclosed = True
    for c in mapped:
        c_world = object_pose.apply(c.point_obj)
        d = float(np.linalg.norm(fingertips[c.finger] - c_world))
        d_sum += d
        if d > EPSILON:
            enclosed = False
    if d_closest is None:
        d_closest = d_sum
    r_approach = max(d_closest - d_sum, 0.0)
    d_closest = min(d_closest, d_sum)

    r_con = float(np.count_nonzero(touching))
    nq = float(np.linalg.norm(q))
    nt = float(np.linalg.norm(q_target))
    r_sim = float(q.dot(q_target) / (nq * nt)) if nq > 1e-12 and nt > 1e-12 else 0.0
    w_con, w_sim = GRASP_WEIGHTS
    r_grasp = w_con * r_con + w_sim * r_sim

    hold = bool(touching[0]) and bool(np.any(touching[1:]))
    h = float(object_pose.pos[2] - object_z0)
    if h <= 0.02:
        r_lift = min(2.0, 100.0 * h)
    else:
        ang = geodesic_angle(object_pose.rot, target_pose.rot)
        dist = float(np.linalg.norm(object_pose.pos - target_pose.pos))
        r_lift = 15.0 - min(5.0, 10.0 * ang) - min(5.0, 50.0 * dist)

    a0, a1, a2 = ALPHA
    total = a0 * r_approach + (a1 * r_grasp if enclosed else 0.0) + (a2 * r_lift if hold else 0.0)
    components = {
        "r_approach": r_approach,
        "r_con": r_con,
        "r_sim": r_sim,
        "r_grasp": r_grasp,
        "r_lift": r_lift,
        "enclosed": float(enclosed),
        "hold": float(hold),
        "d_sum": d_sum,
    }
    return total, components, d_closest


# -- environment -------------------------------------------------------------------


class GraspEnv:
    """Episodic residual-control environment over a prepared simulation state.

    `world_at_pregrasp` must already sit at the episode's first step: the
    pipeline passes the snapshot that the primary replay took before step
    `episode.pregrasp_step`. Every reset clones it, so resets are cheap and
    bitwise repeatable.
    """

    def __init__(
        self,
        world_at_pregrasp: SimWorld,
        plan: ControlPlan,
        episode: EpisodeSpec,
        mapped: list[MappedContact],
    ):
        self._proto = world_at_pregrasp
        self.episode = episode
        self.mapped = mapped
        self.model = world_at_pregrasp.model
        self.rescaler = ActionRescaler(self.model)
        n = plan.a_primary.shape[0]
        if episode.horizon > n:
            pad = np.repeat(plan.a_primary[-1:], episode.horizon - n, axis=0)
            self._targets = np.vstack([plan.a_primary, pad])
        else:
            self._targets = plan.a_primary
        self._a_targets = self.rescaler.encode(self._targets, self._targets)
        self.dim_act = self.model.dof
        self.dim_obs = self.reset().shape[0]

    def reset(self) -> np.ndarray:
        self.world = self._proto.clone()
        self.t = self.episode.pregrasp_step
        self.d_closest: float | None = None
        pose = self.world.object_pose()
        self.object_z0 = float(pose.pos[2])
        self.diverged = False
        return self._observe(
            self.world.q, self.world.qdot, pose,
            np.zeros(3), np.zeros(3), self.model.fingertip_positions(self.world.fkres),
        )

    def _observe(self, q, qdot, obj_pose, v, w, tips) -> np.ndarray:
        deltas = []
        for c in self.mapped:
            deltas.append(obj_pose.apply(c.point_obj) - tips[c.finger])
        frac = (self.t - self.episode.pregrasp_step) / max(self.episode.length, 1)
        return np.concatenate(
            [
                q,
                qdot,
                obj_pose.pos,
                obj_pose.rot.q,
                v,
                w,
                tips.ravel(),
                np.concatenate(deltas),
                obj_pose.pos - self.episode.target_pose.pos,
                [frac],
            ]
        )

    def step(self, action: np.ndarray) -> tuple[np.ndarray, float, bool, dict]:
        base = self._targets[self.t]
        executed = self.rescaler.residual(base, action, self._a_targets[self.t])
        if not np.all(np.isfinite(action)):
            return self._diverge(executed)
        try:
            state = self.world.step(executed)
        except SimDivergenceError:
            return self._diverge(executed)
        reward, comps, self.d_closest = compute_reward(
            state.q,
            base,
            state.fingertips,
            self.world.collision_query(),
            state.object_pose,
            self.object_z0,
            self.episode.target_pose,
            self.mapped,
            self.d_closest,
        )
        self.t += 1
        done = self.t >= self.episode.horizon
        obs = self._observe(
            state.q, state.qdot, state.object_pose, state.v, state.w, state.fingertips
        )
        info = {"components": comps, "executed": executed, "state": state}
        if done:
            info["success"] = self.success()
        return obs, reward, done, info

    def _diverge(self, executed: np.ndarray) -> tuple[np.ndarray, float, bool, dict]:
        """End the episode with the divergence penalty: the simulation blew up,
        or the policy emitted a non-finite action the simulator cannot take."""
        self.diverged = True
        obs = np.zeros(self.dim_obs)
        return obs, DIVERGENCE_PENALTY, True, {"diverged": True, "executed": executed}

    def success(self) -> bool:
        if self.diverged:
            return False
        err = np.linalg.norm(self.world.object_pose().pos - self.episode.target_pose.pos)
        return bool(err <= SUCCESS_RADIUS)
