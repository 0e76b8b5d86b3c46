"""Simplified rigid-body world: a position-servoed hand and one free object.

Model choices, in order of importance:

* The hand is quasi-static and massless, so it bears no gravity load. Each
  joint follows a PD servo with unit reflected inertia, plus reaction torques
  from contacts.
* The object is a single dynamic rigid body built from convex pieces, resting
  on the ground plane z = 0, integrated with semi-implicit Euler.
* Contacts are penalty springs (Kelvin-Voigt normal force, Coulomb-capped
  tangential anchor springs for static friction). Penetrations are
  relinearized across substeps.
* Forward kinematics and collision detection run once per simulator state, on
  reset and at the end of each step. `SimWorld.fkres` is the FK of the current
  joint vector, and a clone shares it (an `FKResult` is never modified).
  Detection reads it and leaves the contacts that the next step integrates;
  `collision_query` reads those contacts and queries no geometry.

Everything is double precision, sequential, and bitwise deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collision import segment_piece_signed
from .demo import ObjectGeometry
from .geometry import Pose6, Rotation3, cross3
from .hand import HandModel


class SimDivergenceError(RuntimeError):
    def __init__(self, step: int, energy: float):
        super().__init__(f"simulation diverged at step {step}: kinetic energy {energy:.1f} J")
        self.step = step
        self.energy = energy


# The control period has one home: every plan is sampled at CONTROL_FREQUENCY
# and every `SimWorld.step` advances DT, so physics and scoring share a clock.
CONTROL_FREQUENCY = 120.0  # Hz
DT = 1.0 / CONTROL_FREQUENCY
SUBSTEPS = 4
GRAVITY = (0.0, 0.0, -9.81)
CONTACT_DAMPING = 50.0  # N s/m
FRICTION_STIFFNESS = 2e3  # N/m
FRICTION_DAMPING = 20.0  # N s/m
DETECT_MARGIN = 2e-3  # m; contacts are tracked slightly before touchdown


@dataclass(frozen=True)
class SimConfig:
    """The `sim` config section: the contact and divergence parameters a task may tune."""

    contact_stiffness: float = 5e3  # N/m
    friction_mu: float = 1.0
    force_cap: float = 50.0  # per-contact normal force bound
    energy_limit: float = 1e3  # J; beyond this the step raises SimDivergenceError

    def __post_init__(self):
        if self.contact_stiffness <= 0:
            raise ValueError("contact stiffness must be positive")
        if self.friction_mu < 0:
            raise ValueError("friction coefficient must be nonnegative")


def default_gains(model: HandModel) -> tuple[np.ndarray, np.ndarray]:
    """PD gains per joint: stiff wrist, moderately stiff fingers."""
    kp = np.full(model.dof, 150.0)
    kd = np.full(model.dof, 20.0)
    kp[:3], kd[:3] = 400.0, 40.0
    kp[3:6], kd[3:6] = 120.0, 16.0
    return kp, kd


@dataclass
class ContactRecord:
    body: str  # hand link name, or "ground"
    piece: int
    point: np.ndarray  # world
    normal: np.ndarray  # world, pushing the object away from the other body
    force: np.ndarray  # world force applied to the object


@dataclass
class WorldState:
    """Immutable snapshot handed to callers after each step."""

    q: np.ndarray
    qdot: np.ndarray
    object_pose: Pose6
    v: np.ndarray
    w: np.ndarray
    step_index: int
    contacts: list[ContactRecord]
    fingertips: np.ndarray  # (K, 3) world fingertip site positions
    hand_contact: bool  # any hand-object contact this step


class _Contact:
    """Persistent contact bookkeeping between detections."""

    __slots__ = ("p_obj_local", "p_other", "v_other", "normal", "pen", "anchor", "jac_t", "link")

    def __init__(self, p_obj_local, p_other, v_other, normal, pen, anchor, jac_t, link):
        self.p_obj_local = p_obj_local  # contact point in the object frame
        self.p_other = p_other  # witness on the other body, world (frozen per step)
        self.v_other = v_other  # witness velocity, world
        self.normal = normal  # pushes the object away from the other body
        self.pen = pen  # penetration depth at detection (may be negative)
        self.anchor = anchor  # relative offset at formation, for tangential springs
        self.jac_t = jac_t  # (D,3) transposed point jacobian; None for ground
        self.link = link


def _body_inertia(geometry: ObjectGeometry) -> np.ndarray:
    """Uniform-density inertia about the declared COM, object frame.

    Each convex piece is fanned into tetrahedra from its centroid; second
    moments use the standard tetrahedron formula. The declared COM may differ
    from the volume centroid (it is lowered on ingest); the parallel-axis
    shift keeps the tensor consistent with rotations about that point.
    """
    total_vol = sum(p.volume for p in geometry.pieces)
    if total_vol <= 0:
        raise ValueError("object has zero volume")
    density = geometry.mass / total_vol
    c_second = np.zeros((3, 3))  # integral of x x^T dV about the origin
    vol_centroid = np.zeros(3)
    for piece in geometry.pieces:
        apex = piece.vertices.mean(axis=0)
        for simplex in piece.simplices:
            tri = piece.vertices[simplex]
            verts = np.vstack([apex, tri])
            vol = abs(np.linalg.det(tri - apex)) / 6.0
            s = verts.sum(axis=0)
            c_second += vol / 20.0 * (verts.T @ verts + np.outer(s, s))
            vol_centroid += vol * verts.mean(axis=0)
    vol_centroid /= total_vol
    second = density * c_second
    mass = geometry.mass
    # shift second moment from origin to the declared COM
    c = geometry.com
    second_com = second - mass * (np.outer(vol_centroid, c) + np.outer(c, vol_centroid)) + mass * np.outer(c, c)
    inertia = np.trace(second_com) * np.eye(3) - second_com
    return inertia


class SimWorld:
    def __init__(
        self,
        model: HandModel,
        geometry: ObjectGeometry,
        config: SimConfig | None = None,
        q0: np.ndarray | None = None,
        object_pose0: Pose6 | None = None,
    ):
        self.model = model
        self.geometry = geometry
        self.config = config or SimConfig()
        self.kp, self.kd = default_gains(model)  # `track_manipulation` swaps in carry gains
        self.gravity = np.asarray(GRAVITY, dtype=np.float64)
        self.inertia_body = _body_inertia(geometry)
        self.inertia_body_inv = np.linalg.inv(self.inertia_body)
        # collision primitives flattened once: (link, a_local, b_local, radius)
        self._prims: list[tuple[str, np.ndarray, np.ndarray, float]] = []
        for name, link in model.links.items():
            for prim in link.collisions:
                self._prims.append((name, prim.a, prim.b, prim.radius))
        self.reset(
            q0 if q0 is not None else model.mid_range(),
            object_pose0 if object_pose0 is not None else Pose6.identity(),
        )

    # -- state management ---------------------------------------------------

    def reset(self, q, object_pose: Pose6, v=None, w=None) -> None:
        self.q = self.model.clamp(np.asarray(q, dtype=np.float64).copy())
        self.qdot = np.zeros(self.model.dof)
        self.rot = object_pose.rot
        self.com_w = object_pose.pos + object_pose.rot.apply(self.geometry.com)
        self.v = np.zeros(3) if v is None else np.asarray(v, dtype=np.float64).copy()
        self.w = np.zeros(3) if w is None else np.asarray(w, dtype=np.float64).copy()
        self.step_index = 0
        self.fkres = self.model.fk(self.q)
        self._contacts: dict[tuple, _Contact] = {}
        self._prev_prim_pts: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._detect()

    def object_pose(self) -> Pose6:
        return Pose6(self.com_w - self.rot.apply(self.geometry.com), self.rot)

    def clone(self) -> "SimWorld":
        # A step rebinds q, qdot, v, w, com_w, rot and fkres rather than
        # writing into them; its one in-place write, the joint-limit stop on
        # qdot, lands on the array made earlier in the same substep. So a clone
        # shares every array and copies only the containers a step mutates:
        # each contact (its pen and anchor are rebound) and the primitive
        # positions dict.
        other = SimWorld.__new__(SimWorld)
        other.__dict__.update(self.__dict__)
        other._contacts = {
            k: _Contact(c.p_obj_local, c.p_other, c.v_other, c.normal, c.pen, c.anchor, c.jac_t, c.link)
            for k, c in self._contacts.items()
        }
        other._prev_prim_pts = dict(self._prev_prim_pts)
        return other

    # -- queries -------------------------------------------------------------

    def collision_query(self) -> np.ndarray:
        """Whether each distal-phalanx link, in fingertip site order, has a
        hand contact in the current detection: some primitive of it lies
        within DETECT_MARGIN of the object. A pair the broad phase skips is
        farther apart than the margin, so no pair is missed."""
        touching = {c.link for key, c in self._contacts.items() if key[0] == "h"}
        return np.array([link in touching for link in self.model.distal_links], dtype=bool)

    def kinetic_energy(self) -> float:
        r = self.rot.as_matrix()
        i_w = r @ self.inertia_body @ r.T
        return float(0.5 * self.geometry.mass * self.v @ self.v + 0.5 * self.w @ i_w @ self.w)

    # -- stepping --------------------------------------------------------------

    def _detect(self) -> None:
        pose = self.object_pose()
        inv = pose.inverse()
        margin = DETECT_MARGIN
        fresh: dict[tuple, _Contact] = {}
        dt = DT
        for idx, (link, a, b, r) in enumerate(self._prims):
            rot = self.fkres.link_rot[link]
            pos = self.fkres.link_pos[link]
            a_w, b_w = rot @ a + pos, rot @ b + pos
            mid = 0.5 * (a_w + b_w)
            seg = b_w - a_w
            half_len = 0.5 * math.sqrt(seg.dot(seg))
            prev = self._prev_prim_pts.get(idx)
            va = (a_w - prev[0]) / dt if prev is not None else np.zeros(3)
            vb = (b_w - prev[1]) / dt if prev is not None else np.zeros(3)
            self._prev_prim_pts[idx] = (a_w, b_w)
            for pi, piece in enumerate(self.geometry.pieces):
                center_w = pose.apply(piece.centroid)
                reach = half_len + r + piece.bound_radius + margin
                diff = mid - center_w
                if diff @ diff > reach * reach:
                    continue
                d, p_prim, p_piece, n_local = segment_piece_signed(
                    inv.apply(a_w), inv.apply(b_w), r, piece
                )
                if d > margin:
                    continue
                n_w = pose.rot.apply(n_local)  # from hand primitive toward the object
                p_prim_w = pose.apply(p_prim)
                p_piece_w = pose.apply(p_piece)
                # witness velocity: interpolate endpoint velocities along the segment
                seg_len2 = float(seg @ seg)
                t = 0.0 if seg_len2 < 1e-18 else float(np.clip((p_prim_w - a_w) @ seg / seg_len2, 0.0, 1.0))
                v_wit = (1.0 - t) * va + t * vb
                key = ("h", idx, pi)
                p_obj_local = inv.apply(p_piece_w)
                old = self._contacts.get(key)
                anchor = old.anchor if old is not None else (p_piece_w - p_prim_w)
                jac = self.model.point_jacobian(self.fkres, link, p_prim_w)
                fresh[key] = _Contact(
                    p_obj_local, p_prim_w, v_wit, n_w, -d, anchor, jac.T.copy(), link
                )
        # object-vs-ground: every hull vertex near or below the plane
        for pi, piece in enumerate(self.geometry.pieces):
            verts_w = pose.apply(piece.vertices)
            for vi in np.nonzero(verts_w[:, 2] < margin)[0]:
                key = ("g", pi, int(vi))
                p_w = verts_w[vi]
                old = self._contacts.get(key)
                ground_pt = np.array([p_w[0], p_w[1], 0.0])
                anchor = old.anchor if old is not None else (p_w - ground_pt)
                fresh[key] = _Contact(
                    piece.vertices[vi].copy(),
                    ground_pt,
                    np.zeros(3),
                    np.array([0.0, 0.0, 1.0]),
                    -float(p_w[2]),
                    anchor,
                    None,
                    "ground",
                )
        self._contacts = fresh

    def step(self, control) -> WorldState:
        """Advance one control period, DT, under PD position targets, then
        detect the contacts of the new state."""
        a = np.asarray(control, dtype=np.float64)
        if a.shape != (self.model.dof,):
            raise ValueError(f"control must have shape ({self.model.dof},)")
        if not np.all(np.isfinite(a)):
            raise ValueError("control has non-finite entries")
        cfg = self.config
        model = self.model
        h = DT / SUBSTEPS
        mass = self.geometry.mass
        # per key, (contact, point, force) of the last substep with fn > 0,
        # in the order the keys first got there
        touched: dict[tuple, tuple[_Contact, np.ndarray, np.ndarray]] = {}
        for _ in range(SUBSTEPS):
            force = mass * self.gravity
            torque = np.zeros(3)
            tau_react = np.zeros(model.dof)
            # damping handled implicitly: an explicit damper with h*c/m > 2
            # injects energy instead of removing it, so the coefficients are
            # conditioned on the per-contact mass share before use
            active = sum(1 for c in self._contacts.values() if c.pen > -DETECT_MARGIN)
            m_eff = mass / max(active, 1)
            cn_eff = CONTACT_DAMPING / (1.0 + h * CONTACT_DAMPING / m_eff)
            ct_eff = FRICTION_DAMPING / (1.0 + h * FRICTION_DAMPING / m_eff)
            for key, c in self._contacts.items():
                p_o = self.rot.apply(c.p_obj_local - self.geometry.com) + self.com_w
                r_vec = p_o - self.com_w
                v_o = self.v + cross3(self.w, r_vec)
                v_rel = v_o - c.v_other
                vn = float(v_rel @ c.normal)
                if key[0] == "g":
                    pen = -float(p_o[2])  # exact for the plane
                else:
                    pen = c.pen  # relinearized below
                fn = cfg.contact_stiffness * pen - cn_eff * vn
                fn = min(max(fn, 0.0), cfg.force_cap)
                f_vec = np.zeros(3)
                if pen > -DETECT_MARGIN:
                    # tangential anchor spring with Coulomb cap
                    offset = (p_o - c.p_other) - c.anchor
                    u_t = offset - (offset @ c.normal) * c.normal
                    v_t = v_rel - vn * c.normal
                    f_t = -FRICTION_STIFFNESS * u_t - ct_eff * v_t
                    limit = cfg.friction_mu * fn
                    mag = math.sqrt(f_t.dot(f_t))
                    if mag > limit:
                        f_t = f_t * (limit / mag) if mag > 0 else f_t * 0.0
                        # slide the anchor so the spring matches the clamped force
                        u_new = -f_t / FRICTION_STIFFNESS
                        c.anchor = (p_o - c.p_other) - u_new
                    f_vec = fn * c.normal + f_t
                    force += f_vec
                    torque += cross3(r_vec, f_vec)
                    if c.jac_t is not None:
                        tau_react += c.jac_t @ (-f_vec)
                if fn > 0.0:
                    touched[key] = (c, p_o, f_vec)
                # relinearize penetration for the next substep
                c.pen = pen - h * vn
            # hand joints: PD servo with contact reaction
            qacc = self.kp * (a - self.q) - self.kd * self.qdot + tau_react
            self.qdot = self.qdot + h * qacc
            self.q = self.q + h * self.qdot
            below = self.q < model.limits_lo
            above = self.q > model.limits_hi
            if below.any() or above.any():
                self.q = np.clip(self.q, model.limits_lo, model.limits_hi)
                self.qdot[below & (self.qdot < 0)] = 0.0
                self.qdot[above & (self.qdot > 0)] = 0.0
            # object: semi-implicit Euler
            r = self.rot.as_matrix()
            i_w_inv = r @ self.inertia_body_inv @ r.T
            i_w = r @ self.inertia_body @ r.T
            self.v = self.v + h * force / mass
            self.w = self.w + h * (i_w_inv @ (torque - cross3(self.w, i_w @ self.w)))
            self.com_w = self.com_w + h * self.v
            ang = self.w * h
            if float(ang @ ang) > 0.0:
                self.rot = Rotation3.from_rotvec(ang).compose(self.rot)
        self.step_index += 1
        self.fkres = model.fk(self.q)  # before the energy check, so it holds after a raise
        energy = self.kinetic_energy()
        if energy > cfg.energy_limit:
            raise SimDivergenceError(self.step_index, energy)
        self._detect()
        tips = model.fingertip_positions(self.fkres)
        contacts = [
            ContactRecord(
                body=c.link, piece=key[2] if key[0] == "h" else key[1],
                point=p_o, normal=c.normal.copy(), force=f_vec,
            )
            for key, (c, p_o, f_vec) in touched.items()
        ]
        hand_contact = any(k[0] == "h" for k in touched)
        return WorldState(
            q=self.q.copy(),
            qdot=self.qdot.copy(),
            object_pose=self.object_pose(),
            v=self.v.copy(),
            w=self.w.copy(),
            step_index=self.step_index,
            contacts=contacts,
            fingertips=tips,
            hand_contact=hand_contact,
        )


def replay(world: SimWorld, controls: np.ndarray) -> tuple[list[WorldState], list[SimWorld]]:
    """Drive the world open loop through a control sequence, recording each step.

    Returns the state after each step and a clone of the world taken before
    it: stepping `starts[k]` through `controls[k:]` reproduces `states[k:]`.
    Raises SimDivergenceError (with the step index) if the object blows up.
    """
    states, starts = [], []
    for a in np.asarray(controls, dtype=np.float64):
        starts.append(world.clone())
        states.append(world.step(a))
    return states, starts
