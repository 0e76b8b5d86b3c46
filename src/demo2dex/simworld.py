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

Arithmetic rule of the contact loop: elementwise 3-vector arithmetic (`+ - *
/`) runs on Python floats, and every reduction (a dot product, a matrix-vector
or matrix product) stays a numpy call on the same operands, `ndarray.dot`:
the BLAS call of `@` at about half its call overhead, with the same bits (the
product rule in `hand.py`). Elementwise arithmetic gives the same bits on
Python floats as in numpy; a reduction does not, because the BLAS behind
numpy fuses multiply-adds. With numpy 2.4 and its bundled OpenBLAS 0.3.31 on
an x86-64 Xeon, `a.dot(b)` differs in the last bit from `a0*b0 + a1*b1 +
a2*b2` for 33% of 100,000 random 3-vector pairs. So writing one of these
reductions as a float expression, such as `collision._dot`, changes the
artifacts of every run. The one exception is exact: the ground normal is
(0, 0, 1), so a dot product with it is the other vector's z component.
Detection's broad phase does reduce on floats, but only to choose the pairs
for the numpy test; a relative slack makes it pass every pair that test
accepts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collision import segment_piece_signed
from .demo import ObjectGeometry
from .geometry import Pose6, Rotation3
from .hand import FKResult, HandModel


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
        # written as `not (x > 0)` so that NaN fails too
        if not (self.contact_stiffness > 0):
            raise ValueError("contact stiffness must be positive")
        if not (self.friction_mu >= 0):
            raise ValueError("friction coefficient must be nonnegative")
        if not (self.force_cap > 0):  # a nonpositive cap makes the normal force attract
            raise ValueError("force cap must be positive")
        if not (self.energy_limit > 0):  # a nonpositive limit fails every step
            raise ValueError("energy limit must be positive")


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
    """Persistent contact bookkeeping between detections. What the substeps
    combine elementwise is a float triple; `rel`, `normal` and `jac_t` enter
    numpy reductions and stay arrays."""

    __slots__ = ("rel", "p_other", "v_other", "normal", "n", "pen", "anchor", "jac_t", "link")

    def __init__(self, rel, p_other, v_other, normal, n, pen, anchor, jac_t, link):
        self.rel = rel  # contact point in the object frame minus the COM, (3,)
        self.p_other = p_other  # witness on the other body, world (frozen per step)
        self.v_other = v_other  # witness velocity, world
        self.normal = normal  # (3,), pushes the object away from the other body
        self.n = n  # the normal as floats
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
            c_second += vol / 20.0 * (verts.T.dot(verts) + np.outer(s, s))
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
        self.inertia_body = _body_inertia(geometry)
        self.inertia_body_inv = np.linalg.inv(self.inertia_body)
        self._inertia_rot: Rotation3 | None = None  # the rotation `_inertia_w` is for
        self._inertia_w: tuple[np.ndarray, np.ndarray] | None = None
        # collision primitives flattened once: (link, a_local, b_local, radius,
        # midpoint and half length plus radius in the link frame, as floats)
        self._prims: list[tuple[str, np.ndarray, np.ndarray, float, list, float]] = []
        for name, link in model.links.items():
            for prim in link.collisions:
                seg = prim.b - prim.a
                self._prims.append((
                    name, prim.a, prim.b, prim.radius,
                    (0.5 * (prim.a + prim.b)).tolist(), 0.5 * math.sqrt(seg.dot(seg)) + prim.radius,
                ))
        # per piece, each hull vertex minus the COM: a ground contact's `rel`
        self._ground_rel = [[row.copy() for row in p.vertices - geometry.com] for p in geometry.pieces]
        self._up = np.array([0.0, 0.0, 1.0])  # the ground normal
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
        self._prev_fk: FKResult | None = None  # the kinematics of the previous detection
        self._detect()

    def object_pose(self) -> Pose6:
        return Pose6(self.com_w - self.rot.apply(self.geometry.com), self.rot)

    def clone(self) -> "SimWorld":
        # A step rebinds q, qdot, v, w, com_w, rot and fkres rather than
        # writing into them; its one in-place write, the joint-limit stop on
        # qdot, lands on the array made earlier in the same substep. So a clone
        # shares every array and copies only the contacts, whose pen and anchor
        # a step rebinds.
        other = SimWorld.__new__(SimWorld)
        other.__dict__.update(self.__dict__)
        other._contacts = {
            k: _Contact(c.rel, c.p_other, c.v_other, c.normal, c.n, c.pen, c.anchor, c.jac_t, c.link)
            for k, c in self._contacts.items()
        }
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
        i_w, _ = self._world_inertia(self.rot)
        linear = (0.5 * self.geometry.mass * self.v).dot(self.v)
        return float(linear + (0.5 * self.w).dot(i_w).dot(self.w))

    def _world_inertia(self, rot: Rotation3) -> tuple[np.ndarray, np.ndarray]:
        """The inertia tensor and its inverse in the world frame at `rot`,
        computed once per rotation: a resting object keeps its rotation."""
        if self._inertia_rot is not rot:
            r = rot.as_matrix()
            self._inertia_w = (r.dot(self.inertia_body).dot(r.T), r.dot(self.inertia_body_inv).dot(r.T))
            self._inertia_rot = rot
        return self._inertia_w

    # -- stepping --------------------------------------------------------------

    def _detect(self) -> None:
        # the pose stays on the world for `step` to return with its state
        self._pose = pose = self.object_pose()
        inv = None
        com = self.geometry.com
        margin = DETECT_MARGIN
        fk, prev_fk = self.fkres, self._prev_fk
        pieces = self.geometry.pieces
        centers = [pose.apply(piece.centroid) for piece in pieces]
        centers_f = [c.tolist() for c in centers]
        fresh: dict[tuple, _Contact] = {}
        for idx, (link, a, b, r, (m0, m1, m2), reach_local) in enumerate(self._prims):
            rot, pos = fk.link_rot[link], fk.link_pos[link]
            (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rot.tolist()
            p0, p1, p2 = pos.tolist()
            x = r00 * m0 + r01 * m1 + r02 * m2 + p0
            y = r10 * m0 + r11 * m1 + r12 * m2 + p1
            z = r20 * m0 + r21 * m1 + r22 * m2 + p2
            a_w = None
            for pi, piece in enumerate(pieces):
                # broad phase on floats: the relative slack is far above their
                # rounding error, so only pairs the exact test below would
                # also reject are dropped here
                cx, cy, cz = centers_f[pi]
                dx, dy, dz = x - cx, y - cy, z - cz
                reach = reach_local + piece.bound_radius + margin
                if dx * dx + dy * dy + dz * dz > reach * reach * (1.0 + 1e-6):
                    continue
                if a_w is None:
                    a_w, b_w = rot.dot(a) + pos, rot.dot(b) + pos
                    mid = 0.5 * (a_w + b_w)
                    seg = b_w - a_w
                    half_len = 0.5 * math.sqrt(seg.dot(seg))
                    if prev_fk is None:
                        va = vb = np.zeros(3)
                    else:
                        prev_rot, prev_pos = prev_fk.link_rot[link], prev_fk.link_pos[link]
                        va = (a_w - (prev_rot.dot(a) + prev_pos)) / DT
                        vb = (b_w - (prev_rot.dot(b) + prev_pos)) / DT
                reach = half_len + r + piece.bound_radius + margin
                diff = mid - centers[pi]
                if diff.dot(diff) > reach * reach:
                    continue
                if inv is None:
                    inv = pose.inverse()
                d, p_prim, p_piece, n_local = segment_piece_signed(
                    inv.apply(a_w), inv.apply(b_w), r, piece
                )
                if d > margin:
                    continue
                n_w = pose.rot.apply(n_local)  # from hand primitive toward the object
                p_prim_w = pose.apply(p_prim)
                p_piece_w = pose.apply(p_piece)
                # witness velocity: interpolate endpoint velocities along the segment
                seg_len2 = float(seg.dot(seg))
                t = 0.0 if seg_len2 < 1e-18 else float(np.clip((p_prim_w - a_w).dot(seg) / seg_len2, 0.0, 1.0))
                v_wit = (1.0 - t) * va + t * vb
                key = ("h", idx, pi)
                old = self._contacts.get(key)
                anchor = old.anchor if old is not None else tuple((p_piece_w - p_prim_w).tolist())
                jac = self.model.point_jacobian(fk, link, p_prim_w)
                fresh[key] = _Contact(
                    inv.apply(p_piece_w) - com, tuple(p_prim_w.tolist()), tuple(v_wit.tolist()),
                    n_w, tuple(n_w.tolist()), -d, anchor, jac.T.copy(), link,
                )
        # object-vs-ground: every hull vertex near or below the plane
        for pi, piece in enumerate(pieces):
            verts_w = pose.apply(piece.vertices)
            low = np.nonzero(verts_w[:, 2] < margin)[0]
            for vi, (x, y, z) in zip(low.tolist(), verts_w[low].tolist()):
                key = ("g", pi, vi)
                old = self._contacts.get(key)
                fresh[key] = _Contact(
                    self._ground_rel[pi][vi], (x, y, 0.0), (0.0, 0.0, 0.0), self._up, (0.0, 0.0, 1.0),
                    -z, old.anchor if old is not None else (0.0, 0.0, z), None, "ground",
                )
        self._contacts = fresh
        self._prev_fk = fk

    def step(self, control) -> WorldState:
        """Advance one control period, DT, under PD position targets, then
        detect the contacts of the new state."""
        a = np.asarray(control, dtype=np.float64)
        if a.shape != (self.model.dof,):
            raise ValueError(f"control must have shape ({self.model.dof},)")
        if not np.all(np.isfinite(a)):
            raise ValueError("control has non-finite entries")
        cfg = self.config
        stiffness, force_cap, mu = cfg.contact_stiffness, cfg.force_cap, cfg.friction_mu
        model = self.model
        h = DT / SUBSTEPS
        mass = self.geometry.mass
        rot = self.rot
        v0, v1, v2 = self.v.tolist()
        w0, w1, w2 = self.w.tolist()
        c0, c1, c2 = self.com_w.tolist()
        # per key, (contact, point, force) of the last substep with fn > 0,
        # in the order the keys first got there
        touched: dict[tuple, tuple[_Contact, tuple, tuple]] = {}
        weight = tuple(mass * g for g in GRAVITY)
        active = sum(1 for c in self._contacts.values() if c.pen > -DETECT_MARGIN)
        for _ in range(SUBSTEPS):
            f0, f1, f2 = weight
            t0 = t1 = t2 = 0.0
            tau_react = np.zeros(model.dof)
            # damping handled implicitly: an explicit damper with h*c/m > 2
            # injects energy instead of removing it, so the coefficients are
            # conditioned on the per-contact mass share before use
            m_eff = mass / max(active, 1)
            active = 0  # counted again below from the relinearized depths
            cn_eff = CONTACT_DAMPING / (1.0 + h * CONTACT_DAMPING / m_eff)
            ct_eff = FRICTION_DAMPING / (1.0 + h * FRICTION_DAMPING / m_eff)
            rt = rot.as_matrix().T
            for key, c in self._contacts.items():
                ground = c.jac_t is None
                # contact point p_o, its offset r from the COM, and v_rel
                x, y, z = c.rel.dot(rt).tolist()
                x, y, z = x + c0, y + c1, z + c2
                r0, r1, r2 = x - c0, y - c1, z - c2
                o0, o1, o2 = c.v_other
                u0 = v0 + (w1 * r2 - w2 * r1) - o0
                u1 = v1 + (w2 * r0 - w0 * r2) - o1
                u2 = v2 + (w0 * r1 - w1 * r0) - o2
                if ground:
                    vn = u2
                    pen = -z  # exact for the plane
                else:
                    vn = float(np.array((u0, u1, u2)).dot(c.normal))
                    pen = c.pen  # relinearized below
                fn = stiffness * pen - cn_eff * vn
                fn = min(max(fn, 0.0), force_cap)
                fv0 = fv1 = fv2 = 0.0
                if pen > -DETECT_MARGIN:
                    # tangential anchor spring with Coulomb cap
                    n0, n1, n2 = c.n
                    p0, p1, p2 = c.p_other
                    a0, a1, a2 = c.anchor
                    d0, d1, d2 = x - p0, y - p1, z - p2
                    e0, e1, e2 = d0 - a0, d1 - a1, d2 - a2
                    en = e2 if ground else float(np.array((e0, e1, e2)).dot(c.normal))
                    ft0 = -FRICTION_STIFFNESS * (e0 - en * n0) - ct_eff * (u0 - vn * n0)
                    ft1 = -FRICTION_STIFFNESS * (e1 - en * n1) - ct_eff * (u1 - vn * n1)
                    ft2 = -FRICTION_STIFFNESS * (e2 - en * n2) - ct_eff * (u2 - vn * n2)
                    limit = mu * fn
                    ft = np.array((ft0, ft1, ft2))
                    mag = math.sqrt(ft.dot(ft))
                    if mag > limit:
                        s = limit / mag
                        ft0, ft1, ft2 = ft0 * s, ft1 * s, ft2 * s
                        # slide the anchor so the spring matches the clamped force
                        c.anchor = (
                            d0 + ft0 / FRICTION_STIFFNESS,
                            d1 + ft1 / FRICTION_STIFFNESS,
                            d2 + ft2 / FRICTION_STIFFNESS,
                        )
                    fv0, fv1, fv2 = fn * n0 + ft0, fn * n1 + ft1, fn * n2 + ft2
                    f0, f1, f2 = f0 + fv0, f1 + fv1, f2 + fv2
                    t0 += r1 * fv2 - r2 * fv1
                    t1 += r2 * fv0 - r0 * fv2
                    t2 += r0 * fv1 - r1 * fv0
                    if not ground:
                        tau_react += c.jac_t.dot(np.array((-fv0, -fv1, -fv2)))
                if fn > 0.0:
                    touched[key] = (c, (x, y, z), (fv0, fv1, fv2))
                # relinearize penetration for the next substep
                c.pen = pen - h * vn
                if c.pen > -DETECT_MARGIN:
                    active += 1
            # hand joints: PD servo with contact reaction
            qacc = self.kp * (a - self.q) - self.kd * self.qdot + tau_react
            self.qdot = self.qdot + h * qacc
            self.q = self.q + h * self.qdot
            below = self.q < model.limits_lo
            above = self.q > model.limits_hi
            if np.count_nonzero(below) or np.count_nonzero(above):
                self.q = np.clip(self.q, model.limits_lo, model.limits_hi)
                self.qdot[below & (self.qdot < 0)] = 0.0
                self.qdot[above & (self.qdot > 0)] = 0.0
            # object: semi-implicit Euler
            i_w, i_w_inv = self._world_inertia(rot)
            v0, v1, v2 = v0 + h * f0 / mass, v1 + h * f1 / mass, v2 + h * f2 / mass
            l0, l1, l2 = i_w.dot(np.array((w0, w1, w2))).tolist()  # angular momentum
            k0, k1, k2 = i_w_inv.dot(np.array((
                t0 - (w1 * l2 - w2 * l1), t1 - (w2 * l0 - w0 * l2), t2 - (w0 * l1 - w1 * l0)
            ))).tolist()
            w0, w1, w2 = w0 + h * k0, w1 + h * k1, w2 + h * k2
            c0, c1, c2 = c0 + h * v0, c1 + h * v1, c2 + h * v2
            ang = np.array((w0 * h, w1 * h, w2 * h))
            if float(ang.dot(ang)) > 0.0:
                rot = Rotation3.from_rotvec(ang).compose(rot)
        self.rot = rot
        self.v = np.array((v0, v1, v2))
        self.w = np.array((w0, w1, w2))
        self.com_w = np.array((c0, c1, c2))
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
                point=np.array(p_o), normal=c.normal.copy(), force=np.array(f_vec),
            )
            for key, (c, p_o, f_vec) in touched.items()
        ]
        hand_contact = any(k[0] == "h" for k in touched)
        return WorldState(
            q=self.q.copy(),
            qdot=self.qdot.copy(),
            object_pose=self._pose,
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
