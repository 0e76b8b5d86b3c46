"""Articulated hand description and forward kinematics.

A hand is a rigid-link tree rooted at the wrist. Floating-base hands prepend
six virtual joints (three prismatic, three revolute) so the wrist pose lives
in the same joint vector as the fingers: q[:3] is wrist translation in meters,
q[3:6] wrist rotation in radians, the rest finger angles.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import Pose6, Rotation3

WORLD = "world"


class HandModelError(ValueError):
    pass


@dataclass(frozen=True)
class Joint:
    name: str
    jtype: str  # "revolute" | "prismatic"
    axis: np.ndarray  # unit, in the joint frame
    parent: str  # parent link name ("world" for the root joint)
    child: str  # child link name
    origin_pos: np.ndarray  # fixed offset from parent link frame
    origin_rot: Rotation3
    limits: tuple[float, float]


@dataclass(frozen=True)
class CollisionPrim:
    kind: str  # "sphere" | "capsule"
    a: np.ndarray  # segment start (== end for spheres), link frame
    b: np.ndarray
    radius: float


@dataclass(frozen=True)
class Link:
    name: str
    mass: float = 0.0
    com: np.ndarray = field(default_factory=lambda: np.zeros(3))
    collisions: tuple[CollisionPrim, ...] = ()


@dataclass(frozen=True)
class Site:
    name: str
    link: str
    pos: np.ndarray


def _skew(v):
    return np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]], dtype=np.float64)


class FKResult:
    """World-frame kinematics for one joint vector."""

    __slots__ = ("q", "link_rot", "link_pos", "joint_axis_w", "joint_pos_w", "site_pos")

    def __init__(self, q, link_rot, link_pos, joint_axis_w, joint_pos_w, site_pos):
        self.q = q
        self.link_rot = link_rot  # dict link -> 3x3
        self.link_pos = link_pos  # dict link -> (3,)
        self.joint_axis_w = joint_axis_w  # (D, 3)
        self.joint_pos_w = joint_pos_w  # (D, 3)
        self.site_pos = site_pos  # dict site -> (3,)


class HandModel:
    def __init__(
        self,
        name: str,
        joints: list[Joint],
        links: dict[str, Link],
        fingertip_sites: list[Site],
        palm_sites: list[Site],
        correspondence: dict[int, str],
        floating_base: bool,
        palm_normal_sign: float = 1.0,
    ):
        self.name = name
        self.joints = list(joints)
        self.links = dict(links)
        self.fingertip_sites = list(fingertip_sites)
        self.palm_sites = list(palm_sites)
        self.correspondence = dict(correspondence)
        self.floating_base = bool(floating_base)
        self.palm_normal_sign = float(palm_normal_sign)
        self._validate()
        self._build_tables()

    # -- structure ---------------------------------------------------------

    @property
    def dof(self) -> int:
        return len(self.joints)

    def _validate(self) -> None:
        if len(self.palm_sites) != 3:
            raise HandModelError("exactly three palm sites are required (index MCP, ring MCP, wrist)")
        seen_children: set[str] = set()
        known_links = set(self.links)
        parent_of: dict[str, str] = {}
        for j in self.joints:
            if j.jtype not in ("revolute", "prismatic"):
                raise HandModelError(f"joint '{j.name}': unknown type '{j.jtype}'")
            if j.parent != WORLD and j.parent not in known_links:
                raise HandModelError(f"joint '{j.name}': unknown parent link '{j.parent}'")
            if j.child not in known_links:
                raise HandModelError(f"joint '{j.name}': unknown child link '{j.child}'")
            if j.child in seen_children:
                raise HandModelError(f"joint '{j.name}': link '{j.child}' already has a parent joint")
            if abs(np.linalg.norm(j.axis) - 1.0) > 1e-9:
                raise HandModelError(f"joint '{j.name}': axis must be a unit vector")
            if not j.limits[0] < j.limits[1]:
                raise HandModelError(f"joint '{j.name}': limits must satisfy lo < hi")
            seen_children.add(j.child)
            parent_of[j.child] = j.parent
        # every link must be reachable from the world through joints
        for name in self.links:
            cur, hops = name, 0
            while cur != WORLD:
                if cur not in parent_of:
                    raise HandModelError(f"link '{cur}' is not connected to the tree root")
                cur = parent_of[cur]
                hops += 1
                if hops > len(self.joints) + 1:
                    raise HandModelError(f"cycle detected in joint tree at link '{name}'")
        # joints must already be topologically ordered
        placed = {WORLD}
        for j in self.joints:
            if j.parent not in placed:
                raise HandModelError(f"joint '{j.name}' appears before its parent link '{j.parent}'")
            placed.add(j.child)
        for s in self.fingertip_sites + self.palm_sites:
            if s.link not in known_links:
                raise HandModelError(f"site '{s.name}' references unknown link '{s.link}'")
        site_names = {s.name for s in self.fingertip_sites}
        for finger, site in self.correspondence.items():
            if site not in site_names:
                raise HandModelError(f"correspondence for finger {finger} references unknown site '{site}'")
        if self.floating_base:
            if self.dof < 6:
                raise HandModelError("a floating-base hand needs at least six joints")
            kinds = [j.jtype for j in self.joints[:6]]
            if kinds != ["prismatic"] * 3 + ["revolute"] * 3:
                raise HandModelError(
                    "floating base must start with three prismatic then three revolute joints"
                )

    def _build_tables(self) -> None:
        self.joint_index = {j.name: i for i, j in enumerate(self.joints)}
        self.limits_lo = np.array([j.limits[0] for j in self.joints])
        self.limits_hi = np.array([j.limits[1] for j in self.joints])
        # precompute per-joint constants for Rodrigues' formula
        self._origin_rot = [j.origin_rot.as_matrix() for j in self.joints]
        self._K = [_skew(j.axis) for j in self.joints]
        self._K2 = [k @ k for k in self._K]
        # chain of joint indices from root to each link
        parent_joint: dict[str, int] = {}
        for i, j in enumerate(self.joints):
            parent_joint[j.child] = i
        self._chain: dict[str, tuple[int, ...]] = {}
        for name in self.links:
            chain = []
            cur = name
            while cur != WORLD:
                ji = parent_joint[cur]
                chain.append(ji)
                cur = self.joints[ji].parent
            self._chain[name] = tuple(reversed(chain))
        # distal links: the ones fingertip sites attach to, in fingertip order
        self.distal_links = tuple(s.link for s in self.fingertip_sites)
        self.fingertip_order = {s.name: i for i, s in enumerate(self.fingertip_sites)}
        self._has_mass = any(l.mass > 0.0 for l in self.links.values())

    def chain_of(self, link: str) -> tuple[int, ...]:
        return self._chain[link]

    def mid_range(self) -> np.ndarray:
        return 0.5 * (self.limits_lo + self.limits_hi)

    def clamp(self, q: np.ndarray) -> np.ndarray:
        return np.clip(q, self.limits_lo, self.limits_hi)

    # -- kinematics ---------------------------------------------------------

    def fk(self, q) -> FKResult:
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (self.dof,):
            raise HandModelError(f"expected q of shape ({self.dof},), got {q.shape}")
        link_rot: dict[str, np.ndarray] = {WORLD: np.eye(3)}
        link_pos: dict[str, np.ndarray] = {WORLD: np.zeros(3)}
        joint_axis_w = np.empty((self.dof, 3))
        joint_pos_w = np.empty((self.dof, 3))
        eye = np.eye(3)
        for i, j in enumerate(self.joints):
            rp = link_rot[j.parent]
            pp = link_pos[j.parent]
            rj = rp @ self._origin_rot[i]
            pj = rp @ j.origin_pos + pp
            axis_w = rj @ j.axis
            joint_axis_w[i] = axis_w
            joint_pos_w[i] = pj
            if j.jtype == "revolute":
                s, c = np.sin(q[i]), np.cos(q[i])
                link_rot[j.child] = rj @ (eye + s * self._K[i] + (1.0 - c) * self._K2[i])
                link_pos[j.child] = pj
            else:  # prismatic
                link_rot[j.child] = rj
                link_pos[j.child] = pj + q[i] * axis_w
        site_pos = {}
        for s in self.fingertip_sites + self.palm_sites:
            site_pos[s.name] = link_rot[s.link] @ s.pos + link_pos[s.link]
        return FKResult(q, link_rot, link_pos, joint_axis_w, joint_pos_w, site_pos)

    def point_jacobian(self, fkres: FKResult, link: str, point_w: np.ndarray) -> np.ndarray:
        """d(point)/dq for a world point rigidly attached to `link`; (3, D)."""
        jac = np.zeros((3, self.dof))
        for ji in self._chain[link]:
            j = self.joints[ji]
            if j.jtype == "revolute":
                jac[:, ji] = np.cross(fkres.joint_axis_w[ji], point_w - fkres.joint_pos_w[ji])
            else:
                jac[:, ji] = fkres.joint_axis_w[ji]
        return jac

    def fingertip_positions(self, fkres: FKResult) -> np.ndarray:
        return np.array([fkres.site_pos[s.name] for s in self.fingertip_sites])

    # -- palm orientation ----------------------------------------------------

    def palm_normal(self, fkres: FKResult) -> np.ndarray:
        """Unit normal of the plane through the three palm sites.

        Orientation of the raw cross product is arbitrary; the model file fixes
        the sign so the normal points out of the palm surface.
        """
        p_index = fkres.site_pos[self.palm_sites[0].name]
        p_ring = fkres.site_pos[self.palm_sites[1].name]
        p_wrist = fkres.site_pos[self.palm_sites[2].name]
        u = np.cross(p_index - p_wrist, p_ring - p_wrist)
        n = np.linalg.norm(u)
        if n < 1e-12:
            raise HandModelError("palm sites are collinear; palm plane is undefined")
        return self.palm_normal_sign * u / n

    def palm_normal_jacobian(self, fkres: FKResult) -> tuple[np.ndarray, np.ndarray]:
        """(normal, d(normal)/dq with shape (3, D))."""
        s_index, s_ring, s_wrist = self.palm_sites
        p_i = fkres.site_pos[s_index.name]
        p_r = fkres.site_pos[s_ring.name]
        p_w = fkres.site_pos[s_wrist.name]
        e1 = p_i - p_w
        e2 = p_r - p_w
        u = np.cross(e1, e2)
        norm_u = np.linalg.norm(u)
        if norm_u < 1e-12:
            raise HandModelError("palm sites are collinear; palm plane is undefined")
        j_i = self.point_jacobian(fkres, s_index.link, p_i)
        j_r = self.point_jacobian(fkres, s_ring.link, p_r)
        j_w = self.point_jacobian(fkres, s_wrist.link, p_w)
        de1 = j_i - j_w
        de2 = j_r - j_w
        # du_k = de1_k x e2 + e1 x de2_k, assembled column-wise
        du = np.cross(de1.T, e2).T + np.cross(e1, de2.T).T
        n_hat = u / norm_u
        dn = (np.eye(3) - np.outer(n_hat, n_hat)) @ du / norm_u
        return self.palm_normal_sign * n_hat, self.palm_normal_sign * dn

    # -- statics -------------------------------------------------------------

    def gravity_torques(self, fkres: FKResult, gravity=(0.0, 0.0, -9.81)) -> np.ndarray:
        """Joint torques that gravity exerts on the link masses (zero for massless hands)."""
        tau = np.zeros(self.dof)
        if not self._has_mass:
            return tau
        g = np.asarray(gravity, dtype=np.float64)
        for name, link in self.links.items():
            if link.mass <= 0.0:
                continue
            com_w = fkres.link_rot[name] @ link.com + fkres.link_pos[name]
            force = link.mass * g
            for ji in self._chain[name]:
                j = self.joints[ji]
                if j.jtype == "revolute":
                    tau[ji] += np.dot(
                        np.cross(fkres.joint_axis_w[ji], com_w - fkres.joint_pos_w[ji]), force
                    )
                else:
                    tau[ji] += np.dot(fkres.joint_axis_w[ji], force)
        return tau

    # -- wrist helpers --------------------------------------------------------

    def wrist_pose(self, fkres: FKResult) -> Pose6:
        """World pose of the wrist (root) link of a floating-base hand."""
        if not self.floating_base:
            raise HandModelError("wrist_pose requires a floating-base hand")
        root = self.joints[5].child
        return Pose6(fkres.link_pos[root], Rotation3.from_matrix(fkres.link_rot[root]))

    def wrist_q_from_pose(self, pose: Pose6) -> np.ndarray:
        """Invert the six virtual-joint chain for a desired wrist pose.

        The base chain is tx,ty,tz then rx,ry,rz, so the wrist rotation is the
        intrinsic composition Rx(q3) Ry(q4) Rz(q5).
        """
        if not self.floating_base:
            raise HandModelError("wrist_q_from_pose requires a floating-base hand")
        m = pose.rot.as_matrix()
        sy = np.clip(m[0, 2], -1.0, 1.0)
        q4 = np.arcsin(sy)
        if abs(sy) > 1.0 - 1e-9:
            # gimbal singularity: fold the lost angle into q3 (sign follows the pole)
            q3 = np.arctan2(np.sign(sy) * m[1, 0], m[1, 1])
            q5 = 0.0
        else:
            q3 = np.arctan2(-m[1, 2], m[2, 2])
            q5 = np.arctan2(-m[0, 1], m[0, 0])
        return np.concatenate([pose.pos, [q3, q4, q5]])


# -- serialization -------------------------------------------------------------


def _parse_prim(entry, where: str) -> CollisionPrim:
    kind = entry.get("type")
    radius = float(entry["radius"])
    if radius <= 0:
        raise HandModelError(f"{where}: collision radius must be positive")
    if kind == "sphere":
        c = np.asarray(entry["center"], dtype=np.float64)
        return CollisionPrim("sphere", c, c.copy(), radius)
    if kind == "capsule":
        return CollisionPrim(
            "capsule",
            np.asarray(entry["a"], dtype=np.float64),
            np.asarray(entry["b"], dtype=np.float64),
            radius,
        )
    raise HandModelError(f"{where}: unknown collision type '{kind}'")


def hand_from_dict(data: dict) -> HandModel:
    try:
        link_names = [entry["name"] for entry in data["links"]]
        if len(set(link_names)) != len(link_names):
            raise HandModelError("duplicate link names in hand description")
        joint_names = [entry["name"] for entry in data["joints"]]
        if len(set(joint_names)) != len(joint_names):
            raise HandModelError("duplicate joint names in hand description")
        links = {}
        for entry in data["links"]:
            links[entry["name"]] = Link(
                name=entry["name"],
                mass=float(entry.get("mass", 0.0)),
                com=np.asarray(entry.get("com", [0.0, 0.0, 0.0]), dtype=np.float64),
                collisions=tuple(
                    _parse_prim(p, f"link '{entry['name']}'") for p in entry.get("collisions", [])
                ),
            )
        joints = []
        for entry in data["joints"]:
            origin = entry.get("origin", {})
            joints.append(
                Joint(
                    name=entry["name"],
                    jtype=entry["type"],
                    axis=np.asarray(entry["axis"], dtype=np.float64),
                    parent=entry["parent"],
                    child=entry["child"],
                    origin_pos=np.asarray(origin.get("pos", [0.0, 0.0, 0.0]), dtype=np.float64),
                    origin_rot=Rotation3(np.asarray(origin.get("quat", [1.0, 0.0, 0.0, 0.0]))),
                    limits=(float(entry["limits"][0]), float(entry["limits"][1])),
                )
            )
        fingertip_sites = [
            Site(e["name"], e["link"], np.asarray(e["pos"], dtype=np.float64))
            for e in data["fingertip_sites"]
        ]
        palm_sites = [
            Site(e["name"], e["link"], np.asarray(e["pos"], dtype=np.float64))
            for e in data["palm_sites"]
        ]
        correspondence = {int(k): v for k, v in data["correspondence"].items()}
    except KeyError as exc:
        raise HandModelError(f"hand description missing required field: {exc}") from exc
    return HandModel(
        name=data.get("name", "hand"),
        joints=joints,
        links=links,
        fingertip_sites=fingertip_sites,
        palm_sites=palm_sites,
        correspondence=correspondence,
        floating_base=bool(data.get("floating_base", False)),
        palm_normal_sign=float(data.get("palm_normal_sign", 1.0)),
    )


def load_hand(path) -> HandModel:
    data = json.loads(Path(path).read_text())
    return hand_from_dict(data)
