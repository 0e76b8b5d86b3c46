"""Articulated hand description and forward kinematics.

A hand is a floating-base, massless, position-servoed rigid-link tree rooted
at the wrist. Its first six joints are virtual (tx, ty, tz prismatic, then
rx, ry, rz revolute), so the wrist pose lives in the same joint vector as the
fingers: q[:3] is wrist translation in meters, q[3:6] wrist rotation in
radians, the rest finger angles. The loader rejects a description that does
not set `floating_base: true` or that gives a link a positive `mass`.

Results are bitwise reproducible, and the fast paths keep them bitwise equal
to the plain per-joint formulas. `site_jacobians` and `point_jacobian` are
elementwise: each entry is the same products and differences, in the same
order, that `np.cross` computes. In `fk`, the Rodrigues matrices of all
revolute joints are built in one broadcast, `(I + s K) + (1 - c) K^2` from
the sine and cosine of the whole joint vector, the same elementwise
operations per joint as nine float expressions. Each joint frame is written
in place into one (D, 3, 3) array, by `dot(..., out=)`. The product by an
origin rotation is kept when the rotation is the identity: it is cheaper than
the `+ 0.0` that would give its bits (it turns -0.0 into 0.0). A product by a
zero origin offset is skipped; a link position is never -0.0, so a zero
offset adds nothing.

Product rule: every 1-D or 2-D product is `a.dot(b)`. It makes the same BLAS
call as `a @ b`, so the bits are the same, at about half the call overhead
(tests/test_dot_rule.py checks every operand shape used). A product stacked
over joints or sites stays `@`, one BLAS call per item: on 3-D operands
`dot` is a different product, a sum over the last axis of one and the
second-to-last of the other. A 3x3 product written out in Python sums in a
different order than BLAS and rounds differently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Pose6, Rotation3, cross3
from .jsonio import load_json

WORLD = "world"
HUMAN_FINGERS = 5  # recorded fingers a correspondence maps, thumb first

_EYE3 = np.eye(3)
_ZERO3 = np.zeros(3)
_EYE3.flags.writeable = False
_ZERO3.flags.writeable = False
# component k of a cross product a x b is a[k+1] b[k+2] - a[k+2] b[k+1]
# (mod 3): gathering a at _PAIR and b at _SWAP lines up both products of
# every component, the first three then the second three
_PAIR = np.array([1, 2, 0, 2, 0, 1])
_SWAP = np.array([2, 0, 1, 1, 2, 0])


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
    a: np.ndarray  # segment start (== end for spheres), link frame
    b: np.ndarray
    radius: float


@dataclass(frozen=True)
class Link:
    name: str
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

    __slots__ = ("link_rot", "link_pos", "joint_axis_w", "joint_pos_w", "sites")

    def __init__(self, link_rot, link_pos, joint_axis_w, joint_pos_w, sites):
        self.link_rot = link_rot  # dict link -> 3x3
        self.link_pos = link_pos  # dict link -> (3,)
        self.joint_axis_w = joint_axis_w  # (D, 3)
        self.joint_pos_w = joint_pos_w  # (D, 3)
        self.sites = sites  # (S, 3): fingertip sites, then the three palm sites


class HandModel:
    def __init__(
        self,
        name: str,
        joints: list[Joint],
        links: dict[str, Link],
        fingertip_sites: list[Site],
        palm_sites: list[Site],
        correspondence: dict[int, str],
        palm_normal_sign: float = 1.0,
    ):
        self.name = name
        self.joints = list(joints)
        self.links = dict(links)
        self.fingertip_sites = list(fingertip_sites)
        self.palm_sites = list(palm_sites)
        self.correspondence = dict(correspondence)
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
        if self.palm_normal_sign not in (1.0, -1.0):
            raise HandModelError("palm_normal_sign must be 1 or -1")
        seen_children: set[str] = set()
        known_links = set(self.links)
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
        # joints must already be topologically ordered, so each child hangs
        # from the world through joints placed before it and no cycle passes;
        # a link that no joint moves is then the one left unreached
        placed = {WORLD}
        for j in self.joints:
            if j.parent not in placed:
                raise HandModelError(f"joint '{j.name}' appears before its parent link '{j.parent}'")
            placed.add(j.child)
        for name in self.links:
            if name not in placed:
                raise HandModelError(f"link '{name}' is not connected to the tree root")
        for s in self.fingertip_sites + self.palm_sites:
            if s.link not in known_links:
                raise HandModelError(f"site '{s.name}' references unknown link '{s.link}'")
        for s in self.fingertip_sites:
            if not self.links[s.link].collisions:
                raise HandModelError(f"fingertip site '{s.name}': link '{s.link}' has no collision primitive")
        site_names = {s.name for s in self.fingertip_sites}
        for finger, site in self.correspondence.items():
            if finger < 0 or finger >= HUMAN_FINGERS:
                raise HandModelError(f"correspondence finger index {finger} out of range")
            if site not in site_names:
                raise HandModelError(f"correspondence for finger {finger} references unknown site '{site}'")
        if [j.jtype for j in self.joints[:6]] != ["prismatic"] * 3 + ["revolute"] * 3:
            raise HandModelError("a hand must start with three prismatic then three revolute base joints")

    def _build_tables(self) -> None:
        self.limits_lo = np.array([j.limits[0] for j in self.joints])
        self.limits_hi = np.array([j.limits[1] for j in self.joints])
        # one FK step per joint: parent and child link, the origin rotation
        # and offset (None when zero), the axis, and the joint's row among the
        # revolute joints (None for a prismatic joint)
        revolute = [i for i, j in enumerate(self.joints) if j.jtype == "revolute"]
        row = {i: r for r, i in enumerate(revolute)}
        self._fk_steps = [
            (j.parent, j.child, j.origin_rot.as_matrix(), j.origin_pos if j.origin_pos.any() else None,
             j.axis, row.get(i))
            for i, j in enumerate(self.joints)
        ]
        # K and K^2 of Rodrigues' formula, one row per revolute joint
        self._revolute = np.array(revolute, dtype=np.intp)
        self._rod_k = np.array([_skew(self.joints[i].axis) for i in revolute])
        self._rod_k2 = self._rod_k @ self._rod_k
        self._axes = np.array([j.axis for j in self.joints])[:, :, None]
        # chain of joint indices from root to each link
        parent_joint: dict[str, int] = {}
        for i, j in enumerate(self.joints):
            parent_joint[j.child] = i
        self._chain: dict[str, tuple[int, ...]] = {}
        # per link, the chain's revolute and prismatic jacobian columns
        self._chain_cols: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for name in self.links:
            chain = []
            cur = name
            while cur != WORLD:
                ji = parent_joint[cur]
                chain.append(ji)
                cur = self.joints[ji].parent
            chain = tuple(reversed(chain))
            self._chain[name] = chain
            self._chain_cols[name] = tuple(
                np.array([ji for ji in chain if self.joints[ji].jtype == kind], dtype=np.intp)
                for kind in ("revolute", "prismatic")
            )
        # distal links: the ones fingertip sites attach to, in fingertip order
        self.distal_links = tuple(s.link for s in self.fingertip_sites)
        self.fingertip_order = {s.name: i for i, s in enumerate(self.fingertip_sites)}
        # every site, fingertips then palm: the rows of `FKResult.sites`, and
        # per site the revolute and prismatic columns of its chain
        sites = self.fingertip_sites + self.palm_sites
        self._site_links = tuple(s.link for s in sites)
        self._site_local = np.array([s.pos for s in sites])[:, :, None]
        self._site_rev = np.zeros((len(sites), 1, self.dof), dtype=bool)
        self._site_pri = np.zeros((len(sites), 1, self.dof), dtype=bool)
        for k, s in enumerate(sites):
            rev, pri = self._chain_cols[s.link]
            self._site_rev[k, 0, rev] = True
            self._site_pri[k, 0, pri] = True

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
        # every revolute joint's rotation at once, (I + s K) + (1 - c) K^2,
        # from the sine and cosine of the whole vector
        rev = self._revolute
        s = np.sin(q)[rev][:, None, None]
        c = (1.0 - np.cos(q)[rev])[:, None, None]
        rods = (_EYE3 + s * self._rod_k) + c * self._rod_k2
        link_rot: dict[str, np.ndarray] = {WORLD: _EYE3}
        link_pos: dict[str, np.ndarray] = {WORLD: _ZERO3}
        # per joint, its frame before its own motion, written in place
        joint_rot = np.empty((self.dof, 3, 3))
        joint_pos = np.empty((self.dof, 3))
        for i, (parent, child, rot0, pos0, axis, r) in enumerate(self._fk_steps):
            rp = link_rot[parent]
            rj = rp.dot(rot0, out=joint_rot[i])
            if pos0 is None:
                pj = joint_pos[i] = link_pos[parent]
            else:
                pj = joint_pos[i] = rp.dot(pos0) + link_pos[parent]
            if r is None:  # prismatic
                link_rot[child] = rj
                link_pos[child] = pj + q[i] * rj.dot(axis)
            else:
                link_rot[child] = rj.dot(rods[r])
                link_pos[child] = pj
        # every joint's axis in one stacked matmul: the same BLAS call per joint
        joint_axis_w = (joint_rot @ self._axes)[:, :, 0]
        rots = np.array([link_rot[l] for l in self._site_links])
        sites = (rots @ self._site_local)[:, :, 0] + np.array([link_pos[l] for l in self._site_links])
        return FKResult(link_rot, link_pos, joint_axis_w, joint_pos, sites)

    def point_jacobian(self, fkres: FKResult, link: str, point_w: np.ndarray) -> np.ndarray:
        """d(point)/dq for a world point rigidly attached to `link`; (3, D).

        A revolute column is z_i x (p - o_i), a prismatic one z_i. The whole
        chain is computed at once, with the products and differences of
        `np.cross` written out, so each column is bitwise what `np.cross` gives.
        """
        rev, pri = self._chain_cols[link]
        z0, z1, z2 = fkres.joint_axis_w[rev].T
        d0, d1, d2 = (point_w - fkres.joint_pos_w[rev]).T
        jac = np.zeros((3, self.dof))
        jac[0, rev] = z1 * d2 - z2 * d1
        jac[1, rev] = z2 * d0 - z0 * d2
        jac[2, rev] = z0 * d1 - z1 * d0
        jac[:, pri] = fkres.joint_axis_w[pri].T
        return jac

    def site_jacobians(self, fkres: FKResult) -> np.ndarray:
        """d(site)/dq of every fingertip and palm site; (S, 3, D), rows as in `fkres.sites`.

        Row k is `point_jacobian(fkres, site.link, fkres.sites[k])`, bitwise:
        the same column formula over all sites and joints at once, kept where
        a joint is in the site's chain.
        """
        z = fkres.joint_axis_w.T
        d = fkres.sites[:, :, None] - fkres.joint_pos_w.T
        # (z1 d2 - z2 d1, z2 d0 - z0 d2, z0 d1 - z1 d0) for every site and joint
        zd = z[_PAIR] * d[:, _SWAP]
        cols = zd[:, :3] - zd[:, 3:]
        jac = np.zeros(cols.shape)
        np.copyto(jac, cols, where=self._site_rev)
        np.copyto(jac, z, where=self._site_pri)
        return jac

    def fingertip_positions(self, fkres: FKResult) -> np.ndarray:
        return fkres.sites[: len(self.fingertip_sites)].copy()

    # -- palm orientation ----------------------------------------------------

    def palm_normal(self, fkres: FKResult) -> np.ndarray:
        """Unit normal of the plane through the three palm sites.

        Orientation of the raw cross product is arbitrary; the model file fixes
        the sign so the normal points out of the palm surface.
        """
        return self.palm_normal_jacobian(fkres, self.site_jacobians(fkres))[0]

    def palm_normal_jacobian(self, fkres: FKResult, sjac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(normal, d(normal)/dq with shape (3, D)); `sjac` is `site_jacobians(fkres)`."""
        n_tips = len(self.fingertip_sites)
        p = fkres.sites[n_tips:]
        e = p[:2] - p[2]  # e1, e2: index and ring MCP from the wrist site
        u = cross3(e[0], e[1])
        norm_u = math.sqrt(u.dot(u))
        if norm_u < 1e-12:
            raise HandModelError("palm sites are collinear; palm plane is undefined")
        j = sjac[n_tips:]
        de = j[:2] - j[2]  # de1, de2
        # du_k = de1_k x e2 + e1 x de2_k for every column k, as np.cross
        # computes it: all four products of each component come from one
        # multiply, e1 x de2 taking its two in swapped order as b2 x1 - b1 x2
        xy = de[:, _PAIR] * e[::-1, _SWAP, None]  # (de1, e2), (de2, e1)
        du = (xy[0, :3] - xy[0, 3:]) + (xy[1, 3:] - xy[1, :3])
        n_hat = u / norm_u
        dn = (_EYE3 - n_hat[:, None] * n_hat).dot(du) / norm_u
        if self.palm_normal_sign < 0.0:  # negation is the product by -1.0
            return -n_hat, -dn
        return n_hat, dn

    # -- wrist helpers --------------------------------------------------------

    def wrist_pose(self, fkres: FKResult) -> Pose6:
        """World pose of the wrist (root) link."""
        root = self.joints[5].child
        return Pose6(fkres.link_pos[root], Rotation3.from_matrix(fkres.link_rot[root]))

    def wrist_q_from_pose(self, pose: Pose6) -> np.ndarray:
        """Invert the six virtual-joint chain for a desired wrist pose.

        The base chain is tx,ty,tz then rx,ry,rz, so the wrist rotation is the
        intrinsic composition Rx(q3) Ry(q4) Rz(q5).
        """
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
        return CollisionPrim(c, c.copy(), radius)
    if kind == "capsule":
        return CollisionPrim(
            np.asarray(entry["a"], dtype=np.float64),
            np.asarray(entry["b"], dtype=np.float64),
            radius,
        )
    raise HandModelError(f"{where}: unknown collision type '{kind}'")


def hand_from_dict(data: dict) -> HandModel:
    if data.get("floating_base") is not True:
        raise HandModelError(
            "hand description must set floating_base: true (six base joints tx, ty, tz, rx, ry, rz)"
        )
    try:
        link_names = [entry["name"] for entry in data["links"]]
        if len(set(link_names)) != len(link_names):
            raise HandModelError("duplicate link names in hand description")
        joint_names = [entry["name"] for entry in data["joints"]]
        if len(set(joint_names)) != len(joint_names):
            raise HandModelError("duplicate joint names in hand description")
        links = {}
        for entry in data["links"]:
            if float(entry.get("mass", 0.0)) > 0.0:
                raise HandModelError(f"link '{entry['name']}': hands are massless, mass must not be positive")
            links[entry["name"]] = Link(
                name=entry["name"],
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
        palm_normal_sign=float(data.get("palm_normal_sign", 1.0)),
    )


def load_hand(path) -> HandModel:
    return hand_from_dict(load_json(path))
