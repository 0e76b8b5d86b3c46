"""Recorded manipulation sequences: loading, validation, contact extraction.

A demo file is JSON:

    {
      "fps": 120,
      "frames": [{"hand": [18 floats], "object": {"pos": [3], "quat": [4]}}, ...],
      "object_geometry": {"pieces": [[[x,y,z], ...], ...], "com": [3], "mass": m}
    }

The 18-vector per frame is five fingertip positions followed by the palm
normal. Object orientation is a scalar-first unit quaternion.
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .collision import ConvexPiece, GeometryError, project_to_surface
from .geometry import Pose6, Rotation3, row_norms
from .jsonio import load_json
from .retarget import HAND_FRAME_DIM

CONTACT_THRESHOLD = 0.05  # fingertips closer than this to the surface count as contacts
COM_LOWER_FRACTION = 0.2  # fraction of bounding-box height to lower the COM


class DemoError(ValueError):
    pass


@dataclass
class ObjectGeometry:
    pieces: list[ConvexPiece]
    com: np.ndarray
    mass: float

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        all_v = np.vstack([p.vertices for p in self.pieces])
        return all_v.min(axis=0), all_v.max(axis=0)


@dataclass
class DemoSequence:
    fps: float
    hand: np.ndarray  # (T, 18)
    object_poses: list[Pose6]  # length T
    geometry: ObjectGeometry
    rows: InitVar[np.ndarray | None] = None  # the object rows `object_poses` were built from
    object_rows: np.ndarray = field(init=False, repr=False)  # (T, 7): x, y, z, w, qx, qy, qz

    def __post_init__(self, rows):
        self.object_rows = np.array([[*p.pos, *p.rot.q] for p in self.object_poses]) if rows is None else rows

    @property
    def length(self) -> int:
        return self.hand.shape[0]

    def object_positions(self) -> np.ndarray:
        return self.object_rows[:, :3]


def preprocess_object(pieces_raw, com, mass) -> ObjectGeometry:
    """Validate convex pieces and lower the center of mass.

    Lowering the COM along world -z by a fraction of the bounding-box height
    makes simulated grasps less prone to tipping, compensating for unknown
    mass distribution in the recording.
    """
    if mass <= 0:
        raise DemoError("object mass must be positive")
    if not pieces_raw:
        raise DemoError("object geometry needs at least one convex piece")
    pieces = []
    for i, verts in enumerate(pieces_raw):
        try:
            pieces.append(ConvexPiece(verts))
        except GeometryError as exc:
            raise DemoError(f"object piece {i}: {exc}") from exc
    com = np.asarray(com, dtype=np.float64)
    if com.shape != (3,):
        raise DemoError("object com must be a 3-vector")
    geom = ObjectGeometry(pieces=pieces, com=com.copy(), mass=float(mass))
    lo, hi = geom.bbox()
    geom.com = geom.com - np.array([0.0, 0.0, COM_LOWER_FRACTION * (hi[2] - lo[2])])
    return geom


def float_rows(rows: list, width: int) -> tuple[np.ndarray, np.ndarray]:
    """JSON rows as one (n, width) float64 array, and a mask of the rows that
    are `width` numbers; every other row reads as NaN.

    The rows are converted one by one only when the list does not stack whole.
    """
    n = len(rows)
    try:
        out = np.array(rows, dtype=np.float64)
        if out.shape == (n, width):
            return out, np.ones(n, dtype=bool)
    except (TypeError, ValueError):  # ragged, or not numbers
        pass
    out = np.full((n, width), np.nan)
    parsed = np.zeros(n, dtype=bool)
    for i, row in enumerate(rows):
        try:
            r = np.asarray(row, dtype=np.float64)
        except (TypeError, ValueError):
            continue
        if r.shape == (width,):
            out[i], parsed[i] = r, True
    return out, parsed


def recorded_rows(data: dict, hand: bool = True) -> tuple[float, np.ndarray | None, np.ndarray, dict]:
    """A recording's fps, (T, 18) hand rows (None unless `hand`), (T, 7)
    object pose rows, quaternions normalised as `Rotation3` normalises them,
    and object geometry as stored."""
    try:
        fps = float(data["fps"])
        frames = data["frames"]
        geo = data["object_geometry"]
    except KeyError as exc:
        raise DemoError(f"demo missing required field: {exc}") from exc
    if fps <= 0:
        raise DemoError("fps must be positive")
    if len(frames) < 2:
        raise DemoError("demo needs at least two frames")
    fields, malformed = [], None
    for t, fr in enumerate(frames):
        try:
            fields.append((fr["hand"] if hand else None, fr["object"]["pos"], fr["object"]["quat"]))
        except (KeyError, TypeError) as exc:
            malformed = DemoError(f"frame {t}: malformed record ({exc})")
            break
    # the frames before a malformed one, checked as stacked arrays; a
    # frame's message is its first failing check, in this order
    checks, hand_rows = [], None
    if hand:
        hand_rows, hand_ok = float_rows([f[0] for f in fields], HAND_FRAME_DIM)
        checks += [
            (~hand_ok, f"hand vector must have {HAND_FRAME_DIM} entries"),
            (~np.isfinite(hand_rows).all(axis=1), "hand vector has non-finite entries"),
        ]
    pos, pos_ok = float_rows([f[1] for f in fields], 3)
    quat, quat_ok = float_rows([f[2] for f in fields], 4)
    norms = row_norms(quat)
    checks += [
        (~(pos_ok & np.isfinite(pos).all(axis=1)), "object position invalid"),
        (~(quat_ok & np.isfinite(quat).all(axis=1)), "object quaternion invalid"),
        (np.abs(norms - 1.0) > 1e-6, "object quaternion is not unit norm"),
    ]
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if bad.any():
        t = int(np.argmax(bad))
        raise DemoError(f"frame {t}: {next(msg for mask, msg in checks if mask[t])}")
    if malformed is not None:
        raise malformed
    quat /= norms[:, None]  # as `Rotation3` normalises
    return fps, hand_rows, np.hstack([pos, quat]), geo


def demo_from_dict(data: dict) -> DemoSequence:
    fps, hand, rows, geo = recorded_rows(data)
    poses = [Pose6(r[:3], Rotation3(r[3:], normalize=False)) for r in rows]
    geometry = preprocess_object(
        geo.get("pieces", []), geo.get("com", [0.0, 0.0, 0.0]), geo.get("mass", 0.0)
    )
    return DemoSequence(fps=fps, hand=hand, object_poses=poses, geometry=geometry, rows=rows)


def load_demo(path) -> DemoSequence:
    return demo_from_dict(load_json(path))


# -- contact extraction -----------------------------------------------------------


@dataclass
class ContactSet:
    """Grasp contact points on the object surface, in the object frame."""

    points: np.ndarray  # (N, 3)
    finger_ids: tuple[int, ...]  # recorded-hand finger index per point


def summed_tip_distances(demo: DemoSequence) -> np.ndarray:
    """Per-frame sum over the five fingertips of distance to the object surface."""
    out = np.empty(demo.length)
    for t in range(demo.length):
        tips = demo.hand[t, :15].reshape(5, 3)
        inv = demo.object_poses[t].inverse()
        total = 0.0
        for i in range(5):
            d, _ = project_to_surface(inv.apply(tips[i]), demo.geometry.pieces)
            total += max(d, 0.0)
        out[t] = total
    return out


def extract_contacts(demo: DemoSequence) -> ContactSet:
    """Project close fingertips onto the object surface at the grasp frame.

    The grasp frame is the frame with the smallest summed
    fingertip-to-surface distance. Fingertips farther than the contact
    threshold are dropped; a grasp needs between two and five contacts.
    """
    grasp_frame = int(np.argmin(summed_tip_distances(demo)))
    tips = demo.hand[grasp_frame, :15].reshape(5, 3)
    inv = demo.object_poses[grasp_frame].inverse()
    points = []
    ids = []
    for i in range(5):
        local = inv.apply(tips[i])
        d, surf = project_to_surface(local, demo.geometry.pieces)
        if d <= CONTACT_THRESHOLD:
            points.append(surf)
            ids.append(i)
    if len(ids) < 2:
        raise DemoError(
            f"only {len(ids)} fingertip(s) within {CONTACT_THRESHOLD} m of the object "
            f"at frame {grasp_frame}; need at least two contacts"
        )
    return ContactSet(points=np.array(points), finger_ids=tuple(ids))
