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

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .collision import ConvexPiece, GeometryError, project_to_surface
from .geometry import Pose6, Rotation3
from .retarget import HAND_FRAME_DIM

CONTACT_THRESHOLD = 0.05  # fingertips closer than this to the surface count as contacts
COM_LOWER_FRACTION = 0.2  # default fraction of bounding-box height to lower the COM


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

    @property
    def length(self) -> int:
        return self.hand.shape[0]

    def object_positions(self) -> np.ndarray:
        return np.array([p.pos for p in self.object_poses])


def preprocess_object(pieces_raw, com, mass, lower_fraction: float = COM_LOWER_FRACTION) -> ObjectGeometry:
    """Validate convex pieces and lower the center of mass.

    Lowering the COM along world -z by a fraction of the bounding-box height
    makes simulated grasps less prone to tipping, compensating for unknown
    mass distribution in the recording.
    """
    if mass <= 0:
        raise DemoError("object mass must be positive")
    if not pieces_raw:
        raise DemoError("object geometry needs at least one convex piece")
    if not 0.0 <= lower_fraction < 1.0:
        raise DemoError("COM lowering fraction must be in [0, 1)")
    pieces = []
    for i, verts in enumerate(pieces_raw):
        try:
            piece = ConvexPiece(verts)
        except GeometryError as exc:
            raise DemoError(f"object piece {i}: {exc}") from exc
        # sanity: every input vertex must be inside its own hull
        for v in piece.vertices:
            if not piece.contains_margin(v, 1e-9):
                raise DemoError(f"object piece {i}: vertex escapes its own hull")
        pieces.append(piece)
    com = np.asarray(com, dtype=np.float64)
    if com.shape != (3,):
        raise DemoError("object com must be a 3-vector")
    geom = ObjectGeometry(pieces=pieces, com=com.copy(), mass=float(mass))
    lo, hi = geom.bbox()
    geom.com = geom.com - np.array([0.0, 0.0, lower_fraction * (hi[2] - lo[2])])
    return geom


def demo_from_dict(data: dict, lower_fraction: float = COM_LOWER_FRACTION) -> DemoSequence:
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
    hand = np.empty((len(frames), HAND_FRAME_DIM))
    poses = []
    for t, fr in enumerate(frames):
        try:
            h = np.asarray(fr["hand"], dtype=np.float64)
            pos = np.asarray(fr["object"]["pos"], dtype=np.float64)
            quat = np.asarray(fr["object"]["quat"], dtype=np.float64)
        except (KeyError, TypeError) as exc:
            raise DemoError(f"frame {t}: malformed record ({exc})") from exc
        if h.shape != (HAND_FRAME_DIM,):
            raise DemoError(f"frame {t}: hand vector must have {HAND_FRAME_DIM} entries")
        if not np.all(np.isfinite(h)):
            raise DemoError(f"frame {t}: hand vector has non-finite entries")
        if pos.shape != (3,) or not np.all(np.isfinite(pos)):
            raise DemoError(f"frame {t}: object position invalid")
        if quat.shape != (4,) or not np.all(np.isfinite(quat)):
            raise DemoError(f"frame {t}: object quaternion invalid")
        if abs(np.linalg.norm(quat) - 1.0) > 1e-6:
            raise DemoError(f"frame {t}: object quaternion is not unit norm")
        hand[t] = h
        poses.append(Pose6(pos, Rotation3(quat)))
    geometry = preprocess_object(
        geo.get("pieces", []), geo.get("com", [0.0, 0.0, 0.0]), geo.get("mass", 0.0), lower_fraction
    )
    return DemoSequence(fps=fps, hand=hand, object_poses=poses, geometry=geometry)


def load_demo(path, lower_fraction: float = COM_LOWER_FRACTION) -> DemoSequence:
    return demo_from_dict(json.loads(Path(path).read_text()), lower_fraction)


# -- contact extraction -----------------------------------------------------------


@dataclass
class ContactSet:
    """Grasp contact points on the object surface, in the object frame."""

    points: np.ndarray  # (N, 3)
    finger_ids: tuple[int, ...]  # recorded-hand finger index per point
    frame: int  # demo frame the contacts were read from

    @property
    def count(self) -> int:
        return len(self.finger_ids)


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


def extract_contacts(demo: DemoSequence, grasp_frame: int | None = None) -> ContactSet:
    """Project close fingertips onto the object surface at the grasp frame.

    The grasp frame defaults to the frame with the smallest summed
    fingertip-to-surface distance. Fingertips farther than the contact
    threshold are dropped; a grasp needs between two and five contacts.
    """
    if grasp_frame is None:
        grasp_frame = int(np.argmin(summed_tip_distances(demo)))
    if not 0 <= grasp_frame < demo.length:
        raise DemoError(f"grasp frame {grasp_frame} out of range")
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
    return ContactSet(points=np.array(points), finger_ids=tuple(ids), frame=grasp_frame)
