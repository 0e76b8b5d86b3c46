"""demo2dex: recorded hand-object manipulation to executable robot trajectories.

The pipeline retargets recorded fingertip motion onto an arbitrary jointed
hand, closes the kinematic-to-physical gap with residual reinforcement
learning around the retargeted plan, carries the object through the recorded
manipulation with a rigidly attached wrist, and scores the result.
"""
from .adapt import ActionRescaler, GraspEnv, build_episode, compute_reward
from .demo import DemoSequence, extract_contacts, load_demo
from .geometry import Pose6, Rotation3, geodesic_angle
from .hand import HandModel, load_hand
from .metrics import MetricReport, dtw_normalized, encode_semantics, tsr
from .pipeline import VERSION as __version__
from .pipeline import evaluate_run, run_sweep, run_transfer
from .retarget import ControlPlan, RetargetWeights, retarget_frame, retarget_sequence
from .simworld import SimConfig, SimWorld, replay
from .wrist import plan_wrist, track_manipulation

__all__ = [
    "ActionRescaler",
    "ControlPlan",
    "DemoSequence",
    "GraspEnv",
    "HandModel",
    "MetricReport",
    "Pose6",
    "RetargetWeights",
    "Rotation3",
    "SimConfig",
    "SimWorld",
    "__version__",
    "build_episode",
    "compute_reward",
    "dtw_normalized",
    "encode_semantics",
    "evaluate_run",
    "extract_contacts",
    "geodesic_angle",
    "load_demo",
    "load_hand",
    "plan_wrist",
    "replay",
    "retarget_frame",
    "retarget_sequence",
    "run_sweep",
    "run_transfer",
    "track_manipulation",
    "tsr",
]
