"""End-to-end transfer: recording in, executable trajectory and scores out.

Stages: ingest -> retarget -> episode window (goal step from the recording) ->
primary replay up to the goal step -> pregrasp step, whose snapshot from the
replay is the episode's start -> residual training (optional) ->
deterministic grasp rollout -> wrist-attached manipulation tracking ->
metrics, scored from the trajectory record as `evaluate_run` scores it.
Every stage is deterministic for a given (config, seed), and all artifacts
are canonical JSON.

A config sets the run's name, hand and recording, the `sim` contact
parameters (`SimConfig`) and the `rl` training budget (`TrainConfig`); every
other setting is a module constant, listed in README.md under "Config". Any
other key raises TypeError before a stage runs.

A finished run is keyed by a content hash of the config, the bytes of the hand
and recording files, the seed, `no_rl` and `VERSION`. A rerun with the same key
is served from the run directory if its manifest also records the sha256 of
this package's sources (`code_sha256`); after a code change the run recomputes.
The check opens `manifest.json` first and `metrics.json` only behind a
matching manifest; a file that is missing, not JSON or not a JSON object is a
miss, found by opening it.

`evaluate_run` checks the recording's sha256 against the manifest on every
call. A process keeps the last recording it scored, its fps, object rows and
labels, under that sha256, so evaluating many runs of one recording parses and
labels it once; a process that evaluates one run gains nothing.
"""
from __future__ import annotations

import concurrent.futures
import functools
import hashlib
import json
import logging
import operator
import os
import time
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .adapt import GraspEnv, build_episode, map_contacts, select_pregrasp
from .demo import DemoSequence, extract_contacts, float_rows, load_demo, recorded_rows
from .geometry import Pose6, row_norms
from .hand import HandModel, load_hand
from .jsonio import canonical_dumps, dump_json, load_json, read_bytes, sha256_bytes, sha256_file, sha256_of
from .metrics import (
    SUCCESS_RADIUS,
    MetricReport,
    align_reference,
    encode_semantics,
    ep_er,
    resample_to_frames,
    sr_grasp,
    tsr,
)
from .ppo import TrainConfig, train_residual_policy
from .retarget import ControlPlan, fit_smooth_trajectory, retarget_sequence, to_control_sequence
from .simworld import CONTROL_FREQUENCY, SimConfig, SimWorld, WorldState, replay
from .wrist import WristPlanError, plan_wrist, track_manipulation

VERSION = "0.1.0"
log = logging.getLogger("demo2dex")

# the top-level keys of a config: the run's name and inputs, then the
# sections that `run_transfer` hands to `SimConfig` and `TrainConfig`; every
# other setting is a module constant (README.md, "Config"), and the seed is
# an argument of the run
CONFIG_KEYS = frozenset({"name", "hand", "demo", "sim", "rl"})


class PipelineError(RuntimeError):
    pass


def asset_path(*parts) -> Path:
    """Path of a bundled asset, `assets/<parts...>` inside this package."""
    return Path(str(resources.files("demo2dex").joinpath("assets", *parts)))


def _locate(kind: str, spec) -> Path:
    """`spec` itself if it names a file, else the bundled asset `kind/<spec>.json`."""
    p = Path(spec)
    if not os.path.exists(p):
        p = asset_path(kind, f"{spec}.json")
    if not os.path.exists(p):
        raise PipelineError(f"'{spec}' is neither a file nor a bundled {kind[:-1]}")
    return p


def resolve_hand(spec) -> tuple[HandModel, Path]:
    p = _locate("hands", spec)
    return load_hand(p), p


def resolve_demo(spec) -> tuple[DemoSequence, Path]:
    p = _locate("demos", spec)
    return load_demo(p), p


def resolve_config(spec) -> dict:
    return load_json(_locate("configs", spec))


@functools.cache
def code_sha256() -> str:
    """sha256 over this package's Python sources, in file-name order; once per process."""
    h = hashlib.sha256()
    for p in sorted(Path(__file__).parent.glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


@dataclass
class RunResult:
    run_dir: Path
    key: str
    metrics: MetricReport
    grasp_success: bool
    cached: bool

    def summary(self) -> dict:
        d = self.metrics.to_dict()
        d["grasp_success"] = self.grasp_success
        return d


def _pose_row(p: Pose6) -> list[float]:
    return [*p.pos.tolist(), *p.rot.q.tolist()]


def _policy_rollout(env: GraspEnv, policy_fn):
    """Deterministic episode; returns (states, executed controls, success, diverged)."""
    obs = env.reset()
    states, executed = [], []
    done = False
    while not done:
        obs, _, done, info = env.step(policy_fn(obs))
        if info.get("diverged"):
            return states, executed, False, True
        states.append(info["state"])
        executed.append(info["executed"])
    return states, executed, env.success(), False


def _pose_array(rows) -> np.ndarray:
    """Trajectory pose rows as one (N, 7) array, each quaternion normalised as
    `Rotation3` normalises it."""
    poses, parsed = float_rows(rows, 7)
    if not len(poses):
        raise PipelineError("trajectory has no pose rows")
    norms = row_norms(poses[:, 3:])
    not_numbers = ~(parsed & np.isfinite(poses).all(axis=1))
    bad = not_numbers | (norms < 1e-8)
    if bad.any():
        i = int(np.argmax(bad))
        what = "is not 7 finite numbers" if not_numbers[i] else "has a quaternion of norm below 1e-8"
        raise PipelineError(f"trajectory pose row {i} {what}")
    poses[:, 3:] /= norms[:, None]
    return poses


def _field(doc, name: str, path: str, convert=None):
    """The field at the dotted `path` of `doc`, the JSON of run file `name`,
    passed through `convert`. A field that is missing, or that `convert`
    rejects, raises PipelineError naming the file and the field."""
    value = doc
    for key in path.split("."):
        if not isinstance(value, dict) or key not in value:
            raise PipelineError(f"{name} has no field '{path}'")
        value = value[key]
    if convert is None:
        return value
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise PipelineError(f"{name} field '{path}' is malformed ({exc})") from None


def _positive(value) -> float:
    """`value` as a positive finite float; ValueError otherwise."""
    x = float(value)
    if not 0.0 < x < np.inf:
        raise ValueError(f"{value!r} is not a positive number")
    return x


def _score(traj: dict, fps: float, recorded: np.ndarray, labels: tuple[int, ...] | list[int]) -> MetricReport:
    """Metrics of a trajectory record, the dict stored as trajectory.json,
    against the recording's fps, (T, 7) object pose rows and their
    `encode_semantics` labels."""
    name = "trajectory.json"
    poses = _field(traj, name, "poses", _pose_array)
    frequency = _field(traj, name, "frequency", _positive)
    p = _field(traj, name, "prefix_len", operator.index)
    g = _field(traj, name, "grasp_len", operator.index)
    target = _field(traj, name, "target_pos", lambda v: np.asarray(v, dtype=np.float64).reshape(3))
    ep, er = ep_er(poses, recorded[align_reference(len(recorded), fps, len(poses), frequency)])
    held = sr_grasp(poses[p : p + g, :3], target)
    follow = held and not _field(traj, name, "dropped") and not _field(traj, name, "diverged")
    s_exec = encode_semantics(poses[resample_to_frames(len(poses), frequency, fps, len(recorded))])
    score, sem_ok = tsr(s_exec, labels)
    return MetricReport(
        ep=ep,
        er_deg=er,
        sr_grasp=held,
        sr_follow=follow,
        tsr_score=score,
        tsr_success=sem_ok,
        semantics_executed=s_exec,
        semantics_recorded=list(labels),
    )


def grasp_episode(
    model: HandModel, demo: DemoSequence, sim_cfg: SimConfig, name: str
) -> tuple[ControlPlan, list[WorldState], GraspEnv, list[str]]:
    """Retarget, spline, episode window, primary replay up to the goal, and the
    `GraspEnv` on the replay's snapshot at the pregrasp step. Returns the plan,
    the replay's states, the env and the warnings; `name` labels the log lines."""
    # -- retarget ------------------------------------------------------------
    t0 = time.perf_counter()
    seq = retarget_sequence(model, demo.hand)
    warnings = list(seq.warnings)
    spline = fit_smooth_trajectory(seq.q_path, demo.fps)
    a_primary = to_control_sequence(spline, model, CONTROL_FREQUENCY)
    plan = ControlPlan(seq.q_path, spline, a_primary, CONTROL_FREQUENCY, demo.fps)
    plan.validate_limits(model)
    mean_tip = float(np.mean([fr.mean_tip_error for fr in seq.frame_results]))
    log.info(
        "%s: retargeted %d frames (mean tip error %.2f mm) in %.1fs",
        name, demo.length, 1e3 * mean_tip, time.perf_counter() - t0,
    )

    # -- episode window, primary replay up to the goal, episode start ----------
    t0 = time.perf_counter()
    mapped = map_contacts(extract_contacts(demo), model)
    episode = build_episode(demo, plan)
    world = SimWorld(model, demo.geometry, sim_cfg, plan.q_path[0], demo.object_poses[0])
    # the episode starts before the goal step, so the replay stops there
    records, starts = replay(world, plan.a_primary[: episode.goal_step])
    episode.pregrasp_step, w = select_pregrasp(records, mapped)
    episode.warnings += w
    warnings += episode.warnings
    env = GraspEnv(starts[episode.pregrasp_step], plan, episode, mapped)  # the one snapshot kept
    log.info(
        "%s: episode steps [%d, %d) around goal %d (replayed in %.1fs)",
        name, episode.pregrasp_step, episode.horizon, episode.goal_step,
        time.perf_counter() - t0,
    )
    return plan, records, env, warnings


def _cached_object(path) -> dict:
    """The JSON object in `path`, or {} (a cache miss) when the file is
    missing, not JSON or not a JSON object."""
    try:
        doc = load_json(path)
    except (FileNotFoundError, ValueError):  # ValueError: not JSON, or not UTF
        return {}
    return doc if isinstance(doc, dict) else {}


def run_transfer(
    config: dict,
    out_dir,
    seed: int = 0,
    no_rl: bool = False,
    force: bool = False,
) -> RunResult:
    unknown = sorted(config.keys() - CONFIG_KEYS)
    if unknown:
        raise TypeError(f"unknown config key(s): {', '.join(unknown)}")
    # config sections go straight to their owners, so a misspelled key raises here
    sim_cfg = SimConfig(**config.get("sim", {}))
    tr_cfg = TrainConfig(**config.get("rl", {}))
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    cfg = dict(config)
    hand_path = _locate("hands", cfg["hand"])
    demo_path = _locate("demos", cfg["demo"])
    hand_sha = sha256_file(hand_path)
    demo_sha = sha256_file(demo_path)
    key = sha256_of(
        {
            "config": cfg,
            "hand_sha": hand_sha,
            "demo_sha": demo_sha,
            "seed": seed,
            "no_rl": no_rl,
            "version": VERSION,
        }
    )
    name = cfg.get("name", "run")
    run_dir = Path(out_dir) / f"{name}-seed{seed}{'-norl' if no_rl else ''}"
    # manifest.json is written last, so a matching one marks a finished run of
    # this code; the key stored in metrics.json must match too, or the metrics
    # are another run's
    manifest = {} if force else _cached_object(os.path.join(run_dir, "manifest.json"))
    same = manifest.get("key") == key and manifest.get("code_sha256") == code_sha256()
    stored = _cached_object(os.path.join(run_dir, "metrics.json")) if same else {}
    if stored.get("key") == key:
        log.info("%s: cached (key %s)", run_dir.name, key[:12])
        return RunResult(
            run_dir=run_dir,
            key=key,
            metrics=MetricReport(**stored["metrics"]),
            grasp_success=bool(stored["grasp_success"]),
            cached=True,
        )
    manifest_path = run_dir / "manifest.json"
    metrics_path = run_dir / "metrics.json"
    model = load_hand(hand_path)
    demo = load_demo(demo_path)
    run_dir.mkdir(parents=True, exist_ok=True)
    manifest_path.unlink(missing_ok=True)  # unfinished until the new manifest lands
    plan, records, env, warnings = grasp_episode(model, demo, sim_cfg, run_dir.name)
    episode, mapped, frequency = env.episode, env.mapped, plan.frequency

    # -- residual training -------------------------------------------------------
    train_result = None
    if no_rl:
        zero = np.zeros(env.dim_act)
        policy_fn = lambda obs: zero
    else:
        t0 = time.perf_counter()
        train_result = train_residual_policy(env, tr_cfg, seed)
        policy_fn = lambda obs: train_result.policy.mean(train_result.obs_norm.normalize(obs))
        log.info(
            "%s: trained %d updates / %d env steps in %.1fs (early stop: %s)",
            run_dir.name, train_result.updates, train_result.env_steps,
            time.perf_counter() - t0, train_result.stopped_early,
        )

    # -- deterministic grasp rollout -----------------------------------------------
    states, executed, grasp_ok, diverged = _policy_rollout(env, policy_fn)
    if diverged:
        warnings.append("grasp rollout diverged; scoring the partial trajectory")

    # -- manipulation phase -----------------------------------------------------
    dropped = True
    carried = []
    if states and not diverged:
        t_grasp = model.wrist_pose(env.world.fkres)  # the world sits at states[-1]
        o_grasp = states[-1].object_pose
        try:
            mplan = plan_wrist(
                model, demo, t_grasp, o_grasp, executed[-1], episode.horizon, frequency
            )
            warnings += mplan.warnings
            track = track_manipulation(env.world, mplan)
            dropped, diverged, carried = track.dropped, track.diverged, track.records
            if diverged:
                warnings.append("manipulation tracking diverged; trajectory truncated")
        except WristPlanError as exc:
            warnings.append(str(exc))
            dropped = False  # nothing left to carry, so nothing was dropped

    # -- trajectory record and metrics ---------------------------------------------
    prefix = records[: episode.pregrasp_step]
    path = [*prefix, *states, *carried]
    trajectory = {
        "frequency": frequency,
        "poses": [_pose_row(demo.object_poses[0])] + [_pose_row(s.object_pose) for s in path],
        "contacts": [False] + [s.hand_contact for s in path],
        "prefix_len": 1 + len(prefix),
        "grasp_len": len(states),
        "manip_len": len(carried),
        "dropped": dropped,
        "diverged": diverged,
        "target_pos": episode.target_pose.pos.tolist(),
        "grasp_success": grasp_ok,
    }
    report = _score(trajectory, demo.fps, demo.object_rows, encode_semantics(demo.object_rows))

    # -- artifacts ---------------------------------------------------------------
    dump_json(plan.to_dict(), run_dir / "plan.json")
    dump_json(
        {
            "pregrasp_step": episode.pregrasp_step,
            "goal_step": episode.goal_step,
            "horizon": episode.horizon,
            "target_pose": _pose_row(episode.target_pose),
            "success_radius": SUCCESS_RADIUS,
            "contacts": [
                {"finger": c.finger, "point_obj": c.point_obj.tolist()} for c in mapped
            ],
            "warnings": episode.warnings,
        },
        run_dir / "episode.json",
    )
    if train_result is not None:
        with (run_dir / "training_log.jsonl").open("w") as fh:
            for row in train_result.log:
                fh.write(canonical_dumps(row) + "\n")
        dump_json(train_result.policy_dict(), run_dir / "policy.json")
    dump_json(trajectory, run_dir / "trajectory.json")
    dump_json(
        {
            "key": key,
            "seed": seed,
            "no_rl": no_rl,
            "grasp_success": grasp_ok,
            "metrics": report.to_dict(),
            "warnings": warnings,
        },
        metrics_path,
    )
    # the manifest goes last and whole: it marks the run directory as finished
    tmp = run_dir / "manifest.json.tmp"
    dump_json(
        {
            "key": key,
            "version": VERSION,
            "code_sha256": code_sha256(),
            "seed": seed,
            "no_rl": no_rl,
            "config": cfg,
            "hand": {"source": str(hand_path), "sha256": hand_sha, "name": model.name},
            "demo": {"source": str(demo_path), "sha256": demo_sha, "frames": demo.length},
        },
        tmp,
    )
    os.replace(tmp, manifest_path)
    log.info(
        "%s: grasp=%s follow=%s tsr_dist=%.3f ep=%.3f er=%.1f",
        run_dir.name, grasp_ok, report.sr_follow, report.tsr_score, report.ep, report.er_deg,
    )
    return RunResult(
        run_dir=run_dir,
        key=key,
        metrics=report,
        grasp_success=grasp_ok,
        cached=False,
    )


def load_run_file(run_dir, name: str):
    """The JSON of a run file; a missing or non-JSON file raises PipelineError naming it."""
    try:
        return load_json(os.path.join(run_dir, name))
    except FileNotFoundError:
        raise PipelineError(f"no finished run ({name} missing)") from None
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF
        raise PipelineError(f"{name} is not JSON ({exc})") from None


# the last recording `evaluate_run` scored: (sha256, fps, read-only (T, 7)
# object rows, labels), or None before the first
_last_recording: tuple[str, float, np.ndarray, tuple[int, ...]] | None = None


def _recording(digest: str, raw: bytes) -> tuple[float, np.ndarray, tuple[int, ...]]:
    """fps, object rows and labels of the recording `raw`, whose sha256 is
    `digest`; parsed and labelled unless it is the last recording scored."""
    global _last_recording
    memo = _last_recording  # read once: another thread may replace it
    if memo is None or memo[0] != digest:
        fps, _, recorded, _ = recorded_rows(json.loads(raw), hand=False)
        recorded.flags.writeable = False
        memo = _last_recording = (digest, fps, recorded, tuple(encode_semantics(recorded)))
    return memo[1:]


def evaluate_run(run_dir) -> tuple[MetricReport, bool]:
    """Recompute metrics from stored artifacts and verify them against metrics.json.

    The recording is read once and its hash checked on every call before it
    is parsed, so a tampered or stale run directory fails loudly instead of
    quietly re-reporting. Then only the fps and object rows that scoring reads
    are parsed and labelled, unless the last recording this process scored
    had the same sha256: evaluating many runs of one recording parses it once,
    and a process that evaluates one run gains nothing. A run file that is
    missing or not JSON raises PipelineError naming it; a field that is
    missing or malformed raises PipelineError naming the file and the field.
    """
    manifest = load_run_file(run_dir, "manifest.json")
    demo_path = _locate("demos", _field(manifest, "manifest.json", "demo.source", os.fspath))
    raw = read_bytes(demo_path)
    digest = sha256_bytes(raw)
    if digest != _field(manifest, "manifest.json", "demo.sha256"):
        raise PipelineError(
            f"recording at {demo_path} no longer matches the manifest hash"
        )
    fps, recorded, labels = _recording(digest, raw)
    traj = load_run_file(run_dir, "trajectory.json")
    report = _score(traj, fps, recorded, labels)
    stored = load_run_file(run_dir, "metrics.json")
    verified = canonical_dumps(_field(stored, "metrics.json", "metrics")) == canonical_dumps(report.to_dict())
    return report, verified


# -- multi-seed sweeps ---------------------------------------------------------------


def _run_one(args) -> dict:
    config, out_dir, seed, no_rl, force = args
    res = run_transfer(config, out_dir, seed=seed, no_rl=no_rl, force=force)
    out = res.summary()
    out["seed"] = seed
    out["no_rl"] = no_rl
    out["run_dir"] = str(res.run_dir)
    out["cached"] = res.cached
    return out


def repeated_seed(seeds: list[int]) -> int | None:
    """The first seed that occurs more than once, or None."""
    return next((s for s, n in Counter(seeds).items() if n > 1), None)


def run_sweep(
    config: dict,
    out_dir,
    seeds: list[int],
    no_rl: bool = False,
    force: bool = False,
    workers: int = 1,
) -> list[dict]:
    """One run per seed. A repeated seed would run twice, and two workers
    would then write the same run directory."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    repeated = repeated_seed(seeds)
    if repeated is not None:
        raise ValueError(f"seed {repeated} is given more than once")
    jobs = [(config, out_dir, s, no_rl, force) for s in seeds]
    if workers <= 1 or len(jobs) == 1:
        return [_run_one(j) for j in jobs]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_one, jobs))


def aggregate(rows: list[dict]) -> dict:
    """Corpus-level summary over per-run metric rows."""
    if not rows:
        raise PipelineError("nothing to aggregate")
    n = len(rows)
    return {
        "runs": n,
        "sr_grasp": float(np.mean([r["sr_grasp"] for r in rows])),
        "sr_follow": float(np.mean([r["sr_follow"] for r in rows])),
        "tsr_success": float(np.mean([r["tsr_success"] for r in rows])),
        "grasp_success": float(np.mean([r["grasp_success"] for r in rows])),
        "mean_ep": float(np.mean([r["ep"] for r in rows])),
        "mean_er_deg": float(np.mean([r["er_deg"] for r in rows])),
        "mean_tsr_score": float(np.mean([r["tsr_score"] for r in rows])),
    }
