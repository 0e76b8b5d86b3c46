"""Which `demo2dex` functions the traced run wraps, and the per-layer metrics
derived from what the wrappers record.

Each layer metric and the end-to-end metric it should move are listed in
README.md. A traced round is one fresh run (phase "fresh"), then batches of
cached reruns (phase "cached") and of `evaluate_run` calls (phase "eval").
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

from tracer import Tracer

F = "fresh"


def install(tr: Tracer) -> None:
    """Wrap the public functions and methods of every layer."""
    from demo2dex import collision, hand, pipeline, ppo, retarget, simworld
    from demo2dex.adapt import GraspEnv

    frame_funs: list[float] = []

    def on_minimize(args, kwargs, res, dur):
        tr.extra[(tr.phase, "retarget.iters")] += int(res.nit)
        frame_funs.append(float(res.fun))

    def on_frame(args, kwargs, res, dur):
        # the first solve warm-starts; every later one is a restart, and it
        # wins when it lowers the best objective so far
        best = frame_funs[0]
        for f in frame_funs[1:]:
            tr.extra[(tr.phase, "retarget.restarts")] += 1
            if f < best:
                tr.extra[(tr.phase, "retarget.restart_wins")] += 1
                best = f
        frame_funs.clear()

    def on_sim_step(args, kwargs, state, dur):
        kind = "contact" if state.hand_contact else "free"
        tr.extra[(tr.phase, f"simworld.{kind}_steps")] += 1
        tr.extra[(tr.phase, f"simworld.{kind}_s")] += dur
        tr.extra[(tr.phase, "simworld.hand_contacts")] += sum(
            1 for c in state.contacts if c.body != "ground"
        )

    def on_env_built(args, kwargs, out, dur):
        tr.marks.setdefault("env_built", perf_counter())
        if tr.env_dims is None:
            tr.env_dims = (args[0].dim_obs, args[0].dim_act)

    def on_env_reset(args, kwargs, out, dur):
        # the first reset outside training and outside the constructor's probe
        # starts the deterministic grasp rollout, which ends the training stage
        if "env_built" in tr.marks and not tr._open["train_residual_policy"]:
            tr.marks.setdefault("rollout_start", perf_counter() - dur)

    def on_train(args, kwargs, res, dur):
        tr.extra[(tr.phase, "ppo.updates")] += res.updates

    tr.patch(pipeline, "resolve_hand", "resolve_hand")
    tr.patch(pipeline, "resolve_demo", "resolve_demo")
    tr.patch(pipeline, "retarget_sequence", "retarget_sequence")
    tr.patch(retarget, "retarget_frame", "retarget_frame", on_frame)
    tr.patch(retarget, "minimize", "minimize", on_minimize)
    tr.patch(hand.HandModel, "fk", "HandModel.fk")
    tr.patch(hand.HandModel, "point_jacobian", "HandModel.point_jacobian")
    tr.patch(hand.HandModel, "palm_normal_jacobian", "HandModel.palm_normal_jacobian")
    tr.patch(pipeline, "fit_smooth_trajectory", "fit_smooth_trajectory")
    tr.patch(pipeline, "to_control_sequence", "to_control_sequence")
    tr.patch(pipeline, "replay", "replay")
    tr.patch(simworld.SimWorld, "step", "SimWorld.step", on_sim_step)
    tr.patch(simworld.SimWorld, "collision_query", "SimWorld.collision_query")
    tr.patch(simworld, "segment_piece_signed", "segment_piece_signed")
    tr.patch(collision, "gjk_segment_convex", "gjk_segment_convex")
    tr.patch(GraspEnv, "__init__", "GraspEnv.__init__", on_env_built)
    tr.patch(GraspEnv, "reset", "GraspEnv.reset", on_env_reset)
    tr.patch(GraspEnv, "step", "GraspEnv.step")
    tr.patch(pipeline, "train_residual_policy", "train_residual_policy", on_train)
    tr.patch(ppo.MLP, "forward", "MLP.forward")
    tr.patch(ppo.MLP, "backward", "MLP.backward")
    tr.patch(pipeline, "plan_wrist", "plan_wrist")
    tr.patch(pipeline, "track_manipulation", "track_manipulation")
    for name in ("align_reference", "ep_er", "sr_grasp", "resample_to_frames",
                 "encode_semantics", "tsr"):
        tr.patch(pipeline, name, f"metrics.{name}")
    for name in ("dump_json", "canonical_dumps", "load_json", "sha256_file", "sha256_of"):
        tr.patch(pipeline, name, name)


def mlp_probe_us(config: dict, dim_obs: int, dim_act: int, reps: int = 200) -> float:
    """Fastest µs of one policy-MLP forward plus backward on a training minibatch.

    The shapes are the ones the config trains with, so the figure exists on
    every workload, including one that trains nothing.
    """
    from demo2dex.ppo import MLP

    rl = config.get("rl", {})
    hidden = list(rl.get("hidden", [64, 64]))
    batch = int(rl.get("batch_size", 64))
    rng = np.random.default_rng(0)
    net = MLP([dim_obs, *hidden, dim_act], rng)
    x = rng.normal(size=(batch, dim_obs))
    dy = rng.normal(size=(batch, dim_act))
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        _, cache = net.forward(x)
        net.backward(cache, dy)
        times.append(perf_counter() - t0)
    return 1e6 * min(times)


def derive(tr: Tracer, n_cached: int, n_eval: int) -> dict[str, float]:
    """Per-layer figures of one traced round."""
    ex = lambda phase, key: tr.extra[(phase, key)]  # noqa: E731
    m: dict[str, float] = {}

    ret_s = tr.total(F, "retarget_sequence")
    frames = tr.calls(F, "retarget_frame")
    restarts = ex(F, "retarget.restarts")
    m["retarget.s"] = ret_s
    m["retarget.frames_per_s"] = frames / ret_s if ret_s else 0.0
    m["retarget.solves"] = tr.calls(F, "minimize")
    m["retarget.iters"] = int(ex(F, "retarget.iters"))
    m["retarget.restart_win_ratio"] = ex(F, "retarget.restart_wins") / restarts if restarts else 0.0

    m["hand.fk_calls"] = tr.calls(F, "HandModel.fk")
    m["hand.fk_us"] = tr.per_call_us(F, "HandModel.fk")
    m["hand.point_jacobian_calls"] = tr.calls(F, "HandModel.point_jacobian")
    m["hand.point_jacobian_us"] = tr.per_call_us(F, "HandModel.point_jacobian")
    m["hand.palm_normal_jacobian_us"] = tr.per_call_us(F, "HandModel.palm_normal_jacobian")

    m["spline.controls_s"] = tr.total(F, "fit_smooth_trajectory") + tr.total(F, "to_control_sequence")

    steps = tr.calls(F, "SimWorld.step")
    c_steps, f_steps = ex(F, "simworld.contact_steps"), ex(F, "simworld.free_steps")
    m["simworld.steps"] = steps
    m["simworld.step_contact_us"] = 1e6 * ex(F, "simworld.contact_s") / c_steps if c_steps else 0.0
    m["simworld.step_free_us"] = 1e6 * ex(F, "simworld.free_s") / f_steps if f_steps else 0.0
    m["simworld.hand_contacts_per_step"] = ex(F, "simworld.hand_contacts") / steps if steps else 0.0
    m["simworld.replay_s"] = tr.total(F, "replay")

    m["collision.gjk_calls"] = tr.calls(F, "gjk_segment_convex")
    m["collision.gjk_us"] = tr.per_call_us(F, "gjk_segment_convex")

    env_steps = tr.calls(F, "GraspEnv.step")
    env_s = tr.total(F, "GraspEnv.step")
    inner = sum(tr.direct[(F, "GraspEnv.step", x)][1] for x in ("SimWorld.step", "SimWorld.collision_query"))
    m["adapt.env_steps"] = env_steps
    m["adapt.env_step_us"] = 1e6 * env_s / env_steps if env_steps else 0.0
    m["adapt.env_self_us"] = 1e6 * (env_s - inner) / env_steps if env_steps else 0.0
    m["adapt.fk_per_env_step"] = (
        tr.nested[(F, "GraspEnv.step", "HandModel.fk")][0] / env_steps if env_steps else 0.0
    )

    train_s = tr.marks["rollout_start"] - tr.marks["env_built"]
    train_steps = tr.nested[(F, "train_residual_policy", "GraspEnv.step")][0]
    m["ppo.train_s"] = train_s
    m["ppo.env_steps"] = train_steps
    m["ppo.env_steps_per_s"] = train_steps / train_s
    m["ppo.updates"] = int(ex(F, "ppo.updates"))
    m["ppo.mlp_calls"] = tr.calls(F, "MLP.forward") + tr.calls(F, "MLP.backward")

    m["wrist.plan_s"] = tr.total(F, "plan_wrist")
    m["wrist.track_s"] = tr.total(F, "track_manipulation")
    m["wrist.track_steps"] = tr.nested[(F, "track_manipulation", "SimWorld.step")][0]

    score = sum(tr.total("eval", f"metrics.{x}") for x in
                ("align_reference", "ep_er", "sr_grasp", "resample_to_frames", "encode_semantics", "tsr"))
    m["metrics.score_s"] = score / n_eval

    m["jsonio.write_s"] = tr.total(F, "dump_json") + tr.total(F, "canonical_dumps")
    reads = tr.total("cached", "load_json") + tr.total("eval", "load_json")
    hashes = sum(tr.total(p, x) for p in ("cached", "eval") for x in ("sha256_file", "sha256_of"))
    m["jsonio.read_s"] = reads / (n_cached + n_eval)
    m["jsonio.hash_s"] = hashes / (n_cached + n_eval)
    return m
