"""End-to-end transfer on toy3 without training: golden metrics, the run
cache, and verification of stored artifacts.

The run is the `toy3_run` fixture of conftest.py.
"""
import copy
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from demo2dex import pipeline
from demo2dex.demo import recorded_rows
from demo2dex.hand import HandModelError
from demo2dex.jsonio import dump_json, load_json
from demo2dex.metrics import encode_semantics
from demo2dex.pipeline import evaluate_run, run_sweep, run_transfer
from demo2dex.wrist import WristPlanError

# metrics of the toy3 --no-rl run, recorded from the implementation this
# test was written against; any change to them is a change of behaviour
GOLDEN = {
    "ep": 0.04730032917939871,
    "er_deg": 0.0,
    "sr_grasp": False,
    "sr_follow": False,
    "tsr_score": 1.0,
    "tsr_success": False,
    "semantics_executed": [],
    "semantics_recorded": [1, 2],
}
GOLDEN_TOL = 1e-9


def assert_golden(metrics: dict):
    assert metrics.keys() == GOLDEN.keys()
    for name, want in GOLDEN.items():
        if isinstance(want, float):
            assert abs(metrics[name] - want) <= GOLDEN_TOL, name
        else:
            assert metrics[name] == want, name


def test_no_rl_run_matches_golden_metrics(toy3_run):
    assert not toy3_run.cached
    assert not toy3_run.grasp_success
    assert_golden(toy3_run.metrics.to_dict())


def test_rerun_is_a_cache_hit(toy3_config, toy3_run):
    again = run_transfer(toy3_config, toy3_run.run_dir.parent, no_rl=True)
    assert again.cached
    assert again.key == toy3_run.key
    assert again.metrics.to_dict() == toy3_run.metrics.to_dict()
    assert again.grasp_success == toy3_run.grasp_success


def test_evaluate_run_verifies_and_catches_tampering(toy3_run, tmp_path):
    report, verified = evaluate_run(toy3_run.run_dir)
    assert verified
    assert report.to_dict() == toy3_run.metrics.to_dict()

    tampered = tmp_path / toy3_run.run_dir.name
    shutil.copytree(toy3_run.run_dir, tampered)
    traj = load_json(tampered / "trajectory.json")
    traj["poses"][len(traj["poses"]) // 2][0] += 0.05
    dump_json(traj, tampered / "trajectory.json")
    _, verified = evaluate_run(tampered)
    assert not verified


def test_stale_metrics_behind_a_matching_manifest_are_recomputed(toy3_config, toy3_run, tmp_path):
    # a run that died after writing its manifest leaves another run's
    # metrics.json behind; the manifest key alone must not serve them
    stale_dir = tmp_path / toy3_run.run_dir.name
    shutil.copytree(toy3_run.run_dir, stale_dir)
    stored = load_json(stale_dir / "metrics.json")
    stored["key"] = "0" * 64
    stored["metrics"]["ep"] = 123.0
    dump_json(stored, stale_dir / "metrics.json")

    res = run_transfer(toy3_config, tmp_path, no_rl=True)
    assert not res.cached
    assert_golden(res.metrics.to_dict())
    assert load_json(stale_dir / "metrics.json")["key"] == res.key
    assert sorted(p.name for p in stale_dir.iterdir()) == sorted(
        p.name for p in toy3_run.run_dir.iterdir()
    )


def test_unreadable_manifest_is_a_cache_miss(toy3_config, toy3_run, tmp_path):
    # a manifest that is not JSON, or not a JSON object, marks no finished
    # run: the rerun recomputes and leaves a valid manifest behind
    run_dir = tmp_path / toy3_run.run_dir.name
    shutil.copytree(toy3_run.run_dir, run_dir)
    for content in (b"{", b"[]"):
        (run_dir / "manifest.json").write_bytes(content)
        res = run_transfer(toy3_config, tmp_path, no_rl=True)
        assert not res.cached
        assert load_json(run_dir / "manifest.json")["key"] == res.key == toy3_run.key
    assert run_transfer(toy3_config, tmp_path, no_rl=True).cached


def no_retarget(*args, **kwargs):
    raise AssertionError("retargeting ran before the config was checked")


def test_misspelled_config_key_raises(toy3_config, tmp_path, monkeypatch):
    # the top-level keys, and each config section against the fields of its
    # owner, are checked before any stage runs, so no misspelled key costs a
    # retargeting pass or silently falls back to a default
    monkeypatch.setattr(pipeline, "retarget_sequence", no_retarget)
    for section, key in [("sim", "friction_mu"), ("rl", "total_steps")]:
        config = copy.deepcopy(toy3_config)
        typo = key[:-1]
        config[section][typo] = config[section].pop(key)
        with pytest.raises(TypeError, match=typo):
            run_transfer(config, tmp_path, no_rl=True)
    config = copy.deepcopy(toy3_config)
    config["simm"] = config.pop("sim")
    with pytest.raises(TypeError, match="simm"):
        run_transfer(config, tmp_path, no_rl=True)


def test_fixed_base_hand_fails_before_retargeting(toy3_config, tmp_path, monkeypatch):
    # a hand file that is not floating-base fails at load, not at the wrist
    # carry after retargeting, replay and training
    monkeypatch.setattr(pipeline, "retarget_sequence", no_retarget)
    data = load_json(pipeline.asset_path("hands", "toy3.json"))
    data["floating_base"] = False
    hand = tmp_path / "toy3_fixed.json"
    dump_json(data, hand)
    with pytest.raises(HandModelError, match="floating_base"):
        run_transfer({**toy3_config, "hand": str(hand)}, tmp_path, no_rl=True)


def test_negative_seed_fails_before_retargeting(toy3_config, tmp_path, monkeypatch):
    # a seed that training cannot take fails before retargeting and replay
    monkeypatch.setattr(pipeline, "retarget_sequence", no_retarget)
    with pytest.raises(ValueError, match="seed"):
        run_transfer(toy3_config, tmp_path, seed=-1)


@pytest.mark.parametrize("section, key, value", [
    (None, "reward", {"epsilon": 0.06}),
    (None, "control_frequency", 120.0),
    (None, "metrics", {"hold_steps": 60}),
    ("sim", "substeps", 4),
    ("sim", "kp", [150.0] * 9),
    ("rl", "hidden", [64, 64]),
    ("sim", "energy_limit", 1e3),
    (None, "seed", 0),
])
def test_removed_config_key_raises(toy3_config, tmp_path, monkeypatch, section, key, value):
    # a config written for the settings that are now module constants names
    # the first key it may no longer set, before any stage runs
    monkeypatch.setattr(pipeline, "retarget_sequence", no_retarget)
    config = copy.deepcopy(toy3_config)
    (config if section is None else config[section])[key] = value
    with pytest.raises(TypeError, match=key):
        run_transfer(config, tmp_path, no_rl=True)


@pytest.mark.parametrize("total_steps", ["600", 0, -5, 2.5, None, True])
def test_bad_training_budget_fails_before_retargeting(toy3_config, tmp_path, monkeypatch, total_steps):
    # a budget that is not a positive int would fail inside training, or
    # train nothing, after retargeting and replay
    monkeypatch.setattr(pipeline, "retarget_sequence", no_retarget)
    config = copy.deepcopy(toy3_config)
    config["rl"]["total_steps"] = total_steps
    with pytest.raises(ValueError, match="total_steps"):
        run_transfer(config, tmp_path, no_rl=True)


def test_parallel_sweep_matches_the_serial_run(toy3_config, toy3_run, tmp_path):
    rows = run_sweep(toy3_config, tmp_path, [0, 1], no_rl=True, workers=2)
    assert [(r["seed"], r["cached"]) for r in rows] == [(0, False), (1, False)]
    seed0 = Path(rows[0]["run_dir"])
    assert sorted(p.name for p in seed0.iterdir()) == sorted(p.name for p in toy3_run.run_dir.iterdir())
    for p in seed0.iterdir():
        assert p.read_bytes() == (toy3_run.run_dir / p.name).read_bytes(), p.name


@pytest.mark.parametrize("seeds, workers, problem", [
    ([0, 1, 0], 1, "seed 0 is given more than once"),
    ([2, 1, 1], 2, "seed 1 is given more than once"),
    ([0, 1], 0, "workers must be at least 1, got 0"),
    ([0], -2, "workers must be at least 1, got -2"),
])
def test_sweep_rejects_repeated_seeds_and_no_workers(toy3_config, tmp_path, monkeypatch, seeds, workers, problem):
    monkeypatch.setattr(pipeline, "retarget_sequence", no_retarget)
    with pytest.raises(ValueError, match=problem):
        run_sweep(toy3_config, tmp_path, seeds, no_rl=True, workers=workers)
    assert not any(tmp_path.iterdir())


def test_wrist_plan_failure_finishes_the_run(toy3_config, tmp_path, monkeypatch):
    def no_plan(*args):
        raise WristPlanError("no carry for this grasp")

    monkeypatch.setattr(pipeline, "plan_wrist", no_plan)
    res = run_transfer(toy3_config, tmp_path, no_rl=True)
    assert not res.cached
    assert "no carry for this grasp" in load_json(res.run_dir / "metrics.json")["warnings"]
    traj = load_json(res.run_dir / "trajectory.json")
    assert traj["dropped"] is False
    assert traj["manip_len"] == 0
    assert evaluate_run(res.run_dir)[1]


def test_code_change_recomputes_the_run(toy3_config, toy3_run, tmp_path, monkeypatch):
    run_dir = tmp_path / toy3_run.run_dir.name
    shutil.copytree(toy3_run.run_dir, run_dir)
    assert run_transfer(toy3_config, tmp_path, no_rl=True).cached
    monkeypatch.setattr(pipeline, "code_sha256", lambda: "0" * 64)
    res = run_transfer(toy3_config, tmp_path, no_rl=True)
    assert not res.cached
    assert load_json(run_dir / "manifest.json")["code_sha256"] == "0" * 64
    # the code hash lives in the manifest only: the metrics bytes stay the same
    assert (run_dir / "metrics.json").read_bytes() == (toy3_run.run_dir / "metrics.json").read_bytes()
    assert run_transfer(toy3_config, tmp_path, no_rl=True).cached


# sha256 of the artifacts of a 600-step PPO run on toy3, seed 0, recorded
# before the contact loop moved from numpy arrays to floats (metrics.json:
# before scoring moved from one Pose6 per row to pose arrays); any change to
# them is a change of behaviour of the simulator, the environment, PPO or the
# metrics
TRAINED = {
    "trajectory.json": "272fd85f13c20960da4b1677d8e9c6f8133061cba37dcda16ce5939c596b3500",
    "training_log.jsonl": "a54a7aa4470d4b605c484be05d8d4efcab6f0f5acf63e69b9ef474fe94396cd9",
    "policy.json": "25f7c618a9b7dbcc5633f2759999fc507b4c8797f465da8c30c3b1640c01ef9e",
    "metrics.json": "47fa5633be4d263054211c15affce09158b9c9cf69b2b9d95e02b53f87c1585d",
}


def test_short_training_run_is_pinned(toy3_config, tmp_path, monkeypatch):
    # the recording goes by a relative path, so the run key that metrics.json
    # stores does not depend on where the test runs
    shutil.copy(toy3_config["demo"], tmp_path / "recording.json")
    monkeypatch.chdir(tmp_path)
    config = copy.deepcopy(toy3_config)
    config["demo"] = "recording.json"
    config["rl"]["total_steps"] = 600
    res = run_transfer(config, tmp_path, seed=0)
    got = {name: hashlib.sha256((res.run_dir / name).read_bytes()).hexdigest() for name in TRAINED}
    assert got == TRAINED


# sha256 of the artifacts of a --no-rl run on allegro16, seed 0, on every 12th
# recorded frame, recorded before the small products moved from `@` to
# ndarray.dot; allegro16 restarts a solve on every frame and touches the box
# during the replay, which toy3 does not
CROSS_HAND = {
    "plan.json": "3cd36b7cd052b80e7e7829a44a1061e91651cea0abd24bb73c905bea48b38fc8",
    "episode.json": "286171efe3fecdac9c35c56326db12d9aa40ad495b181168aaa8b647876c1087",
    "trajectory.json": "602e1457656f4a6219a9d57ed2cb38f4cc92725f41673291c97de93787d9275b",
    "metrics.json": "b56ca21492c2c1c7372562e4a0a2c7aff99e624e6b5b8552aba47367728fa0c0",
}


def test_cross_hand_run_is_pinned(tmp_path, monkeypatch):
    recording = json.loads(pipeline.asset_path("demos", "lift_box.json").read_text())
    recording["frames"] = recording["frames"][::12]
    recording["fps"] = recording["fps"] / 12
    (tmp_path / "recording.json").write_text(json.dumps(recording))
    # relative inputs keep the run key that metrics.json stores independent
    # of where the test runs
    monkeypatch.chdir(tmp_path)
    config = pipeline.resolve_config("lift_box_toy")
    config["hand"] = "allegro16"
    config["demo"] = "recording.json"
    res = run_transfer(config, tmp_path, seed=0, no_rl=True)
    got = {name: hashlib.sha256((res.run_dir / name).read_bytes()).hexdigest() for name in CROSS_HAND}
    assert got == CROSS_HAND


@pytest.mark.parametrize("row, problem", [
    ([0.4, 0.0, 0.03, 1.0, 0.0, 0.0], "is not 7 finite numbers"),
    ([0.4, 0.0, 0.03, 1.0, 0.0, 0.0, "x"], "is not 7 finite numbers"),
    ([0.4, 0.0, float("nan"), 1.0, 0.0, 0.0, 0.0], "is not 7 finite numbers"),
    ([0.4, 0.0, 0.03, 0.0, 0.0, 0.0, 0.0], "has a quaternion of norm below 1e-8"),
])
def test_malformed_trajectory_row_is_named(toy3_run, tmp_path, row, problem):
    # a bad row fails loudly with its index, rather than as NaN metrics or a
    # bare error from the quaternion
    run_dir = tmp_path / toy3_run.run_dir.name
    shutil.copytree(toy3_run.run_dir, run_dir)
    traj = load_json(run_dir / "trajectory.json")
    traj["poses"][7] = row
    traj["poses"][9] = [0.0] * 7
    (run_dir / "trajectory.json").write_text(json.dumps(traj))  # NaN needs the lenient writer
    with pytest.raises(pipeline.PipelineError, match=f"trajectory pose row 7 {problem}"):
        evaluate_run(run_dir)


COLD_PATHS = """
import json, sys

import numpy as np

def check(step):
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert not loaded, f"{step} loaded {loaded[:3]}"

import demo2dex
check("import demo2dex")
from demo2dex import cli, pipeline, retarget
cfg = pipeline.resolve_config("lift_box_toy")
model, _ = pipeline.resolve_hand(cfg["hand"])
demo, _ = pipeline.resolve_demo(cfg["demo"])
check("resolving the bundled task")
config, out_dir, run_dir = json.loads(sys.argv[1])
report, verified = pipeline.evaluate_run(run_dir)
assert verified
check("evaluate_run")
assert pipeline.run_transfer(config, out_dir, no_rl=True).cached
check("a cached run_transfer")
assert cli.main(["report", run_dir]) == 0
check("transfer report")
res = retarget.retarget_frame(model, demo.hand[0], model.clamp(np.zeros(model.dof)))
assert res.converged and "scipy.optimize._lbfgsb" in sys.modules
assert not {"scipy.optimize", "scipy.linalg"} & set(sys.modules)
"""


def test_cold_paths_load_no_scipy(toy3_config, toy3_run, tmp_path):
    # a process that scores, reports or re-serves finished runs never pays
    # for scipy; its first retarget loads the L-BFGS-B kernel, not
    # `scipy.optimize`, and still solves
    run_dir = tmp_path / toy3_run.run_dir.name
    shutil.copytree(toy3_run.run_dir, run_dir)
    src = str(Path(pipeline.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    arg = json.dumps([toy3_config, str(tmp_path), str(run_dir)])
    subprocess.run([sys.executable, "-c", COLD_PATHS, arg], env=env, check=True, stdout=subprocess.DEVNULL)


def refuse(*args, **kwargs):
    raise AssertionError("a read path built a hand model or a DemoSequence")


def test_evaluate_run_builds_no_recording(toy3_run, monkeypatch):
    # scoring reads the fps and the object rows straight from the recording
    monkeypatch.setattr(pipeline, "resolve_demo", refuse)
    monkeypatch.setattr(pipeline, "load_demo", refuse)
    monkeypatch.setattr("demo2dex.demo.load_demo", refuse)
    report, verified = evaluate_run(toy3_run.run_dir)
    assert verified
    assert report.to_dict() == toy3_run.metrics.to_dict()


def test_cache_hit_loads_neither_input(toy3_config, toy3_run, monkeypatch):
    # a hit hashes the hand and the recording and parses neither
    for name in ("resolve_hand", "resolve_demo", "load_hand", "load_demo"):
        monkeypatch.setattr(pipeline, name, refuse)
    assert run_transfer(toy3_config, toy3_run.run_dir.parent, no_rl=True).cached


def test_changed_recording_fails_before_it_is_parsed(toy3_config, toy3_run, tmp_path):
    run_dir = tmp_path / toy3_run.run_dir.name
    shutil.copytree(toy3_run.run_dir, run_dir)
    recording = tmp_path / "recording.json"
    shutil.copy(toy3_config["demo"], recording)
    manifest = load_json(run_dir / "manifest.json")
    manifest["demo"]["source"] = str(recording)
    dump_json(manifest, run_dir / "manifest.json")
    assert evaluate_run(run_dir)[1]
    recording.write_bytes(b"\x00 not JSON {")
    with pytest.raises(pipeline.PipelineError, match="no longer matches the manifest hash"):
        evaluate_run(run_dir)


def reparsed(*args, **kwargs):
    raise AssertionError("the recording was parsed again")


def test_second_evaluation_parses_the_recording_once(toy3_config, toy3_run, monkeypatch):
    # the memo holds the last recording's rows and labels under its sha256;
    # the hash is still checked, and only the executed labels are computed
    evaluate_run(toy3_run.run_dir)
    raw = Path(toy3_config["demo"]).read_bytes()
    loads, labelled, hashed = json.loads, [], []
    monkeypatch.setattr(json, "loads", lambda s, *a, **k: reparsed() if s == raw else loads(s, *a, **k))
    monkeypatch.setattr(pipeline, "recorded_rows", reparsed)
    label = pipeline.encode_semantics
    monkeypatch.setattr(pipeline, "encode_semantics", lambda poses: labelled.append(len(poses)) or label(poses))
    digest = pipeline.sha256_bytes
    monkeypatch.setattr(pipeline, "sha256_bytes", lambda data: hashed.append(len(data)) or digest(data))
    report, verified = evaluate_run(toy3_run.run_dir)
    assert verified
    assert report.to_dict() == toy3_run.metrics.to_dict()
    assert hashed == [len(raw)]
    assert len(labelled) == 1  # the executed poses only


def test_a_changed_recording_is_scored_against_its_own_rows(toy3_config, toy3_run, tmp_path):
    # a run of another recording, one object row moved 1 cm, is scored
    # against that recording, not the one the memo held before it
    first, verified = evaluate_run(toy3_run.run_dir)
    assert verified
    run_dir = tmp_path / toy3_run.run_dir.name
    shutil.copytree(toy3_run.run_dir, run_dir)
    recording = load_json(toy3_config["demo"])
    recording["frames"][0]["object"]["pos"][2] += 0.01
    moved = tmp_path / "moved.json"
    dump_json(recording, moved)
    manifest = load_json(run_dir / "manifest.json")
    manifest["demo"].update(source=str(moved), sha256=pipeline.sha256_file(moved))
    dump_json(manifest, run_dir / "manifest.json")

    report, verified = evaluate_run(run_dir)
    fps, _, rows, _ = recorded_rows(recording, hand=False)
    want = pipeline._score(load_json(run_dir / "trajectory.json"), fps, rows, encode_semantics(rows))
    assert report.to_dict() == want.to_dict()
    assert report.ep != first.ep and not verified
    again, verified = evaluate_run(toy3_run.run_dir)
    assert verified and again.to_dict() == first.to_dict()


def test_reports_share_no_recorded_labels(toy3_run):
    report, _ = evaluate_run(toy3_run.run_dir)
    report.semantics_recorded.append(99)
    again, verified = evaluate_run(toy3_run.run_dir)
    assert verified
    assert again.semantics_recorded == GOLDEN["semantics_recorded"]


def test_memo_rows_are_read_only(toy3_run):
    evaluate_run(toy3_run.run_dir)
    rows = pipeline._last_recording[2]
    with pytest.raises(ValueError, match="read-only"):
        rows[0, 0] = 1.0


def test_object_rows_are_the_pose_rows_bit_for_bit(lift_demo):
    want = np.array([pipeline._pose_row(p) for p in lift_demo.object_poses])
    assert lift_demo.object_rows.shape == want.shape
    assert lift_demo.object_rows.tobytes() == want.tobytes()


def test_evaluate_run_needs_a_finished_run(tmp_path):
    with pytest.raises(pipeline.PipelineError, match=r"no finished run \(manifest.json missing\)"):
        evaluate_run(tmp_path)


def recorded_trajectory(demo, poses, dropped):
    """A trajectory record at the recording's own rate, the episode ending at
    frame 210, with the object at `poses`."""
    return {
        "frequency": demo.fps,
        "poses": [pipeline._pose_row(p) for p in poses],
        "prefix_len": 1,
        "grasp_len": 210,
        "manip_len": len(poses) - 211,
        "dropped": dropped,
        "diverged": False,
        "target_pos": demo.object_poses[210].pos.tolist(),
    }


def score(traj, demo):
    return pipeline._score(traj, demo.fps, demo.object_rows, encode_semantics(demo.object_rows))


def test_follow_requires_the_object_held(lift_demo):
    # the box follows the recording: held at the goal, and followed unless dropped
    traj = recorded_trajectory(lift_demo, lift_demo.object_poses, dropped=False)
    report = score(traj, lift_demo)
    assert report.sr_grasp and report.sr_follow
    traj["dropped"] = True
    assert not score(traj, lift_demo).sr_follow
    # the box never leaves the table: nothing was dropped, and nothing followed
    resting = [lift_demo.object_poses[0]] * lift_demo.length
    traj = recorded_trajectory(lift_demo, resting, dropped=False)
    report = score(traj, lift_demo)
    assert not report.sr_grasp and not report.sr_follow
