"""End-to-end transfer on toy3 without training: golden metrics, the run
cache, and verification of stored artifacts.

The run is the `toy3_run` fixture of conftest.py.
"""
import copy
import shutil

import pytest

from demo2dex.jsonio import dump_json, load_json
from demo2dex.pipeline import evaluate_run, run_transfer

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


def test_misspelled_config_key_raises(toy3_config, tmp_path):
    # each config section goes straight to the parameters of its owner
    config = copy.deepcopy(toy3_config)
    config["rescale"]["delta_mx"] = config["rescale"].pop("delta_max")
    with pytest.raises(TypeError, match="delta_mx"):
        run_transfer(config, tmp_path, no_rl=True)
