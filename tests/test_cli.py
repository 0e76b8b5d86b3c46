"""Command line smoke test on the finished toy3 run of conftest.py."""
import shutil

from demo2dex.cli import _parse_seeds, main
from demo2dex.jsonio import dump_json, load_json


def test_parse_seeds():
    assert _parse_seeds("0:3") == [0, 1, 2]
    assert _parse_seeds("0,3,7") == [0, 3, 7]


def test_run_eval_report(toy3_config, toy3_run, tmp_path):
    cfg_path = tmp_path / "toy3.json"
    dump_json(toy3_config, cfg_path)
    manifest = toy3_run.run_dir / "manifest.json"
    stamp = manifest.stat().st_mtime_ns
    assert main(["run", str(cfg_path), "--out", str(toy3_run.run_dir.parent), "--no-rl"]) == 0
    assert manifest.stat().st_mtime_ns == stamp  # served from the cache, not rerun

    assert main(["eval", str(toy3_run.run_dir)]) == 0
    tampered = tmp_path / toy3_run.run_dir.name
    shutil.copytree(toy3_run.run_dir, tampered)
    traj = load_json(tampered / "trajectory.json")
    traj["poses"][-1][0] += 0.05
    dump_json(traj, tampered / "trajectory.json")
    assert main(["eval", str(tampered)]) == 1

    out = tmp_path / "report.json"
    assert main(["report", str(toy3_run.run_dir), "--json", str(out)]) == 0
    assert load_json(out)["aggregate"]["runs"] == 1
