"""Command line smoke test on the finished toy3 run of conftest.py."""
import argparse
import shutil

import pytest

from demo2dex import cli
from demo2dex.cli import _parse_seeds, build_parser, main
from demo2dex.jsonio import dump_json, load_json


def test_parse_seeds(tmp_path):
    assert _parse_seeds("0:3") == [0, 1, 2]
    assert _parse_seeds("0,3,7") == [0, 3, 7]
    for empty in ("5:2", "3:3", ","):
        with pytest.raises(argparse.ArgumentTypeError, match="no seed"):
            _parse_seeds(empty)
    # an empty sweep is a usage error, not a run of nothing
    with pytest.raises(SystemExit) as exc:
        main(["run", "lift_box_toy", "--seeds", "5:2", "--out", str(tmp_path)])
    assert exc.value.code != 0
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, seeds", [
    ([], [0]),
    (["--seed", "3"], [3]),  # the unique prefix of --seeds
    (["--seeds", "0:3"], [0, 1, 2]),
], ids=["default", "prefix", "range"])
def test_one_seed_option(argv, seeds):
    assert build_parser().parse_args(["run", "x", *argv]).seeds == seeds


def test_run_help_lists_one_seed_option(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    options = capsys.readouterr().out.split()
    assert "--seeds" in options
    assert "--seed" not in options


def test_repeated_seed_is_a_usage_error(tmp_path, capsys):
    # a repeated seed would run twice, be counted twice in the aggregate, and
    # with two workers have two processes write one run directory
    with pytest.raises(argparse.ArgumentTypeError, match="repeats seed 0"):
        _parse_seeds("0,0,1")
    with pytest.raises(argparse.ArgumentTypeError, match="repeats seed 3"):
        _parse_seeds("3,1,2,3,1")
    with pytest.raises(SystemExit) as exc:
        main(["run", "lift_box_toy", "--seeds", "2,0,2", "--workers", "2", "--out", str(tmp_path)])
    assert exc.value.code != 0
    assert "repeats seed 2" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_run_eval_report(toy3_config, toy3_run, tmp_path, capsys):
    cfg_path = tmp_path / "toy3.json"
    dump_json(toy3_config, cfg_path)
    manifest = toy3_run.run_dir / "manifest.json"
    stamp = manifest.stat().st_mtime_ns
    assert main(["run", str(cfg_path), "--out", str(toy3_run.run_dir.parent), "--no-rl"]) == 0
    assert manifest.stat().st_mtime_ns == stamp  # served from the cache, not rerun
    # the TSR figure of a run is a distance, and is labelled so
    assert "tsr_dist=1.000" in capsys.readouterr().out

    assert main(["eval", str(toy3_run.run_dir)]) == 0
    assert "tsr_dist=1.000" in capsys.readouterr().out
    tampered = tmp_path / toy3_run.run_dir.name
    shutil.copytree(toy3_run.run_dir, tampered)
    traj = load_json(tampered / "trajectory.json")
    traj["poses"][-1][0] += 0.05
    dump_json(traj, tampered / "trajectory.json")
    assert main(["eval", str(tampered)]) == 1

    out = tmp_path / "report.json"
    assert main(["report", str(toy3_run.run_dir), "--json", str(out)]) == 0
    assert load_json(out)["aggregate"]["runs"] == 1
    assert "tsr_dist" in capsys.readouterr().out


def test_sweep_prints_the_tsr_success_rate(toy3_run, monkeypatch, capsys):
    rows = [{**toy3_run.summary(), "seed": seed, "run_dir": "r"} for seed in (0, 1)]
    rows[1]["tsr_success"] = True
    monkeypatch.setattr(cli, "run_sweep", lambda *args, **kwargs: rows)
    assert main(["run", "lift_box_toy", "--seeds", "0:2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all("tsr_dist=1.000" in line for line in lines[:2])
    assert lines[2].endswith("tsr_success=0.50")


def test_eval_and_report_name_an_unfinished_run(toy3_run, tmp_path, capsys):
    # a run that died before its manifest: eval says so, checks the other
    # directories and fails; report names the directory without metrics
    unfinished = tmp_path / toy3_run.run_dir.name
    shutil.copytree(toy3_run.run_dir, unfinished)
    (unfinished / "manifest.json").unlink()
    assert main(["eval", str(unfinished), str(toy3_run.run_dir)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"{unfinished}: no finished run (manifest.json missing)"
    assert lines[1].startswith(f"{toy3_run.run_dir}: verified")

    (unfinished / "metrics.json").unlink()
    assert main(["report", str(toy3_run.run_dir), str(unfinished)]) == 1
    assert capsys.readouterr().err == f"{unfinished}: no finished run (metrics.json missing)\n"


@pytest.mark.parametrize("name, content, problem", [
    ("manifest.json", b"{", "manifest.json is not JSON ("),
    ("manifest.json", b"[]", "manifest.json has no field 'demo.source'"),
    ("trajectory.json", None, "no finished run (trajectory.json missing)"),
    ("trajectory.json", b"[1, 2", "trajectory.json is not JSON ("),
    ("trajectory.json", b"{}", "trajectory.json has no field 'poses'"),
    ("trajectory.json", b'{"poses": 3}', "trajectory.json field 'poses' is malformed ("),
    ("trajectory.json", b'{"poses": [[0, 0, 0, 1, 0, 0, 0]], "frequency": 0}',
     "trajectory.json field 'frequency' is malformed (0 is not a positive number)"),
    ("metrics.json", None, "no finished run (metrics.json missing)"),
    ("metrics.json", b"\xff\xfe{", "metrics.json is not JSON ("),
])
def test_eval_names_a_broken_run_file_and_goes_on(toy3_run, tmp_path, capsys, name, content, problem):
    broken = tmp_path / toy3_run.run_dir.name
    shutil.copytree(toy3_run.run_dir, broken)
    if content is None:
        (broken / name).unlink()
    else:
        (broken / name).write_bytes(content)
    assert main(["eval", str(broken), str(toy3_run.run_dir)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"{broken}: {problem}")
    assert lines[1].startswith(f"{toy3_run.run_dir}: verified")


@pytest.mark.parametrize("content, problem", [
    (b"[]", "metrics.json has no field 'metrics'"),
    (b"{}", "metrics.json has no field 'metrics'"),
    (b'{"metrics": []}', "metrics.json field 'metrics' is malformed ("),
], ids=["list", "empty", "metrics-list"])
def test_report_names_metrics_of_the_wrong_shape(toy3_run, tmp_path, capsys, content, problem):
    broken = tmp_path / toy3_run.run_dir.name
    shutil.copytree(toy3_run.run_dir, broken)
    (broken / "metrics.json").write_bytes(content)
    assert main(["report", str(toy3_run.run_dir), str(broken)]) == 1
    assert capsys.readouterr().err.startswith(f"{broken}: {problem}")


def test_report_names_metrics_that_are_not_json(toy3_run, tmp_path, capsys):
    broken = tmp_path / toy3_run.run_dir.name
    shutil.copytree(toy3_run.run_dir, broken)
    (broken / "metrics.json").write_text("not JSON")
    assert main(["report", str(toy3_run.run_dir), str(broken)]) == 1
    assert capsys.readouterr().err.startswith(f"{broken}: metrics.json is not JSON (")
