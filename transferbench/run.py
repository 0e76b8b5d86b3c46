"""Transfer benchmark: drives `demo2dex` from outside, through its public functions.

    python3 transferbench/run.py --workload rl_toy3 --seed 0 --seconds 45 --trace 0

One run is one process and one workload. It repeats whole rounds until
`--seconds` have passed, and at least MIN_ROUNDS. A round is one
`run_transfer` into an empty directory, then small batches of cached reruns
of that run and of `evaluate_run` calls on it, with cold starts of fresh
interpreters (set-up) in between; every output is checked (see checks.py).
With `--trace 1` untraced and traced rounds alternate, and the per-layer
figures of a traced round are reported with the tracing overhead against the
untraced run time.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics (end-to-end with --trace 0, per-layer with --trace 1).
"""
from __future__ import annotations

import os

# single-threaded BLAS: two cores are shared with the interpreter and the
# set-up children, and threaded small matrix products only add noise
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = Path(".transferbench")  # relative to ROOT, so artifacts carry no checkout path

# Every workload starts from the bundled task: config lift_box_toy, recording
# lift_box. The seed moves the whole recording (hand and object) on the table
# by up to SHIFT_M in x and y, and is the training seed.
SHIFT_M = 0.05
WORKLOADS = {
    # residual PPO on toy3 with a fixed env-step budget: training dominates
    "rl_toy3": {"hand": "toy3", "no_rl": False, "rl_steps": 600, "stride": 4},
    # cross-hand retargeting onto allegro16 without RL: retargeting dominates;
    # every 12th recorded frame keeps one fresh run near eight seconds
    "xhand_allegro16": {"hand": "allegro16", "no_rl": True, "rl_steps": None, "stride": 12},
}
# A round is one fresh run, then BATCHES x (a batch of cached reruns, a batch
# of evaluations), with a cold start after every BATCHES // COLD_STARTS of
# them. Every end-to-end figure is the median of the run's samples (for a
# rate, calls over wall time of each batch). The host slows by up to 1.7x, in
# bursts of tens of milliseconds inside phases of seconds to minutes; the
# fastest sample of a run depends on whether the run happened on a gap
# between bursts, and moved more from run to run than the median. Batches of
# an even size still see a call that is slow every other time.
BATCHES = 20
CACHED_PER_BATCH = 10
EVAL_PER_BATCH = 2
COLD_STARTS = 4
N_CACHED, N_EVAL = BATCHES * CACHED_PER_BATCH, BATCHES * EVAL_PER_BATCH  # per round
MIN_ROUNDS = 2  # artifacts are compared between the fresh runs of one process
EXACT_UNITS = ("count", "bytes", "ratio")  # per-layer figures that must repeat exactly

SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import demo2dex
from demo2dex.pipeline import resolve_config, resolve_demo, resolve_hand
t1 = time.perf_counter()
cfg = resolve_config(sys.argv[2])
resolve_hand(cfg["hand"])
resolve_demo(cfg["demo"])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1}))
"""


def declared_units(section: str) -> dict[str, str]:
    """Metric names and units of one section of BENCHMARK.json, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    p.add_argument("--seconds", type=float, default=45.0, help="minimum measuring time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def make_inputs(workload: str, seed: int, work: Path):
    """Config, recording and hand description of one workload and seed."""
    import numpy as np
    from demo2dex.pipeline import resolve_config
    from demo2dex.synthetic import asset_path

    spec = WORKLOADS[workload]
    recording = json.loads(asset_path("demos", "lift_box.json").read_text())
    stride = spec["stride"]
    recording["frames"] = recording["frames"][::stride]
    recording["fps"] = recording["fps"] / stride
    dx, dy = np.random.default_rng(seed).uniform(-SHIFT_M, SHIFT_M, size=2)
    for frame in recording["frames"]:
        for i in range(5):  # five fingertips; the palm normal is a direction
            frame["hand"][3 * i] += dx
            frame["hand"][3 * i + 1] += dy
        frame["object"]["pos"][0] += dx
        frame["object"]["pos"][1] += dy
    rec_path = work / "recording.json"
    rec_path.write_text(json.dumps(recording))

    hand_path = asset_path("hands", f"{spec['hand']}.json")
    config = resolve_config("lift_box_toy")
    config["name"] = workload
    config["hand"] = os.path.relpath(hand_path)
    config["demo"] = str(rec_path)
    if spec["rl_steps"] is not None:
        config["rl"]["total_steps"] = spec["rl_steps"]
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(config))
    return config, cfg_path, recording, json.loads(hand_path.read_text())


def cold_start(cfg_path: Path) -> tuple[float, dict]:
    """Wall seconds of one fresh interpreter that imports demo2dex and resolves the inputs."""
    t0 = perf_counter()
    out = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), str(cfg_path)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return perf_counter() - t0, json.loads(out.stdout.strip().splitlines()[-1])


def artifact_digests(run_dir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(run_dir.iterdir())
        if p.is_file()
    }


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        import demo2dex
        import checks

        self.demo2dex = demo2dex
        self.checks = checks
        self.seed, self.work = seed, work
        self.spec = WORKLOADS[workload]
        self.config, self.cfg_path, self.recording, self.hand = make_inputs(workload, seed, work)
        self.ops = {k: [0, 0] for k in ("fresh", "cached", "eval")}  # attempted, failed
        self.problems: list[str] = []
        self.digests: dict[str, str] | None = None
        self.reference = None  # (metrics dict, grasp_success) of the first fresh run
        self.rounds = 0
        self.wrong_output = False

    def _fail(self, kind: str, msg: str, wrong_output: bool) -> None:
        """Count a failed operation; a wrong output also makes the run incorrect."""
        self.ops[kind][1] += 1
        self.wrong_output |= wrong_output
        self.problems.append(f"{kind} {'wrong' if wrong_output else 'raised'}: {msg}")

    def round(self, tracer=None) -> dict | None:
        """One fresh run, then batches of cached reruns and evaluations, and cold starts.

        Returns the round's samples, or None if the fresh run raised.
        """
        pipeline = self.demo2dex.pipeline
        self.rounds += 1
        out_dir = self.work / f"round{self.rounds}"
        phase = (lambda name: setattr(tracer, "phase", name)) if tracer else (lambda name: None)
        self.ops["fresh"][0] += 1
        self.ops["cached"][0] += N_CACHED
        self.ops["eval"][0] += N_EVAL

        phase("fresh")
        try:
            t0 = perf_counter()
            res = pipeline.run_transfer(self.config, out_dir, seed=self.seed, no_rl=self.spec["no_rl"])
            run_s = perf_counter() - t0
        except Exception:
            self._fail("fresh", traceback.format_exc(limit=3), False)
            self.ops["cached"][1] += N_CACHED
            self.ops["eval"][1] += N_EVAL
            return None
        finally:
            phase("idle")
        found = self._check_fresh(res)
        if found:
            self._fail("fresh", "; ".join(found), True)
        expected = res.metrics.to_dict()
        out = {"run_s": run_s, "run_dir": res.run_dir, "cached_rate": [], "eval_rate": [],
               "setup_s": [], "setup_inner": [],
               "bytes_written": sum(p.stat().st_size for p in res.run_dir.iterdir())}

        rerun = lambda: pipeline.run_transfer(self.config, out_dir, seed=self.seed, no_rl=self.spec["no_rl"])  # noqa: E731
        evaluate = lambda: pipeline.evaluate_run(res.run_dir)  # noqa: E731
        for i in range(BATCHES):
            phase("cached")
            rate, results = self._batch("cached", rerun, CACHED_PER_BATCH)
            out["cached_rate"].append(rate)
            for again in results:
                if not again.cached or again.metrics.to_dict() != expected or again.grasp_success != res.grasp_success:
                    self._fail("cached", f"rerun cached={again.cached} or metrics differ from the fresh run", True)
            phase("eval")
            rate, results = self._batch("eval", evaluate, EVAL_PER_BATCH)
            out["eval_rate"].append(rate)
            for report, verified in results:
                if not verified or report.to_dict() != expected:
                    self._fail("eval", f"evaluate_run verified={verified} or metrics differ", True)
            phase("idle")
            if (i + 1) % (BATCHES // COLD_STARTS) == 0:
                wall, inner = cold_start(self.cfg_path)
                out["setup_s"].append(wall)
                out["setup_inner"].append(inner)
        return out

    def _batch(self, kind: str, call, n: int):
        """Calls per second of a batch of n calls, and the results of those that returned."""
        results = []
        t0 = perf_counter()
        for _ in range(n):
            try:
                results.append(call())
            except Exception:
                self._fail(kind, traceback.format_exc(limit=3), False)
        return n / (perf_counter() - t0), results

    def _check_fresh(self, res) -> list[str]:
        c = self.checks
        found = []
        if res.cached:
            found.append("fresh run into an empty directory reported cached=True")
        tip_tol = c.TOY3_TIP_TOL_M if self.spec["hand"] == "toy3" else None
        found += c.check_plan(res.run_dir, self.hand, self.recording, tip_tol)
        found += c.check_trajectory(res.run_dir, self.recording)
        if not self.spec["no_rl"]:
            found += c.check_training_log(res.run_dir, self.spec["rl_steps"])
        digests = artifact_digests(res.run_dir)
        summary = (res.metrics.to_dict(), res.grasp_success)
        if self.digests is None:
            self.digests, self.reference = digests, summary
        else:
            changed = sorted(k for k in digests.keys() | self.digests.keys()
                             if digests.get(k) != self.digests.get(k))
            if changed:
                found.append(f"artifacts differ from the first fresh run: {changed}")
            if summary != self.reference:
                found.append("metrics differ from the first fresh run")
        return found

    def attempted(self) -> int:
        return sum(a for a, _ in self.ops.values())

    def failed(self) -> int:
        return sum(f for _, f in self.ops.values())


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "demo2dex" / "__init__.py").is_file():
        print(f"error: no demo2dex sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    try:
        import demo2dex
    except ImportError as exc:
        print(f"error: cannot import demo2dex: {exc}", file=sys.stderr)
        return 2
    if Path(demo2dex.__file__).resolve().parent != (SRC / "demo2dex").resolve():
        print(f"error: imported demo2dex from {demo2dex.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import layers
    from tracer import Tracer

    work = OUT / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, work)

    plain, traced = [], []
    t_start = perf_counter()
    while True:
        r = bench.round()
        if r is not None:
            plain.append(r)
        if args.trace:
            tr = Tracer()
            layers.install(tr)
            try:
                r = bench.round(tr)
            finally:
                tr.uninstall()
            if r is not None:
                traced.append((tr, r))
        if bench.rounds >= MIN_ROUNDS and perf_counter() - t_start >= args.seconds:
            break
    if not plain or (args.trace and not traced):
        print("error: every fresh run failed:\n" + "\n".join(bench.problems), file=sys.stderr)
        return 1

    rounds = plain + [r for _, r in traced]
    setup_inner = [x for r in rounds for x in r["setup_inner"]]
    run_s = statistics.median(r["run_s"] for r in plain)
    if args.trace:
        metrics, units = trace_metrics(bench, traced, run_s, setup_inner)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        spans_path.unlink(missing_ok=True)
        for i, (tr, _) in enumerate(traced):
            tr.write(spans_path, {"workload": args.workload, "seed": args.seed, "round": i}, append=i > 0)
    else:
        metrics = {
            "setup_s": statistics.median(x for r in rounds for x in r["setup_s"]),
            "run_s": run_s,
            "cached_runs_per_s": statistics.median(x for r in plain for x in r["cached_rate"]),
            "evals_per_s": statistics.median(x for r in plain for x in r["eval_rate"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = declared_units("end_to_end")
    for r in rounds:
        shutil.rmtree(r["run_dir"].parent, ignore_errors=True)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": bench.rounds,
        "ops": {k: {"attempted": a, "failed": f} for k, (a, f) in bench.ops.items()},
        "artifacts_sha256": hashlib.sha256(json.dumps(bench.digests, sort_keys=True).encode()).hexdigest(),
        "run_s_samples": [round(r["run_s"], 4) for r in plain],
        "setup_s_samples": [round(x, 4) for r in rounds for x in r["setup_s"]],
        "problems": bench.problems[:10],
    }
    print("detail " + json.dumps(detail))
    for name, value in metrics.items():
        print(f"{name:32s} {value:16.6f} {units[name]}")
    print(
        json.dumps(
            {
                "correct": not bench.wrong_output,
                "attempted": bench.attempted(),
                "failed": bench.failed(),
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


def trace_metrics(bench: Bench, traced, run_s: float, setup_inner):
    import layers

    per_round = [layers.derive(tr, N_CACHED, N_EVAL) for tr, _ in traced]
    for (_, r), m in zip(traced, per_round):
        m["jsonio.bytes_written"] = r["bytes_written"]
    units = declared_units("per_layer")
    for name, unit in units.items():
        values = [m[name] for m in per_round if name in m]
        if unit in EXACT_UNITS and len(set(values)) > 1:
            bench.problems.append(f"count {name} differs between traced rounds: {values}")
            bench.wrong_output = True
    # the figures of one round belong together, so take the fastest round whole
    fastest = min(range(len(traced)), key=lambda i: traced[i][1]["run_s"])
    metrics = dict(per_round[fastest])
    metrics["setup.import_s"] = statistics.median(x["import_s"] for x in setup_inner)
    metrics["ingest.load_s"] = statistics.median(x["load_s"] for x in setup_inner)
    dim_obs, dim_act = traced[0][0].env_dims
    metrics["ppo.mlp_us"] = layers.mlp_probe_us(bench.config, dim_obs, dim_act)
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(r["run_s"] for _, r in traced) / run_s - 1.0)
    missing = units.keys() - metrics.keys()
    if missing:
        raise KeyError(f"per-layer metrics without a value: {sorted(missing)}")
    return {k: metrics[k] for k in units}, units


if __name__ == "__main__":
    sys.exit(main())
