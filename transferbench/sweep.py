"""Run the benchmark over several seeds and collect the results in one file.

    python3 transferbench/sweep.py --out .transferbench/A.jsonl --seeds 0:10
    python3 transferbench/sweep.py --out .transferbench/T.jsonl --seeds 0:2 --trace 1

Every workload of BENCHMARK.json runs for its `run_seconds`, once per seed.
Each run is its own process, one workload at a time, so set-up time and peak
memory are never inherited from another workload. Every line of the output
file holds one run: workload, seed, trace flag, the run's detail line and its
result object. compare.py reads two such files.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(spec: str) -> list[int]:
    """Either a comma list ("0,3,7") or a half-open range ("0:10")."""
    if ":" in spec:
        lo, hi = spec.split(":", 1)
        return list(range(int(lo), int(hi)))
    return [int(s) for s in spec.split(",") if s]


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(x[len("detail "):]) for x in lines if x.startswith("detail "))
    return {"workload": workload, "seed": seed, "trace": trace, "detail": detail,
            "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--out", required=True, help="result file to append to (JSON lines)")
    p.add_argument("--seeds", default="0:10", help="seeds, e.g. 0:10 or 0,4,9 (default 0:10)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in parse_seeds(args.seeds):
            row = run_one(workload, seed, spec["run_seconds"], args.trace)
            with out.open("a") as fh:
                fh.write(json.dumps(row) + "\n")
            res = row["result"]
            shown = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()
                             if not args.trace or k.endswith(("_s", "pct")))
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} {shown}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
