"""Compare two result files written by sweep.py.

    python3 transferbench/compare.py .transferbench/A.jsonl .transferbench/B.jsonl

For each workload and each end-to-end metric it prints the median and the
quartiles of each side, the spread (quartile distance over the median) and the
change of B's median against A's, both as shares. A metric is flagged when a
side's spread exceeds its bound in BENCHMARK.json or when B's median is worse
than A's by more than the bound. It also flags a different share of failed operations, and a
run whose artifacts or per-layer counts differ from the other file's run of
the same workload and seed. The exit code is 1 when anything is flagged.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "transferbench"))
from run import EXACT_UNITS  # noqa: E402


def load(path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("a", help="baseline result file")
    p.add_argument("b", help="result file compared against the baseline")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = load(args.a), load(args.b)
    flags: list[str] = []

    by = {}
    for side, rows in (("A", a), ("B", b)):
        groups = defaultdict(list)
        for row in rows:
            if not row["result"]["correct"]:
                flags.append(f"{side} {row['workload']} seed {row['seed']}: incorrect output")
            groups[(row["workload"], row["trace"])].append(row)
        by[side] = groups

    print(f"{'workload':16s} {'metric':18s} {'A median':>11s} {'A q1..q3':>23s} {'A sprd':>7s} "
          f"{'B median':>11s} {'B q1..q3':>23s} {'B sprd':>7s} {'B/A-1':>7s}  flag")
    for w in spec["workloads"]:
        name = w["name"]
        ra, rb = by["A"].get((name, 0), []), by["B"].get((name, 0), [])
        if not ra or not rb:
            print(f"{name:16s} (untraced runs missing on one side)")
            continue
        for m in spec["end_to_end"]:
            va = [r["result"]["metrics"][m["name"]]["value"] for r in ra]
            vb = [r["result"]["metrics"][m["name"]]["value"] for r in rb]
            (a1, a2, a3), (b1, b2, b3) = quartiles(va), quartiles(vb)
            sa, sb = (a3 - a1) / a2, (b3 - b1) / b2
            change = b2 / a2 - 1.0
            worse = change if m["better"] == "lower" else -change
            why = []
            if max(sa, sb) > m["bound"]:
                why.append("spread>bound")
            if worse > m["bound"]:
                why.append("worse>bound")
            if why:
                flags.append(f"{name} {m['name']}: {', '.join(why)}")
            print(f"{name:16s} {m['name']:18s} {a2:11.5g} {a1:11.5g}..{a3:<10.5g} {sa:7.3f} "
                  f"{b2:11.5g} {b1:11.5g}..{b3:<10.5g} {sb:7.3f} {change:+7.3f}  "
                  f"{','.join(why)} (n={len(va)}/{len(vb)}, bound {m['bound']})")
        share = [sum(r["result"]["failed"] for r in rs) / sum(r["result"]["attempted"] for r in rs)
                 for rs in (ra, rb)]
        if share[0] != share[1]:
            flags.append(f"{name}: failed share {share[0]!r} against {share[1]!r}")

    # the same workload and seed must give the same artifacts and the same counts
    exact = {m["name"] for m in spec["per_layer"] if m["unit"] in EXACT_UNITS}
    index = {(r["workload"], r["seed"], r["trace"]): r for r in a}
    for rb_ in b:
        ra_ = index.get((rb_["workload"], rb_["seed"], rb_["trace"]))
        if ra_ is None:
            continue
        tag = f"{rb_['workload']} seed {rb_['seed']} trace {rb_['trace']}"
        if ra_["detail"]["artifacts_sha256"] != rb_["detail"]["artifacts_sha256"]:
            flags.append(f"{tag}: artifacts differ between the files")
        if rb_["trace"]:
            ma, mb = ra_["result"]["metrics"], rb_["result"]["metrics"]
            diff = sorted(k for k in exact if ma[k]["value"] != mb[k]["value"])
            if diff:
                flags.append(f"{tag}: counts differ: {diff}")

    for f in flags:
        print("FLAG " + f)
    print(f"{len(flags)} flag(s)")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
