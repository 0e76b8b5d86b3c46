"""Command line front end.

    transfer run lift_box_toy --out runs/ --seeds 0:5
    transfer eval runs/lift_box_toy-seed0
    transfer report runs/lift_box_toy-seed*
"""
from __future__ import annotations

import argparse
import logging
import operator
import sys

from .jsonio import dump_json
from .metrics import MetricReport
from .pipeline import (
    PipelineError,
    _field,
    aggregate,
    evaluate_run,
    load_run_file,
    repeated_seed,
    resolve_config,
    run_sweep,
)


def _parse_seeds(spec: str) -> list[int]:
    """Either a comma list ("0,3,7") or a half-open range ("0:20"), naming at
    least one seed and none twice."""
    if ":" in spec:
        lo, hi = spec.split(":", 1)
        seeds = list(range(int(lo), int(hi)))
    else:
        seeds = [int(s) for s in spec.split(",") if s != ""]
    if not seeds:
        raise argparse.ArgumentTypeError(f"seed spec {spec!r} names no seed")
    repeated = repeated_seed(seeds)
    if repeated is not None:
        raise argparse.ArgumentTypeError(f"seed spec {spec!r} repeats seed {repeated}")
    return seeds


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transfer",
        description="Convert recorded hand-object manipulation into executable "
        "dexterous-hand trajectories and score the result.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the transfer pipeline for a config")
    p_run.add_argument("config", help="bundled config name or path to a config JSON")
    p_run.add_argument("--out", default="runs", help="directory that receives run artifacts")
    p_run.add_argument("--seeds", type=_parse_seeds, default="0", help="training seeds, e.g. 3, 0:20 or 0,1,5")
    p_run.add_argument("--no-rl", action="store_true", help="skip residual training (baseline)")
    p_run.add_argument("--force", action="store_true", help="recompute even if cached")
    p_run.add_argument("--workers", type=int, default=1, help="parallel processes for seed sweeps")
    p_run.set_defaults(func=cmd_run)

    p_eval = sub.add_parser("eval", help="recompute and verify metrics for finished runs")
    p_eval.add_argument("run_dirs", nargs="+", help="run directories to verify")
    p_eval.set_defaults(func=cmd_eval)

    p_rep = sub.add_parser("report", help="aggregate metrics across finished runs")
    p_rep.add_argument("run_dirs", nargs="+", help="run directories to aggregate")
    p_rep.add_argument("--json", default=None, help="also write the aggregate to this path")
    p_rep.set_defaults(func=cmd_report)
    return parser


def cmd_run(args) -> int:
    config = resolve_config(args.config)
    rows = run_sweep(
        config, args.out, args.seeds, no_rl=args.no_rl, force=args.force, workers=args.workers
    )
    for row in rows:
        print(
            f"seed {row['seed']:>3}  grasp={'ok' if row['grasp_success'] else 'NO'} "
            f"follow={'ok' if row['sr_follow'] else 'NO'} tsr_dist={row['tsr_score']:.3f} "
            f"ep={row['ep']:.4f} er={row['er_deg']:.2f}  -> {row['run_dir']}"
        )
    if len(rows) > 1:
        agg = aggregate(rows)
        print(
            f"over {agg['runs']} seeds: sr_grasp={agg['sr_grasp']:.2f} "
            f"sr_follow={agg['sr_follow']:.2f} tsr_success={agg['tsr_success']:.2f}"
        )
    return 0


def cmd_eval(args) -> int:
    ok = True
    for d in args.run_dirs:
        try:
            report, verified = evaluate_run(d)
        except PipelineError as exc:  # the other directories still run
            print(f"{d}: {exc}")
            ok = False
            continue
        status = "verified" if verified else "MISMATCH"
        print(
            f"{d}: {status}  grasp={report.sr_grasp} follow={report.sr_follow} "
            f"tsr_dist={report.tsr_score:.3f} ep={report.ep:.4f} er={report.er_deg:.2f}"
        )
        ok = ok and verified
    return 0 if ok else 1


def cmd_report(args) -> int:
    rows = []
    for d in args.run_dirs:
        try:
            stored = load_run_file(d, "metrics.json")
            row = _field(stored, "metrics.json", "metrics", lambda m: MetricReport(**m).to_dict())
            row["grasp_success"] = _field(stored, "metrics.json", "grasp_success")
            row["seed"] = _field(stored, "metrics.json", "seed", operator.index)
        except PipelineError as exc:
            print(f"{d}: {exc}", file=sys.stderr)
            return 1
        row["run_dir"] = d
        rows.append(row)
    agg = aggregate(rows)
    print(f"{'seed':>6} {'grasp':>6} {'follow':>7} {'tsr_dist':>8} {'ep':>8} {'er_deg':>8}")
    for r in sorted(rows, key=lambda x: x["seed"]):
        print(
            f"{r['seed']:>6} {str(r['grasp_success']):>6} {str(r['sr_follow']):>7} "
            f"{r['tsr_score']:>8.3f} {r['ep']:>8.4f} {r['er_deg']:>8.2f}"
        )
    print(
        f"aggregate over {agg['runs']} runs: sr_grasp={agg['sr_grasp']:.2f} "
        f"sr_follow={agg['sr_follow']:.2f} tsr_success={agg['tsr_success']:.2f} "
        f"mean_ep={agg['mean_ep']:.4f} mean_er={agg['mean_er_deg']:.2f}"
    )
    if args.json:
        dump_json({"aggregate": agg, "runs": rows}, args.json)
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
