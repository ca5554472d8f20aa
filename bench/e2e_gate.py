#!/usr/bin/env python3
"""End-to-end gate: the default strategy against the live reference.

Runs sweep_all under --strategy=live and --strategy=auto in interleaved
pairs (the order alternates each pair) on one or more grids. Each pair
gives one ratio of auto's cold wall to live's; both runs of a pair sample
the same host load, so the median of the pair ratios tracks host drift
better than a ratio of the two medians. Fails when that median exceeds
--max-ratio, or when auto's admission differs from what the grid
must produce: the class-S paging grid folds and fuses, plain class S and
class W run every point live (their stream groups are too narrow to fuse).
The admission checks are deterministic; only the ratio depends on timing.

  python3 bench/e2e_gate.py --sweep-all=build/bench/sweep_all \\
      --grids=S-paging,W --pairs=3 --max-ratio=1.05 --json-out=e2e.json
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

PAGING = "--paging=native,base4k,hugetlb2m,huge1g,thp"

# grid name -> (sweep_all flags, does auto fuse any group?)
GRIDS = {
    "S": (["--klass=S"], False),
    "S-paging": (["--klass=S", PAGING], True),
    "W": (["--klass=W", "--kernels=CG,MG,GUPS"], False),
}


def run(sweep_all, flags, strategy, workers):
    """One sweep: cold wall, peak RSS and admission counts."""
    with tempfile.TemporaryDirectory() as work:
        out = os.path.join(work, "sweep.json")
        proc = subprocess.Popen(
            [sweep_all, f"--strategy={strategy}", f"--workers={workers}",
             f"--json={out}", "--json-host"] + flags,
            stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        if status != 0:
            sys.exit(f"sweep_all --strategy={strategy} {' '.join(flags)} "
                     f"failed with status {status}")
        with open(out) as f:
            summary = json.load(f)["sweep"]["summary"]
    return {"cold_wall_ms": summary["wall_ms"],
            "peak_rss_mb": usage.ru_maxrss / 1024,
            "fused_groups": summary["fused_groups"],
            "folded_lanes": summary["folded_lanes"]}


def describe(runs):
    walls = [r["cold_wall_ms"] for r in runs]
    return {"cold_wall_ms_median": statistics.median(walls),
            "cold_wall_ms": [round(w, 1) for w in walls],
            "peak_rss_mb_median": statistics.median(
                r["peak_rss_mb"] for r in runs),
            "fused_groups": runs[0]["fused_groups"],
            "folded_lanes": runs[0]["folded_lanes"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sweep-all", default="build/bench/sweep_all")
    ap.add_argument("--grids", default="S,S-paging,W")
    ap.add_argument("--pairs", type=int, default=3)
    ap.add_argument("--workers", type=int, default=0)
    ap.add_argument("--max-ratio", type=float, default=1.05)
    ap.add_argument("--json-out")
    args = ap.parse_args()

    report, failures = {}, []
    for grid in args.grids.split(","):
        if grid not in GRIDS:
            sys.exit(f"unknown grid {grid} (valid: {', '.join(GRIDS)})")
        flags, fuses = GRIDS[grid]
        runs = {"live": [], "auto": []}
        for pair in range(args.pairs):
            order = ("live", "auto") if pair % 2 == 0 else ("auto", "live")
            for strategy in order:
                runs[strategy].append(
                    run(args.sweep_all, flags, strategy, args.workers))
        live, auto = describe(runs["live"]), describe(runs["auto"])
        ratio = statistics.median(
            a["cold_wall_ms"] / b["cold_wall_ms"]
            for a, b in zip(runs["auto"], runs["live"]))
        report[grid] = {"pairs": args.pairs, "live": live, "auto": auto,
                        "ratio": ratio}
        print(f"{grid}: auto {auto['cold_wall_ms_median']:.0f} ms vs live "
              f"{live['cold_wall_ms_median']:.0f} ms (medians; pair ratio "
              f"{ratio:.3f}x), "
              f"peak RSS {auto['peak_rss_mb_median']:.0f} vs "
              f"{live['peak_rss_mb_median']:.0f} MB, auto fused "
              f"{auto['fused_groups']} groups, folded "
              f"{auto['folded_lanes']}", flush=True)
        if ratio > args.max_ratio:
            failures.append(f"{grid}: auto's cold wall is {ratio:.3f}x "
                            f"live's, median of {args.pairs} pairs (bound "
                            f"{args.max_ratio}x)")
        if live["fused_groups"] or live["folded_lanes"]:
            failures.append(f"{grid}: live folded or fused")
        if (auto["fused_groups"] > 0) != fuses:
            failures.append(f"{grid}: auto fused {auto['fused_groups']} "
                            f"groups, expected {'some' if fuses else 0}")

    if args.json_out:
        with open(args.json_out, "w") as f:
            json.dump({"schema": "lpomp-e2e-v1", "max_ratio": args.max_ratio,
                       "grids": report}, f, indent=1)
            f.write("\n")
    for failure in failures:
        print(f"::error::{failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
