#!/usr/bin/env python3
"""The lpomp benchmark: one command, every workload, every metric by name.

    python3 perfbench/run.py --workload grid-S-paging|grid-W-live|serve-mix \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --matrix [--seed N]

Builds lpomp (Release) and the lpomp_perfbench binary from the checkout's
own sources into .bench_build/, then measures one workload. With --trace 0
it prints the end-to-end metrics, with --trace 1 the per-layer metrics, one
`name value unit` line each, and as the last line one JSON object with
`correct`, `attempted`, `failed` and `metrics`. grid-S-paging and
grid-W-live are the workloads BENCHMARK.json declares; serve-mix is a
report of the daemon's round trips outside it. --matrix prints the
strategy x workers table of cold wall and peak RSS instead. README.md
explains the workloads and what each metric should move.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import benchlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
BINARY = os.path.join(BUILD, "lpomp_perfbench")
DAEMON = os.path.join(BUILD, "lpomp", "bench", "sweep_service")

CORES = min(4, os.cpu_count() or 1)
# Sweep workers of the measured grid processes: sweep_all's default, one per
# core. Shorter passes fit more of them in a run (README.md, "Workers").
WORKERS = CORES
# The serve-mix daemon's workers: with 4, its round trips spread twice as
# much as with 2 (README.md, "serve-mix").
DAEMON_WORKERS = min(2, CORES)
AS_CAP_MB = 3072         # address-space cap of every measured process
MIN_PASSES = 3           # measured grid processes per run, at least
# Setup-only processes before each grid pass. A process's setup time is
# bimodal and fixed for its lifetime, so the run's median needs many.
SETUP_PROCESSES_PER_PASS = 15
CHILD_TIMEOUT_S = 150

# Metric names and units are the ones BENCHMARK.json declares. serve-mix is
# not one of its workloads (README.md says why); it reports the grids'
# end-to-end metrics plus the daemon's round trips.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _DECLARED = json.load(_f)
END_TO_END = tuple((m["name"], m["unit"]) for m in _DECLARED["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in _DECLARED["per_layer"])
SERVE_MIX = END_TO_END + (("rtt_p50_ms", "ms"), ("rtt_p99_ms", "ms"),
                          ("requests_per_s", "1/s"))

GRID_STRATEGY = {"grid-S-paging": "auto", "grid-W-live": "live"}
GRID_POINTS = {"grid-S-paging": 280, "grid-W-live": 42}
WORKLOADS = tuple(GRID_STRATEGY) + ("serve-mix",)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build lpomp_perfbench and the daemon (a no-op when
    up to date). The log stays in .bench_build/ for a failed build."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no lpomp sources next to {HERE}; run from a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(ROOT, ".bench_build", "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", str(CORES),
                      "--target", "lpomp_perfbench", "sweep_service"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                fail(f"build failed: {' '.join(cmd)} (see {log_path})")


def cap_address_space():
    cap = AS_CAP_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def run_child(args, work, name):
    """Runs lpomp_perfbench under the address-space cap. Returns (parsed output
    or None when the process failed, wall seconds)."""
    out = os.path.join(work, name + ".json")
    t0 = time.monotonic()
    try:
        proc = subprocess.run([BINARY] + args + [f"--out={out}"],
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              preexec_fn=cap_address_space,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {name} timed out", file=sys.stderr)
        return None, time.monotonic() - t0
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        print(f"perfbench: {name} exited {proc.returncode}: "
              f"{proc.stderr.strip()[-400:]}", file=sys.stderr)
        return None, wall
    with open(out) as f:
        return json.load(f), wall


def grid_args(workload, seed, strategy, workers, work, trace=False):
    args = ["grid", f"--grid={workload}", f"--seed={seed}",
            f"--strategy={strategy}", f"--workers={workers}",
            f"--work={work}"]
    return args + (["--trace"] if trace else [])


def reference(workload, seed, work):
    """Deterministic records of the live, one-worker run of the grid. The
    run is made before the measured passes, so it is also their warm-up."""
    out, _ = run_child(grid_args(workload, seed, "live", 1, work), work,
                       "reference")
    return None if out is None else out["records"]


def p99_ms(samples):
    """The round-trip p99, printed with the sample count; None (the run is
    then not correct) when fewer than ten samples lie beyond it."""
    value = benchlib.percentile_with_tail(samples, 0.99)
    print(f"round trips: {len(samples)}")
    if value is None:
        print("perfbench: too few round trips for the p99", file=sys.stderr)
    return value


def grid_workload(workload, seed, seconds, trace, work):
    strategy = GRID_STRATEGY[workload]
    points = GRID_POINTS[workload]
    ref = reference(workload, seed, work)
    if trace:
        plain, plain_wall = run_child(
            grid_args(workload, seed, strategy, WORKERS, work),
            work, "untraced")
        traced, traced_wall = run_child(
            grid_args(workload, seed, strategy, WORKERS, work, True),
            work, "traced")
        failed, attempted = benchlib.grid_failures(ref, [plain, traced],
                                                   points)
        if traced is None:
            return failed, attempted, None
        layers = dict(traced["layers"])
        layers["bench.trace_overhead_share"] = \
            (traced_wall - plain_wall) / plain_wall
        # The traced run's simulated counters must equal the untraced run's.
        attempted += 1 + layers["probe_checks"]
        failed += layers["probe_mismatches"]
        if plain is None or plain["records"] != traced["records"]:
            failed += 1
        return failed, attempted, layers

    med = statistics.median
    passes, setups, lengths = [], [], []
    t0 = time.monotonic()
    # Another pass starts only if one of the median length so far still
    # ends within --seconds.
    while len(passes) < MIN_PASSES or \
            time.monotonic() - t0 + med(lengths) <= seconds:
        start = time.monotonic()
        for _ in range(SETUP_PROCESSES_PER_PASS):
            out, _ = run_child(["setup", f"--workers={WORKERS}"], work,
                               "setup")
            setups.append(None if out is None else med(out["setup_s"]))
        out, _ = run_child(
            grid_args(workload, seed, strategy, WORKERS, work),
            work, f"pass{len(passes)}")
        passes.append(out)
        lengths.append(time.monotonic() - start)
    failed, attempted = benchlib.grid_failures(ref, passes, points)
    failed += setups.count(None)
    attempted += len(setups)
    done = [p for p in passes if p is not None]
    setups = [s for s in setups if s is not None]
    if not done or not setups:
        return failed, attempted, None
    metrics = {
        "cold_wall_s": med([p["cold_wall_s"] for p in done]),
        "peak_rss_mb": med([p["maxrss_kb"] / 1024 for p in done]),
        "setup_s": med(setups),
    }
    return failed, attempted, metrics


def serve_process(seed, work, trace):
    """One serve-mix process over the seed's request lines. Returns (parsed
    output or None, wall seconds)."""
    requests = os.path.join(work, "requests.txt")
    with open(requests, "w") as f:
        f.writelines(line + "\n" for _, line in benchlib.request_mix(seed))
    args = ["serve", f"--daemon={DAEMON}", f"--store={work}/store",
            f"--shm=/lpomp-perfbench-{os.getpid()}",
            f"--workers={DAEMON_WORKERS}",
            f"--seed={seed}", f"--requests={requests}",
            f"--log={work}/daemon.log"]
    return run_child(args + (["--trace"] if trace else []), work,
                     "serve-traced" if trace else "serve")


def serve_workload(seed, trace, work):
    out, serve_wall = serve_process(seed, work, False)
    failed, attempted = benchlib.serve_failures(out)
    if out is None or not out["rtt_ms"]:
        return max(failed, 1), attempted, None
    if trace:
        # The traced run is the serve process with its stats round trips
        # plus the in-process populate grid with the layer probes.
        traced, traced_wall = serve_process(seed, work, True)
        probe, probe_wall = run_child(
            grid_args("serve-populate", seed, "auto", DAEMON_WORKERS, work,
                      True),
            work, "probe")
        more_failed, more_attempted = benchlib.serve_failures(traced)
        failed += more_failed
        attempted += more_attempted + 1
        if traced is None or probe is None:
            return failed + 1, attempted, None
        layers = dict(probe["layers"])
        layers["serve.wait_ms"] = statistics.median(traced["wait_ms"])
        layers["serve.ring.rtt_us"] = statistics.median(traced["ring_rtt_us"])
        layers["serve.error_responses"] = traced["errors"]
        layers["bench.trace_overhead_share"] = \
            (traced_wall + probe_wall - serve_wall) / serve_wall
        # The traced daemon's answers must equal the untraced one's, and the
        # in-process populate grid must reproduce them record for record.
        if traced["populate_det"] != out["populate_det"]:
            failed += 1
        attempted += len(probe["records"]) + layers["probe_checks"]
        failed += layers["probe_mismatches"] + sum(
            rec not in out["populate_det"] for rec in probe["records"])
        return failed, attempted, layers
    rtt = out["rtt_ms"]
    metrics = {
        "cold_wall_s": statistics.median(out["cold_wall_s"]),
        "peak_rss_mb": statistics.median(out["populate_rss_kb"]) / 1024,
        "setup_s": statistics.median(out["setup_s"]),
        "rtt_p50_ms": statistics.median(rtt),
        "rtt_p99_ms": p99_ms(rtt),
        "requests_per_s": len(rtt) / out["loop_s"],
    }
    return failed, attempted, metrics


def ratio(value, base):
    return f"{value / base:>7.2f}" if base else f"{'-':>7}"


def matrix(seed, work):
    """Strategy x workers table for ROADMAP item 1: cold wall and peak RSS
    of both grids under every strategy, ratios against live."""
    print(f"{'grid':<14} {'strategy':<10} {'workers':>7} {'cold_wall_s':>12}"
          f" {'x live':>7} {'peak_rss_mb':>12} {'x live':>7}")
    for workload in GRID_STRATEGY:
        for workers in (1, CORES):
            live = None
            for strategy in ("live", "recorded", "multilane", "auto"):
                out, _ = run_child(grid_args(workload, seed, strategy,
                                             workers, work), work,
                                   f"matrix-{strategy}-{workers}")
                head = f"{workload:<14} {strategy:<10} {workers:>7}"
                if out is None:
                    print(f"{head} {'abort':>12}", flush=True)
                    continue
                wall, rss = out["cold_wall_s"], out["maxrss_kb"] / 1024
                if strategy == "live":
                    live = (wall, rss)
                base = live or (None, None)
                print(f"{head} {wall:>12.3f} {ratio(wall, base[0])} "
                      f"{rss:>12.1f} {ratio(rss, base[1])}", flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--matrix", action="store_true")
    args = ap.parse_args()
    if not args.matrix and args.workload is None:
        ap.error("--workload is required (or --matrix)")

    build()
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-",
                            dir=os.path.join(ROOT, ".bench_build"))
    try:
        if args.matrix:
            matrix(args.seed, work)
            return
        if args.workload == "serve-mix":
            failed, attempted, metrics = serve_workload(
                args.seed, args.trace, work)
        else:
            failed, attempted, metrics = grid_workload(
                args.workload, args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = PER_LAYER if args.trace else \
        SERVE_MIX if args.workload == "serve-mix" else END_TO_END
    result = {}
    for name, unit in names:
        value = (metrics or {}).get(name)
        if value is not None:
            result[name] = {"value": value, "unit": unit}
            print(f"{name} = {value:.6g} {unit}")
    print(f"attempted = {attempted}, failed = {failed}, failure_rate = "
          f"{failed / attempted:.6g}")
    correct = metrics is not None and failed == 0 and \
        len(result) == len(names)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result}))


if __name__ == "__main__":
    main()
