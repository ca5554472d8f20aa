"""Pure helpers of the lpomp benchmark: statistics, failure counting and the
seeded serve-mix request generator. No I/O, so test_benchlib.py covers them
without building anything."""

import math
import random

# Serve-mix request universe: class-S single grid points over the platforms
# and policies the repository's sweeps use, the Figure 4 platforms (opteron,
# xeon) and the paging study's modern platform under every paging policy
# (EXPERIMENTS.md). The store is populated with the native Figure 4 points;
# everything else is a new key the first time the mix asks for it.
KERNELS = ("BT", "CG", "FT", "SP", "MG", "GUPS", "GT", "PC")
PLATFORM_THREADS = (("opteron", (1, 2, 4)), ("xeon", (1, 2, 4, 8)),
                    ("modern", (1, 2, 4, 8)))
PAGES = ("4KB", "2MB")
POLICIES = ("native", "base4k", "hugetlb2m", "huge1g", "thp")

READ, WRITE, GRID, RESTART = "read", "write", "grid", "restart"

# Reads per write. The repository documents the daemon's use as one cold
# sweep_client request followed by --repeat=20 warm repeats of it (README
# sweep-service quickstart, the CI daemon job); the mix keeps that ratio.
READS_PER_WRITE = 20


def percentile_with_tail(samples, q, min_beyond=10):
    """The q-quantile (0 < q < 1) of `samples` by the nearest-rank rule,
    or None when fewer than `min_beyond` samples lie strictly above the
    reported rank."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n - 1e-9))
    if n - rank < min_beyond:
        return None
    return ordered[rank - 1]


def grid_failures(reference, passes, points):
    """Failed and attempted operations of a grid workload.

    `reference` is the list of deterministic record strings of the live,
    one-worker reference run; `passes` holds one entry per measured process:
    its parsed output, or None when the process aborted (non-zero exit,
    signal, address-space cap, timeout). Every process attempts `points`
    cold grid points and `points` warm points.

    A cold point fails when it is !ok/!verified or its record differs from
    the reference; a warm point fails when it differs from the cold pass. An
    aborted process fails everything it attempted. A reference that is
    missing or of the wrong size fails every cold point it should check.
    """
    attempted = failed = 0
    ref = reference if reference is not None and \
        len(reference) == points else [None] * points
    for out in passes:
        attempted += 2 * points
        if out is None:
            failed += 2 * points
            continue
        records = out["records"]
        bad = set(out["bad"])
        for i in range(points):
            rec = records[i] if i < len(records) else None
            if rec is None or i in bad or rec != ref[i]:
                failed += 1
        failed += min(points, len(out["warm_differs"]))
    return failed, attempted


def serve_failures(out):
    """Failed and attempted operations of one serve-mix process. The process
    counts its own operations (daemon launches, cold grids, loop requests);
    a failed one is an error response or timeout, a repeat answer that
    differs from the first answer, a daemon that did not come up or did not
    exit cleanly, or a request line never sent because the daemon was gone.
    `out` is None when the process itself failed."""
    if out is None:
        return 1, 1
    failed = out["errors"] + out["mismatches"] + out["aborts"] + \
        out["unsent"] + (1 if out["fatal"] else 0)
    attempted = out["attempted"] + out["unsent"]
    return failed, max(attempted, failed, 1)


def universe():
    """Every class-S single grid point the mix may ask for, in a fixed
    order: (kernel, platform, threads, page, policy)."""
    return [(k, plat, t, page, pol)
            for k in KERNELS
            for plat, threads in PLATFORM_THREADS
            for t in threads
            for page in PAGES
            for pol in POLICIES]


def prepopulated(point):
    """Points the populate request (every kernel's native Figure 4 grid on
    opteron and xeon) leaves in the store."""
    return point[1] in ("opteron", "xeon") and point[4] == "native"


def point_line(point):
    k, plat, t, page, pol = point
    return f"point {k} {plat} {t} {page} {pol}"


def request_mix(seed):
    """The serve-mix request sequence for `seed`: a list of (kind, line),
    two phases separated by one (RESTART, "restart") entry.

    Every seed writes the same set: each point of the universe that is not
    prepopulated, exactly once. The two points of a (kernel, platform,
    threads, policy) pair, 4 KB and 2 MB, go one to each phase, the seed
    deciding which, so both phases hold the same mix of kernels, platforms,
    thread counts and policies. Each write opens a block of READS_PER_WRITE
    reads, shuffled together with it: one whole-grid read of a kernel's
    native Figure 4 grid and single-point reads of keys served before the
    block (prepopulated or earlier writes, including the other phase's after
    the restart). The seed picks the order of the writes, the read keys and
    the order inside each block."""
    rng = random.Random(seed)
    points = universe()
    served = [p for p in points if prepopulated(p)]
    pairs = {}
    for p in points:
        if not prepopulated(p):
            pairs.setdefault((p[0], p[1], p[2], p[4]), []).append(p)
    phases = ([], [])
    for pair in pairs.values():
        rng.shuffle(pair)
        phases[0].append(pair[0])
        phases[1].append(pair[1])
    out = []
    for n, writes in enumerate(phases):
        if n > 0:
            out.append((RESTART, "restart"))
        rng.shuffle(writes)
        for w in writes:
            block = [(GRID, "grid " + rng.choice(KERNELS))]
            block += [(READ, point_line(rng.choice(served)))
                      for _ in range(READS_PER_WRITE - 1)]
            block.append((WRITE, point_line(w)))
            rng.shuffle(block)
            out.extend(block)
            served.append(w)
    return out
