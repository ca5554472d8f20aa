// One parallel invocation that reproduces every headline number of the
// paper from a single engine sweep over the Figure 4 config grid
// ({BT,CG,FT,SP,MG,GUPS,GT,PC} × {Opteron, Xeon+HT} × {1,2,4,8}T ×
// {4KB,2MB}):
//
//   * Figure 4 — run-time improvement from 2 MB pages per thread count;
//   * Figure 5 — DTLB walk reduction at 4 threads on the Opteron (those
//     grid points are a subset of the Figure 4 grid, so they cost nothing
//     extra — the content-keyed cache serves them);
//   * Figure 3 — aggregate ITLB miss rate at 4 threads (negligible).
//
// The sweep is admitted by default (--strategy=auto): points whose paging
// policy is provably equivalent to an earlier point's (base4k over a 4 KB
// layout, thp with every chunk promoted) copy that point's outcome instead
// of running; a unique address stream (kernel × class × threads × page
// kind) still holding at least three unique points runs as one fused group
// — the first point runs live and every other point's simulator state
// tracks the leader's event stream as a lane, skipping the kernel numerics
// without changing a single counter; every other point runs on its own.
// --strategy=live is the reference: every point runs on its own, with no
// fold and no fusion. Both produce bit-identical grids.
// --replay-check records each address stream once and verifies, for every
// task, that a live run, an interpreted replay and a compiled-plan replay
// of the stream agree bit for bit — a diagnostic of the trace library.
// --store-dir= layers the disk-persistent result store under the cache
// (the same store the sweep daemon serves from).
// Any flag not listed at the top of main() exits 2 naming it.
//
// --json-out=BENCH_sweep.json writes the machine-readable perf summary CI
// trends: cold/warm wall-clock, warm cache-hit rate, fused/folded counts,
// and a per-run wall-time/provenance row for every grid point.
//
// After the cold sweep the same grid is rerun warm to exercise the result
// cache: the rerun must be served (≥90 %, in practice 100 %) from cache and
// must be counter-for-counter identical to the cold pass. The JSON output
// (--json=sweep.json) contains the warm-rerun verdict and every per-run
// record; by default only deterministic fields are emitted, so
//   sweep_all --workers=1 --json=a.json && sweep_all --workers=8 --json=b.json
// produces byte-identical files — the engine's determinism guarantee.
#include <map>
#include <utility>

#include "bench/bench_common.hpp"
#include "exec/json.hpp"
#include "serve/client.hpp"
#include "trace/plan.hpp"
#include "trace/recorder.hpp"
#include "trace/replay.hpp"

using namespace lpomp;

namespace {

/// --replay-check: the stream of each group of tasks sharing one is recorded
/// once (and the recording run must equal its task's live run); every
/// task's live run must then equal both an interpreted replay and a
/// compiled-plan (analytic) replay of that stream on every deterministic
/// counter. Groups run one at a time, so one trace and its plan are
/// resident at once. Returns the number of mismatches.
std::size_t replay_check(const std::vector<exec::RunTask>& tasks) {
  std::vector<std::vector<const exec::RunTask*>> streams;
  std::map<std::string, std::size_t> stream_of;
  for (const exec::RunTask& task : tasks) {
    const std::string key = trace::trace_key(
        npb::kernel_name(task.kernel), npb::klass_name(task.klass),
        task.threads, task.page_kind);
    const auto [it, fresh] = stream_of.try_emplace(key, streams.size());
    if (fresh) streams.emplace_back();
    streams[it->second].push_back(&task);
  }

  std::size_t mismatches = 0;
  std::size_t trace_bytes = 0;
  for (const std::vector<const exec::RunTask*>& group : streams) {
    const exec::RunTask& first = *group.front();
    trace::TraceRecorder recorder(first.threads);
    const exec::RunRecord recorded =
        exec::Scheduler::execute_task(first, sim::bind_sink(&recorder));
    trace::TraceMeta meta;
    meta.kernel = recorded.kernel;
    meta.klass = recorded.klass;
    meta.threads = first.threads;
    meta.page_kind = first.page_kind;
    meta.platform = first.spec.name;
    meta.code_page_kind = first.code_page_kind;
    meta.seed = first.seed;
    meta.verified = recorded.verified;
    meta.checksum = recorded.checksum;
    const trace::Trace tr = recorder.finish(std::move(meta));
    for (const std::string& s : tr.streams) trace_bytes += s.size();
    const std::shared_ptr<const trace::TracePlan> plan =
        trace::TracePlan::compile(tr);

    for (const exec::RunTask* task : group) {
      trace::ReplayConfig cfg{task->spec, task->cost, task->seed,
                              task->code_page_kind};
      cfg.paging = task->paging;
      const trace::ReplayDriver driver(cfg);
      const exec::RunRecord live = exec::Scheduler::execute_task(*task);
      if (task == &first && !live.same_result(recorded)) {
        ++mismatches;
        std::cerr << "REPLAY MISMATCH: " << task->label()
                  << " (live vs recording run)\n";
      }
      const std::pair<const char*, trace::ReplayOutcome> replays[] = {
          {"interpreted", driver.run(tr)}, {"analytic", driver.run(tr, *plan)}};
      for (const auto& [how, out] : replays) {
        if (!live.same_result(exec::Scheduler::replay_record(*task, out))) {
          ++mismatches;
          std::cerr << "REPLAY MISMATCH: " << task->label() << " (live vs "
                    << how << ")\n";
        }
      }
    }
  }
  std::cout << "replay check: " << tasks.size() << " tasks from "
            << streams.size() << " recorded streams ("
            << format_bytes(trace_bytes) << "), each replayed interpreted "
            << "and analytic, " << mismatches << " mismatches\n";
  return mismatches;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = bench::parse_flags(
      argc, argv,
      {"klass", "kernels", "paging", "thp-seed", "thp-frag", "thp-growth",
       "thp-interval", "replay-check", "json", "json-host", "json-out", "shm",
       "workers", "strategy", "store-dir"});
  const npb::Klass klass = bench::klass_by_name(opts.get("klass", "R"));

  exec::SweepSpec spec = exec::SweepSpec::figure4(klass);
  spec.kernels = bench::kernels_from(opts);
  const exec::Strategy strategy = bench::strategy_from(opts);
  spec.trace_backed = strategy != exec::Strategy::Live;

  // --paging=native,hugetlb2m,huge1g,thp adds the paging-policy axis. Every
  // policy reinterprets the same recorded address stream, so the layout axis
  // collapses to 4 KB: one stream per kernel × class × threads feeds every
  // policy column, and the fused groups fan out across policies exactly as
  // they do across platforms.
  const bool paging_axis = !opts.get("paging", "").empty();
  if (paging_axis) {
    spec.page_kinds = {PageKind::small4k};
    spec.paging_policies = bench::paging_from(opts);
  }

  if (opts.get_flag("replay-check")) {
    return replay_check(spec.expand()) == 0 ? 0 : 1;
  }

  exec::Scheduler scheduler = bench::make_scheduler(opts);
  std::cout << "sweep_all: " << spec.expand().size()
            << " runs over the Figure 4 grid (class " << npb::klass_name(klass)
            << "), " << scheduler.workers() << " workers, strategy "
            << exec::strategy_name(strategy) << "\n";

  const exec::SweepResult cold = scheduler.run(spec);
  bench::require_all_verified(cold);
  std::cout << "cold sweep: " << cold.completed() << "/"
            << cold.records.size() << " runs in "
            << format_seconds(cold.wall_ms / 1e3) << "s wall ("
            << format_seconds(cold.total_simulated_seconds())
            << "s simulated)\n";
  const bench::TraceProvenance prov = bench::trace_provenance(cold);
  if (spec.trace_backed) {
    std::cout << "streams: " << prov.lane << " lanes in " << cold.fused_groups
              << " fused groups, " << prov.fold << " folded, " << prov.live
              << " live\n";
  }

  // Warm rerun over the identical grid: every task must be served from the
  // result cache with counters identical to the cold pass.
  const exec::SweepResult warm = scheduler.run(spec);
  bool identical = warm.records.size() == cold.records.size();
  for (std::size_t i = 0; identical && i < warm.records.size(); ++i) {
    identical = warm.records[i].same_result(cold.records[i]);
  }
  const double warm_hit_rate =
      warm.records.empty()
          ? 0.0
          : static_cast<double>(warm.cache_hits()) /
                static_cast<double>(warm.records.size());
  std::cout << "warm rerun: " << warm.cache_hits() << "/"
            << warm.records.size() << " served from cache ("
            << format_percent(warm_hit_rate) << ") in "
            << format_seconds(warm.wall_ms / 1e3) << "s wall; counters "
            << (identical ? "identical" : "DIFFER") << "\n";

  // --- headline table: the paper's §4.4 results in one place -------------
  const std::string opteron = sim::ProcessorSpec::opteron270().name;
  const std::string xeon = sim::ProcessorSpec::xeon_ht().name;
  if (paging_axis) {
    // Policy sweep: per-kernel run time and total walk count at 4 threads on
    // the Opteron, one column pair per policy, improvement vs the first
    // policy in the list (conventionally native/base4k).
    std::cout << "\nPaging-policy comparison (4 threads, Opteron):\n";
    std::vector<std::string> header = {"app"};
    for (const paging::PolicySpec& p : spec.paging_policies) {
      header.push_back(std::string(p.name()) + " improv");
      header.push_back(std::string(p.name()) + " walks");
    }
    TextTable table(header);
    for (npb::Kernel k : spec.kernels) {
      const std::string kernel = npb::kernel_name(k);
      const exec::RunRecord* base = cold.find(
          kernel, opteron, 4, "4KB", spec.paging_policies.front().name());
      std::vector<std::string> row = {kernel};
      for (const paging::PolicySpec& p : spec.paging_policies) {
        const exec::RunRecord* r =
            cold.find(kernel, opteron, 4, "4KB", p.name());
        if (r == nullptr || base == nullptr) {
          row.push_back("-");
          row.push_back("-");
          continue;
        }
        row.push_back(bench::improvement(base->simulated_seconds,
                                         r->simulated_seconds));
        row.push_back(std::to_string(r->dtlb_walks_4k + r->dtlb_walks_2m +
                                     r->dtlb_walks_1g));
      }
      table.add_row(row);
    }
    table.print();
  } else {
    std::cout << "\nHeadline reproduction (4 threads, Opteron; Fig. 3/4/5):\n";
    TextTable table({"app", "2MB improv @4T", "DTLB walk reduction",
                     "ITLB misses/sec", "xeon 2MB improv @8T"});
    for (npb::Kernel k : spec.kernels) {
      const std::string kernel = npb::kernel_name(k);
      const exec::RunRecord* o4k = cold.find(kernel, opteron, 4, "4KB");
      const exec::RunRecord* o2m = cold.find(kernel, opteron, 4, "2MB");
      const exec::RunRecord* x4k = cold.find(kernel, xeon, 8, "4KB");
      const exec::RunRecord* x2m = cold.find(kernel, xeon, 8, "2MB");
      const count_t w4k = o4k->dtlb_walks_4k + o4k->dtlb_walks_2m;
      const count_t w2m = o2m->dtlb_walks_4k + o2m->dtlb_walks_2m;
      table.add_row(
          {kernel,
           bench::improvement(o4k->simulated_seconds, o2m->simulated_seconds),
           w2m ? format_ratio(static_cast<double>(w4k) /
                              static_cast<double>(w2m)) +
                     "x"
               : "inf",
           format_ratio(static_cast<double>(o4k->itlb_misses) /
                        (o4k->simulated_seconds > 0 ? o4k->simulated_seconds
                                                    : 1.0)),
           bench::improvement(x4k->simulated_seconds, x2m->simulated_seconds)});
    }
    table.print();
    std::cout << "\nPaper targets: CG ~25%, SP ~20%, MG ~17% @4T Opteron; "
                 "BT/FT flat;\nDTLB reduction >=10x for CG/SP/MG vs 2-3x for "
                 "BT/FT; ITLB negligible;\nSP ~13% @8T Xeon.\n";
  }

  // --- JSON document ------------------------------------------------------
  const std::string path = opts.get("json", "");
  const bool host = opts.get_flag("json-host");
  exec::JsonWriter w;
  w.begin_object();
  w.field("schema", "lpomp-sweep-all-v1");
  w.key("warm_rerun");
  w.begin_object();
  w.field("tasks", static_cast<std::uint64_t>(warm.records.size()));
  w.field("cache_hits", static_cast<std::uint64_t>(warm.cache_hits()));
  w.field("cache_hit_rate", warm_hit_rate);
  w.field("identical_to_cold", identical);
  if (host) w.field("wall_ms", warm.wall_ms);
  w.end_object();
  if (host) {
    // Provenance is scheduling-dependent (which task leads and which rides
    // as a lane), so it lives with the host-only fields.
    w.key("trace");
    w.begin_object();
    w.field("enabled", spec.trace_backed);
    w.field("lanes", static_cast<std::uint64_t>(prov.lane));
    w.field("folded", static_cast<std::uint64_t>(prov.fold));
    w.field("live", static_cast<std::uint64_t>(prov.live));
    w.end_object();
  }
  w.key("sweep");
  w.raw(cold.to_json(host));
  w.end_object();
  if (!path.empty()) {
    std::ofstream os(path);
    if (!os) {
      std::cerr << "cannot write --json=" << path << "\n";
      return 2;
    }
    os << w.str() << "\n";
    std::cout << "\nwrote " << path << "\n";
  }

  // --- BENCH summary (--json-out) -----------------------------------------
  // Compact perf-trend document: wall-clock, cache-hit rate and fusion
  // counts, plus one wall-time/provenance row per grid point. CI uploads
  // it and warns (non-blocking) when wall-clock regresses against the
  // committed reference.
  const std::string bench_path = opts.get("json-out", "");
  if (!bench_path.empty()) {
    // The admission-queue peak is daemon-side state: sweep_all itself runs
    // unqueued, so without --shm= the field reports 0 for schema parity.
    // With --shm=NAME it probes the live daemon's ring via the stats
    // request and reports the real high-water mark.
    std::uint64_t queue_depth_peak = 0;
    const std::string shm = opts.get("shm", "");
    if (!shm.empty()) {
      try {
        serve::SweepClient stats_client(shm);
        const exec::JsonValue doc = exec::json_parse(stats_client.stats());
        queue_depth_peak =
            doc.at("stats").at("queue_depth_peak").as_uint64();
      } catch (const std::exception& e) {
        std::cerr << "warning: stats probe of --shm=" << shm
                  << " failed: " << e.what() << "\n";
      }
    }
    exec::JsonWriter b;
    b.begin_object();
    b.field("schema", "lpomp-bench-sweep-v8");
    b.field("klass", std::string(npb::klass_name(klass)));
    b.field("workers", static_cast<std::uint64_t>(cold.workers));
    b.field("strategy", exec::strategy_name(strategy));
    b.key("paging");
    b.begin_array();
    for (const paging::PolicySpec& p : spec.paging_policies) {
      b.value(p.name());
    }
    b.end_array();
    b.field("runs", static_cast<std::uint64_t>(cold.records.size()));
    b.field("cold_wall_ms", cold.wall_ms);
    b.field("warm_wall_ms", warm.wall_ms);
    b.field("warm_cache_hit_rate", warm_hit_rate);
    // Persistent-store telemetry (all zero when --store-dir= is not given).
    b.key("store");
    b.begin_object();
    b.field("enabled", scheduler.disk_store() != nullptr);
    b.field("hits", cold.store.hits + warm.store.hits);
    b.field("misses", cold.store.misses + warm.store.misses);
    b.field("insertions", cold.store.insertions + warm.store.insertions);
    b.field("quarantined", cold.store.quarantined + warm.store.quarantined);
    b.field("bytes_read", cold.store.bytes_read + warm.store.bytes_read);
    b.field("bytes_written",
            cold.store.bytes_written + warm.store.bytes_written);
    b.end_object();
    b.field("admission_queue_depth_peak", queue_depth_peak);
    b.key("lane_stats");
    b.begin_object();
    b.field("fused_groups", static_cast<std::uint64_t>(cold.fused_groups));
    b.field("fused_lanes", static_cast<std::uint64_t>(cold.fused_lanes));
    b.field("folded_lanes", static_cast<std::uint64_t>(cold.folded_lanes));
    b.end_object();
    b.key("runs_detail");
    b.begin_array();
    for (const exec::RunRecord& r : cold.records) {
      b.begin_object();
      b.field("label",
              r.kernel + "." + r.klass + "/" + r.platform + "/" +
                  std::to_string(r.threads) + "T/" + r.page_kind +
                  (r.paging == "native" ? "" : "/" + r.paging));
      b.field("paging", r.paging);
      b.field("wall_ms", r.wall_ms);
      b.field("source", r.trace_source);
      b.field("cache_hit", r.cache_hit);
      b.field("store_hit", r.store_hit);
      b.end_object();
    }
    b.end_array();
    b.end_object();
    std::ofstream os(bench_path);
    if (!os) {
      std::cerr << "cannot write --json-out=" << bench_path << "\n";
      return 2;
    }
    os << b.str() << "\n";
    std::cout << "wrote " << bench_path << "\n";
  }

  if (!identical) {
    std::cerr << "FAIL: warm rerun diverged from cold sweep\n";
    return 1;
  }
  if (warm_hit_rate < 0.9) {
    std::cerr << "FAIL: warm-cache hit rate " << format_percent(warm_hit_rate)
              << " below 90%\n";
    return 1;
  }
  return 0;
}
