// Trace workbench: record kernel access traces to files, replay them on any
// platform/cost configuration, and analyse their locality structure.
//
//   trace_tools record    --kernel=CG --klass=S --threads=4 --pages=2MB
//                         --out=cg.lptrace [--platform=opteron] [--seed=N]
//   trace_tools replay    --in=cg.lptrace [--platform=xeon] [--seed=N]
//                         [--code-pages=4KB] [--check]
//   trace_tools multilane --in=cg.lptrace [--seed=N] [--check]
//   trace_tools bench     --in=cg_s.lptrace,cg_w.lptrace [--repeat=10]
//                         [--json-out=FILE]
//   trace_tools stats     --in=cg.lptrace
//
// `record` runs the kernel live with the recorder attached and writes the
// compressed trace. `replay` re-drives the simulator from the file through
// a compiled TracePlan with the analytic fast-forward tier and prints the
// profile; with --check it
// also runs the same config live and verifies every counter matches
// bit-for-bit. `multilane` replays the file once onto the whole platform ×
// code-page grid — every grid point is a lane of one MultiReplayDriver
// pass, so the trace is decoded exactly once; with --check each lane is
// also compared counter-for-counter against its standalone single-lane
// replay. `bench` times the interpreted and analytic per-replay paths
// (minimum of --repeat runs each, plan compiled once) and asserts they
// agree counter-for-counter — the replay micro-benchmark CI gates on.
// `stats` decodes the trace and prints stride histograms, hot-page counts
// and reuse-distance profiles at 4 KB and 2 MB granularity — the
// quantities that explain which kernels large pages help.
#include <algorithm>
#include <chrono>

#include "bench/bench_common.hpp"
#include "exec/json.hpp"
#include "trace/io.hpp"
#include "trace/lane.hpp"
#include "trace/plan.hpp"
#include "trace/recorder.hpp"
#include "trace/replay.hpp"
#include "trace/stats.hpp"

using namespace lpomp;

namespace {

PageKind pages_from(const Options& opts, const char* key) {
  const std::string v = opts.get(key, "4KB");
  if (v == "2MB" || v == "2mb" || v == "large") return PageKind::large2m;
  return PageKind::small4k;
}

void print_profile(const prof::ProfileReport& profile, double seconds) {
  profile.print(std::cout);
  std::cout << "simulated time: " << format_seconds(seconds) << "s\n";
}

int cmd_record(const Options& opts) {
  const std::string out = opts.get("out", "");
  if (out.empty()) {
    std::cerr << "record: need --out=<file>\n";
    return 2;
  }
  const npb::Kernel kernel = trace::kernel_from_name(opts.get("kernel", "CG"));
  const npb::Klass klass = bench::klass_by_name(opts.get("klass", "S"));
  const sim::ProcessorSpec spec =
      bench::platform_by_name(opts.get("platform", "opteron"));
  const unsigned threads = static_cast<unsigned>(opts.get_int("threads", 4));
  const PageKind pages = pages_from(opts, "pages");
  const PageKind code_pages = pages_from(opts, "code-pages");
  const std::uint64_t seed =
      static_cast<std::uint64_t>(opts.get_int("seed", 0x5eed));

  trace::TraceRecorder recorder(threads);
  core::RuntimeConfig cfg;
  cfg.num_threads = threads;
  cfg.page_kind = pages;
  cfg.code_page_kind = code_pages;
  cfg.sim = core::SimConfig{spec, sim::CostModel{}, seed};
  cfg.trace_sink = &recorder;
  const npb::NpbResult r = npb::run_kernel(kernel, klass, cfg);
  if (!r.verified) {
    std::cerr << "record: kernel failed verification — not writing a trace\n";
    return 2;
  }

  trace::TraceMeta meta;
  meta.kernel = npb::kernel_name(kernel);
  meta.klass = npb::klass_name(klass);
  meta.threads = threads;
  meta.page_kind = pages;
  meta.platform = spec.name;
  meta.code_page_kind = code_pages;
  meta.seed = seed;
  meta.verified = r.verified;
  meta.checksum = r.checksum;
  const trace::Trace trace = recorder.finish(std::move(meta));
  trace::save_trace_file(out, trace);

  std::size_t bytes = 0;
  for (const std::string& s : trace.streams) bytes += s.size();
  std::cout << "recorded " << trace.key() << ": "
            << format_count(trace.meta.accesses) << " accesses, "
            << trace.boundaries.size() << " boundaries, "
            << format_bytes(bytes) << " encoded ("
            << format_ratio(8.0 * static_cast<double>(bytes) /
                            static_cast<double>(trace.meta.accesses))
            << " bits/access) -> " << out << "\n";
  print_profile(r.profile, r.simulated_seconds);
  return 0;
}

int cmd_replay(const Options& opts) {
  const std::string in = opts.get("in", "");
  if (in.empty()) {
    std::cerr << "replay: need --in=<file>\n";
    return 2;
  }
  const trace::Trace trace = trace::load_trace_file(in);
  trace::ReplayConfig cfg;
  cfg.spec = bench::platform_by_name(opts.get("platform", "opteron"));
  cfg.seed = static_cast<std::uint64_t>(opts.get_int("seed", 0x5eed));
  cfg.code_page_kind = pages_from(opts, "code-pages");

  std::cout << "replaying " << trace.key() << " (recorded on "
            << trace.meta.platform << ") on " << cfg.spec.name
            << " [analytic]\n";
  const trace::ReplayOutcome out =
      trace::ReplayDriver(cfg).run(trace, *trace::TracePlan::compile(trace));
  print_profile(out.profile, out.simulated_seconds);

  if (opts.get_flag("check")) {
    exec::RunTask task;
    task.kernel = trace::kernel_from_name(trace.meta.kernel);
    task.klass = trace::klass_from_name(trace.meta.klass);
    task.spec = cfg.spec;
    task.cost = cfg.cost;
    task.threads = trace.meta.threads;
    task.page_kind = trace.meta.page_kind;
    task.code_page_kind = cfg.code_page_kind;
    task.seed = cfg.seed;
    const bool same = exec::Scheduler::execute_task(task).same_result(
        exec::Scheduler::replay_record(task, out));
    std::cout << "live check: counters "
              << (same ? "identical" : "DIFFER") << "\n";
    if (!same) return 1;
  }
  return 0;
}

int cmd_multilane(const Options& opts) {
  const std::string in = opts.get("in", "");
  if (in.empty()) {
    std::cerr << "multilane: need --in=<file>\n";
    return 2;
  }
  const trace::Trace trace = trace::load_trace_file(in);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(opts.get_int("seed", 0x5eed));

  // The full replay-knob grid: both platforms × both code page kinds.
  // A platform without enough hardware contexts for the recorded thread
  // count cannot host a lane; it is skipped, not an error.
  std::vector<trace::ReplayConfig> cfgs;
  std::vector<std::string> skipped;
  for (const sim::ProcessorSpec& spec :
       {sim::ProcessorSpec::opteron270(), sim::ProcessorSpec::xeon_ht()}) {
    for (const PageKind code : {PageKind::small4k, PageKind::large2m}) {
      if (trace.meta.threads > spec.total_contexts()) {
        skipped.push_back(spec.name);
        continue;
      }
      trace::ReplayConfig c;
      c.spec = spec;
      c.seed = seed;
      c.code_page_kind = code;
      cfgs.push_back(c);
    }
  }
  if (cfgs.empty()) {
    std::cerr << "multilane: " << trace.meta.threads
              << " recorded threads fit no platform\n";
    return 2;
  }

  std::cout << "multi-lane replay of " << trace.key() << ": " << cfgs.size()
            << " lanes, one decode pass";
  if (!skipped.empty()) {
    std::cout << " (" << skipped.size() / 2 << " platform(s) skipped: too "
              << "few contexts)";
  }
  std::cout << "\n";

  const std::vector<trace::ReplayOutcome> outs =
      trace::MultiReplayDriver(cfgs).run(trace);

  const bool check = opts.get_flag("check");
  std::size_t mismatches = 0;
  std::vector<std::string> headers = {"platform", "code pages", "cycles",
                                      "simulated s"};
  if (check) headers.push_back("vs solo replay");
  TextTable table(headers);
  for (std::size_t lane = 0; lane < cfgs.size(); ++lane) {
    const trace::ReplayOutcome& out = outs[lane];
    std::vector<std::string> row = {
        cfgs[lane].spec.name,
        std::string(page_kind_name(cfgs[lane].code_page_kind)),
        format_count(out.profile.count(prof::ProfileReport::kCycles)),
        format_seconds(out.simulated_seconds)};
    if (check) {
      const trace::ReplayOutcome solo =
          trace::ReplayDriver(cfgs[lane]).run(trace);
      bool same = solo.simulated_seconds == out.simulated_seconds &&
                  solo.profile.events().size() == out.profile.events().size();
      for (std::size_t i = 0; same && i < solo.profile.events().size(); ++i) {
        same = solo.profile.events()[i].count == out.profile.events()[i].count;
      }
      if (!same) ++mismatches;
      row.push_back(same ? "identical" : "DIFFER");
    }
    table.add_row(row);
  }
  table.print();
  if (mismatches > 0) {
    std::cerr << "FAIL: " << mismatches
              << " lane(s) diverged from single-lane replay\n";
    return 1;
  }
  return 0;
}

/// One trace's bench measurements: min-of-repeat timings for the three
/// replay tiers, the analytic/interpreted speedup, an interpreted-vs-
/// analytic counter-identity verdict, and the trace's element-access count
/// (the scaling axis — the analytic tier's advantage grows with
/// accesses-per-line, which is why the reference carries both a class S
/// and a class W entry of the same kernel).
struct BenchEntry {
  std::string trace_key;
  std::uint64_t accesses = 0;
  double interp_ms = 0.0;
  double plan_interp_ms = 0.0;
  double analytic_ms = 0.0;
  double compile_ms = 0.0;
  double speedup = 0.0;
  bool identical = false;
};

BenchEntry bench_one(const std::string& path, const trace::ReplayConfig& cfg,
                     int repeat) {
  const trace::Trace trace = trace::load_trace_file(path);

  using clock = std::chrono::steady_clock;
  auto ms_of = [](clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(clock::now() - t0)
        .count();
  };

  BenchEntry e;
  e.trace_key = trace.key();
  e.accesses = trace::analyze_trace(trace).element_accesses;

  const auto tc = clock::now();
  const std::shared_ptr<const trace::TracePlan> plan =
      trace::TracePlan::compile(trace);
  e.compile_ms = ms_of(tc);

  trace::ReplayConfig interp = cfg;
  interp.analytic = false;
  trace::ReplayConfig analytic = cfg;
  analytic.analytic = true;

  trace::ReplayOutcome out_i = trace::ReplayDriver(interp).run(trace);
  e.interp_ms = 1e300;
  for (int r = 0; r < repeat; ++r) {
    const auto t0 = clock::now();
    out_i = trace::ReplayDriver(interp).run(trace);
    e.interp_ms = std::min(e.interp_ms, ms_of(t0));
  }
  // Plan + interpretation isolates the decode saving from the analytic
  // fast-forward saving in the table below.
  e.plan_interp_ms = 1e300;
  for (int r = 0; r < repeat; ++r) {
    const auto t0 = clock::now();
    trace::ReplayDriver(interp).run(trace, *plan);
    e.plan_interp_ms = std::min(e.plan_interp_ms, ms_of(t0));
  }
  trace::ReplayOutcome out_a = trace::ReplayDriver(analytic).run(trace, *plan);
  e.analytic_ms = 1e300;
  for (int r = 0; r < repeat; ++r) {
    const auto t0 = clock::now();
    out_a = trace::ReplayDriver(analytic).run(trace, *plan);
    e.analytic_ms = std::min(e.analytic_ms, ms_of(t0));
  }

  bool same = out_i.simulated_seconds == out_a.simulated_seconds &&
              out_i.profile.events().size() == out_a.profile.events().size();
  for (std::size_t i = 0; same && i < out_i.profile.events().size(); ++i) {
    same = out_i.profile.events()[i].count == out_a.profile.events()[i].count;
  }
  e.identical = same;
  e.speedup = e.analytic_ms > 0.0 ? e.interp_ms / e.analytic_ms : 0.0;
  return e;
}

/// Per-replay micro-benchmark: interpreted (stream decode + batched
/// interpreter) vs analytic (compiled plan + closed-form fast-forward),
/// minimum of --repeat runs each after one warm-up. The two paths must
/// agree counter-for-counter — a timing from diverging replays would be
/// meaningless — so the bench doubles as an identity check. --in accepts a
/// comma-separated trace list so one invocation measures the analytic
/// advantage across problem classes (it grows with accesses-per-line).
/// --json-out writes the machine-readable rows CI compares against its
/// committed reference (the speedup ratio is host-independent, so CI gates
/// on it).
int cmd_bench(const Options& opts) {
  const std::string in = opts.get("in", "");
  if (in.empty()) {
    std::cerr << "bench: need --in=<file>[,<file>...]\n";
    return 2;
  }
  std::vector<std::string> paths;
  std::size_t start = 0;
  while (start <= in.size()) {
    std::size_t comma = in.find(',', start);
    if (comma == std::string::npos) comma = in.size();
    if (comma > start) paths.push_back(in.substr(start, comma - start));
    start = comma + 1;
  }
  const int repeat = std::max(1, static_cast<int>(opts.get_int("repeat", 10)));
  trace::ReplayConfig cfg;
  cfg.spec = bench::platform_by_name(opts.get("platform", "opteron"));
  cfg.seed = static_cast<std::uint64_t>(opts.get_int("seed", 0x5eed));
  cfg.code_page_kind = pages_from(opts, "code-pages");

  std::vector<BenchEntry> entries;
  bool all_same = true;
  for (const std::string& path : paths) {
    const BenchEntry e = bench_one(path, cfg, repeat);
    all_same = all_same && e.identical;
    std::cout << "replay bench " << e.trace_key << " on " << cfg.spec.name
              << " (min of " << repeat << ", " << format_count(e.accesses)
              << " accesses):\n"
              << "  interpreted        " << format_ratio(e.interp_ms)
              << " ms/replay (stream decode + batched interpreter)\n"
              << "  plan+interpreted   " << format_ratio(e.plan_interp_ms)
              << " ms/replay (decode-free, fast-forward off)\n"
              << "  analytic           " << format_ratio(e.analytic_ms)
              << " ms/replay (plan compile " << format_ratio(e.compile_ms)
              << " ms, once per stream)\n"
              << "  speedup            " << format_ratio(e.speedup)
              << "x; counters " << (e.identical ? "identical" : "DIFFER")
              << "\n";
    entries.push_back(e);
  }

  const std::string json_path = opts.get("json-out", "");
  if (!json_path.empty()) {
    exec::JsonWriter w;
    w.begin_object();
    w.field("schema", "lpomp-bench-replay-v2");
    w.field("platform", cfg.spec.name);
    w.field("repeat", static_cast<std::uint64_t>(repeat));
    w.field("identical", all_same);
    w.key("entries");
    w.begin_array();
    for (const BenchEntry& e : entries) {
      w.begin_object();
      w.field("trace", e.trace_key);
      w.field("accesses", e.accesses);
      w.field("interpreted_ms", e.interp_ms);
      w.field("plan_interpreted_ms", e.plan_interp_ms);
      w.field("analytic_ms", e.analytic_ms);
      w.field("plan_compile_ms", e.compile_ms);
      w.field("speedup", e.speedup);
      w.field("identical", e.identical);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    std::ofstream os(json_path);
    if (!os) {
      std::cerr << "cannot write --json-out=" << json_path << "\n";
      return 2;
    }
    os << w.str() << "\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return all_same ? 0 : 1;
}

void print_histogram(const char* title, const std::vector<std::uint64_t>& h,
                     std::uint64_t total) {
  std::cout << title << "\n";
  for (std::size_t i = 0; i < h.size(); ++i) {
    if (h[i] == 0) continue;
    const std::uint64_t lo = i == 0 ? 0 : (1ULL << (i - 1));
    const std::uint64_t hi = i == 0 ? 0 : (1ULL << i) - 1;
    std::cout << "  [" << format_count(lo) << ", " << format_count(hi)
              << "]  " << format_count(h[i]) << "  ("
              << format_percent(static_cast<double>(h[i]) /
                                static_cast<double>(total))
              << ")\n";
  }
}

int cmd_stats(const Options& opts) {
  const std::string in = opts.get("in", "");
  if (in.empty()) {
    std::cerr << "stats: need --in=<file>\n";
    return 2;
  }
  const trace::Trace trace = trace::load_trace_file(in);
  std::cout << "trace " << trace.key() << " recorded on "
            << trace.meta.platform << " (seed " << trace.meta.seed
            << ", code pages "
            << page_kind_name(trace.meta.code_page_kind) << ", checksum "
            << trace.meta.checksum << ")\n";

  const trace::TraceStats s = trace::analyze_trace(trace);
  std::cout << "events: " << format_count(s.touch_events) << " touch/run, "
            << format_count(s.compute_events) << " compute, " << s.segments
            << " boundaries\n";
  std::cout << "element accesses: " << format_count(s.element_accesses)
            << " (" << format_count(s.loads) << " loads, "
            << format_count(s.stores) << " stores), encoded in "
            << format_bytes(s.encoded_bytes) << " = "
            << format_ratio(s.bits_per_access()) << " bits/access\n";

  std::cout << "\nstride profile: " << format_percent(
                   static_cast<double>(s.strides.unit) /
                   static_cast<double>(std::max<std::uint64_t>(
                       1, s.strides.total())))
            << " unit-stride, " << format_count(s.strides.forward)
            << " forward vs " << format_count(s.strides.backward)
            << " backward\n";
  print_histogram("stride magnitude histogram (bytes):", s.strides.buckets,
                  std::max<std::uint64_t>(1, s.strides.total()));

  auto page_summary = [](const char* label,
                         const std::unordered_map<std::uint64_t,
                                                  std::uint64_t>& pages,
                         const trace::ReuseDistance& reuse,
                         std::uint64_t tlb_entries) {
    std::uint64_t hottest = 0;
    for (const auto& [page, count] : pages) {
      hottest = std::max(hottest, count);
    }
    std::cout << label << ": " << format_count(pages.size())
              << " pages touched, hottest " << format_count(hottest)
              << " touches; reuse distance < " << tlb_entries
              << " pages covers "
              << format_percent(reuse.coverage(tlb_entries))
              << " of warm accesses (" << format_count(reuse.cold_misses())
              << " cold)\n";
  };
  std::cout << "\n";
  // Coverage thresholds: the Opteron's 32-entry / 8-entry L1 DTLBs — the
  // paper's Table 1 geometry this analysis exists to explain.
  page_summary("4KB pages", s.touches_per_4k_page, s.reuse_4k, 32);
  page_summary("2MB pages", s.touches_per_2m_page, s.reuse_2m, 8);

  print_histogram("\nreuse-distance histogram (4KB pages):",
                  s.reuse_4k.histogram(),
                  std::max<std::uint64_t>(1, s.reuse_4k.touches() -
                                                 s.reuse_4k.cold_misses()));
  print_histogram("reuse-distance histogram (2MB pages):",
                  s.reuse_2m.histogram(),
                  std::max<std::uint64_t>(1, s.reuse_2m.touches() -
                                                 s.reuse_2m.cold_misses()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = bench::parse_flags(
      argc, argv,
      {"in", "out", "kernel", "klass", "platform", "threads", "pages",
       "code-pages", "seed", "check", "repeat", "json-out"});
  const std::string cmd =
      opts.positional().empty() ? "" : opts.positional().front();
  try {
    if (cmd == "record") return cmd_record(opts);
    if (cmd == "replay") return cmd_replay(opts);
    if (cmd == "multilane") return cmd_multilane(opts);
    if (cmd == "bench") return cmd_bench(opts);
    if (cmd == "stats") return cmd_stats(opts);
  } catch (const trace::TraceError& e) {
    std::cerr << "trace error: " << e.what() << "\n";
    return 2;
  }
  std::cerr << "usage: trace_tools <record|replay|multilane|bench|stats> "
               "[options]\n"
               "  record    --kernel=CG --klass=S --threads=4 --pages=4KB|2MB "
               "--out=FILE\n"
               "  replay    --in=FILE [--platform=opteron|xeon] [--check]\n"
               "  multilane --in=FILE [--seed=N] [--check]\n"
               "  bench     --in=FILE[,FILE...] [--repeat=10] "
               "[--json-out=FILE]\n"
               "  stats     --in=FILE\n";
  return 2;
}
