// Trace workbench: record a kernel's access trace in process, then time its
// replay tiers or analyse its locality structure.
//
//   trace_tools bench --kernel=CG --klass=S,W --threads=4 --pages=4KB
//                     [--repeat=10] [--json-out=FILE]
//   trace_tools stats --kernel=CG --klass=S --threads=4 --pages=2MB
//
// Both subcommands also take [--platform=opteron|xeon|modern] [--seed=N]
// (decimal or 0x hex) [--code-pages=4KB|2MB] (defaults: opteron, 0x5eed,
// 4KB), which configure the recording run and, for `bench`, every replay.
// Each recording runs the kernel live with a TraceRecorder attached; a run
// that fails verification records nothing and exits 2.
//
// `bench` times the interpreted and analytic per-replay paths of each
// class's trace (minimum of --repeat runs each, plan compiled once) and
// asserts they agree counter-for-counter — the replay micro-benchmark CI
// gates on. `stats` prints stride histograms, hot-page counts and
// reuse-distance profiles at 4 KB and 2 MB granularity — the quantities
// that explain which kernels large pages help.
#include <algorithm>
#include <chrono>

#include "bench/bench_common.hpp"
#include "exec/json.hpp"
#include "trace/plan.hpp"
#include "trace/recorder.hpp"
#include "trace/replay.hpp"
#include "trace/stats.hpp"

using namespace lpomp;

namespace {

/// The recording run's knobs, shared by every class a subcommand records.
struct RecordKnobs {
  npb::Kernel kernel;
  sim::ProcessorSpec spec;
  unsigned threads;
  PageKind pages;
  PageKind code_pages;
  std::uint64_t seed;
};

RecordKnobs knobs_from(const Options& opts) {
  const sim::ProcessorSpec spec =
      bench::platform_by_name(opts.get("platform", "opteron"));
  const long threads = opts.get_int("threads", 4);
  if (threads < 1 || threads > static_cast<long>(spec.max_threads())) {
    std::cerr << "invalid --threads=" << threads << " (" << spec.name
              << " runs 1.." << spec.max_threads() << ")\n";
    std::exit(2);
  }
  return {bench::kernel_by_name(opts.get("kernel", "CG")), spec,
          static_cast<unsigned>(threads),
          bench::page_kind_by_name(opts.get("pages", "4KB"), "--pages="),
          bench::page_kind_by_name(opts.get("code-pages", "4KB"),
                                   "--code-pages="),
          opts.get_uint64("seed", 0x5eed)};
}

/// Runs the kernel live with a TraceRecorder attached and returns the
/// trace. A kernel that fails verification exits 2: its stream explains
/// nothing.
trace::Trace record(const RecordKnobs& k, npb::Klass klass) {
  trace::TraceRecorder recorder(k.threads);
  core::RuntimeConfig cfg;
  cfg.num_threads = k.threads;
  cfg.page_kind = k.pages;
  cfg.code_page_kind = k.code_pages;
  cfg.sim = core::SimConfig{k.spec, sim::CostModel{}, k.seed};
  cfg.trace_sink = &recorder;
  const npb::NpbResult r = npb::run_kernel(k.kernel, klass, cfg);
  if (!r.verified) {
    std::cerr << npb::kernel_name(k.kernel) << "." << npb::klass_name(klass)
              << " failed verification — no trace recorded\n";
    std::exit(2);
  }

  trace::TraceMeta meta;
  meta.kernel = npb::kernel_name(k.kernel);
  meta.klass = npb::klass_name(klass);
  meta.threads = k.threads;
  meta.page_kind = k.pages;
  meta.platform = k.spec.name;
  meta.code_page_kind = k.code_pages;
  meta.seed = k.seed;
  meta.verified = r.verified;
  meta.checksum = r.checksum;
  return recorder.finish(std::move(meta));
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

BenchEntry bench_one(const trace::Trace& trace,
                     const trace::ReplayConfig& cfg, int repeat) {
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
/// meaningless — so the bench doubles as an identity check. --klass accepts
/// a comma-separated class list so one invocation measures the analytic
/// advantage across problem classes (it grows with accesses-per-line); each
/// class is recorded just before it is measured. --json-out writes the
/// machine-readable rows CI compares against its committed reference (the
/// speedup ratio is host-independent, so CI gates on it).
int cmd_bench(const Options& opts) {
  const RecordKnobs knobs = knobs_from(opts);
  std::vector<npb::Klass> klasses;
  const std::string list = opts.get("klass", "S");
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    klasses.push_back(bench::klass_by_name(list.substr(start, comma - start)));
    start = comma + 1;
  }
  const int repeat = std::max(1, static_cast<int>(opts.get_int("repeat", 10)));
  trace::ReplayConfig cfg;
  cfg.spec = knobs.spec;
  cfg.seed = knobs.seed;
  cfg.code_page_kind = knobs.code_pages;

  std::vector<BenchEntry> entries;
  bool all_same = true;
  for (const npb::Klass klass : klasses) {
    const BenchEntry e = bench_one(record(knobs, klass), cfg, repeat);
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
  const trace::Trace trace = record(
      knobs_from(opts), bench::klass_by_name(opts.get("klass", "S")));
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
      {"kernel", "klass", "platform", "threads", "pages", "code-pages", "seed",
       "repeat", "json-out"});
  const std::string cmd =
      opts.positional().empty() ? "" : opts.positional().front();
  try {
    if (cmd == "bench") return cmd_bench(opts);
    if (cmd == "stats") return cmd_stats(opts);
  } catch (const trace::TraceError& e) {
    std::cerr << "trace error: " << e.what() << "\n";
    return 2;
  }
  std::cerr << "usage: trace_tools <bench|stats> --kernel=CG --klass=S "
               "--threads=4 --pages=4KB|2MB\n"
               "                   [--platform=opteron|xeon|modern] "
               "[--seed=N] [--code-pages=4KB|2MB]\n"
               "  bench  --klass=S[,W...] [--repeat=10] [--json-out=FILE]\n"
               "  stats\n";
  return 2;
}
