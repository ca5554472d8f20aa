// Shared plumbing for the paper-reproduction bench harnesses: platform
// selection, runtime-config construction, and result formatting. Every
// harness runs with sensible defaults (`for b in build/bench/*; do $b; done`
// regenerates every table/figure) and honours --klass= / --kernels= /
// LPOMP_* environment overrides.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/cli.hpp"
#include "exec/scheduler.hpp"
#include "npb/npb.hpp"
#include "paging/policy.hpp"
#include "support/format.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

namespace lpomp::bench {

inline sim::ProcessorSpec platform_by_name(const std::string& name) {
  if (name == "xeon") return sim::ProcessorSpec::xeon_ht();
  if (name == "modern") return sim::ProcessorSpec::modern();
  return sim::ProcessorSpec::opteron270();
}

/// Parses --paging= as a comma-separated paging-policy list ("native,
/// hugetlb2m,huge1g,thp"). Unknown tokens abort with the valid set; an
/// absent flag yields the single native (identity) policy, preserving
/// historical behaviour. --thp-seed/--thp-frag/--thp-growth/--thp-interval
/// override the THP fragmentation model for every thp entry in the list
/// (all four are part of the result fingerprint).
inline std::vector<paging::PolicySpec> paging_from(const Options& opts) {
  const std::string list = opts.get("paging", "native");
  paging::ThpParams thp;
  // base 0: --thp-seed accepts decimal or 0x-prefixed hex.
  thp.frag_seed = std::strtoull(
      opts.get("thp-seed", std::to_string(thp.frag_seed)).c_str(), nullptr, 0);
  thp.frag_base = opts.get_double("thp-frag", thp.frag_base);
  thp.frag_growth = opts.get_double("thp-growth", thp.frag_growth);
  thp.compaction_interval = static_cast<std::uint32_t>(
      opts.get_int("thp-interval", thp.compaction_interval));
  std::vector<paging::PolicySpec> out;
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    const std::string token = list.substr(start, comma - start);
    start = comma + 1;
    paging::Policy p;
    if (!paging::policy_from_name(token, p)) {
      std::cerr << "unknown paging policy '" << token << "' in --paging="
                << list << " (valid: native,base4k,hugetlb2m,huge1g,thp)\n";
      std::exit(2);
    }
    paging::PolicySpec spec;
    spec.policy = p;
    if (p == paging::Policy::thp) spec.thp = thp;
    out.push_back(spec);
  }
  return out;
}

/// Runtime config for one simulated run.
inline core::RuntimeConfig make_config(const sim::ProcessorSpec& spec,
                                       unsigned threads, PageKind kind) {
  core::RuntimeConfig cfg;
  cfg.num_threads = threads;
  cfg.page_kind = kind;
  cfg.sim = core::SimConfig{spec, sim::CostModel{}, 0x5eedULL};
  return cfg;
}

/// One kernel run; aborts loudly if the kernel fails verification, since a
/// wrong answer invalidates the timing.
inline npb::NpbResult run_checked(npb::Kernel kernel, npb::Klass klass,
                                  const sim::ProcessorSpec& spec,
                                  unsigned threads, PageKind kind) {
  npb::NpbResult r =
      npb::run_kernel(kernel, klass, make_config(spec, threads, kind));
  if (!r.verified) {
    std::cerr << "VERIFICATION FAILED: " << npb::kernel_name(kernel) << "."
              << npb::klass_name(klass) << " (" << spec.name << ", "
              << page_kind_name(kind) << ", " << threads
              << "T): " << r.verification_detail << "\n";
    std::exit(2);
  }
  return r;
}

inline std::string improvement(double t4k, double t2m) {
  return format_percent((t4k - t2m) / t4k);
}

// --- experiment-engine plumbing (parallel harnesses) -------------------------

/// The sweep's execution strategy from --strategy=live|auto (default
/// auto). Results are bit-identical under every strategy. A retired
/// spelling (--strategy=recorded|analytic|multilane) exits 2 like any
/// unknown name.
inline exec::Strategy strategy_from(const Options& opts) {
  const std::string name = opts.get("strategy", "auto");
  const std::optional<exec::Strategy> s = exec::strategy_from_name(name);
  if (!s) {
    std::cerr << "unknown --strategy=" << name << " (valid: "
              << exec::kStrategyNames << ")\n";
    std::exit(2);
  }
  return *s;
}

/// --workers= / LPOMP_WORKERS: 0 → one per host core. A negative count
/// exits 2 rather than wrapping to ~4 billion pool threads.
inline unsigned workers_from(const Options& opts) {
  const long workers = opts.get_int("workers", 0);
  if (workers < 0) {
    std::cerr << "invalid --workers=" << workers
              << " (expected 0 for one per core, or a positive count)\n";
    std::exit(2);
  }
  return static_cast<unsigned>(workers);
}

/// Scheduler sized from --workers= (workers_from above);
/// --strategy= picks the execution strategy (strategy_from above);
/// --store-dir= layers the disk-persistent result store under the LRU so
/// results survive the process. Results are bit-identical under any
/// combination. A main that calls it accepts these three flags.
inline exec::Scheduler make_scheduler(const Options& opts) {
  exec::Scheduler::Config cfg;
  cfg.workers = workers_from(opts);
  cfg.strategy = strategy_from(opts);
  cfg.store_dir = opts.get("store-dir", "");
  return exec::Scheduler(cfg);
}

/// Provenance counts of a sweep: how many records ran "live" (leaders and
/// solo runs), rode a fused group as a "lane", or were copied from a
/// provably equivalent point ("fold").
struct TraceProvenance {
  std::size_t live = 0;
  std::size_t lane = 0;
  std::size_t fold = 0;
};

inline TraceProvenance trace_provenance(const exec::SweepResult& result) {
  TraceProvenance p;
  for (const exec::RunRecord& r : result.records) {
    if (r.trace_source == "lane") {
      ++p.lane;
    } else if (r.trace_source == "fold") {
      ++p.fold;
    } else {
      ++p.live;
    }
  }
  return p;
}

/// Aborts loudly if any run of the sweep failed or mis-verified — the
/// engine-level analogue of run_checked (a wrong answer invalidates the
/// timing, so no table is printed from a bad sweep).
inline void require_all_verified(const exec::SweepResult& result) {
  for (const exec::RunRecord& r : result.records) {
    if (!r.ok) {
      std::cerr << "RUN FAILED: " << r.kernel << "." << r.klass << " ("
                << r.platform << ", " << r.page_kind << ", " << r.threads
                << "T): " << r.error << "\n";
      std::exit(2);
    }
    if (!r.verified) {
      std::cerr << "VERIFICATION FAILED: " << r.kernel << "." << r.klass
                << " (" << r.platform << ", " << r.page_kind << ", "
                << r.threads << "T)\n";
      std::exit(2);
    }
  }
}

/// Writes the sweep's JSON document to --json=<path> when given. By default
/// only deterministic fields are emitted, so two invocations with different
/// --workers= diff byte-identically; --json-host adds wall times and cache
/// provenance.
inline void write_json(const Options& opts, const exec::SweepResult& result) {
  const std::string path = opts.get("json", "");
  if (path.empty()) return;
  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot write --json=" << path << "\n";
    std::exit(2);
  }
  os << result.to_json(opts.get_flag("json-host")) << "\n";
  std::cout << "\nwrote " << path << " (" << result.records.size()
            << " runs)\n";
}

}  // namespace lpomp::bench
