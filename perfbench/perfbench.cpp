// lpomp_perfbench — the measuring side of the lpomp benchmark.
//
// run.py owns the workloads, the seeds, the repetition loop and every
// statistic; this binary only does the work of one measured process and
// writes its raw samples as one JSON document (--out=FILE):
//
//   lpomp_perfbench setup --workers=N --out=FILE
//   lpomp_perfbench grid  --grid=NAME --seed=N --workers=N --strategy=S
//                         --out=FILE [--trace --work=DIR]
//   lpomp_perfbench serve --daemon=PATH --store=DIR --shm=NAME --workers=N
//                         --seed=N --requests=FILE --out=FILE [--log=FILE]
//                         [--trace]
//
// `setup` constructs the scheduler kSetupConstructions times (setup
// samples). `grid` drives exec::Scheduler::run over one workload grid
// exactly as sweep_all does by default (trace store 2048 MiB, strategy auto
// unless --strategy= says otherwise): a cold pass and a warm pass. With --trace it then times calls into each layer's public
// functions on the workload's own streams and results (probe_layers below).
//
// `serve` launches the sweep_service daemon over an empty persistent store
// and sends it one cold grid, kPopulates times; relaunches it over the
// populated store kSetupLaunches times (setup samples); then runs the closed
// request loop from --requests with one SweepClient, restarting the daemon
// where the file says "restart".
#include <sys/resource.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exec/disk_store.hpp"
#include "exec/fingerprint.hpp"
#include "exec/json.hpp"
#include "exec/scheduler.hpp"
#include "npb/npb.hpp"
#include "serve/client.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "sim/machine.hpp"
#include "support/options.hpp"
#include "trace/codec.hpp"
#include "trace/lane.hpp"
#include "trace/plan.hpp"
#include "trace/recorder.hpp"
#include "trace/replay.hpp"
#include "trace/store.hpp"

using namespace lpomp;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

long maxrss_kb_self() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

void write_array(exec::JsonWriter& w, const std::string& name,
                 const std::vector<double>& values) {
  w.key(name);
  w.begin_array();
  for (double v : values) w.value(v);
  w.end_array();
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text << "\n";
  return static_cast<bool>(out);
}

std::vector<paging::PolicySpec> all_policies() {
  std::vector<paging::PolicySpec> out;
  for (paging::Policy p :
       {paging::Policy::native, paging::Policy::base4k,
        paging::Policy::hugetlb2m, paging::Policy::huge1g,
        paging::Policy::thp}) {
    paging::PolicySpec s;
    s.policy = p;
    out.push_back(s);
  }
  return out;
}

/// The workload grids. grid-S-paging and grid-W-live are the measured
/// grids; serve-populate is the class-S grid serve-mix fills its store with
/// (the same request sweep_client sends by default), run in-process for the
/// serve-mix layer probes.
bool grid_spec(const std::string& name, std::uint64_t seed,
               exec::SweepSpec& spec) {
  if (name == "grid-S-paging") {
    // As sweep_all --paging=...: the layout axis collapses to 4 KB and one
    // stream per kernel x threads feeds every platform and policy column.
    spec = exec::SweepSpec::figure4(npb::Klass::S);
    spec.page_kinds = {PageKind::small4k};
    spec.paging_policies = all_policies();
  } else if (name == "grid-W-live") {
    spec = exec::SweepSpec::figure4(npb::Klass::W);
    spec.kernels = {npb::Kernel::CG, npb::Kernel::MG, npb::Kernel::GUPS};
  } else if (name == "serve-populate") {
    spec = exec::SweepSpec::figure4(npb::Klass::S);
  } else {
    return false;
  }
  spec.base_seed = seed;
  return true;
}

serve::SweepRequest request_for(const exec::SweepSpec& spec) {
  serve::SweepRequest req;
  req.kernels = spec.kernels;
  req.klass = spec.klass;
  req.platforms = {"opteron", "xeon"};
  req.threads = spec.threads;
  req.page_kinds = spec.page_kinds;
  req.paging.clear();
  for (const paging::PolicySpec& p : spec.paging_policies) {
    req.paging.push_back(p.name());
  }
  req.base_seed = spec.base_seed;
  return req;
}

// --- layer probes ------------------------------------------------------------

/// Per-access host cost of the trace, sim, tlb, cache, paging, npb and mem
/// layers on the workload's own address streams: one stream per kernel
/// (4 threads, 4 KB layout, Opteron, the workload seed), plus the
/// element-level layers on the first events of thread 0 of the CG and GUPS
/// streams. Replays are checked against the live run they stand for; every
/// disagreement is counted in `mismatches`.
struct StreamProbe {
  double live_ms = 0, accesses = 0, record_ns = 0, record_accesses = 0;
  double trace_accesses = 0, bytes = 0, decode_ms = 0, compile_ms = 0,
         plan_bytes = 0, replay_ms = 0, analytic_ms = 0, lane_ms = 0,
         lane_accesses = 0, substrate_ms = 0;
  double sim_ns = 0, sim_accesses = 0, tlb_ns = 0, cache_ns = 0,
         thp_ns = 0, huge1g_ns = 0, elem_accesses = 0;
  double sim_walks = 0, sim_l1d_misses = 0;
  std::uint64_t checks = 0, mismatches = 0;
  std::uint64_t sink = 0;  ///< keeps the element loops observable
};

constexpr std::size_t kProbeEvents = std::size_t{1} << 21;
constexpr unsigned kProbeThreads = 4;

/// Hands one decoded event to a ThreadEncoder or a ThreadSim: both take
/// touch/touch_run/touch_strided; `compute` takes the compute events.
template <typename Target, typename Compute>
void apply_event(Target& target, const trace::Event& ev, Compute compute) {
  switch (ev.kind) {
    case trace::Event::Kind::touch:
      target.touch(ev.addr, ev.page, ev.access);
      break;
    case trace::Event::Kind::run:
      target.touch_run(ev.addr, ev.arg, ev.page, ev.access);
      break;
    case trace::Event::Kind::strided:
      target.touch_strided(ev.addr, ev.arg, ev.stride, ev.page, ev.access);
      break;
    case trace::Event::Kind::compute:
      compute(ev.arg);
      break;
  }
}

void probe_elements(const trace::Trace& tr, const trace::ReplaySubstrate& sub,
                    std::uint64_t seed, StreamProbe& p) {
  std::vector<trace::Event> events;
  trace::ThreadDecoder dec(tr.streams[0]);
  for (;;) {
    const trace::ThreadDecoder::Item it = dec.next();
    if (it.kind == trace::ThreadDecoder::ItemKind::end) break;
    if (it.kind == trace::ThreadDecoder::ItemKind::event) {
      events.push_back(it.event);
      if (events.size() == kProbeEvents) break;
    }
  }

  // Element addresses (run/strided events expanded) for the single-lookup
  // layers, capped at kProbeEvents.
  std::vector<std::pair<vaddr_t, PageKind>> addrs;
  std::uint64_t accesses = 0;
  for (const trace::Event& ev : events) {
    if (ev.kind == trace::Event::Kind::compute) continue;
    const std::uint64_t n = ev.kind == trace::Event::Kind::touch ? 1 : ev.arg;
    accesses += n;
    for (std::uint64_t i = 0; i < n && addrs.size() < kProbeEvents; ++i) {
      addrs.emplace_back(ev.addr + static_cast<vaddr_t>(
                                       static_cast<std::int64_t>(i) *
                                       ev.stride),
                         ev.page);
    }
  }
  const double a = static_cast<double>(accesses);
  const double n = static_cast<double>(addrs.size());

  // trace: re-encoding the decoded events is the recorder's per-access cost.
  {
    trace::ThreadEncoder enc;
    const auto t0 = Clock::now();
    for (const trace::Event& ev : events) {
      apply_event(enc, ev, [&enc](cycles_t c) { enc.compute(c); });
    }
    enc.finish();
    p.record_ns += seconds_since(t0) * 1e9;
    p.record_accesses += a;
    p.sink += enc.bytes().size();
  }

  // sim: ThreadSim::touch/touch_run/touch_strided on the decoded events.
  {
    sim::Machine machine(sim::ProcessorSpec::opteron270(), sim::CostModel{},
                         sub.space(), kProbeThreads, seed);
    sim::ThreadSim& ts = machine.thread(0);
    const auto t0 = Clock::now();
    for (const trace::Event& ev : events) {
      apply_event(ts, ev, [&ts](cycles_t c) { ts.add_compute(c); });
    }
    p.sim_ns += seconds_since(t0) * 1e9;
    p.sim_accesses += a;
    p.sim_walks += static_cast<double>(ts.counters().dtlb_walk_total());
    p.sim_l1d_misses += static_cast<double>(ts.counters().l1d_misses);
  }

  const sim::ProcessorSpec spec = sim::ProcessorSpec::opteron270();
  {
    tlb::Tlb dtlb(spec.l1_dtlb);
    const auto t0 = Clock::now();
    for (const auto& [addr, kind] : addrs) {
      const vpn_t vpn = addr >> page_shift(kind);
      if (!dtlb.lookup(vpn, kind)) dtlb.insert(vpn, kind);
    }
    p.tlb_ns += seconds_since(t0) * 1e9;
    p.sink += dtlb.occupancy(PageKind::small4k);
  }
  {
    cache::Cache l1d("L1D", spec.l1d);
    const auto t0 = Clock::now();
    for (const auto& [addr, kind] : addrs) l1d.access(addr, false);
    p.cache_ns += seconds_since(t0) * 1e9;
    p.sink += l1d.stats().hits;
  }
  for (paging::Policy policy : {paging::Policy::thp, paging::Policy::huge1g}) {
    paging::PolicySpec ps;
    ps.policy = policy;
    const paging::PagingModel model(ps);
    std::uint64_t acc = 0;
    const auto t0 = Clock::now();
    for (const auto& [addr, kind] : addrs) {
      acc += model.translate(addr, kind).vpn;
    }
    (policy == paging::Policy::thp ? p.thp_ns : p.huge1g_ns) +=
        seconds_since(t0) * 1e9;
    p.sink += acc;
  }
  p.elem_accesses += n;
}

void check(StreamProbe& p, bool same) {
  ++p.checks;
  if (!same) ++p.mismatches;
}

/// Simulated time and every profile counter equal.
bool same_outcome(double s1, const prof::ProfileReport& p1, double s2,
                  const prof::ProfileReport& p2) {
  if (s1 != s2 || p1.events().size() != p2.events().size()) return false;
  for (std::size_t i = 0; i < p1.events().size(); ++i) {
    if (p1.events()[i].name != p2.events()[i].name ||
        p1.events()[i].count != p2.events()[i].count) {
      return false;
    }
  }
  return true;
}

void probe_trace(const trace::Trace& tr, const npb::NpbResult& live,
                 std::uint64_t seed,
                 const std::vector<paging::PolicySpec>& policies,
                 StreamProbe& p) {
  const sim::ProcessorSpec opteron = sim::ProcessorSpec::opteron270();
  const double accesses = static_cast<double>(tr.meta.accesses);
  p.trace_accesses += accesses;
  for (const std::string& s : tr.streams) {
    p.bytes += static_cast<double>(s.size());
  }

  auto t0 = Clock::now();
  std::uint64_t blocks = 0;
  for (const std::string& s : tr.streams) {
    trace::ThreadDecoder dec(s);
    trace::ThreadDecoder::Block block;
    while (dec.next_block(block)) ++blocks;
  }
  p.decode_ms += seconds_since(t0) * 1e3;
  p.sink += blocks;

  t0 = Clock::now();
  const std::shared_ptr<const trace::TracePlan> plan =
      trace::TracePlan::compile(tr);
  p.compile_ms += seconds_since(t0) * 1e3;
  p.plan_bytes += static_cast<double>(plan->bytes());

  trace::ReplayConfig rc;
  rc.spec = opteron;
  rc.seed = seed;
  rc.analytic = false;
  t0 = Clock::now();
  const trace::ReplayOutcome interp = trace::ReplayDriver(rc).run(tr);
  p.replay_ms += seconds_since(t0) * 1e3;
  check(p, same_outcome(interp.simulated_seconds, interp.profile,
                     live.simulated_seconds, live.profile));

  rc.analytic = true;
  t0 = Clock::now();
  const trace::ReplayOutcome fast = trace::ReplayDriver(rc).run(tr, *plan);
  p.analytic_ms += seconds_since(t0) * 1e3;
  check(p, same_outcome(fast.simulated_seconds, fast.profile,
                     live.simulated_seconds, live.profile));

  // Lanes: every platform x policy column of the stream, one decode pass.
  std::vector<trace::ReplayConfig> lanes;
  for (const sim::ProcessorSpec& platform :
       {opteron, sim::ProcessorSpec::xeon_ht()}) {
    for (const paging::PolicySpec& policy : policies) {
      trace::ReplayConfig lane;
      lane.spec = platform;
      lane.seed = seed;
      lane.paging = policy;
      lane.analytic = false;
      lanes.push_back(lane);
    }
  }
  t0 = Clock::now();
  const std::vector<trace::ReplayOutcome> outs =
      trace::MultiReplayDriver(lanes).run(tr);
  p.lane_ms += seconds_since(t0) * 1e3;
  p.lane_accesses += accesses * static_cast<double>(lanes.size());
  // Lane 0 is the Opteron under the workload's first policy; with a native
  // first policy it must equal the live run.
  if (policies.front().is_native()) {
    check(p, !outs.empty() &&
          same_outcome(outs[0].simulated_seconds, outs[0].profile,
                       live.simulated_seconds, live.profile));
  }
}

void probe_stream(npb::Kernel kernel, npb::Klass klass, std::uint64_t seed,
                  const std::vector<paging::PolicySpec>& policies,
                  StreamProbe& p) {
  const sim::ProcessorSpec opteron = sim::ProcessorSpec::opteron270();
  core::RuntimeConfig cfg;
  cfg.num_threads = kProbeThreads;
  cfg.page_kind = PageKind::small4k;
  cfg.sim = core::SimConfig{opteron, sim::CostModel{}, seed};

  auto t0 = Clock::now();
  const npb::NpbResult live = npb::run_kernel(kernel, klass, cfg);
  p.live_ms += seconds_since(t0) * 1e3;

  trace::TraceRecorder recorder(kProbeThreads);
  cfg.trace_sink = &recorder;
  const npb::NpbResult recorded = npb::run_kernel(kernel, klass, cfg);
  trace::TraceMeta meta;
  meta.kernel = npb::kernel_name(kernel);
  meta.klass = npb::klass_name(klass);
  meta.threads = kProbeThreads;
  meta.page_kind = PageKind::small4k;
  meta.platform = opteron.name;
  meta.seed = seed;
  meta.verified = recorded.verified;
  meta.checksum = recorded.checksum;
  const trace::Trace tr = recorder.finish(std::move(meta));
  p.accesses += static_cast<double>(tr.meta.accesses);

  check(p, live.verified && recorded.verified &&
        same_outcome(live.simulated_seconds, live.profile,
                     recorded.simulated_seconds, recorded.profile));

  t0 = Clock::now();
  const trace::ReplaySubstrate sub(kernel, klass, PageKind::small4k);
  p.substrate_ms += seconds_since(t0) * 1e3;

  if (kernel == npb::Kernel::CG || kernel == npb::Kernel::GUPS) {
    probe_elements(tr, sub, seed, p);
  }
  // At class W only the GUPS stream goes through the trace layer: CG.W's
  // compiled plan alone is past the 3 GiB address-space cap (about 7 GB of
  // plan bytes), and grid-W-live runs live, so it never compiles one.
  if (klass == npb::Klass::W && kernel != npb::Kernel::GUPS) return;
  probe_trace(tr, live, seed, policies, p);
}

/// Samples the scheduler's trace-store residency while a pass runs.
class StorePeakSampler {
 public:
  explicit StorePeakSampler(trace::TraceStore& store)
      : store_(store), thread_([this] { loop(); }) {}
  ~StorePeakSampler() { stop(); }
  StorePeakSampler(const StorePeakSampler&) = delete;
  StorePeakSampler& operator=(const StorePeakSampler&) = delete;

  std::size_t stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    return peak_;
  }

 private:
  void loop() {
    while (!stop_.load()) {
      peak_ = std::max(peak_, store_.stats().bytes);
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    peak_ = std::max(peak_, store_.stats().bytes);
  }

  trace::TraceStore& store_;
  std::atomic<bool> stop_{false};
  std::size_t peak_ = 0;
  std::thread thread_;
};

/// Median round trip of `n` stats requests through an in-process daemon
/// (the ring layer alone: answering a stats request runs no sweep).
double ring_rtt_us(const std::string& shm, unsigned n,
                   std::uint64_t& errors) {
  serve::SweepService::Config cfg;
  cfg.shm_name = shm;
  cfg.scheduler.workers = 1;
  serve::SweepService service(cfg);
  std::atomic<bool> stop{false};
  std::thread server([&] { service.serve(stop); });
  std::vector<double> us;
  try {
    serve::SweepClient client(shm);
    for (unsigned i = 0; i < n; ++i) {
      const auto t0 = Clock::now();
      try {
        client.stats();
        us.push_back(seconds_since(t0) * 1e6);
      } catch (const std::exception&) {
        ++errors;
      }
    }
  } catch (const std::exception&) {
    ++errors;
  }
  stop.store(true);
  server.join();
  return median(us);
}

/// Store layer on the workload's own results: insert every cold record,
/// reopen the store, look every record up again.
void probe_store(const std::vector<exec::RunTask>& tasks,
                 const exec::SweepResult& cold, const std::string& dir,
                 exec::JsonWriter& w, std::uint64_t& checks,
                 std::uint64_t& mismatches) {
  std::filesystem::remove_all(dir);
  std::vector<std::string> keys;
  for (const exec::RunTask& t : tasks) keys.push_back(exec::cache_key(t));
  std::vector<double> insert_us, lookup_us;
  {
    exec::DiskResultStore store(dir);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const auto t0 = Clock::now();
      store.insert(keys[i], cold.records[i]);
      insert_us.push_back(seconds_since(t0) * 1e6);
    }
  }
  const auto t0 = Clock::now();
  exec::DiskResultStore store(dir);
  const double open_ms = seconds_since(t0) * 1e3;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto t1 = Clock::now();
    const std::optional<exec::RunRecord> r = store.lookup(keys[i]);
    lookup_us.push_back(seconds_since(t1) * 1e6);
    ++checks;
    if (!r || !r->same_result(cold.records[i])) ++mismatches;
  }
  w.field("exec.store.lookup_us", median(lookup_us));
  w.field("exec.store.insert_us", median(insert_us));
  w.field("exec.store.open_ms", open_ms);
  w.field("exec.store.quarantined", store.stats().quarantined);
  std::filesystem::remove_all(dir);
}

void probe_layers(const exec::SweepSpec& spec, const exec::SweepResult& cold,
                  const std::string& work, exec::JsonWriter& w) {
  std::uint64_t checks = 0, mismatches = 0;
  probe_store(spec.expand(), cold, work + "/store-probe", w, checks,
              mismatches);

  StreamProbe p;
  for (npb::Kernel k : spec.kernels) {
    probe_stream(k, spec.klass, spec.base_seed, spec.paging_policies, p);
  }
  checks += p.checks;
  mismatches += p.mismatches;
  w.field("trace.record_ns_per_access", p.record_ns / p.record_accesses);
  w.field("trace.bytes_per_access", p.bytes / p.trace_accesses);
  w.field("trace.decode_ns_per_access", p.decode_ms * 1e6 / p.trace_accesses);
  w.field("trace.plan_compile_ms", p.compile_ms);
  w.field("trace.plan_bytes", p.plan_bytes);
  w.field("trace.replay_ns_per_access",
          p.replay_ms * 1e6 / p.trace_accesses);
  w.field("trace.analytic_ns_per_access",
          p.analytic_ms * 1e6 / p.trace_accesses);
  w.field("trace.lane_ns_per_access", p.lane_ms * 1e6 / p.lane_accesses);
  w.field("npb.live_run_ms", p.live_ms);
  w.field("npb.accesses", p.accesses);
  w.field("sim.ns_per_access", p.sim_ns / p.sim_accesses);
  w.field("tlb.lookup_ns", p.tlb_ns / p.elem_accesses);
  w.field("cache.access_ns", p.cache_ns / p.elem_accesses);
  w.field("paging.translate_ns.thp", p.thp_ns / p.elem_accesses);
  w.field("paging.translate_ns.huge1g", p.huge1g_ns / p.elem_accesses);
  w.field("tlb.walks_per_kaccess", p.sim_walks * 1e3 / p.sim_accesses);
  w.field("cache.l1d_miss_ratio", p.sim_l1d_misses / p.sim_accesses);
  w.field("mem.substrate_build_ms", p.substrate_ms);

  const serve::SweepRequest req = request_for(spec);
  const std::string line = serve::encode_request(req);
  std::vector<double> decode_us, encode_us;
  for (int i = 0; i < 200; ++i) {
    const auto t0 = Clock::now();
    const serve::SweepRequest back = serve::decode_request(line);
    decode_us.push_back(seconds_since(t0) * 1e6);
    p.sink += back.kernels.size();
  }
  for (int i = 0; i < 20; ++i) {
    const auto t0 = Clock::now();
    p.sink += serve::encode_response(cold).size();
    encode_us.push_back(seconds_since(t0) * 1e6);
  }
  ++checks;
  if (serve::encode_request(serve::decode_request(line)) != line) {
    ++mismatches;
  }
  std::uint64_t errors = 0;
  w.field("serve.wire.decode_request_us", median(decode_us));
  w.field("serve.wire.encode_response_us", median(encode_us));
  w.field("serve.ring.rtt_us",
          ring_rtt_us("/lpomp-perfbench-probe-" + std::to_string(getpid()),
                      200, errors));
  w.field("serve.error_responses", errors);
  w.field("probe_checks", checks);
  w.field("probe_mismatches", mismatches);
  w.field("probe_sink", p.sink % 1000);
}

// --- grid -------------------------------------------------------------------

/// sweep_all's default engine configuration, workers from the command line.
exec::Scheduler::Config engine_config(const Options& opts) {
  exec::Scheduler::Config cfg;
  cfg.workers = static_cast<unsigned>(opts.get_int("workers", 4));
  cfg.trace_store_bytes = MiB(2048);
  return cfg;
}

/// Setup: the scheduler being constructed (pool threads, topology, stores),
/// kSetupConstructions times in this process. The per-process median is
/// bimodal (about 35 or 47 us with 2 workers on a 4-vCPU VM, fixed for the
/// process's lifetime), so run.py spreads setup over many short processes.
constexpr int kSetupConstructions = 25;

int cmd_setup(const Options& opts) {
  const std::string out_path = opts.get("out", "");
  if (out_path.empty()) {
    std::cerr << "setup: need --out=FILE\n";
    return 2;
  }
  const exec::Scheduler::Config cfg = engine_config(opts);
  std::vector<double> setup_s;
  std::unique_ptr<exec::Scheduler> sched;
  for (int i = 0; i < kSetupConstructions; ++i) {
    sched.reset();
    const auto t0 = Clock::now();
    sched = std::make_unique<exec::Scheduler>(cfg);
    setup_s.push_back(seconds_since(t0));
  }
  exec::JsonWriter w;
  w.begin_object();
  write_array(w, "setup_s", setup_s);
  w.end_object();
  return write_file(out_path, w.str()) ? 0 : 2;
}

int cmd_grid(const Options& opts) {
  const std::string name = opts.get("grid", "");
  const std::uint64_t seed = std::stoull(opts.get("seed", "1"));
  const std::optional<exec::Strategy> strategy =
      exec::strategy_from_name(opts.get("strategy", "auto"));
  const std::string out_path = opts.get("out", "");
  const bool traced = opts.get_flag("trace");
  const std::string work = opts.get("work", ".");
  exec::SweepSpec spec;
  if (!grid_spec(name, seed, spec) || !strategy || out_path.empty()) {
    std::cerr << "grid: need --grid=grid-S-paging|grid-W-live|serve-populate"
                 " --out=FILE [--strategy=live|recorded|multilane|analytic|"
                 "auto]\n";
    return 2;
  }
  spec.trace_backed =
      exec::resolve_strategy(*strategy) != exec::Strategy::Live;

  exec::Scheduler::Config cfg = engine_config(opts);
  cfg.strategy = *strategy;
  auto sched = std::make_unique<exec::Scheduler>(cfg);

  std::unique_ptr<StorePeakSampler> sampler;
  if (traced) {
    sampler = std::make_unique<StorePeakSampler>(sched->trace_store());
  }
  auto t0 = Clock::now();
  const exec::SweepResult cold = sched->run(spec);
  const double cold_wall = seconds_since(t0);
  const std::size_t store_peak = sampler ? sampler->stop() : 0;

  t0 = Clock::now();
  const exec::SweepResult warm = sched->run(spec);
  const double warm_wall = seconds_since(t0);

  exec::JsonWriter w;
  w.begin_object();
  w.field("cold_wall_s", cold_wall);
  w.key("records");
  w.begin_array();
  for (const exec::RunRecord& r : cold.records) w.value(r.to_json(false));
  w.end_array();
  w.key("bad");
  w.begin_array();
  for (std::size_t i = 0; i < cold.records.size(); ++i) {
    if (!cold.records[i].ok || !cold.records[i].verified) {
      w.value(static_cast<std::uint64_t>(i));
    }
  }
  w.end_array();
  w.key("warm_differs");
  w.begin_array();
  for (std::size_t i = 0; i < cold.records.size(); ++i) {
    if (i >= warm.records.size() ||
        !warm.records[i].same_result(cold.records[i])) {
      w.value(static_cast<std::uint64_t>(i));
    }
  }
  w.end_array();

  if (traced) {
    // A fused lane's wall_ms is its shard's replay wall divided by the
    // shard's lanes, and a leader's trace finish and plan compile fall in
    // no record, so idle_share counts that time as idle.
    double busy_ms = 0.0;
    for (const exec::RunRecord& r : cold.records) busy_ms += r.wall_ms;
    w.key("layers");
    w.begin_object();
    w.field("exec.busy_ms", busy_ms);
    w.field("exec.idle_share",
            1.0 - busy_ms / (sched->workers() * cold_wall * 1e3));
    w.field("exec.fused_lanes",
            static_cast<std::uint64_t>(cold.fused_lanes));
    w.field("exec.fallbacks",
            static_cast<std::uint64_t>(cold.replay_fallbacks));
    w.field("exec.failed_tasks", static_cast<std::uint64_t>(cold.failed()));
    w.field("exec.warm_pass_ms", warm_wall * 1e3);
    w.field("exec.warm_hit_rate",
            static_cast<double>(warm.cache_hits()) /
                static_cast<double>(warm.records.size()));
    w.field("trace.store_peak_bytes",
            static_cast<std::uint64_t>(store_peak));
    // Wall the caller saw beyond the sweep's own wall_ms.
    w.field("serve.wait_ms", cold_wall * 1e3 - cold.wall_ms);
    sched.reset();  // the probes below measure layers, not a live pool
    probe_layers(spec, cold, work, w);
    w.end_object();
  }
  w.field("maxrss_kb", static_cast<std::uint64_t>(maxrss_kb_self()));
  w.end_object();
  return write_file(out_path, w.str()) ? 0 : 2;
}

// --- serve ------------------------------------------------------------------

constexpr int kPopulates = 5;       ///< cold populate grids, each on a new store
constexpr int kSetupLaunches = 15;  ///< launches over the populated store

struct Daemon {
  pid_t pid = -1;
  double setup_s = 0.0;
};

/// fork/exec of the daemon, which inherits this process's address-space cap
/// (RLIMIT_AS, set by run.py), then polls the ring until the first stats
/// reply: launch-to-ready is the setup time.
bool launch_daemon(const Options& opts, Daemon& d, std::string& error) {
  const std::string daemon = opts.get("daemon", "");
  const std::string shm = opts.get("shm", "");
  const std::string log = opts.get("log", "/dev/null");
  std::vector<std::string> args = {
      daemon, "--shm=" + shm, "--store-dir=" + opts.get("store", ""),
      "--workers=" + opts.get("workers", "4")};
  const auto t0 = Clock::now();
  d.pid = fork();
  if (d.pid < 0) {
    error = "fork failed";
    return false;
  }
  if (d.pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGTERM);  // the daemon never outlives its client
    const int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      dup2(fd, 1);
      dup2(fd, 2);
    }
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    execv(argv[0], argv.data());
    _exit(127);
  }
  for (;;) {
    try {
      serve::SweepClient probe(shm);
      probe.stats(std::chrono::milliseconds(5000));
      d.setup_s = seconds_since(t0);
      return true;
    } catch (const std::exception&) {
    }
    int status = 0;
    if (waitpid(d.pid, &status, WNOHANG) == d.pid) {
      error = "daemon exited during startup";
      d.pid = -1;
      return false;
    }
    if (seconds_since(t0) > 60.0) {
      error = "daemon not ready after 60 s";
      kill(d.pid, SIGKILL);
      waitpid(d.pid, &status, 0);
      d.pid = -1;
      shm_unlink(shm.c_str());
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

/// SIGTERM, wait, and collect the daemon's peak RSS. False when the daemon
/// did not exit cleanly (abort, OOM kill, bad_alloc).
bool stop_daemon(Daemon& d, const std::string& shm, long& maxrss_kb) {
  if (d.pid <= 0) return false;
  kill(d.pid, SIGTERM);
  int status = 0;
  struct rusage ru {};
  wait4(d.pid, &status, 0, &ru);
  d.pid = -1;
  maxrss_kb = ru.ru_maxrss;
  shm_unlink(shm.c_str());  // no-op after a clean exit; reclaims after a crash
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/// One request line of the generated mix: "point K PLATFORM T PAGE POLICY",
/// "grid K" (one kernel's Figure 4 grid) or "populate" (every kernel).
bool parse_request(const std::string& line, std::uint64_t seed,
                   serve::SweepRequest& req) {
  std::istringstream in(line);
  std::string kind;
  in >> kind;
  req = serve::SweepRequest{};
  req.klass = npb::Klass::S;
  req.base_seed = seed;
  if (kind == "populate") return true;
  std::string kernel;
  in >> kernel;
  bool found = false;
  for (npb::Kernel k : npb::all_kernels()) {
    if (kernel == npb::kernel_name(k)) {
      req.kernels = {k};
      found = true;
    }
  }
  if (!found) return false;
  if (kind == "grid") return true;
  if (kind != "point") return false;
  std::string platform, page, policy;
  unsigned threads = 0;
  in >> platform >> threads >> page >> policy;
  if (!in || (page != "4KB" && page != "2MB")) return false;
  req.platforms = {platform};
  req.threads = {threads};
  req.page_kinds = {page == "4KB" ? PageKind::small4k : PageKind::large2m};
  req.paging = {policy};
  return true;
}

/// The deterministic member of an ok response (the byte-stable part a
/// repeat answer must reproduce exactly); empty for anything else.
std::string deterministic_part(const std::string& response) {
  static const std::string marker = "\"deterministic\":";
  const std::size_t pos = response.find(marker);
  if (pos == std::string::npos || response.empty()) return {};
  return response.substr(pos + marker.size(),
                         response.size() - 1 - pos - marker.size());
}

/// The sweep's own wall_ms as the daemon reported it (the summary precedes
/// the runs, so the first wall_ms in the document is the sweep's).
double reported_wall_ms(const std::string& response) {
  const std::size_t pos = response.find("\"wall_ms\":");
  if (pos == std::string::npos) return 0.0;
  return std::strtod(response.c_str() + pos + 10, nullptr);
}

int cmd_serve(const Options& opts) {
  const std::string shm = opts.get("shm", "");
  const std::string out_path = opts.get("out", "");
  const std::uint64_t seed = std::stoull(opts.get("seed", "1"));
  const bool traced = opts.get_flag("trace");
  std::vector<std::string> lines;
  {
    std::ifstream in(opts.get("requests", ""));
    for (std::string line; std::getline(in, line);) {
      if (!line.empty()) lines.push_back(line);
    }
  }
  if (shm.empty() || out_path.empty() || lines.empty() ||
      opts.get("daemon", "").empty() || opts.get("store", "").empty()) {
    std::cerr << "serve: need --daemon= --store= --shm= --requests= --out=\n";
    return 2;
  }

  std::vector<double> cold_wall, populate_rss, setup_s, rtt_ms, wait_ms,
      ring_us;
  std::uint64_t attempted = 0, errors = 0, mismatches = 0, aborts = 0;
  std::map<std::string, std::string> first_answer;
  std::string fatal;
  double loop_s = 0.0;
  std::size_t next = 0;

  // Every launch and every request is one attempted operation.
  auto launch = [&](Daemon& d) {
    ++attempted;
    if (launch_daemon(opts, d, fatal)) return true;
    ++aborts;
    return false;
  };
  auto stop = [&](Daemon& d) {
    long kb = 0;
    if (!stop_daemon(d, shm, kb)) ++aborts;
    return static_cast<double>(kb);
  };
  // One request; returns false when the daemon is gone.
  auto submit = [&](serve::SweepClient& client, const std::string& line,
                    double* rtt_out) {
    serve::SweepRequest req;
    ++attempted;
    if (!parse_request(line, seed, req)) {
      ++errors;
      return true;
    }
    try {
      const auto t0 = Clock::now();
      const std::string resp = client.submit(req, std::chrono::seconds(60));
      const double ms = seconds_since(t0) * 1e3;
      if (rtt_out != nullptr) *rtt_out = ms;
      rtt_ms.push_back(ms);
      wait_ms.push_back(ms - reported_wall_ms(resp));
      const std::string det = deterministic_part(resp);
      auto [it, inserted] = first_answer.emplace(line, det);
      if (det.empty() || (!inserted && it->second != det)) ++mismatches;
    } catch (const std::exception&) {
      ++errors;
      return false;
    }
    return true;
  };

  // Populate: the cold grid through a daemon over an empty store, repeated
  // from scratch kPopulates times, then the same grid warm (answered from
  // the last daemon's cache).
  const std::string store = opts.get("store", "");
  Daemon d;
  try {
    for (int i = 0; i < kPopulates && fatal.empty(); ++i) {
      std::filesystem::remove_all(store);
      std::filesystem::create_directories(store);
      if (!launch(d)) break;
      {
        serve::SweepClient client(shm);
        double ms = 0.0;
        if (submit(client, "populate", &ms)) cold_wall.push_back(ms / 1e3);
        // The warm repeat must come back byte-identical from the cache.
        if (i + 1 == kPopulates) submit(client, "populate", nullptr);
      }
      populate_rss.push_back(stop(d));
    }
    rtt_ms.clear();
    wait_ms.clear();
    // Setup samples: launches over the populated store, which every one of
    // them finds in the same state.
    for (int i = 0; i < kSetupLaunches && fatal.empty(); ++i) {
      if (launch(d)) {
        setup_s.push_back(d.setup_s);
        stop(d);
      }
    }
    // The closed loop over the request lines; a "restart" line stops the
    // daemon and launches it again over the same store, so the next phase
    // reads what the earlier one wrote back from disk. Launch time is not
    // loop time.
    if (fatal.empty() && launch(d)) {
      auto client = std::make_unique<serve::SweepClient>(shm);
      while (next < lines.size()) {
        const std::string& line = lines[next++];
        if (line == "restart") {
          client.reset();
          stop(d);
          if (!launch(d)) break;
          client = std::make_unique<serve::SweepClient>(shm);
          continue;
        }
        const auto t0 = Clock::now();
        const bool alive = submit(*client, line, nullptr);
        loop_s += seconds_since(t0);
        if (!alive) break;
      }
      if (traced && d.pid > 0) {
        for (int i = 0; i < 200; ++i) {
          const auto t1 = Clock::now();
          try {
            client->stats();
            ring_us.push_back(seconds_since(t1) * 1e6);
          } catch (const std::exception&) {
            ++errors;
          }
        }
      }
      client.reset();
      if (d.pid > 0) stop(d);
    }
  } catch (const std::exception& e) {
    // A client that cannot reach the daemon any more: record it, and never
    // leave a daemon behind.
    fatal = e.what();
    if (d.pid > 0) stop(d);
  }

  exec::JsonWriter w;
  w.begin_object();
  write_array(w, "cold_wall_s", cold_wall);
  write_array(w, "populate_rss_kb", populate_rss);
  write_array(w, "setup_s", setup_s);
  write_array(w, "rtt_ms", rtt_ms);
  write_array(w, "wait_ms", wait_ms);
  write_array(w, "ring_rtt_us", ring_us);
  w.field("loop_s", loop_s);
  w.field("attempted", attempted);
  w.field("unsent", static_cast<std::uint64_t>(lines.size() - next));
  w.field("errors", errors);
  w.field("mismatches", mismatches);
  w.field("aborts", aborts);
  w.field("fatal", fatal);
  w.field("populate_det", first_answer["populate"]);
  w.end_object();
  return write_file(out_path, w.str()) ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const std::string cmd = opts.positional().empty() ? "" : opts.positional()[0];
  try {
    if (cmd == "setup") return cmd_setup(opts);
    if (cmd == "grid") return cmd_grid(opts);
    if (cmd == "serve") return cmd_serve(opts);
  } catch (const std::exception& e) {
    std::cerr << "lpomp_perfbench " << cmd << ": " << e.what() << "\n";
    return 1;
  }
  std::cerr << "usage: lpomp_perfbench setup|grid|serve [--key=value ...]\n";
  return 2;
}
