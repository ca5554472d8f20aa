// Replay-identity tests: the whole point of src/trace is that a replayed
// trace reproduces the live run's profile bit-for-bit. These tests assert
// that for every kernel, across page kinds, across platforms (a trace
// recorded while simulating the Opteron replays into the exact Xeon
// profile a live Xeon run produces), across the full Figure 4 grid, and
// through the scheduler's fused lanes.
#include <gtest/gtest.h>

#include <map>

#include "exec/scheduler.hpp"
#include "mem/address_space.hpp"
#include "mem/phys_mem.hpp"
#include "npb/npb.hpp"
#include "paging/policy.hpp"
#include "prof/profile.hpp"
#include "sim/thread_sim.hpp"
#include "trace/codec.hpp"
#include "trace/plan.hpp"
#include "trace/recorder.hpp"
#include "trace/replay.hpp"
#include "trace/store.hpp"

namespace lpomp {
namespace {

struct LiveRun {
  npb::NpbResult result;
  trace::Trace trace;
};

LiveRun record_live(npb::Kernel kernel, npb::Klass klass,
                    const sim::ProcessorSpec& spec, unsigned threads,
                    PageKind pages, PageKind code_pages = PageKind::small4k,
                    std::uint64_t seed = 0x5eedULL) {
  trace::TraceRecorder recorder(threads);
  core::RuntimeConfig cfg;
  cfg.num_threads = threads;
  cfg.page_kind = pages;
  cfg.code_page_kind = code_pages;
  cfg.sim = core::SimConfig{spec, sim::CostModel{}, seed};
  cfg.trace_sink = &recorder;
  LiveRun live;
  live.result = npb::run_kernel(kernel, klass, cfg);

  trace::TraceMeta meta;
  meta.kernel = npb::kernel_name(kernel);
  meta.klass = npb::klass_name(klass);
  meta.threads = threads;
  meta.page_kind = pages;
  meta.platform = spec.name;
  meta.code_page_kind = code_pages;
  meta.seed = seed;
  meta.verified = live.result.verified;
  meta.checksum = live.result.checksum;
  live.trace = recorder.finish(std::move(meta));
  return live;
}

void expect_profiles_identical(const prof::ProfileReport& live,
                               const prof::ProfileReport& replayed,
                               const std::string& what) {
  for (const char* event :
       {prof::ProfileReport::kCycles, prof::ProfileReport::kAccesses,
        prof::ProfileReport::kL1dMiss, prof::ProfileReport::kL2Miss,
        prof::ProfileReport::kDtlbL1Miss, prof::ProfileReport::kDtlbWalk4k,
        prof::ProfileReport::kDtlbWalk2m, prof::ProfileReport::kItlbMiss,
        prof::ProfileReport::kWalkLevels, prof::ProfileReport::kLongStalls}) {
    EXPECT_EQ(live.count(event), replayed.count(event))
        << what << ": " << event;
  }
}

TEST(TraceReplay, EveryKernelClassS) {
  for (npb::Kernel kernel : npb::all_kernels()) {
    for (PageKind pages : {PageKind::small4k, PageKind::large2m}) {
      const sim::ProcessorSpec spec = sim::ProcessorSpec::opteron270();
      const LiveRun live =
          record_live(kernel, npb::Klass::S, spec, 4, pages);
      ASSERT_TRUE(live.result.verified);
      EXPECT_GT(live.trace.meta.accesses, 0u);

      trace::ReplayDriver driver(trace::ReplayConfig{spec, {}, 0x5eedULL,
                                                     PageKind::small4k});
      const trace::ReplayOutcome out = driver.run(live.trace);
      const std::string what = std::string(npb::kernel_name(kernel)) + "/" +
                               page_kind_name(pages);
      EXPECT_EQ(out.simulated_seconds, live.result.simulated_seconds) << what;
      EXPECT_EQ(out.checksum, live.result.checksum) << what;
      EXPECT_TRUE(out.verified) << what;
      expect_profiles_identical(live.result.profile, out.profile, what);
    }
  }
}

// The stream does not depend on the simulated platform: a trace recorded
// under the Opteron simulation replays into the exact profile of a live
// Xeon run (different TLBs, caches, SMT model, seed and code pages).
TEST(TraceReplay, CrossPlatformCrossSeed) {
  const sim::ProcessorSpec opteron = sim::ProcessorSpec::opteron270();
  const sim::ProcessorSpec xeon = sim::ProcessorSpec::xeon_ht();

  const LiveRun recorded = record_live(npb::Kernel::CG, npb::Klass::S,
                                       opteron, 4, PageKind::small4k);

  const std::uint64_t seed = 0xabcdef;
  const PageKind code_pages = PageKind::large2m;
  core::RuntimeConfig cfg;
  cfg.num_threads = 4;
  cfg.page_kind = PageKind::small4k;
  cfg.code_page_kind = code_pages;
  cfg.sim = core::SimConfig{xeon, sim::CostModel{}, seed};
  const npb::NpbResult live_xeon =
      npb::run_kernel(npb::Kernel::CG, npb::Klass::S, cfg);

  trace::ReplayDriver driver(
      trace::ReplayConfig{xeon, {}, seed, code_pages});
  const trace::ReplayOutcome out = driver.run(recorded.trace);
  EXPECT_EQ(out.simulated_seconds, live_xeon.simulated_seconds);
  expect_profiles_identical(live_xeon.profile, out.profile, "CG on xeon");
}

// Acceptance grid: every Figure 4 task (class S) replayed from its stream's
// recording — interpreted and through the compiled plan — is bit-identical
// to a forced live run. Each stream is recorded once, on the first task
// that uses it, and serves every later task of its group.
TEST(TraceReplay, Figure4GridIdentity) {
  struct Stream {
    trace::Trace trace;
    std::shared_ptr<const trace::TracePlan> plan;
  };
  std::map<std::string, Stream> streams;
  std::size_t reused = 0;
  for (const exec::RunTask& task :
       exec::SweepSpec::figure4(npb::Klass::S).expand()) {
    const std::string key = trace::trace_key(
        npb::kernel_name(task.kernel), npb::klass_name(task.klass),
        task.threads, task.page_kind);
    auto it = streams.find(key);
    if (it == streams.end()) {
      trace::Trace tr =
          record_live(task.kernel, task.klass, task.spec, task.threads,
                      task.page_kind, task.code_page_kind, task.seed)
              .trace;
      std::shared_ptr<const trace::TracePlan> plan =
          trace::TracePlan::compile(tr);
      it = streams.emplace(key, Stream{std::move(tr), std::move(plan)}).first;
    } else {
      ++reused;
    }
    const exec::RunRecord live = exec::Scheduler::execute_task(task);
    const trace::ReplayDriver driver(trace::ReplayConfig{
        task.spec, task.cost, task.seed, task.code_page_kind});
    const Stream& s = it->second;
    EXPECT_TRUE(live.same_result(
        exec::Scheduler::replay_record(task, driver.run(s.trace))))
        << task.label() << " (interpreted)";
    EXPECT_TRUE(live.same_result(
        exec::Scheduler::replay_record(task, driver.run(s.trace, *s.plan))))
        << task.label() << " (analytic)";
  }
  // The grid has two platforms: at minimum the second platform's
  // 1/2/4-thread points replay streams recorded on the first.
  EXPECT_GT(reused, 0u);
}

// End-to-end through the scheduler: a sweep whose stream groups are wide
// enough to fuse (live leader, followers as sink-fed lanes) equals a live
// sweep record-for-record. Three paging policies over two platforms give
// each (kernel, page kind) stream 6 unique points.
TEST(TraceReplay, EngineSweepMatchesLive) {
  exec::SweepSpec spec = exec::SweepSpec::figure5(npb::Klass::S, 4);
  spec.kernels = {npb::Kernel::CG, npb::Kernel::MG};
  spec.platforms.push_back(sim::ProcessorSpec::xeon_ht());
  for (const paging::Policy p :
       {paging::Policy::hugetlb2m, paging::Policy::huge1g}) {
    paging::PolicySpec policy;
    policy.policy = p;
    spec.paging_policies.push_back(policy);
  }

  spec.trace_backed = true;
  exec::Scheduler fused;
  const exec::SweepResult admitted = fused.run(spec);

  spec.trace_backed = false;
  exec::Scheduler plain;
  const exec::SweepResult live = plain.run(spec);

  ASSERT_EQ(admitted.records.size(), live.records.size());
  std::size_t lanes_seen = 0;
  for (std::size_t i = 0; i < live.records.size(); ++i) {
    EXPECT_TRUE(live.records[i].same_result(admitted.records[i]))
        << live.records[i].kernel;
    EXPECT_EQ(live.records[i].trace_source, "live");
    lanes_seen += admitted.records[i].trace_source == "lane" ? 1 : 0;
  }
  // Every stream's points after its leader ride as lanes...
  EXPECT_GT(admitted.fused_groups, 0u);
  EXPECT_EQ(admitted.fused_lanes, lanes_seen);
  EXPECT_GT(lanes_seen, 0u);
  EXPECT_EQ(admitted.replay_fallbacks, 0u);
  // ...without touching the codec or the store at all.
  EXPECT_EQ(fused.trace_store().stats().insertions, 0u);
  // Deterministic JSON is identical; trace_source is host-only provenance.
  EXPECT_EQ(admitted.to_json(false), live.to_json(false));
}

// --- corrupt-trace fuzz -----------------------------------------------------
//
// Concrete corruptions of otherwise well-formed streams, each of which must
// be rejected (TraceError) by both consumers of the bytes — the plan
// compiler and the interpreted replay decode — never misparsed or crashed
// on. Streams are 2-thread, 4 KB-page recordings.

constexpr unsigned kCorruptThreads = 2;

void expect_corrupt_rejected(const trace::Trace& corrupt,
                             const std::string& what) {
  EXPECT_THROW(trace::TracePlan::compile(corrupt), trace::TraceError) << what;
  trace::ReplayDriver driver(trace::ReplayConfig{
      sim::ProcessorSpec::opteron270(), {}, 0x5eedULL, PageKind::small4k});
  EXPECT_THROW(driver.run(corrupt), trace::TraceError) << what;
}

// Case 1: a genuine recorded stream truncated mid-pattern-block — the tail
// (END marker and trailing segments) is gone, so decode runs off the end.
TEST(TraceReplay, TruncatedPatternBlockFallsBack) {
  const LiveRun live =
      record_live(npb::Kernel::MG, npb::Klass::S,
                  sim::ProcessorSpec::opteron270(), kCorruptThreads,
                  PageKind::small4k);
  trace::Trace corrupt = live.trace;
  std::string& stream = corrupt.streams.back();
  ASSERT_GT(stream.size(), 16u);
  stream.resize(stream.size() / 2);

  expect_corrupt_rejected(corrupt, "truncated pattern block");
}

// Case 2: a single bit flipped in a STRIDED block's opcode header turns it
// into an unknown opcode — framing validation must reject the stream, not
// misparse the payload bytes that follow.
TEST(TraceReplay, BitFlippedStrideHeaderFallsBack) {
  // Hand-built well-formed streams whose first event is a strided run, so
  // the byte to corrupt sits at a known offset. (The uncorrupted trace is
  // never replayed; this test is about the corrupted bytes being
  // *rejected*, not about stream content.)
  trace::Trace corrupt;
  corrupt.meta.kernel = "CG";
  corrupt.meta.klass = "S";
  corrupt.meta.threads = kCorruptThreads;
  corrupt.meta.page_kind = PageKind::small4k;
  corrupt.meta.verified = true;
  corrupt.boundaries = {sim::BoundaryKind::end_run};
  for (unsigned t = 0; t < kCorruptThreads; ++t) {
    trace::ThreadEncoder enc;
    enc.touch_strided(0x10'0000, 300, 64, PageKind::small4k, Access::load);
    enc.touch_run(0x10'0000, 64, PageKind::small4k, Access::store);
    enc.segment();
    enc.finish();
    corrupt.streams.push_back(enc.take_bytes());
  }

  // The wire begins with the STRIDED opcode (0x05); one flipped bit makes
  // it an opcode the grammar does not define (0x25).
  std::string& stream = corrupt.streams.front();
  ASSERT_EQ(static_cast<std::uint8_t>(stream[0]), 0x05u);
  stream[0] = static_cast<char>(static_cast<std::uint8_t>(stream[0]) ^ 0x20);

  expect_corrupt_rejected(corrupt, "bit-flipped stride header");
}

// Case 3: every irregular kernel's genuine recorded stream, truncated
// mid-stream. Their wire shape is singleton-dominated (GUPS random indexes
// and PC dependent chases give stride-RLE nothing to coalesce), so the
// decoder loses the framing structure regular kernels would fail on much
// earlier — the cut must still be rejected at compile and decode time.
TEST(TraceReplay, IrregularKernelsCorruptTraceFallsBack) {
  for (npb::Kernel kernel :
       {npb::Kernel::GUPS, npb::Kernel::GT, npb::Kernel::PC}) {
    const LiveRun live =
        record_live(kernel, npb::Klass::S, sim::ProcessorSpec::opteron270(),
                    kCorruptThreads, PageKind::small4k);
    ASSERT_TRUE(live.result.verified);
    trace::Trace corrupt = live.trace;
    std::string& stream = corrupt.streams.back();
    ASSERT_GT(stream.size(), 16u);
    stream.resize(stream.size() / 2);

    expect_corrupt_rejected(corrupt, std::string("truncated ") +
                                         npb::kernel_name(kernel) + " stream");
  }
}

// Store bookkeeping: erase() drops an entry (freeing its budget share)
// without invalidating outstanding references, and is a no-op on misses.
TEST(TraceStore, EraseReleasesEntry) {
  const LiveRun live = record_live(npb::Kernel::CG, npb::Klass::S,
                                   sim::ProcessorSpec::opteron270(), 2,
                                   PageKind::small4k);
  trace::TraceStore store;
  const std::string key = live.trace.key();
  store.insert(key, live.trace);
  const std::shared_ptr<const trace::Trace> held = store.lookup(key);
  ASSERT_NE(held, nullptr);

  EXPECT_TRUE(store.erase(key));
  EXPECT_FALSE(store.erase(key));
  EXPECT_EQ(store.lookup(key), nullptr);
  const trace::TraceStore::Stats ts = store.stats();
  EXPECT_EQ(ts.traces, 0u);
  EXPECT_EQ(ts.bytes, 0u);
  EXPECT_EQ(ts.released, 1u);
  // The evicted trace is still alive through the shared_ptr.
  EXPECT_EQ(held->meta.kernel, "CG");
  EXPECT_FALSE(held->streams.empty());
}

// Replay must reject traces that do not fit the platform instead of
// crashing the simulator.
TEST(TraceReplay, RejectsImpossibleReplay) {
  const LiveRun live =
      record_live(npb::Kernel::MG, npb::Klass::S,
                  sim::ProcessorSpec::xeon_ht(), 8, PageKind::small4k);
  trace::ReplayDriver driver(trace::ReplayConfig{
      sim::ProcessorSpec::opteron270(), {}, 0x5eedULL, PageKind::small4k});
  EXPECT_THROW(driver.run(live.trace), trace::TraceError);

  trace::Trace broken = live.trace;
  broken.streams.pop_back();
  trace::ReplayDriver xeon_driver(trace::ReplayConfig{
      sim::ProcessorSpec::xeon_ht(), {}, 0x5eedULL, PageKind::small4k});
  EXPECT_THROW(xeon_driver.run(broken), trace::TraceError);
}

// --- event framing ----------------------------------------------------------

// A live touch_run/touch_strided must surface at the TraceSink as ONE run
// (or strided) event — never as n singles — and stride-8 strided calls must
// canonicalise to run framing. Any framing drift here silently changes the
// wire bytes of every recorded trace.
TEST(TraceFraming, LiveEntryPointsReportSingleEvents) {
  mem::PhysMem pm{MiB(32)};
  mem::AddressSpace space{pm};
  const mem::Region r = space.map_region(MiB(2), PageKind::small4k, "data");
  const sim::CostModel cm;
  const sim::ProcessorSpec spec = sim::ProcessorSpec::opteron270();
  sim::ThreadSim ts(cm, space, spec.itlb, spec.l1_dtlb, spec.l2_dtlb,
                    spec.l1d, spec.l2, 1);
  trace::TraceRecorder rec(1);
  ts.set_trace_sink(&rec, 0);

  ts.touch(r.base, PageKind::small4k, Access::load);
  ts.touch_run(r.base, 500, PageKind::small4k, Access::store);
  ts.touch_strided(r.base + 4096, 300, 64, PageKind::small4k, Access::load);
  ts.touch_strided(r.base, 200, 8, PageKind::small4k, Access::load);
  ts.add_compute(42);

  trace::TraceMeta meta;
  meta.kernel = "CG";
  meta.klass = "S";
  meta.threads = 1;
  const trace::Trace trace = rec.finish(std::move(meta));
  EXPECT_EQ(trace.meta.accesses, 1u + 500u + 300u + 200u);

  trace::ThreadDecoder dec(trace.streams[0]);
  const trace::Event expected[] = {
      trace::Event::touch_ev(r.base, PageKind::small4k, Access::load),
      trace::Event::run_ev(r.base, 500, PageKind::small4k, Access::store),
      trace::Event::strided_ev(r.base + 4096, 300, 64, PageKind::small4k,
                               Access::load),
      // stride 8 canonicalises to run framing at every layer.
      trace::Event::run_ev(r.base, 200, PageKind::small4k, Access::load),
      trace::Event::compute_ev(42),
  };
  for (const trace::Event& want : expected) {
    const trace::ThreadDecoder::Item item = dec.next();
    ASSERT_EQ(item.kind, trace::ThreadDecoder::ItemKind::event);
    EXPECT_EQ(item.event, want);
  }
  EXPECT_EQ(dec.next().kind, trace::ThreadDecoder::ItemKind::end);
}

// The replay side of the same invariant: ReplayDriver's pattern-block
// decode must report the identical event sequence, with identical framing,
// to an attached sink — so re-recording a replay reproduces the original
// trace byte-for-byte. CG covers runs and gathers; FT covers strided
// framing (its root-table scan records STRIDED events).
TEST(TraceFraming, ReplayReRecordsIdenticalBytes) {
  for (npb::Kernel kernel : {npb::Kernel::CG, npb::Kernel::FT}) {
    const LiveRun live =
        record_live(kernel, npb::Klass::S, sim::ProcessorSpec::opteron270(),
                    2, PageKind::small4k);

    trace::TraceRecorder rerec(live.trace.meta.threads);
    trace::ReplayConfig cfg;
    cfg.resink = &rerec;
    trace::ReplayDriver driver(cfg);
    driver.run(live.trace);

    const trace::Trace re = rerec.finish(live.trace.meta);
    ASSERT_EQ(re.streams.size(), live.trace.streams.size());
    for (std::size_t t = 0; t < re.streams.size(); ++t) {
      EXPECT_EQ(re.streams[t], live.trace.streams[t])
          << npb::kernel_name(kernel) << " thread " << t
          << ": replay re-record diverged from the original bytes";
    }
    EXPECT_EQ(re.boundaries, live.trace.boundaries);
    EXPECT_EQ(re.meta.accesses, live.trace.meta.accesses);
  }
}

}  // namespace
}  // namespace lpomp
