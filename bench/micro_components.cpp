// google-benchmark microbenchmarks of the library's building blocks: how
// fast the *simulator itself* runs on the host. These guard the
// instrumentation hot path (ThreadSim::touch) that every figure bench
// drives billions of times, plus the runtime primitives.
#include <benchmark/benchmark.h>

#include "bench/cli.hpp"
#include "cache/cache.hpp"
#include "core/runtime.hpp"
#include "dsm/msg_channel.hpp"
#include "mem/hugetlbfs.hpp"
#include "sim/machine.hpp"
#include "support/rng.hpp"
#include "tlb/tlb_hierarchy.hpp"

using namespace lpomp;

namespace {

void BM_TlbLookupHit(benchmark::State& state) {
  tlb::Tlb t({"bench", {32, 32}, {8, 8}, {0, 0}});
  t.insert(42, PageKind::small4k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.lookup(42, PageKind::small4k));
  }
}
BENCHMARK(BM_TlbLookupHit);

void BM_TlbLookupMissFill(benchmark::State& state) {
  tlb::Tlb t({"bench", {32, 32}, {8, 8}, {0, 0}});
  vpn_t vpn = 0;
  for (auto _ : state) {
    if (!t.lookup(vpn, PageKind::small4k)) t.insert(vpn, PageKind::small4k);
    ++vpn;
  }
}
BENCHMARK(BM_TlbLookupMissFill);

void BM_CacheAccessSequential(benchmark::State& state) {
  cache::Cache c("bench", {MiB(1), 64, 16});
  vaddr_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.access(addr, false));
    addr += 8;
  }
}
BENCHMARK(BM_CacheAccessSequential);

void BM_PageWalk(benchmark::State& state) {
  mem::PhysMem pm(MiB(64));
  mem::AddressSpace space(pm);
  const mem::Region r = space.map_region(MiB(16), PageKind::small4k, "walk");
  Rng rng(7);
  for (auto _ : state) {
    const vaddr_t a = r.base + rng.next_below(r.length / 8) * 8;
    benchmark::DoNotOptimize(space.translate(a));
  }
}
BENCHMARK(BM_PageWalk);

void BM_ThreadSimTouchSequential(benchmark::State& state) {
  mem::PhysMem pm(MiB(128));
  mem::AddressSpace space(pm);
  const mem::Region r = space.map_region(MiB(64), PageKind::small4k, "data");
  sim::Machine machine(sim::ProcessorSpec::opteron270(), sim::CostModel{},
                       space, 1);
  machine.begin_parallel();
  sim::ThreadSim& t = machine.thread(0);
  vaddr_t off = 0;
  for (auto _ : state) {
    t.touch(r.base + off, PageKind::small4k, Access::load);
    off = (off + 8) % r.length;
  }
  machine.end_parallel();
}
BENCHMARK(BM_ThreadSimTouchSequential);

void BM_ThreadSimTouchRandom(benchmark::State& state) {
  mem::PhysMem pm(MiB(128));
  mem::AddressSpace space(pm);
  const mem::Region r = space.map_region(MiB(64), PageKind::small4k, "data");
  sim::Machine machine(sim::ProcessorSpec::opteron270(), sim::CostModel{},
                       space, 1);
  machine.begin_parallel();
  sim::ThreadSim& t = machine.thread(0);
  Rng rng(11);
  for (auto _ : state) {
    t.touch(r.base + rng.next_below(r.length / 8) * 8, PageKind::small4k,
            Access::load);
  }
  machine.end_parallel();
}
BENCHMARK(BM_ThreadSimTouchRandom);

void BM_BuddyAllocFree2MB(benchmark::State& state) {
  mem::PhysMem pm(MiB(256));
  for (auto _ : state) {
    auto b = pm.alloc_huge_frame();
    pm.return_block(*b, mem::PhysMem::kHugeOrder);
  }
}
BENCHMARK(BM_BuddyAllocFree2MB);

void BM_HugeTlbFsTakeReturn(benchmark::State& state) {
  mem::PhysMem pm(MiB(256));
  mem::HugeTlbFs fs(pm, 64);
  for (auto _ : state) {
    auto b = fs.take_block(mem::PhysMem::kHugeOrder);
    fs.return_block(*b, mem::PhysMem::kHugeOrder);
  }
}
BENCHMARK(BM_HugeTlbFsTakeReturn);

void BM_MsgChannelPingPong(benchmark::State& state) {
  dsm::MsgChannel ch(2);
  const std::uint64_t payload = 42;
  for (auto _ : state) {
    ch.send_value(0, 1, payload);
    benchmark::DoNotOptimize(ch.recv_value<std::uint64_t>(1, 0));
  }
}
BENCHMARK(BM_MsgChannelPingPong);

void BM_ParallelRegionForkJoin(benchmark::State& state) {
  core::RuntimeConfig cfg;
  cfg.num_threads = static_cast<unsigned>(state.range(0));
  cfg.shared_pool_bytes = MiB(1);
  core::Runtime rt(cfg);
  for (auto _ : state) {
    rt.parallel([](core::ThreadCtx& ctx) { benchmark::DoNotOptimize(ctx.tid()); });
  }
}
BENCHMARK(BM_ParallelRegionForkJoin)->Arg(1)->Arg(2)->Arg(4);

void BM_Reduction(benchmark::State& state) {
  core::RuntimeConfig cfg;
  cfg.num_threads = 4;
  cfg.shared_pool_bytes = MiB(1);
  core::Runtime rt(cfg);
  for (auto _ : state) {
    double out = 0.0;
    rt.parallel([&out](core::ThreadCtx& ctx) {
      const double r = ctx.reduce(1.0, std::plus<>{});
      if (ctx.tid() == 0) out = r;
    });
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_Reduction);

}  // namespace

// google-benchmark consumes its own --benchmark_* flags; any other flag
// exits 2 like every other bench.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  bench::parse_flags(argc, argv, {});
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
