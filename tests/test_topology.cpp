// Tests for the topology-aware scheduling layer: Topology parsing and
// domain arithmetic, the ShardingGovernor promote/demote state machine,
// domain-targeted submission on the work-stealing pool, the SubstratePool
// reuse/scrub contract, and — the load-bearing invariant — that sharded
// lane fusion under randomized socket × core shapes and worker counts
// yields RunRecords counter-identical to a single-worker sweep under every
// execution strategy and under a non-native paging policy.
#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/engine.hpp"
#include "exec/thread_pool.hpp"
#include "exec/topology.hpp"
#include "paging/policy.hpp"
#include "trace/lane.hpp"

namespace lpomp::exec {
namespace {

TEST(Topology, ParsesSocketByCoreShapes) {
  const Topology t = Topology::parse("2x4");
  EXPECT_EQ(t.sockets, 2u);
  EXPECT_EQ(t.cores_per_socket, 4u);
  EXPECT_EQ(t.workers(), 8u);
  EXPECT_EQ(t.domains(), 2u);
  EXPECT_EQ(t.name(), "2x4");
  EXPECT_TRUE(t.specified());
}

TEST(Topology, RejectsMalformedShapes) {
  EXPECT_THROW(Topology::parse(""), std::invalid_argument);
  EXPECT_THROW(Topology::parse("4"), std::invalid_argument);
  EXPECT_THROW(Topology::parse("x4"), std::invalid_argument);
  EXPECT_THROW(Topology::parse("4x"), std::invalid_argument);
  EXPECT_THROW(Topology::parse("0x4"), std::invalid_argument);
  EXPECT_THROW(Topology::parse("2x0"), std::invalid_argument);
  EXPECT_THROW(Topology::parse("2x2x2"), std::invalid_argument);
  EXPECT_THROW(Topology::parse("ax2"), std::invalid_argument);
  EXPECT_THROW(Topology::parse("2x4096x"), std::invalid_argument);
  EXPECT_THROW(Topology::parse("9999x9999"), std::invalid_argument);
}

TEST(Topology, WorkersAreNumberedSocketMajor) {
  const Topology t = Topology::parse("2x3");
  // Domain 0 owns workers 0..2, domain 1 owns 3..5.
  EXPECT_EQ(t.domain_of(0), 0u);
  EXPECT_EQ(t.domain_of(2), 0u);
  EXPECT_EQ(t.domain_of(3), 1u);
  EXPECT_EQ(t.domain_of(5), 1u);
}

TEST(Topology, ExplicitShapeWinsOverWorkerCount) {
  const Topology requested = Topology::parse("2x2");
  const Topology resolved = Topology::resolve(requested, 16);
  EXPECT_EQ(resolved.workers(), 4u);  // the shape fixes the worker count
  EXPECT_EQ(resolved.name(), "2x2");
}

TEST(Topology, UnspecifiedShapeResolvesToRequestedWorkers) {
  const Topology resolved = Topology::resolve(Topology{}, 3);
  EXPECT_TRUE(resolved.specified());
  EXPECT_EQ(resolved.workers(), 3u);
}

TEST(Topology, ZeroWorkersResolveToAtLeastOne) {
  const Topology resolved = Topology::resolve(Topology{}, 0);
  EXPECT_TRUE(resolved.specified());
  EXPECT_GE(resolved.workers(), 1u);
}

TEST(ShardingGovernor, PromotesOnSustainedImbalance) {
  ShardingGovernor gov;
  EXPECT_FALSE(gov.stealing("CG.S/4T/4KB"));  // groups start static
  const auto g = gov.observe("CG.S/4T/4KB", 3.0);
  EXPECT_TRUE(g.stealing);  // first observation seeds the EWMA directly
  EXPECT_EQ(g.promotions, 1u);
  EXPECT_TRUE(gov.stealing("CG.S/4T/4KB"));
}

TEST(ShardingGovernor, DemotesWhenImbalanceSettles) {
  ShardingGovernor gov;
  gov.observe("s", 3.0);
  ASSERT_TRUE(gov.stealing("s"));
  // Repeated balanced observations pull the EWMA below the demote
  // threshold (alpha = 0.5 halves the distance each step).
  for (int i = 0; i < 6 && gov.stealing("s"); ++i) gov.observe("s", 1.0);
  const auto g = gov.group("s");
  EXPECT_FALSE(g.stealing);
  EXPECT_EQ(g.demotions, 1u);
  EXPECT_LT(g.ewma, gov.policy().demote);
}

TEST(ShardingGovernor, HysteresisBandHoldsTheCurrentMode) {
  ShardingGovernor gov;
  // Between demote (1.15) and promote (1.5): a static group stays static...
  gov.observe("a", 1.3);
  gov.observe("a", 1.3);
  EXPECT_FALSE(gov.stealing("a"));
  // ...and a stealing group keeps stealing at the same reading.
  gov.observe("b", 5.0);
  ASSERT_TRUE(gov.stealing("b"));
  gov.observe("b", 1.3);
  gov.observe("b", 1.3);
  EXPECT_TRUE(gov.stealing("b"));
}

TEST(ShardingGovernor, ClampsDegenerateImbalanceReadings) {
  ShardingGovernor gov;
  gov.observe("s", 0.0);  // mean ≤ 0 guard feeds 1.0
  EXPECT_EQ(gov.group("s").ewma, 1.0);
  gov.observe("s", -7.0);
  EXPECT_EQ(gov.group("s").ewma, 1.0);
  EXPECT_EQ(gov.group("s").observations, 2u);
}

TEST(WorkStealingPool, RunsEveryTaskUnderAnExplicitTopology) {
  WorkStealingPool pool(0, Topology::parse("2x2"));
  EXPECT_EQ(pool.workers(), 4u);
  EXPECT_EQ(pool.domains(), 2u);
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    if (i % 2 == 0) {
      pool.submit([&] { ++ran; });
    } else {
      pool.submit_to_domain([&] { ++ran; }, static_cast<unsigned>(i % 3));
    }
  }
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 64);
}

TEST(SubstratePool, SecondCheckoutOfAKeyIsAReuse) {
  trace::SubstratePool pool;
  {
    trace::SubstratePool::Lease lease =
        pool.checkout(npb::Kernel::CG, npb::Klass::S, PageKind::small4k);
    ASSERT_TRUE(lease);
  }  // clean return shelves the substrate
  EXPECT_EQ(pool.resident(), 1u);
  const std::uint64_t before =
      pool.checkout(npb::Kernel::CG, npb::Klass::S, PageKind::small4k)
          ->clean_fingerprint();
  const trace::SubstratePool::Stats s = pool.stats();
  EXPECT_EQ(s.builds, 1u);
  EXPECT_EQ(s.reuses, 1u);
  EXPECT_EQ(s.scrub_discards, 0u);
  // Distinct key → distinct substrate, not a cross-key reuse.
  trace::SubstratePool::Lease other =
      pool.checkout(npb::Kernel::CG, npb::Klass::S, PageKind::large2m);
  EXPECT_NE(other->clean_fingerprint(), before);
  EXPECT_EQ(pool.stats().builds, 2u);
}

// The scrub contract: a substrate mutated while checked out is discarded on
// return — never recycled — and the next checkout builds a fresh, clean one.
TEST(SubstratePool, DirtyReturnIsDiscardedAndNextCheckoutIsClean) {
  trace::SubstratePool pool;
  {
    trace::SubstratePool::Lease lease =
        pool.checkout(npb::Kernel::CG, npb::Klass::S, PageKind::small4k);
    ASSERT_TRUE(lease->is_clean());
    // Dirty it through the diagnostics escape hatch: an extra mapping
    // changes the region list and page-table shape.
    lease->mutable_space().map_region(4096, PageKind::small4k, "dirt");
    EXPECT_FALSE(lease->is_clean());
  }  // ~Lease returns it; the scrub check must reject it
  EXPECT_EQ(pool.stats().scrub_discards, 1u);
  EXPECT_EQ(pool.resident(), 0u);

  trace::SubstratePool::Lease fresh =
      pool.checkout(npb::Kernel::CG, npb::Klass::S, PageKind::small4k);
  EXPECT_TRUE(fresh->is_clean());
  EXPECT_EQ(pool.stats().builds, 2u);
  EXPECT_EQ(pool.stats().reuses, 0u);
}

/// The identity-check grid: two kernels × both platforms × {1,2,4} threads
/// × both page kinds at class S. Both platforms matter: a stream group is
/// keyed by (kernel, threads, page kind), so the two platforms of each key
/// form a 2-point group that fuses into multi-lane shards — the path the
/// identity tests exist to exercise.
SweepSpec small_sweep() {
  SweepSpec spec;
  spec.kernels = {npb::Kernel::CG, npb::Kernel::MG};
  spec.klass = npb::Klass::S;
  spec.platforms = {sim::ProcessorSpec::opteron270(),
                    sim::ProcessorSpec::xeon_ht()};
  spec.threads = {1, 2, 4};
  return spec;
}

/// Counter-identity of two sweeps: every record same_result() and the
/// deterministic JSON projections byte-identical (what CI diffs).
void expect_identical(const SweepResult& a, const SweepResult& b,
                      const std::string& label) {
  ASSERT_EQ(a.records.size(), b.records.size()) << label;
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_TRUE(a.records[i].same_result(b.records[i]))
        << label << " diverged at " << a.records[i].kernel << " "
        << a.records[i].threads << "T " << a.records[i].page_kind;
  }
  EXPECT_EQ(a.to_json(false), b.to_json(false)) << label;
}

// The tentpole guarantee, stress-tested: randomized socket × core shapes
// must change nothing but wall-clock behaviour. Every strategy's sharded
// execution (static chunks, stealing promotions, substrate reuse) produces
// records counter-identical to the single-worker baseline.
TEST(TopologyIdentity, RandomShapesMatchSingleWorkerUnderEveryStrategy) {
  const SweepSpec spec = small_sweep();
  std::mt19937 rng(0x70b0);  // fixed seed: reproducible shape choices
  std::uniform_int_distribution<unsigned> dim(1, 3);

  for (const Strategy strategy : {Strategy::Live, Strategy::Recorded,
                                  Strategy::Multilane, Strategy::Analytic}) {
    ExperimentEngine::Config base_cfg;
    base_cfg.workers = 1;
    base_cfg.strategy = strategy;
    base_cfg.topology = Topology::flat(1);
    ExperimentEngine baseline(base_cfg);
    const SweepResult want = baseline.run(spec);
    EXPECT_EQ(want.failed(), 0u);

    for (int round = 0; round < 2; ++round) {
      Topology shape;
      shape.sockets = dim(rng);
      shape.cores_per_socket = dim(rng);
      ExperimentEngine::Config cfg;
      cfg.strategy = strategy;
      cfg.topology = shape;
      ExperimentEngine engine(cfg);
      EXPECT_EQ(engine.workers(), shape.workers());
      const SweepResult got = engine.run(spec);
      expect_identical(want, got,
                       std::string(strategy_name(strategy)) + " @ " +
                           shape.name());
    }
  }
}

// Paging-policy overlays ride the same sharded path; a sample policy must
// stay identical across shapes too (policies are part of the stream key, so
// this exercises distinct substrate-pool keys per policy grid row).
TEST(TopologyIdentity, PagingPolicySweepMatchesSingleWorker) {
  SweepSpec spec = small_sweep();
  spec.kernels = {npb::Kernel::CG};
  paging::PolicySpec thp;
  ASSERT_TRUE(paging::policy_from_name("thp", thp.policy));
  spec.paging_policies = {paging::PolicySpec{}, thp};

  ExperimentEngine::Config base_cfg;
  base_cfg.workers = 1;
  base_cfg.topology = Topology::flat(1);
  ExperimentEngine baseline(base_cfg);
  const SweepResult want = baseline.run(spec);
  EXPECT_EQ(want.failed(), 0u);

  ExperimentEngine::Config cfg;
  cfg.topology = Topology::parse("2x2");
  ExperimentEngine engine(cfg);
  expect_identical(want, engine.run(spec), "paging @ 2x2");
}

// The substrate pool must actually be exercised by a sweep: the figure-4
// grid replays three thread counts per (kernel, page kind), and the key
// excludes the thread count, so reuse is guaranteed even on one worker.
// Sharding decisions exist only where lanes replay a stored trace in
// shards — the analytic schedule — so the strategy is pinned to it.
TEST(TopologyIdentity, SweepReportsSubstrateReuseAndShardingDecisions) {
  ExperimentEngine::Config cfg;
  cfg.workers = 1;
  cfg.topology = Topology::flat(1);
  cfg.strategy = Strategy::Analytic;
  ExperimentEngine engine(cfg);
  const SweepResult result = engine.run(small_sweep());
  EXPECT_EQ(result.failed(), 0u);
  EXPECT_GT(result.substrate_builds, 0u);
  EXPECT_GT(result.substrate_reuse, 0u);
  EXPECT_EQ(result.substrate_scrub_discards, 0u);
  EXPECT_EQ(result.domains, 1u);
  EXPECT_EQ(result.topology, "1x1");
  // Every 4-thread stream group shards; each sharded group reports one
  // decision row with a finite imbalance reading.
  EXPECT_FALSE(result.sharding.empty());
  for (const SweepResult::GroupSharding& g : result.sharding) {
    EXPECT_GE(g.imbalance, 1.0);
    EXPECT_GE(g.shards, 1u);
  }
}

}  // namespace
}  // namespace lpomp::exec
