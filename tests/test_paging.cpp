// lpomp::paging — the paging-policy overlay (DESIGN.md §11).
//
// Unit coverage for the pieces the differential oracle exercises only in
// aggregate: per-policy effective translations, walk truncation (huge1g
// leaves at exactly 2 levels) and synthetic-PTE extension (a 4 KB effective
// view of a 2 MB layout), the deterministic THP fragmentation model
// (seed-keyed reproducibility, sawtooth probabilities), the page-walk
// cache's hit/LRU/flush behaviour, the fingerprint's conditional paging
// segment, and the end-to-end guarantee the subsystem was built around:
// one grid point per policy is bit-identical under all four execution
// strategies — plus the equivalence proofs the fused groups fold lanes by
// (paging::canonical_policy) and the default strategy that folds them.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "exec/fingerprint.hpp"
#include "exec/scheduler.hpp"
#include "exec/strategy.hpp"
#include "exec/sweep.hpp"
#include "mem/address_space.hpp"
#include "mem/page_table.hpp"
#include "paging/policy.hpp"
#include "sim/processor_spec.hpp"
#include "support/types.hpp"
#include "tlb/pwc.hpp"
#include "trace/lane.hpp"

namespace lpomp {
namespace {

paging::PolicySpec make_policy(paging::Policy p) {
  paging::PolicySpec spec;
  spec.policy = p;
  return spec;
}

TEST(PagingPolicy, NamesRoundTrip) {
  for (const paging::Policy p :
       {paging::Policy::native, paging::Policy::base4k,
        paging::Policy::hugetlb2m, paging::Policy::huge1g,
        paging::Policy::thp}) {
    paging::Policy parsed;
    ASSERT_TRUE(paging::policy_from_name(paging::policy_name(p), parsed));
    EXPECT_EQ(parsed, p);
  }
  paging::Policy parsed;
  EXPECT_FALSE(paging::policy_from_name("2mb", parsed));
  EXPECT_FALSE(paging::policy_from_name("", parsed));
}

TEST(PagingPolicy, NativeIsIdentityOverBothLayouts) {
  const paging::PagingModel m;  // default-constructed == native
  EXPECT_TRUE(m.identity());
  const vaddr_t a = 0x1234'5678;
  const paging::Translation t4k = m.translate(a, PageKind::small4k);
  EXPECT_EQ(t4k.vpn, a >> kSmallPageShift);
  EXPECT_EQ(t4k.kind, PageKind::small4k);
  const paging::Translation t2m = m.translate(a, PageKind::large2m);
  EXPECT_EQ(t2m.vpn, a >> kLargePageShift);
  EXPECT_EQ(t2m.kind, PageKind::large2m);
}

TEST(PagingPolicy, EffectiveTranslationsPerPolicy) {
  const vaddr_t a = (vaddr_t{3} << 30) + (vaddr_t{5} << 21) + 0x1708;
  {
    const paging::PagingModel m(make_policy(paging::Policy::base4k));
    EXPECT_FALSE(m.identity());
    const paging::Translation t = m.translate(a, PageKind::large2m);
    EXPECT_EQ(t.vpn, a >> kSmallPageShift);
    EXPECT_EQ(t.kind, PageKind::small4k);
  }
  {
    const paging::PagingModel m(make_policy(paging::Policy::hugetlb2m));
    const paging::Translation t = m.translate(a, PageKind::small4k);
    EXPECT_EQ(t.vpn, a >> kLargePageShift);
    EXPECT_EQ(t.kind, PageKind::large2m);
  }
  {
    const paging::PagingModel m(make_policy(paging::Policy::huge1g));
    const paging::Translation t = m.translate(a, PageKind::small4k);
    EXPECT_EQ(t.vpn, a >> kHugePageShift1G);
    EXPECT_EQ(t.kind, PageKind::huge1g);
    // Every address within the same 1 GiB frame shares the translation.
    const paging::Translation t2 = m.translate(a + MiB(512), PageKind::small4k);
    EXPECT_EQ(t2.vpn, t.vpn);
  }
}

// --- policy-adjusted walks --------------------------------------------------

struct WalkFixture {
  mem::PhysMem pm{MiB(64)};
  mem::AddressSpace space{pm};
  mem::Region small, large;

  WalkFixture() {
    small = space.map_region(MiB(4), PageKind::small4k, "small");
    large = space.map_region(MiB(4), PageKind::large2m, "large");
  }
};

TEST(PagingWalk, Huge1gTouchesExactlyTwoLevels) {
  WalkFixture f;
  const paging::PagingModel m(make_policy(paging::Policy::huge1g));
  for (const vaddr_t a : {f.small.base, f.small.base + KiB(12),
                          f.large.base + MiB(3)}) {
    const PageKind layout = f.space.kind_at(a);
    const paging::Translation tr = m.translate(a, layout);
    ASSERT_EQ(tr.kind, PageKind::huge1g);
    const mem::WalkResult w = m.walk(f.space, a, layout, tr.kind);
    EXPECT_EQ(w.levels_touched, 2u);  // PML4 + PUD-level leaf
    EXPECT_EQ(w.kind, PageKind::huge1g);
    // Truncation reuses the real table's interior entries verbatim.
    const mem::WalkResult real = f.space.translate(a);
    EXPECT_EQ(w.entry_addr[0], real.entry_addr[0]);
    EXPECT_EQ(w.entry_addr[1], real.entry_addr[1]);
  }
}

TEST(PagingWalk, Hugetlb2mTruncatesAFourKbLayoutWalk) {
  WalkFixture f;
  const paging::PagingModel m(make_policy(paging::Policy::hugetlb2m));
  const vaddr_t a = f.small.base + KiB(40);
  const mem::WalkResult w =
      m.walk(f.space, a, PageKind::small4k, PageKind::large2m);
  EXPECT_EQ(w.levels_touched, 3u);
  EXPECT_EQ(w.kind, PageKind::large2m);
}

TEST(PagingWalk, Base4kExtendsATwoMbLayoutWalkWithSyntheticPtes) {
  WalkFixture f;
  const paging::PagingModel m(make_policy(paging::Policy::base4k));
  const vaddr_t a = f.large.base + MiB(1);
  const mem::WalkResult real = f.space.translate(a);
  ASSERT_EQ(real.levels_touched, 3u);  // 2 MB leaf: PML4, PUD, PMD
  const mem::WalkResult w =
      m.walk(f.space, a, PageKind::large2m, PageKind::small4k);
  EXPECT_EQ(w.levels_touched, 4u);
  EXPECT_EQ(w.kind, PageKind::small4k);
  // The real interior levels are kept; the synthesised PTE lives in a
  // physical range no allocation reaches.
  EXPECT_EQ(w.entry_addr[2], real.entry_addr[2]);
  EXPECT_GE(w.entry_addr[3], paddr_t{1} << 56);
  // Eight consecutive 4 KB pages share one synthetic 64 B PTE line, like a
  // real PT node.
  const mem::WalkResult next =
      m.walk(f.space, a + KiB(4), PageKind::large2m, PageKind::small4k);
  EXPECT_EQ(next.entry_addr[3], w.entry_addr[3] + sizeof(paddr_t));
}

TEST(PagingWalk, NativeWalkIsTheRealWalk) {
  WalkFixture f;
  const paging::PagingModel m;
  const vaddr_t a = f.small.base + KiB(8);
  const mem::WalkResult w =
      m.walk(f.space, a, PageKind::small4k, PageKind::small4k);
  const mem::WalkResult real = f.space.translate(a);
  EXPECT_EQ(w.levels_touched, real.levels_touched);
  EXPECT_EQ(w.paddr, real.paddr);
}

// --- THP fragmentation model ------------------------------------------------

TEST(ThpModel, DecisionsAreDeterministicPerSeed) {
  const paging::PagingModel a(make_policy(paging::Policy::thp));
  const paging::PagingModel b(make_policy(paging::Policy::thp));
  paging::PolicySpec other = make_policy(paging::Policy::thp);
  other.thp.frag_seed = 0xDEADBEEF;
  const paging::PagingModel c(other);

  unsigned differs = 0;
  for (std::uint64_t chunk = 0; chunk < 4096; ++chunk) {
    ASSERT_EQ(a.thp_promoted(chunk), b.thp_promoted(chunk)) << chunk;
    if (a.thp_promoted(chunk) != c.thp_promoted(chunk)) ++differs;
  }
  // A different fragmentation seed redraws every chunk independently.
  EXPECT_GT(differs, 100u);
}

TEST(ThpModel, SawtoothProbabilityMatchesParameters) {
  paging::PolicySpec spec = make_policy(paging::Policy::thp);
  const paging::PagingModel m(spec);
  const auto& p = spec.thp;
  for (std::uint64_t chunk = 0; chunk < 64; ++chunk) {
    const double phase =
        static_cast<double>(chunk % p.compaction_interval);
    const double expect = 1.0 - (p.frag_base + p.frag_growth * phase);
    EXPECT_NEAR(m.thp_promotion_probability(chunk),
                expect < 0.0 ? 0.0 : expect, 1e-12)
        << chunk;
    // Compaction resets the sawtooth: one full interval later the chunk
    // sees the same fragmentation level.
    EXPECT_EQ(m.thp_promotion_probability(chunk),
              m.thp_promotion_probability(chunk + p.compaction_interval));
  }
}

TEST(ThpModel, PromotionRateTracksMeanProbability) {
  const paging::PagingModel m(make_policy(paging::Policy::thp));
  constexpr std::uint64_t kChunks = 200000;
  std::uint64_t promoted = 0;
  double expected = 0.0;
  for (std::uint64_t chunk = 0; chunk < kChunks; ++chunk) {
    if (m.thp_promoted(chunk)) ++promoted;
    expected += m.thp_promotion_probability(chunk);
  }
  const double rate = static_cast<double>(promoted) / kChunks;
  EXPECT_NEAR(rate, expected / kChunks, 0.01);
  // And the exact count is pinned: the model is a pure function, so this
  // can only change if the hash or the sawtooth changes.
  EXPECT_EQ(promoted, [&] {
    std::uint64_t again = 0;
    const paging::PagingModel fresh(make_policy(paging::Policy::thp));
    for (std::uint64_t chunk = 0; chunk < kChunks; ++chunk) {
      if (fresh.thp_promoted(chunk)) ++again;
    }
    return again;
  }());
}

// --- page-walk cache --------------------------------------------------------

TEST(Pwc, AbsentByDefaultAndBypassed) {
  tlb::Pwc pwc;
  EXPECT_FALSE(pwc.present());
}

TEST(Pwc, HitsDeepestCachedLevelAfterInsert) {
  tlb::Pwc pwc(tlb::PwcConfig{16, 4});
  ASSERT_TRUE(pwc.present());
  const vaddr_t a = vaddr_t{0x7f} << 30;

  // Cold: nothing cached.
  EXPECT_EQ(pwc.deepest_cached(a, 3), -1);
  pwc.insert(a, 3);
  // Warm: the deepest interior level (PMD for a 4-level walk) hits.
  EXPECT_EQ(pwc.deepest_cached(a, 3), 2);
  // A neighbouring address in the same 2 MB region shares all three
  // interior entries.
  EXPECT_EQ(pwc.deepest_cached(a + KiB(4), 3), 2);
  // An address sharing only the PUD span hits one level up.
  EXPECT_EQ(pwc.deepest_cached(a + MiB(2), 3), 1);
  // A shallower walk (huge1g: one interior level) only consults the root.
  EXPECT_EQ(pwc.deepest_cached(a, 1), 0);

  EXPECT_EQ(pwc.stats().lookups, 5u);
  EXPECT_EQ(pwc.stats().hits, 4u);
}

TEST(Pwc, LruEvictsWithinASet) {
  // One set, two ways: the third distinct tag evicts the least recent.
  tlb::Pwc pwc(tlb::PwcConfig{2, 2});
  const vaddr_t a = 0;
  const vaddr_t b = vaddr_t{1} << 39;  // distinct root tag
  const vaddr_t c = vaddr_t{2} << 39;
  pwc.insert(a, 1);
  pwc.insert(b, 1);
  EXPECT_EQ(pwc.deepest_cached(a, 1), 0);  // a is now most recent
  pwc.insert(c, 1);                        // evicts b
  EXPECT_EQ(pwc.deepest_cached(b, 1), -1);
  EXPECT_EQ(pwc.deepest_cached(a, 1), 0);
  EXPECT_EQ(pwc.deepest_cached(c, 1), 0);
}

TEST(Pwc, FlushDropsAllLevels) {
  tlb::Pwc pwc(tlb::PwcConfig{16, 4});
  const vaddr_t a = vaddr_t{5} << 30;
  pwc.insert(a, 3);
  ASSERT_EQ(pwc.deepest_cached(a, 3), 2);
  pwc.flush();
  EXPECT_EQ(pwc.deepest_cached(a, 3), -1);
}

// --- fingerprint ------------------------------------------------------------

exec::RunTask sample_task() {
  exec::RunTask t;
  t.kernel = npb::Kernel::CG;
  t.klass = npb::Klass::S;
  t.threads = 2;
  t.page_kind = PageKind::small4k;
  t.spec = sim::ProcessorSpec::opteron270();
  return t;
}

TEST(PagingFingerprint, NativeEmitsNoPagingSegment) {
  const exec::RunTask t = sample_task();
  EXPECT_EQ(exec::cache_key(t).find("paging{"), std::string::npos);
}

TEST(PagingFingerprint, PoliciesAndThpParamsKeyTheResult) {
  exec::RunTask t = sample_task();
  const std::string native_key = exec::cache_key(t);

  std::vector<std::string> keys = {native_key};
  for (const paging::Policy p :
       {paging::Policy::base4k, paging::Policy::hugetlb2m,
        paging::Policy::huge1g, paging::Policy::thp}) {
    t.paging = make_policy(p);
    const std::string key = exec::cache_key(t);
    EXPECT_NE(key.find("paging{"), std::string::npos);
    for (const std::string& seen : keys) EXPECT_NE(key, seen);
    keys.push_back(key);
  }

  // Every THP knob is part of the key (a different fragmentation landscape
  // is a different experiment).
  t.paging = make_policy(paging::Policy::thp);
  const std::string thp_key = exec::cache_key(t);
  exec::RunTask seed_tweak = t;
  seed_tweak.paging.thp.frag_seed ^= 1;
  EXPECT_NE(exec::cache_key(seed_tweak), thp_key);
  exec::RunTask base_tweak = t;
  base_tweak.paging.thp.frag_base += 0.01;
  EXPECT_NE(exec::cache_key(base_tweak), thp_key);
  exec::RunTask interval_tweak = t;
  interval_tweak.paging.thp.compaction_interval += 1;
  EXPECT_NE(exec::cache_key(interval_tweak), thp_key);
}

// --- strategy identity -------------------------------------------------------

// The subsystem's acceptance property, scaled to a unit test: one class-S
// grid point per policy must produce byte-identical deterministic JSON
// under every execution strategy. A fresh scheduler per strategy keeps the
// caches from serving one strategy's records to another.
TEST(PagingStrategyIdentity, OneGridPointPerPolicyAllStrategiesAgree) {
  exec::SweepSpec spec;
  spec.kernels = {npb::Kernel::CG};
  spec.klass = npb::Klass::S;
  spec.platforms = {sim::ProcessorSpec::opteron270()};
  spec.threads = {2};
  spec.page_kinds = {PageKind::small4k};
  spec.paging_policies = {make_policy(paging::Policy::native),
                          make_policy(paging::Policy::base4k),
                          make_policy(paging::Policy::hugetlb2m),
                          make_policy(paging::Policy::huge1g),
                          make_policy(paging::Policy::thp)};

  std::string reference;
  for (const exec::Strategy s : {exec::Strategy::Live, exec::Strategy::Auto}) {
    exec::Scheduler::Config cfg;
    cfg.workers = 2;
    exec::Scheduler sched(cfg);
    const exec::SweepResult result = sched.run(spec, s);
    ASSERT_EQ(result.failed(), 0u) << strategy_name(s);
    const std::string json = result.to_json(/*include_host=*/false);
    if (reference.empty()) {
      reference = json;
      // Sanity on the live pass: every policy produced a distinct record
      // and huge1g's walks are two levels each on this PWC-less platform
      // (every access misses the zero-entry 1 GiB bank).
      const exec::RunRecord* r = result.find(
          "CG", sim::ProcessorSpec::opteron270().name, 2, "4KB", "huge1g");
      ASSERT_NE(r, nullptr);
      EXPECT_GT(r->dtlb_walks_1g, 0u);
      EXPECT_EQ(r->walk_levels, 2 * r->dtlb_walks_1g);
    } else {
      EXPECT_EQ(json, reference) << strategy_name(s);
    }
  }
}

// --- provably equivalent policies (the fold) --------------------------------

/// (2 MB chunks overlapping a mapped region, of which thp promotes).
std::pair<unsigned, unsigned> thp_chunks(const mem::AddressSpace& space,
                                         const paging::PolicySpec& thp) {
  const paging::PagingModel model(thp);
  unsigned chunks = 0;
  unsigned promoted = 0;
  for (const mem::Region& r : space.regions()) {
    const std::uint64_t last = (r.base + r.length - 1) >> kLargePageShift;
    for (std::uint64_t c = r.base >> kLargePageShift; c <= last; ++c) {
      ++chunks;
      promoted += model.thp_promoted(c) ? 1 : 0;
    }
  }
  return {chunks, promoted};
}

TEST(CanonicalPolicy, ClassSFourKbLayoutFoldsBase4kAndThp) {
  const trace::ReplaySubstrate sub(npb::Kernel::CG, npb::Klass::S,
                                   PageKind::small4k);
  const auto canon = [&](paging::Policy p) {
    return paging::canonical_policy(make_policy(p), sub.space()).policy;
  };
  EXPECT_EQ(canon(paging::Policy::native), paging::Policy::native);
  EXPECT_EQ(canon(paging::Policy::base4k), paging::Policy::native);
  EXPECT_EQ(canon(paging::Policy::hugetlb2m), paging::Policy::hugetlb2m);
  EXPECT_EQ(canon(paging::Policy::huge1g), paging::Policy::huge1g);
  EXPECT_EQ(canon(paging::Policy::thp), paging::Policy::hugetlb2m);
  const auto [chunks, promoted] =
      thp_chunks(sub.space(), make_policy(paging::Policy::thp));
  EXPECT_GT(chunks, 0u);
  EXPECT_EQ(promoted, chunks);
}

TEST(CanonicalPolicy, TwoMbLayoutKeepsBase4kDistinct) {
  const trace::ReplaySubstrate sub(npb::Kernel::CG, npb::Klass::S,
                                   PageKind::large2m);
  const paging::PolicySpec base4k = make_policy(paging::Policy::base4k);
  EXPECT_EQ(paging::canonical_policy(base4k, sub.space()), base4k);
}

// A non-thp policy's ThpParams never reach its results, so the canonical
// form drops them: equivalent specs must compare equal to share a fold key.
TEST(CanonicalPolicy, NonThpPoliciesDropThpParams) {
  const trace::ReplaySubstrate sub(npb::Kernel::CG, npb::Klass::S,
                                   PageKind::small4k);
  paging::PolicySpec huge = make_policy(paging::Policy::hugetlb2m);
  huge.thp.frag_seed = 42;
  EXPECT_EQ(paging::canonical_policy(huge, sub.space()),
            make_policy(paging::Policy::hugetlb2m));
}

// Class W spans more 2 MB chunks than class S, and the fragmentation model
// leaves one of them 4 KB: thp is then a genuinely distinct policy.
TEST(CanonicalPolicy, ClassWSubstratesKeepThpDistinct) {
  const paging::PolicySpec thp = make_policy(paging::Policy::thp);
  const struct {
    npb::Kernel kernel;
    unsigned chunks;
    unsigned promoted;
  } cases[] = {{npb::Kernel::CG, 7, 6}, {npb::Kernel::MG, 6, 5}};
  for (const auto& c : cases) {
    const trace::ReplaySubstrate sub(c.kernel, npb::Klass::W,
                                     PageKind::small4k);
    const auto [chunks, promoted] = thp_chunks(sub.space(), thp);
    EXPECT_EQ(chunks, c.chunks) << npb::kernel_name(c.kernel);
    EXPECT_EQ(promoted, c.promoted) << npb::kernel_name(c.kernel);
    EXPECT_EQ(paging::canonical_policy(thp, sub.space()), thp)
        << npb::kernel_name(c.kernel);
  }
}

TEST(CanonicalPolicy, UnpromotingThpParamsKeepThpDistinct) {
  const trace::ReplaySubstrate sub(npb::Kernel::CG, npb::Klass::S,
                                   PageKind::small4k);
  paging::PolicySpec thp = make_policy(paging::Policy::thp);
  thp.thp.frag_base = 0.6;  // promotion probability at most 0.4 per chunk
  const auto [chunks, promoted] = thp_chunks(sub.space(), thp);
  ASSERT_LT(promoted, chunks);
  EXPECT_EQ(paging::canonical_policy(thp, sub.space()), thp);
}

/// The five-policy class-S paging grid (sweep_all --klass=S --paging=all
/// five), optionally cut to some kernels.
exec::SweepSpec paging_grid(std::vector<npb::Kernel> kernels) {
  exec::SweepSpec spec = exec::SweepSpec::figure4(npb::Klass::S);
  spec.kernels = std::move(kernels);
  spec.page_kinds = {PageKind::small4k};
  spec.paging_policies = {make_policy(paging::Policy::native),
                          make_policy(paging::Policy::base4k),
                          make_policy(paging::Policy::hugetlb2m),
                          make_policy(paging::Policy::huge1g),
                          make_policy(paging::Policy::thp)};
  return spec;
}

std::size_t fold_records(const exec::SweepResult& result) {
  std::size_t folds = 0;
  for (const exec::RunRecord& r : result.records) {
    folds += r.trace_source == "fold" ? 1 : 0;
  }
  return folds;
}

// The benchmark's paging grid under the default strategy: every record
// byte-identical to a one-worker live run, with the fold serving 4 of each
// 10-point group — base4k over the 4 KB layout folds onto native, thp (every
// class-S chunk promoted) onto hugetlb2m — 112 of the 280 points. The
// groups left with 6 (1–4 threads) or 3 (the Xeon's 8) unique points are
// wide enough to fuse.
TEST(PagingFold, DefaultStrategyPagingGridMatchesLiveWith112Folds) {
  const exec::SweepSpec spec = paging_grid(npb::all_kernels());

  exec::Scheduler::Config live_cfg;
  live_cfg.workers = 1;
  live_cfg.strategy = exec::Strategy::Live;
  const exec::SweepResult live = exec::Scheduler(live_cfg).run(spec);

  exec::Scheduler::Config cfg;
  cfg.workers = 2;
  const exec::SweepResult fused = exec::Scheduler(cfg).run(spec);
  ASSERT_EQ(fused.records.size(), 280u);
  EXPECT_EQ(fused.strategy, exec::Strategy::Auto);
  EXPECT_EQ(fused.failed(), 0u);
  EXPECT_EQ(fused.to_json(false), live.to_json(false));

  for (const exec::RunRecord& r : fused.records) {
    if (r.trace_source != "fold") continue;
    EXPECT_TRUE(r.paging == "base4k" || r.paging == "thp") << r.paging;
  }
  EXPECT_EQ(fold_records(fused), 112u);
  EXPECT_EQ(fused.folded_lanes, 112u);
  EXPECT_GT(fused.fused_groups, 0u);
}

// The reference strategy neither folds nor fuses: every point of the paging
// grid runs on its own, so diffs against it keep checking the fold.
TEST(LiveStrategy, NeverFolds) {
  exec::SweepSpec spec = paging_grid({npb::Kernel::CG});
  spec.trace_backed = true;
  exec::Scheduler::Config cfg;
  cfg.workers = 2;
  cfg.strategy = exec::Strategy::Live;
  const exec::SweepResult live = exec::Scheduler(cfg).run(spec);
  ASSERT_EQ(live.records.size(), 35u);
  EXPECT_EQ(fold_records(live), 0u);
  EXPECT_EQ(live.folded_lanes, 0u);
  EXPECT_EQ(live.fused_groups, 0u);
}

// The plain two-platform class-S grid has 2-point stream groups (Opteron +
// Xeon) and nothing to fold: under the width rule every point runs on its
// own, exactly as under live.
TEST(DefaultStrategy, NarrowGroupsRunLive) {
  exec::SweepSpec spec = exec::SweepSpec::figure4(npb::Klass::S);
  spec.kernels = {npb::Kernel::CG};
  spec.trace_backed = true;
  exec::Scheduler::Config cfg;
  cfg.workers = 2;
  const exec::SweepResult result = exec::Scheduler(cfg).run(spec);
  cfg.strategy = exec::Strategy::Live;
  const exec::SweepResult live = exec::Scheduler(cfg).run(spec);
  ASSERT_EQ(result.records.size(), 14u);
  EXPECT_EQ(result.fused_groups, 0u);
  EXPECT_EQ(result.fused_lanes, 0u);
  EXPECT_EQ(result.folded_lanes, 0u);
  EXPECT_EQ(fold_records(result), 0u);
  EXPECT_EQ(result.to_json(false), live.to_json(false));
}

// Folding happens at admission, not inside a fused group: a {native,
// base4k} pair over a 4 KB layout is one unique point, too narrow to fuse,
// and base4k still copies native's outcome.
TEST(DefaultStrategy, FoldsWithoutFusing) {
  exec::SweepSpec spec;
  spec.kernels = {npb::Kernel::CG};
  spec.klass = npb::Klass::S;
  spec.platforms = {sim::ProcessorSpec::opteron270()};
  spec.threads = {2};
  spec.page_kinds = {PageKind::small4k};
  spec.paging_policies = {make_policy(paging::Policy::native),
                          make_policy(paging::Policy::base4k)};
  spec.trace_backed = true;
  exec::Scheduler::Config cfg;
  cfg.workers = 1;
  const exec::SweepResult result = exec::Scheduler(cfg).run(spec);
  ASSERT_EQ(result.records.size(), 2u);
  EXPECT_EQ(result.fused_groups, 0u);
  EXPECT_EQ(result.folded_lanes, 1u);
  EXPECT_EQ(result.records[0].trace_source, "live");
  EXPECT_EQ(result.records[1].trace_source, "fold");
  EXPECT_EQ(result.records[1].paging, "base4k");

  exec::RunTask solo = spec.expand()[1];
  solo.trace_backed = false;
  const exec::RunRecord want = exec::Scheduler::execute_task(solo);
  EXPECT_TRUE(result.records[1].same_result(want));
  EXPECT_EQ(result.records[1].key_digest, want.key_digest);
}

// Folded points follow their source: a point folded onto a run that failed
// (here: 8 threads on the 4-context Opteron) runs on its own and fails with
// its own diagnostics, while a point whose source completed copies it,
// whichever order the task list gives them — failure stays isolated per
// grid point and every surviving record still equals its live counterpart.
// With a hugetlb2m point per platform the stream group is wide enough to
// fuse, and the same holds through a rejected lane and a failed leader.
TEST(PagingFold, FoldedPointsFollowTheirSourceToSolo) {
  const auto task = [](const sim::ProcessorSpec& spec, paging::Policy p) {
    exec::RunTask t;
    t.klass = npb::Klass::S;
    t.threads = 8;  // the Xeon has 8 contexts, the Opteron 4
    t.spec = spec;
    t.paging = make_policy(p);
    t.trace_backed = true;
    return t;
  };
  const sim::ProcessorSpec xeon = sim::ProcessorSpec::xeon_ht();
  const sim::ProcessorSpec opteron = sim::ProcessorSpec::opteron270();
  // Order 0: the Xeon's native run and its fold first, then the Opteron's
  // (which cannot fit) and that run's fold. Order 1: platforms swapped, so
  // a fused group's leader is the failing Opteron run.
  for (const bool wide : {false, true}) {
    for (std::size_t g = 0; g < 2; ++g) {
      const sim::ProcessorSpec& first = g == 0 ? xeon : opteron;
      const sim::ProcessorSpec& second = g == 0 ? opteron : xeon;
      std::vector<exec::RunTask> tasks = {
          task(first, paging::Policy::native),
          task(first, paging::Policy::base4k),
          task(second, paging::Policy::native),
          task(second, paging::Policy::base4k)};
      if (wide) {
        tasks.push_back(task(first, paging::Policy::hugetlb2m));
        tasks.push_back(task(second, paging::Policy::hugetlb2m));
      }
      exec::Scheduler::Config cfg;
      cfg.workers = 2;
      const exec::SweepResult result = exec::Scheduler(cfg).run(tasks);
      const std::string at = (wide ? "wide " : "narrow ") + std::to_string(g);
      ASSERT_EQ(result.records.size(), tasks.size()) << at;
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        const exec::RunRecord& r = result.records[i];
        // Failed points keep their config echo, a failed leader's included.
        EXPECT_EQ(r.platform, tasks[i].spec.name) << at << "/" << i;
        const bool fits = r.platform == xeon.name;
        EXPECT_EQ(r.ok, fits) << at << "/" << i;
        if (!fits) {
          EXPECT_FALSE(r.error.empty());
          continue;
        }
        exec::RunTask solo = tasks[i];
        solo.trace_backed = false;
        EXPECT_TRUE(r.same_result(exec::Scheduler::execute_task(solo)))
            << at << "/" << i;
      }
      // Only a completed source hands its outcome on: the Xeon's base4k.
      EXPECT_EQ(result.folded_lanes, 1u) << at;
      EXPECT_EQ(result.records[1].trace_source, g == 0 ? "fold" : "live")
          << at;
      EXPECT_EQ(result.records[3].trace_source, g == 0 ? "live" : "fold")
          << at;
      // A fused group counts only once its leader completes.
      EXPECT_EQ(result.fused_groups, wide && g == 0 ? 1u : 0u) << at;
    }
  }
}

}  // namespace
}  // namespace lpomp
