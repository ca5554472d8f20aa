// Multi-lane replay: one recorded (or live) access stream driving N
// independent simulator states at once.
//
// A recorded stream is a pure function of (kernel, class, threads, page
// kind); the platform, cost model, seed and code-page kind are replay-side
// knobs. A sweep therefore contains groups of grid points that share one
// stream and differ only in those knobs — and the expensive part of serving
// such a group from a trace is decoding the stream, not applying it. The
// types here split those costs:
//
//   * ReplaySubstrate — the memory-system state every lane reads but none
//     mutates: PhysMem, AddressSpace and the startup-preallocated shared
//     pool, built with exactly the construction sequence core::Runtime
//     uses so every recorded virtual address translates as it did live.
//     The text mapping is *not* materialised: the instruction-stream model
//     only probes the ITLB by page number (never the page table), so only
//     the base address the live mapping would have received matters, and
//     AddressSpace::peek_region_base supplies it without spending frames.
//   * LaneSet — N machine states (TLB hierarchy, caches, prefetcher,
//     counters, fork-join clock — one full sim::Machine per grid point)
//     over the shared substrate. Hot state is laid out structure-of-arrays:
//     per simulated thread, the lanes' ThreadSims form one contiguous
//     pointer array, so applying an event for thread t sweeps a flat
//     lane vector instead of hopping machine-by-machine.
//   * MultiReplayDriver — decodes each pattern block of a stored trace
//     once and applies it to every lane before advancing (the per-lane
//     batched replay fast path does the rest). One decode pass serves the
//     whole group; outcomes are bit-identical to N single-lane replays.
//   * LaneFanout — a TraceSink adapter that makes a *live* run the stream
//     source: each event the leader's simulation reports is applied to the
//     lanes immediately, so a group is served by one live run plus N cheap
//     lane applications, with no encode or decode at all.
//
// Identity argument (DESIGN.md §8): every lane receives the exact event
// sequence of the source run, per thread in that thread's program order,
// with boundaries applied at the same points in the global order — the
// same information a dedicated single-lane replay (or the live run itself)
// consumes. Since a ThreadSim's evolution is a deterministic function of
// its config, its seed, and that sequence, each lane's counters equal its
// standalone counterpart's bit-for-bit. The sink threading contract
// (per-thread events from the owning host thread, boundaries only at
// quiescence) extends to lanes: lane state for thread t is touched only
// from the host thread driving t, so fan-out needs no locks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "npb/npb.hpp"
#include "trace/plan.hpp"
#include "trace/replay.hpp"
#include "trace/trace.hpp"

namespace lpomp::trace {

/// Page-aligned bump allocator for a lane group's SoA hot state. A group's
/// arena lives on the worker executing the group, and every fresh chunk is
/// touched (zero-filled) by that worker before use — under a first-touch
/// NUMA policy the OS therefore places the backing pages on the worker's
/// own memory node. Allocations are never freed individually; the arena
/// releases everything at once when it dies with the group.
class LaneArena {
 public:
  explicit LaneArena(std::size_t chunk_bytes = 256 * 1024)
      : chunk_bytes_(chunk_bytes) {}

  LaneArena(const LaneArena&) = delete;
  LaneArena& operator=(const LaneArena&) = delete;

  /// `align` must be a power of two.
  void* allocate(std::size_t bytes, std::size_t align);

  std::size_t bytes_reserved() const { return reserved_; }
  std::size_t chunks() const { return chunks_.size(); }

 private:
  std::size_t chunk_bytes_;
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::byte* cursor_ = nullptr;
  std::size_t left_ = 0;
  std::size_t reserved_ = 0;
};

/// The shared, read-only memory substrate of a lane group: physical memory,
/// address space and the preallocated shared pool of the recording
/// configuration, reproducing the live run's page-table layout exactly.
///
/// A substrate is a pure function of (kernel, class, page kind) — lanes
/// read it but never mutate it — so a finished replay leaves it exactly as
/// constructed. fingerprint() hashes the observable layout (regions, page
/// table shape, pool allocation state) and is captured once at
/// construction; is_clean() lets SubstratePool verify that invariant on
/// every return instead of trusting it.
class ReplaySubstrate {
 public:
  ReplaySubstrate(npb::Kernel kernel, npb::Klass klass, PageKind page_kind);
  ~ReplaySubstrate();

  ReplaySubstrate(const ReplaySubstrate&) = delete;
  ReplaySubstrate& operator=(const ReplaySubstrate&) = delete;

  const mem::AddressSpace& space() const { return *space_; }
  npb::Kernel kernel() const { return kernel_; }
  npb::Klass klass() const { return klass_; }
  PageKind page_kind() const { return page_kind_; }

  /// Escape hatch for scrub tests and diagnostics only — replay code must
  /// never mutate the substrate (that is the invariant the pool checks).
  mem::AddressSpace& mutable_space() { return *space_; }

  /// Digest of the observable memory-system layout: regions (base, length,
  /// kind, name), page-table node and per-kind page counts, arena cursors
  /// and shared-pool allocation state. Equal digests ⇔ a replay cannot
  /// distinguish the two substrates.
  std::uint64_t fingerprint() const;
  /// fingerprint() captured at the end of construction.
  std::uint64_t clean_fingerprint() const { return clean_fingerprint_; }
  bool is_clean() const { return fingerprint() == clean_fingerprint_; }

  /// Base address the live run's text mapping would occupy for this code
  /// page kind (the mapping itself is never materialised — see above).
  vaddr_t code_base(PageKind code_kind) const {
    return space_->peek_region_base(code_kind);
  }

 private:
  npb::Kernel kernel_;
  npb::Klass klass_;
  PageKind page_kind_;
  std::unique_ptr<mem::PhysMem> phys_;
  std::unique_ptr<mem::AddressSpace> space_;
  std::unique_ptr<mem::HugeTlbFs> hugetlbfs_;
  std::unique_ptr<core::SharedAllocator> alloc_;
  std::uint64_t clean_fingerprint_ = 0;
};

/// Reset-to-clean cache of ReplaySubstrates keyed by (kernel, class, page
/// kind) — the tuple the substrate is a pure function of. Building one
/// costs ~1 ms (PhysMem + eager pool mapping), ~20 % of a class-S CG
/// replay; checking one out is a map lookup. Substrates are checked out
/// exclusively (a lease), and every return is verified against the clean
/// fingerprint captured at construction: a substrate some bug mutated is
/// discarded (counted in scrub_discards), never recycled — reuse is an
/// optimisation, bit-cleanliness is the contract.
class SubstratePool {
 public:
  struct Stats {
    std::uint64_t builds = 0;         ///< checkouts that constructed
    std::uint64_t reuses = 0;         ///< checkouts served from the pool
    std::uint64_t scrub_discards = 0; ///< returns rejected as dirty
  };

  /// Exclusive use of one substrate; returns it to the pool on destruction
  /// (where it passes through the scrub check like any other return).
  class Lease {
   public:
    Lease() = default;
    Lease(SubstratePool* pool, std::shared_ptr<ReplaySubstrate> substrate)
        : pool_(pool), substrate_(std::move(substrate)) {}
    Lease(Lease&& other) noexcept
        : pool_(other.pool_), substrate_(std::move(other.substrate_)) {
      other.pool_ = nullptr;
    }
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        release();
        pool_ = other.pool_;
        substrate_ = std::move(other.substrate_);
        other.pool_ = nullptr;
      }
      return *this;
    }
    ~Lease() { release(); }

    ReplaySubstrate& operator*() const { return *substrate_; }
    ReplaySubstrate* operator->() const { return substrate_.get(); }
    ReplaySubstrate* get() const { return substrate_.get(); }
    explicit operator bool() const { return substrate_ != nullptr; }

   private:
    void release() {
      if (pool_ != nullptr && substrate_ != nullptr) {
        pool_->give_back(std::move(substrate_));
      }
      pool_ = nullptr;
      substrate_.reset();
    }
    SubstratePool* pool_ = nullptr;
    std::shared_ptr<ReplaySubstrate> substrate_;
  };

  explicit SubstratePool(std::size_t capacity_per_key = 4)
      : capacity_per_key_(capacity_per_key) {}

  /// A clean substrate for the key, recycled when one is resident, freshly
  /// constructed otherwise. May throw whatever ReplaySubstrate's
  /// constructor throws (startup-style failure, as live runs would see).
  Lease checkout(npb::Kernel kernel, npb::Klass klass, PageKind page_kind);

  /// Returns a substrate; dirty ones (fingerprint mismatch) are discarded.
  /// Normally invoked by ~Lease.
  void give_back(std::shared_ptr<ReplaySubstrate> substrate);

  Stats stats() const;
  std::size_t resident() const;
  void clear();

 private:
  static std::string key_of(npb::Kernel kernel, npb::Klass klass,
                            PageKind page_kind);

  mutable std::mutex mu_;
  std::map<std::string, std::vector<std::shared_ptr<ReplaySubstrate>>> free_;
  Stats stats_;
  std::size_t capacity_per_key_;
};

/// N independent simulator states over one ReplaySubstrate, addressed as
/// lanes. Events are applied to all lanes; outcomes are read per lane.
class LaneSet {
 public:
  /// `substrate` must outlive the LaneSet. `nthreads` is the recorded
  /// thread count every lane simulates.
  LaneSet(const ReplaySubstrate& substrate, unsigned nthreads)
      : substrate_(&substrate), nthreads_(nthreads) {}

  /// Adds one lane configured by `cfg` (platform, cost, seed, code pages —
  /// the replay knobs). Returns its lane index. Throws TraceError when the
  /// thread count does not fit the lane's hardware contexts; the LaneSet is
  /// unchanged in that case, so the caller can demote just that grid point.
  std::size_t add_lane(const ReplayConfig& cfg);

  std::size_t lanes() const { return machines_.size(); }
  unsigned nthreads() const { return nthreads_; }

  sim::Machine& machine(std::size_t lane) { return *machines_[lane]; }

  /// Packs the SoA index into one contiguous slab once all lanes are added
  /// (further add_lane calls unseal). With an arena the slab lives in it —
  /// a group seals into its own first-touch arena so the index the decode
  /// loop sweeps is resident on the executing worker's memory node; without
  /// one the slab is owned by the LaneSet. Optional: the unsealed path
  /// reads by_tid_ directly and is equally correct.
  void seal(LaneArena* arena = nullptr);

  // --- event fan-out (hot path) --------------------------------------------
  // Apply one source event to every lane. Thread-`tid` entry points sweep
  // row(tid) — contiguous ThreadSim pointers, one per lane.
  void apply_pattern(unsigned tid, const sim::ReplaySlot* slots,
                     std::size_t count, std::uint64_t periods) {
    sim::ThreadSim* const* r = row(tid);
    for (std::size_t l = 0, n = machines_.size(); l < n; ++l) {
      r[l]->replay_pattern(slots, count, periods);
    }
  }
  /// Plan-path fan-out of one precompiled block: lanes whose ReplayConfig
  /// opted into the analytic tier take the fast-forward entry point (which
  /// itself falls back per block/period), the rest interpret. Per-lane
  /// eligibility lives here because lanes differ in geometry and mode.
  void apply_plan_block(unsigned tid, const PlanBlock& pb) {
    sim::ThreadSim* const* r = row(tid);
    for (std::size_t lane = 0, n = machines_.size(); lane < n; ++lane) {
      if (analytic_[lane]) {
        r[lane]->replay_analytic(pb.slots.data(), pb.slots.size(),
                                 pb.periods, pb.summary);
      } else {
        r[lane]->replay_pattern(pb.slots.data(), pb.slots.size(),
                                pb.periods);
      }
    }
  }
  void apply_touch(unsigned tid, vaddr_t addr, PageKind kind, Access access) {
    sim::ThreadSim* const* r = row(tid);
    for (std::size_t l = 0, n = machines_.size(); l < n; ++l) {
      r[l]->touch(addr, kind, access);
    }
  }
  void apply_run(unsigned tid, vaddr_t addr, std::size_t n, PageKind kind,
                 Access access) {
    sim::ThreadSim* const* r = row(tid);
    for (std::size_t l = 0, c = machines_.size(); l < c; ++l) {
      r[l]->touch_run(addr, n, kind, access);
    }
  }
  void apply_strided(unsigned tid, vaddr_t addr, std::size_t n,
                     std::int64_t stride_bytes, PageKind kind, Access access) {
    sim::ThreadSim* const* r = row(tid);
    for (std::size_t l = 0, c = machines_.size(); l < c; ++l) {
      r[l]->touch_strided(addr, n, stride_bytes, kind, access);
    }
  }
  void apply_compute(unsigned tid, cycles_t cycles) {
    sim::ThreadSim* const* r = row(tid);
    for (std::size_t l = 0, n = machines_.size(); l < n; ++l) {
      r[l]->add_compute(cycles);
    }
  }
  void apply_boundary(sim::BoundaryKind kind);

  /// Simulator outcome of one lane; `verified`/`checksum` are copied from
  /// the source run (lanes execute no kernel numerics).
  ReplayOutcome outcome(std::size_t lane, const std::string& label,
                        bool verified, double checksum) const;

 private:
  sim::ThreadSim* const* row(unsigned tid) const {
    return slab_ != nullptr ? slab_ + std::size_t{tid} * machines_.size()
                            : by_tid_[tid].data();
  }

  const ReplaySubstrate* substrate_;
  unsigned nthreads_;
  std::vector<std::unique_ptr<sim::Machine>> machines_;
  std::vector<std::uint8_t> analytic_;  ///< per lane: ReplayConfig::analytic
  /// SoA hot-state index: by_tid_[tid][lane] = that lane's ThreadSim for
  /// simulated thread tid.
  std::vector<std::vector<sim::ThreadSim*>> by_tid_;
  /// Sealed index: slab_[tid * lanes + lane]; null until seal().
  sim::ThreadSim** slab_ = nullptr;
  std::vector<sim::ThreadSim*> slab_storage_;  ///< backing when no arena
};

/// TraceSink adapter feeding a live run's event stream straight into a
/// LaneSet. Attach hooks() to the source run's machine; the lanes then
/// track it event-for-event with no codec in between.
class LaneFanout final : public sim::TraceSink {
 public:
  explicit LaneFanout(LaneSet& lanes) : lanes_(&lanes) {}

  /// Flat devirtualised hooks for RuntimeConfig::trace_hooks.
  sim::SinkHooks hooks() { return sim::bind_sink(this); }

  void on_touch(unsigned tid, vaddr_t addr, PageKind kind,
                Access access) override {
    lanes_->apply_touch(tid, addr, kind, access);
  }
  void on_touch_run(unsigned tid, vaddr_t addr, std::size_t n, PageKind kind,
                    Access access) override {
    lanes_->apply_run(tid, addr, n, kind, access);
  }
  void on_touch_strided(unsigned tid, vaddr_t addr, std::size_t n,
                        std::int64_t stride_bytes, PageKind kind,
                        Access access) override {
    lanes_->apply_strided(tid, addr, n, stride_bytes, kind, access);
  }
  void on_compute(unsigned tid, cycles_t cycles) override {
    lanes_->apply_compute(tid, cycles);
  }
  void on_boundary(sim::BoundaryKind kind) override {
    lanes_->apply_boundary(kind);
  }

 private:
  LaneSet* lanes_;
};

/// Replays one stored trace into N lanes with a single decode pass.
/// Outcomes are returned in lane (constructor) order and are bit-identical
/// to running a single-lane ReplayDriver per config.
class MultiReplayDriver {
 public:
  explicit MultiReplayDriver(std::vector<ReplayConfig> lanes)
      : lanes_(std::move(lanes)) {}

  /// Throws TraceError when the trace is malformed, a lane does not fit its
  /// platform, or the simulator rejects the stream mid-replay (a corrupt
  /// but well-framed trace) — never a bare logic_error, so callers can fall
  /// back to live execution.
  std::vector<ReplayOutcome> run(const Trace& trace) const;

  /// The same replay served from a precompiled plan of `trace`: no stream
  /// decode, and lanes with ReplayConfig::analytic fast-forward every block
  /// they can prove warm. Outcomes are bit-identical to run(trace). The
  /// plan must have been compiled from this trace (thread/boundary shape is
  /// checked; TraceError otherwise).
  std::vector<ReplayOutcome> run(const Trace& trace,
                                 const TracePlan& plan) const;

  const std::vector<ReplayConfig>& lane_configs() const { return lanes_; }

 private:
  std::vector<ReplayConfig> lanes_;
};

}  // namespace lpomp::trace
