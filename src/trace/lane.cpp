#include "trace/lane.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "prof/profile.hpp"
#include "trace/codec.hpp"

namespace lpomp::trace {
namespace {

// FNV-1a over an integer's bytes — the substrate fingerprint only needs to
// be collision-resistant against accidental mutation, not adversaries.
void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xffu;
    h *= 1099511628211ull;
  }
}

void fnv_mix(std::uint64_t& h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  fnv_mix(h, s.size());
}

}  // namespace

void* LaneArena::allocate(std::size_t bytes, std::size_t align) {
  if (bytes == 0) bytes = 1;
  const std::size_t mis =
      reinterpret_cast<std::uintptr_t>(cursor_) & (align - 1);
  const std::size_t pad = mis == 0 ? 0 : align - mis;
  if (cursor_ == nullptr || left_ < bytes + pad) {
    const std::size_t chunk = std::max(chunk_bytes_, bytes + align);
    chunks_.push_back(std::make_unique<std::byte[]>(chunk));
    cursor_ = chunks_.back().get();
    left_ = chunk;
    reserved_ += chunk;
    // First touch from the allocating (= executing) thread: under a
    // first-touch NUMA policy this places the chunk's pages on the caller's
    // memory node before any lane state lands in them.
    std::memset(cursor_, 0, chunk);
    return allocate(bytes, align);
  }
  cursor_ += pad;
  left_ -= pad;
  void* out = cursor_;
  cursor_ += bytes;
  left_ -= bytes;
  return out;
}

ReplaySubstrate::ReplaySubstrate(npb::Kernel kernel, npb::Klass klass,
                                 PageKind page_kind)
    : kernel_(kernel), klass_(klass), page_kind_(page_kind) {
  // Mirror core::Runtime's construction sequence (PhysMem → AddressSpace →
  // hugetlbfs mount + image file → pool mapping) with the same automatic
  // sizing, so frame assignment and page-table layout match the recording
  // run's exactly.
  core::RuntimeConfig cfg;
  cfg.page_kind = page_kind;
  cfg.shared_pool_bytes = npb::pool_bytes_for(kernel, klass);

  phys_ = std::make_unique<mem::PhysMem>(core::runtime_phys_bytes(cfg));
  space_ = std::make_unique<mem::AddressSpace>(*phys_);
  mem::FrameSource* source = nullptr;
  if (page_kind == PageKind::large2m) {
    hugetlbfs_ = std::make_unique<mem::HugeTlbFs>(
        *phys_, core::runtime_hugetlb_pool_pages(cfg));
    hugetlbfs_->create_file("lpomp_shared_image", cfg.shared_pool_bytes);
    source = hugetlbfs_.get();
  }
  alloc_ = std::make_unique<core::SharedAllocator>(
      *space_, source, page_kind, cfg.shared_pool_bytes, "shared_image");
  clean_fingerprint_ = fingerprint();
}

std::uint64_t ReplaySubstrate::fingerprint() const {
  std::uint64_t h = 1469598103934665603ull;
  fnv_mix(h, static_cast<std::uint64_t>(kernel_));
  fnv_mix(h, static_cast<std::uint64_t>(klass_));
  fnv_mix(h, static_cast<std::uint64_t>(page_kind_));
  for (const mem::Region& r : space_->regions()) {
    fnv_mix(h, r.base);
    fnv_mix(h, r.length);
    fnv_mix(h, static_cast<std::uint64_t>(r.kind));
    fnv_mix(h, r.name);
  }
  fnv_mix(h, space_->page_table().node_count());
  for (std::size_t k = 0; k < kPageKindCount; ++k) {
    const auto kind = static_cast<PageKind>(k);
    fnv_mix(h, space_->page_table().mapped_pages(kind));
    fnv_mix(h, space_->mapped_bytes(kind));
    fnv_mix(h, space_->peek_region_base(kind));
  }
  fnv_mix(h, space_->promotions());
  fnv_mix(h, alloc_->used());
  fnv_mix(h, alloc_->allocation_count());
  fnv_mix(h, alloc_->region_base());
  return h;
}

ReplaySubstrate::~ReplaySubstrate() {
  // Same teardown order as core::Runtime: pool pages back to their source,
  // then the image file, then the mount.
  alloc_.reset();
  if (hugetlbfs_) hugetlbfs_->unlink_file("lpomp_shared_image");
  hugetlbfs_.reset();
  space_.reset();
  phys_.reset();
}

std::string SubstratePool::key_of(npb::Kernel kernel, npb::Klass klass,
                                  PageKind page_kind) {
  return std::string(npb::kernel_name(kernel)) + "." +
         npb::klass_name(klass) + "/" + page_kind_name(page_kind);
}

SubstratePool::Lease SubstratePool::checkout(npb::Kernel kernel,
                                             npb::Klass klass,
                                             PageKind page_kind) {
  {
    std::lock_guard lock(mu_);
    auto it = free_.find(key_of(kernel, klass, page_kind));
    if (it != free_.end() && !it->second.empty()) {
      std::shared_ptr<ReplaySubstrate> sub = std::move(it->second.back());
      it->second.pop_back();
      ++stats_.reuses;
      return Lease(this, std::move(sub));
    }
  }
  // Construct outside the lock: a build is ~1 ms of eager mapping and other
  // workers' checkouts must not serialise behind it.
  auto sub = std::make_shared<ReplaySubstrate>(kernel, klass, page_kind);
  {
    std::lock_guard lock(mu_);
    ++stats_.builds;
  }
  return Lease(this, std::move(sub));
}

void SubstratePool::give_back(std::shared_ptr<ReplaySubstrate> substrate) {
  if (substrate == nullptr) return;
  if (!substrate->is_clean()) {
    std::lock_guard lock(mu_);
    ++stats_.scrub_discards;
    return;  // dropped — a mutated substrate must never serve another replay
  }
  const std::string key = key_of(substrate->kernel(), substrate->klass(),
                                 substrate->page_kind());
  std::lock_guard lock(mu_);
  std::vector<std::shared_ptr<ReplaySubstrate>>& shelf = free_[key];
  if (shelf.size() < capacity_per_key_) shelf.push_back(std::move(substrate));
}

SubstratePool::Stats SubstratePool::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

std::size_t SubstratePool::resident() const {
  std::lock_guard lock(mu_);
  std::size_t n = 0;
  for (const auto& [key, shelf] : free_) n += shelf.size();
  return n;
}

void SubstratePool::clear() {
  std::lock_guard lock(mu_);
  free_.clear();
}

std::size_t LaneSet::add_lane(const ReplayConfig& cfg) {
  if (nthreads_ == 0) {
    throw TraceError("trace: lane needs at least one thread");
  }
  if (nthreads_ > cfg.spec.total_contexts()) {
    throw TraceError("trace: " + std::to_string(nthreads_) +
                     " threads exceed hardware contexts of " + cfg.spec.name);
  }
  auto machine = std::make_unique<sim::Machine>(
      cfg.spec, cfg.cost, substrate_->space(), nthreads_, cfg.seed,
      cfg.paging);

  const npb::Kernel kernel = substrate_->kernel();
  const npb::CodeModel cm = npb::code_model(kernel);
  machine->attach_code_all(substrate_->code_base(cfg.code_page_kind),
                           static_cast<std::size_t>(npb::binary_bytes(kernel)),
                           cfg.code_page_kind, cm.jump_period,
                           cm.cold_fraction);
  if (cfg.resink != nullptr) machine->set_trace_sink(cfg.resink);

  const std::size_t lane = machines_.size();
  machines_.push_back(std::move(machine));
  analytic_.push_back(cfg.analytic ? 1 : 0);
  by_tid_.resize(nthreads_);
  for (unsigned t = 0; t < nthreads_; ++t) {
    by_tid_[t].push_back(&machines_[lane]->thread(t));
  }
  slab_ = nullptr;  // a sealed index no longer covers the new lane
  return lane;
}

void LaneSet::seal(LaneArena* arena) {
  const std::size_t n = machines_.size();
  if (n == 0) {
    slab_ = nullptr;
    return;
  }
  const std::size_t cells = std::size_t{nthreads_} * n;
  sim::ThreadSim** slab;
  if (arena != nullptr) {
    slab = static_cast<sim::ThreadSim**>(
        arena->allocate(cells * sizeof(sim::ThreadSim*),
                        alignof(sim::ThreadSim*)));
  } else {
    slab_storage_.resize(cells);
    slab = slab_storage_.data();
  }
  for (unsigned t = 0; t < nthreads_; ++t) {
    for (std::size_t lane = 0; lane < n; ++lane) {
      slab[std::size_t{t} * n + lane] = by_tid_[t][lane];
    }
  }
  slab_ = slab;
}

void LaneSet::apply_boundary(sim::BoundaryKind kind) {
  for (auto& machine : machines_) {
    switch (kind) {
      case sim::BoundaryKind::begin_parallel: machine->begin_parallel(); break;
      case sim::BoundaryKind::end_parallel: machine->end_parallel(); break;
      case sim::BoundaryKind::end_run: machine->end_run(); break;
    }
  }
}

ReplayOutcome LaneSet::outcome(std::size_t lane, const std::string& label,
                               bool verified, double checksum) const {
  const sim::Machine& m = *machines_[lane];
  ReplayOutcome out;
  out.simulated_seconds = m.seconds();
  out.profile = prof::ProfileReport::from_machine(m, label);
  out.verified = verified;
  out.checksum = checksum;
  return out;
}

std::vector<ReplayOutcome> MultiReplayDriver::run(const Trace& trace) const {
  const npb::Kernel kernel = kernel_from_name(trace.meta.kernel);
  const npb::Klass klass = klass_from_name(trace.meta.klass);

  if (lanes_.empty()) {
    throw TraceError("trace: multi-replay needs at least one lane");
  }
  if (trace.meta.threads == 0 ||
      trace.streams.size() != trace.meta.threads) {
    throw TraceError("trace: stream count does not match thread count");
  }

  try {
    const ReplaySubstrate substrate(kernel, klass, trace.meta.page_kind);
    LaneArena arena;
    LaneSet lanes(substrate, trace.meta.threads);
    for (const ReplayConfig& cfg : lanes_) lanes.add_lane(cfg);
    lanes.seal(&arena);

    std::vector<ThreadDecoder> decoders;
    decoders.reserve(trace.streams.size());
    for (const std::string& stream : trace.streams) {
      decoders.emplace_back(stream);
    }

    // Drain each thread's stream up to its next SEGMENT marker, then apply
    // the global boundary — the exact order the recording run's Machine
    // observed its counter snapshots in. Each decoded pattern block is
    // applied to every lane before decoding continues: the decode cost is
    // paid once for the group, and replay_pattern reads the slots without
    // mutating them, so all lanes share the block storage.
    ThreadDecoder::Block block;
    auto feed_segment = [&lanes, &block](ThreadDecoder& dec, unsigned tid) {
      while (true) {
        if (!dec.next_block(block)) {
          throw TraceError("trace: stream ended before its last boundary");
        }
        switch (block.kind) {
          case ThreadDecoder::Block::Kind::segment:
            return;
          case ThreadDecoder::Block::Kind::pattern:
            lanes.apply_pattern(tid, block.pattern.data(),
                                block.pattern.size(), block.periods);
            break;
          case ThreadDecoder::Block::Kind::end:
            throw TraceError("trace: stream ended before its last boundary");
        }
      }
    };

    for (const sim::BoundaryKind boundary : trace.boundaries) {
      for (unsigned tid = 0; tid < trace.meta.threads; ++tid) {
        feed_segment(decoders[tid], tid);
      }
      lanes.apply_boundary(boundary);
    }
    for (ThreadDecoder& dec : decoders) {
      if (dec.next_block(block) ||
          block.kind != ThreadDecoder::Block::Kind::end) {
        throw TraceError("trace: events recorded after the last boundary");
      }
    }

    const std::string label = trace.meta.kernel + "." + trace.meta.klass;
    std::vector<ReplayOutcome> outcomes;
    outcomes.reserve(lanes.lanes());
    for (std::size_t lane = 0; lane < lanes.lanes(); ++lane) {
      outcomes.push_back(lanes.outcome(lane, label, trace.meta.verified,
                                       trace.meta.checksum));
    }
    return outcomes;
  } catch (const TraceError&) {
    throw;
  } catch (const std::logic_error& e) {
    // A well-framed but inconsistent trace (addresses outside the recorded
    // configuration's mappings, impossible thread ids, ...) trips simulator
    // invariant checks. Surface it as the recoverable trace error it is, so
    // callers can fall back to live execution instead of aborting.
    throw TraceError(std::string("trace: replay rejected by simulator: ") +
                     e.what());
  }
}

std::vector<ReplayOutcome> MultiReplayDriver::run(
    const Trace& trace, const TracePlan& plan) const {
  const npb::Kernel kernel = kernel_from_name(trace.meta.kernel);
  const npb::Klass klass = klass_from_name(trace.meta.klass);

  if (lanes_.empty()) {
    throw TraceError("trace: multi-replay needs at least one lane");
  }
  if (trace.meta.threads == 0 ||
      trace.streams.size() != trace.meta.threads) {
    throw TraceError("trace: stream count does not match thread count");
  }
  if (plan.threads().size() != trace.meta.threads ||
      plan.boundary_count() != trace.boundaries.size()) {
    throw TraceError("trace: plan does not match trace shape");
  }

  try {
    const ReplaySubstrate substrate(kernel, klass, trace.meta.page_kind);
    LaneArena arena;
    LaneSet lanes(substrate, trace.meta.threads);
    for (const ReplayConfig& cfg : lanes_) lanes.add_lane(cfg);
    lanes.seal(&arena);

    // Same application order as the decoding run(): each boundary drains
    // one precompiled segment per thread, then applies the boundary — but
    // the blocks come straight from the plan, so no stream is decoded and
    // each block's analytic summary rides along for the lanes that use it.
    for (std::size_t b = 0; b < trace.boundaries.size(); ++b) {
      for (unsigned tid = 0; tid < trace.meta.threads; ++tid) {
        const ThreadPlan& tp = plan.threads()[tid];
        const std::uint32_t begin = b == 0 ? 0 : tp.segment_end[b - 1];
        const std::uint32_t end = tp.segment_end[b];
        for (std::uint32_t i = begin; i < end; ++i) {
          lanes.apply_plan_block(tid, tp.blocks[i]);
        }
      }
      lanes.apply_boundary(trace.boundaries[b]);
    }

    const std::string label = trace.meta.kernel + "." + trace.meta.klass;
    std::vector<ReplayOutcome> outcomes;
    outcomes.reserve(lanes.lanes());
    for (std::size_t lane = 0; lane < lanes.lanes(); ++lane) {
      outcomes.push_back(lanes.outcome(lane, label, trace.meta.verified,
                                       trace.meta.checksum));
    }
    return outcomes;
  } catch (const TraceError&) {
    throw;
  } catch (const std::logic_error& e) {
    throw TraceError(std::string("trace: replay rejected by simulator: ") +
                     e.what());
  }
}

}  // namespace lpomp::trace
