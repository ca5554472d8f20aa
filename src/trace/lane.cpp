#include "trace/lane.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "prof/profile.hpp"
#include "trace/codec.hpp"

namespace lpomp::trace {

ReplaySubstrate::ReplaySubstrate(npb::Kernel kernel, npb::Klass klass,
                                 PageKind page_kind)
    : kernel_(kernel), klass_(klass), page_kind_(page_kind) {
  // Mirror core::Runtime's construction sequence (PhysMem → AddressSpace →
  // hugetlbfs mount + image file → pool mapping) with the same automatic
  // sizing, so frame assignment and page-table layout match the recording
  // run's exactly. Only the mapping is mirrored: lanes never read kernel
  // data, so the pool has no host buffer behind it (a SharedAllocator
  // would zero one the size of the pool).
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
  pool_base_ = space_->map_region(cfg.shared_pool_bytes, page_kind,
                                  "shared_image", source)
                   .base;
}

ReplaySubstrate::~ReplaySubstrate() {
  // Same teardown order as core::Runtime: pool pages back to their source,
  // then the image file, then the mount.
  space_->unmap_region(pool_base_);
  if (hugetlbfs_) hugetlbfs_->unlink_file("lpomp_shared_image");
  hugetlbfs_.reset();
  space_.reset();
  phys_.reset();
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
  return lane;
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
    LaneSet lanes(substrate, trace.meta.threads);
    for (const ReplayConfig& cfg : lanes_) lanes.add_lane(cfg);

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
    LaneSet lanes(substrate, trace.meta.threads);
    for (const ReplayConfig& cfg : lanes_) lanes.add_lane(cfg);

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
