// ExperimentEngine — the historical front door to sweep execution, now a
// thin facade over the library-grade exec::Scheduler (scheduler.hpp).
//
// Everything substantive — task expansion, the work-stealing pool, the
// layered result cache (in-memory LRU over an optional disk-persistent
// store), stream-group fusion, failure isolation — lives in the Scheduler.
// This class exists so the accumulated call sites (benches, figure
// harnesses, tests) keep compiling unchanged: same constructor surface,
// same run(SweepSpec) → SweepResult contract.
//
// Config migration: the accreted `multilane` / `analytic` bools are
// deprecated in favour of the single `strategy` axis (strategy.hpp).
// They still work — a non-default combination maps onto the equivalent
// Strategy (and warns once, on stderr) — but new code should set
// `strategy` directly:
//
//   multilane   analytic    →  Strategy
//   true        true           Auto      (the default; resolves Multilane)
//   false       any            Recorded  (store-based record/replay schedule)
//   true        false          Multilane (fused lanes off a live leader)
//
// When `strategy` is anything but Auto it wins and the bools are ignored.
#pragma once

#include "exec/scheduler.hpp"

namespace lpomp::exec {

class ExperimentEngine {
 public:
  struct Config {
    unsigned workers = 0;             ///< 0 → one per host hardware thread
    std::size_t cache_capacity = 4096;
    /// Byte budget of the trace store backing trace_backed tasks.
    std::size_t trace_store_bytes = MiB(512);
    /// DEPRECATED — set `strategy` instead (see the mapping table above).
    /// Serve each address-stream group as one multi-lane task. Results are
    /// bit-identical either way; purely an execution strategy.
    bool multilane = true;
    /// DEPRECATED — set `strategy` instead (see the mapping table above).
    /// Serve trace-backed replays from a compiled TracePlan with the
    /// analytic fast-forward tier.
    bool analytic = true;
    /// How trace-backed tasks execute; overrides the two bools above
    /// whenever it is not Auto. Results are bit-identical under every
    /// choice.
    Strategy strategy = Strategy::Auto;
    /// Root directory of the disk-persistent result store; empty → no disk
    /// tier (in-memory LRU only, the historical behaviour).
    std::string store_dir = {};
    /// Socket × core shape of the pool (`--topology=SxC`). An explicit
    /// shape overrides `workers`; unspecified → detected from the host.
    Topology topology = {};
  };

  using TaskRunner = Scheduler::TaskRunner;

  ExperimentEngine() : ExperimentEngine(Config{}) {}
  explicit ExperimentEngine(Config config);

  unsigned workers() const { return scheduler_.workers(); }
  ResultCache& cache() { return scheduler_.cache(); }
  trace::TraceStore& trace_store() { return scheduler_.trace_store(); }
  DiskResultStore* disk_store() { return scheduler_.disk_store(); }
  Scheduler& scheduler() { return scheduler_; }
  void set_task_runner(TaskRunner runner) {
    scheduler_.set_task_runner(std::move(runner));
  }

  SweepResult run(const SweepSpec& spec) { return scheduler_.run(spec); }
  SweepResult run(const std::vector<RunTask>& tasks) {
    return scheduler_.run(tasks);
  }

  static RunRecord execute_task(const RunTask& task) {
    return Scheduler::execute_task(task);
  }
  static RunRecord execute_task(const RunTask& task, trace::TraceStore* store,
                                bool analytic = true) {
    return Scheduler::execute_task(task, store, analytic);
  }
  static RunRecord base_record(const RunTask& task) {
    return Scheduler::base_record(task);
  }

  /// The Strategy an engine Config denotes — the deprecation mapping in the
  /// header comment, in code. Exposed so front ends translating legacy
  /// flags agree with the engine byte-for-byte.
  static Strategy effective_strategy(const Config& config);

 private:
  Scheduler scheduler_;
};

}  // namespace lpomp::exec
