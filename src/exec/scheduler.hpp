// Scheduler — the library-grade core of the experiment engine.
//
// Takes a declarative SweepSpec (or an explicit task list), expands it into
// independent RunTasks, and executes them on a work-stealing pool sized to
// the host. Each task constructs its own Runtime/AddressSpace/Machine
// inside npb::run_kernel, so results are bit-identical to a serial loop
// regardless of worker count, scheduling order, or execution Strategy —
// the determinism the paper reproduction depends on, preserved while
// filling every host core.
//
// Around execution sit three layers:
//   * a content-keyed in-memory LRU ResultCache (canonical config
//     serialisation → RunRecord), so repeated or overlapping sweeps skip
//     completed runs;
//   * an optional disk-persistent, content-addressed DiskResultStore under
//     the LRU (Config::store_dir), so results survive the process: a
//     fresh scheduler — or a separate process, e.g. the sweep daemon after
//     a restart — serves previously computed grid points from disk, and a
//     warm entry promotes into the LRU so repeat hits never touch disk;
//   * structured observability: every run yields a JSON RunRecord and a
//     sweep yields a JSON summary (config echo, simulated cycles, walk
//     counts per PageKind, wall time, cache/store provenance).
//
// How tasks execute is a single Strategy axis (strategy.hpp), identical
// results either way: `live` runs every task on its own and is the
// reference; `auto`, the default, admits a sweep in one step — it folds
// points whose paging policy is provably equivalent onto one run, fuses a
// stream group only when at least kFuseWidth unique points remain, and runs
// every other point exactly as live does.
//
// This core is deliberately front-end-free: no CLI parsing, no stdout, no
// benchmark assumptions. The benches construct it directly
// (bench::make_scheduler); the sweep daemon (src/serve) is a second front
// end over the same substrate.
//
// Failure isolation: a task that throws is recorded (ok=false, error=what)
// without poisoning the sweep — all other tasks still run and the sweep
// returns normally.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exec/disk_store.hpp"
#include "exec/fingerprint.hpp"
#include "exec/record.hpp"
#include "exec/result_cache.hpp"
#include "exec/strategy.hpp"
#include "exec/sweep.hpp"
#include "exec/thread_pool.hpp"
#include "trace/lane.hpp"
#include "trace/store.hpp"

namespace lpomp::exec {

/// Result of one scheduler sweep: records in task order plus aggregates.
struct SweepResult {
  std::vector<RunRecord> records;  ///< task order, independent of scheduling
  unsigned workers = 0;
  double wall_ms = 0.0;
  ResultCache::Stats cache;        ///< LRU activity of THIS sweep only
  DiskResultStore::Stats store;    ///< disk-store activity of THIS sweep only
  Strategy strategy = Strategy::Auto;  ///< as resolved for this sweep

  // Admission provenance (host-side; results are identical with or without
  // folding and fusion).
  std::size_t fused_groups = 0;     ///< stream groups served multi-lane
  std::size_t fused_lanes = 0;      ///< follower grid points covered as lanes
  /// Grid points whose paging policy is provably equivalent to an earlier
  /// point's (paging::canonical_policy): they copy that point's outcome
  /// instead of running (trace_source "fold").
  std::size_t folded_lanes = 0;
  /// Always 0: the Scheduler no longer replays stored traces. Kept because
  /// perfbench reports it as exec.fallbacks.
  std::size_t replay_fallbacks = 0;

  std::size_t completed() const;  ///< records with ok
  std::size_t failed() const;
  std::size_t cache_hits() const;  ///< served from the in-memory LRU
  std::size_t store_hits() const;  ///< served from the persistent store
  double total_simulated_seconds() const;

  /// Record for a (kernel, platform, threads, page kind) grid point, or
  /// nullptr — the lookup the figure harnesses print their tables from.
  /// Returns the first match, so on a multi-policy sweep this is the first
  /// policy in grid order; use the policy-qualified overload to pick one.
  const RunRecord* find(const std::string& kernel, const std::string& platform,
                        unsigned threads, const std::string& page_kind) const;

  /// Same lookup additionally keyed by paging-policy name ("native", "thp"…).
  const RunRecord* find(const std::string& kernel, const std::string& platform,
                        unsigned threads, const std::string& page_kind,
                        const std::string& paging) const;

  /// {"schema":...,"summary":{...},"runs":[...]}. With include_host=false
  /// only deterministic fields are emitted (golden files, worker-count
  /// equivalence diffs).
  std::string to_json(bool include_host = true) const;
  std::string summary_json(bool include_host = true) const;
};

class Scheduler {
 public:
  struct Config {
    unsigned workers = 0;             ///< 0 → one per host hardware thread
    std::size_t cache_capacity = 4096;
    /// Byte budget of trace_store(). Kept because perfbench sets it; no
    /// schedule stores traces, so the store stays empty.
    std::size_t trace_store_bytes = MiB(512);
    /// How trace-backed tasks execute (strategy.hpp). Results are
    /// bit-identical under every choice. Individual run() calls may
    /// override.
    Strategy strategy = Strategy::Auto;
    /// Root directory of the disk-persistent result store; empty → no
    /// disk tier (in-memory LRU only, the historical behaviour).
    std::string store_dir = {};
  };

  /// Maps a task to its record; the default runs npb::run_kernel. Tests
  /// substitute runners to inject failures or count executions. May throw:
  /// the scheduler converts exceptions into ok=false records.
  using TaskRunner = std::function<RunRecord(const RunTask&)>;

  /// The width rule of auto's admission: a stream group still holding at
  /// least this many unique (unfolded) points runs as one fused job — a
  /// live leader plus lanes. A narrower group's points run on their own:
  /// fusing two points halves the job count and doubles the longest job,
  /// which costs more wall than the lane saves (EXPERIMENTS.md "One
  /// default schedule"). A constant, not an option.
  static constexpr std::size_t kFuseWidth = 3;

  Scheduler() : Scheduler(Config{}) {}
  explicit Scheduler(Config config);

  unsigned workers() const { return pool_.workers(); }
  ResultCache& cache() { return cache_; }
  /// Always empty (no schedule stores traces). Kept because perfbench
  /// samples its high-water mark as trace.store_peak_bytes.
  trace::TraceStore& trace_store() { return trace_store_; }
  /// The disk tier, or nullptr when Config::store_dir was empty.
  DiskResultStore* disk_store() { return disk_store_.get(); }
  const DiskResultStore* disk_store() const { return disk_store_.get(); }
  Strategy strategy() const { return config_.strategy; }
  void set_task_runner(TaskRunner runner);

  /// Runs a sweep under the configured strategy. Not reentrant: one run()
  /// at a time per scheduler (callers like the sweep daemon serialise).
  SweepResult run(const SweepSpec& spec);
  SweepResult run(const std::vector<RunTask>& tasks);
  /// Same, overriding the configured strategy for this sweep only — the
  /// daemon serves per-request strategies from one scheduler this way.
  SweepResult run(const SweepSpec& spec, Strategy strategy);
  SweepResult run(const std::vector<RunTask>& tasks, Strategy strategy);

  /// The default runner: one full simulated kernel run, its event stream
  /// reported to `hooks` (none by default; a TraceRecorder bound with
  /// sim::bind_sink records it). Aborting on verification failure is the
  /// caller's policy; the record carries `verified` either way.
  static RunRecord execute_task(const RunTask& task,
                                const sim::SinkHooks& hooks = {});

  /// The record a replay of `task`'s stream yields: base_record(task) with
  /// the replayed outcome — what lanes commit and what replay checks
  /// compare against a live run.
  static RunRecord replay_record(const RunTask& task,
                                 const trace::ReplayOutcome& out);

  /// Config-echo fields + content-key digest, no run outcome (the skeleton
  /// both execute_task and the failure path start from).
  static RunRecord base_record(const RunTask& task);

 private:
  /// Shared counters the fused-group jobs report into during one sweep.
  struct FusedStats {
    std::atomic<std::size_t> groups{0};
    std::atomic<std::size_t> lanes{0};
  };

  /// What admission makes of a task list: the jobs to submit, each a single
  /// task or a fused stream group, and the folded points, each paired with
  /// the earlier point whose outcome it copies.
  struct Admission {
    std::vector<std::vector<std::size_t>> jobs;
    /// (point, source)
    std::vector<std::pair<std::size_t, std::size_t>> copies;
  };

  /// Auto's admission step (DESIGN.md §8): folds every trace-backed point
  /// that the LRU does not already hold by its fold key (cache_key under
  /// paging::canonical_policy, over a transient substrate built once per
  /// layout that needs one), then applies the width rule to the unique
  /// points. With `fold` false every task is a job of its own (live).
  Admission admit(const std::vector<RunTask>& tasks, bool fold);

  /// Layered probe: in-memory LRU first, then the disk store (a disk hit
  /// promotes into the LRU). Stamps cache_hit/store_hit provenance; the
  /// caller stamps wall_ms.
  std::optional<RunRecord> probe(const std::string& key);
  /// Write-through commit of a successful record to LRU + disk.
  void commit(const std::string& key, const RunRecord& record);

  RunRecord run_one(const RunTask& task);

  /// Executes the unique points of one address-stream group as a single
  /// fused job: cached points are served first; the first uncached point
  /// runs live with a LaneFanout feeding the others as lanes. Any point the
  /// group cannot serve (lane rejected, leader failed) falls back to a solo
  /// live run — failure isolation is per grid point, exactly as unfused.
  void run_fused_group(const std::vector<std::size_t>& group,
                       const std::vector<RunTask>& tasks,
                       std::vector<RunRecord>& records, FusedStats& fused);

  Config config_;
  TaskRunner runner_;
  bool custom_runner_ = false;
  ResultCache cache_;
  std::unique_ptr<DiskResultStore> disk_store_;
  trace::TraceStore trace_store_;
  WorkStealingPool pool_;
};

}  // namespace lpomp::exec
