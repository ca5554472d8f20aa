#include "exec/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <unordered_map>

#include "exec/json.hpp"
#include "paging/policy.hpp"
#include "prof/profile.hpp"
#include "trace/lane.hpp"
#include "trace/trace.hpp"

namespace lpomp::exec {
namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  const auto dt = std::chrono::steady_clock::now() - t0;
  return std::chrono::duration<double, std::milli>(dt).count();
}

ResultCache::Stats stats_delta(const ResultCache::Stats& after,
                               const ResultCache::Stats& before) {
  ResultCache::Stats d;
  d.hits = after.hits - before.hits;
  d.misses = after.misses - before.misses;
  d.insertions = after.insertions - before.insertions;
  d.evictions = after.evictions - before.evictions;
  return d;
}

DiskResultStore::Stats stats_delta(const DiskResultStore::Stats& after,
                                   const DiskResultStore::Stats& before) {
  DiskResultStore::Stats d;
  d.hits = after.hits - before.hits;
  d.misses = after.misses - before.misses;
  d.insertions = after.insertions - before.insertions;
  d.quarantined = after.quarantined - before.quarantined;
  d.bytes_read = after.bytes_read - before.bytes_read;
  d.bytes_written = after.bytes_written - before.bytes_written;
  d.write_errors = after.write_errors - before.write_errors;
  return d;
}

/// Fills a record's outcome from any (verified, checksum, seconds, profile)
/// source — shared by the live and lane paths so both produce records
/// through the exact same code.
void fill_outcome(RunRecord& record, bool verified, double checksum,
                  double simulated_seconds, const prof::ProfileReport& p) {
  record.ok = true;
  record.verified = verified;
  record.checksum = checksum;
  record.simulated_seconds = simulated_seconds;
  using prof::ProfileReport;
  record.cycles = p.count(ProfileReport::kCycles);
  record.accesses = p.count(ProfileReport::kAccesses);
  record.l1d_misses = p.count(ProfileReport::kL1dMiss);
  record.l2_misses = p.count(ProfileReport::kL2Miss);
  record.dtlb_l1_misses = p.count(ProfileReport::kDtlbL1Miss);
  record.dtlb_walks_4k = p.count(ProfileReport::kDtlbWalk4k);
  record.dtlb_walks_2m = p.count(ProfileReport::kDtlbWalk2m);
  record.dtlb_walks_1g = p.count(ProfileReport::kDtlbWalk1g);
  record.itlb_misses = p.count(ProfileReport::kItlbMiss);
  record.walk_levels = p.count(ProfileReport::kWalkLevels);
  record.pwc_hits = p.count(ProfileReport::kPwcHits);
  record.long_stalls = p.count(ProfileReport::kLongStalls);
}

/// Runs `run`, turning an exception into an ok=false record of `task` — the
/// per-task failure isolation of every execution path.
template <class Run>
RunRecord isolated(const RunTask& task, Run&& run) {
  try {
    return run();
  } catch (const std::exception& e) {
    RunRecord record = Scheduler::base_record(task);
    record.ok = false;
    record.error = e.what();
    return record;
  } catch (...) {
    RunRecord record = Scheduler::base_record(task);
    record.ok = false;
    record.error = "unknown exception";
    return record;
  }
}

trace::ReplayConfig replay_config(const RunTask& task) {
  trace::ReplayConfig cfg{task.spec, task.cost, task.seed,
                          task.code_page_kind};
  cfg.paging = task.paging;
  cfg.analytic = false;  // fanout-fed lanes see events, never plan blocks
  return cfg;
}

std::string task_stream_key(const RunTask& task) {
  return trace::trace_key(npb::kernel_name(task.kernel),
                          npb::klass_name(task.klass), task.threads,
                          task.page_kind);
}

}  // namespace

std::size_t SweepResult::completed() const {
  std::size_t n = 0;
  for (const RunRecord& r : records) n += r.ok ? 1 : 0;
  return n;
}

std::size_t SweepResult::failed() const { return records.size() - completed(); }

std::size_t SweepResult::cache_hits() const {
  std::size_t n = 0;
  for (const RunRecord& r : records) n += r.cache_hit ? 1 : 0;
  return n;
}

std::size_t SweepResult::store_hits() const {
  std::size_t n = 0;
  for (const RunRecord& r : records) n += r.store_hit ? 1 : 0;
  return n;
}

double SweepResult::total_simulated_seconds() const {
  double s = 0.0;
  for (const RunRecord& r : records) s += r.simulated_seconds;
  return s;
}

const RunRecord* SweepResult::find(const std::string& kernel,
                                   const std::string& platform,
                                   unsigned threads,
                                   const std::string& page_kind) const {
  for (const RunRecord& r : records) {
    if (r.kernel == kernel && r.platform == platform && r.threads == threads &&
        r.page_kind == page_kind) {
      return &r;
    }
  }
  return nullptr;
}

const RunRecord* SweepResult::find(const std::string& kernel,
                                   const std::string& platform,
                                   unsigned threads,
                                   const std::string& page_kind,
                                   const std::string& paging) const {
  for (const RunRecord& r : records) {
    if (r.kernel == kernel && r.platform == platform && r.threads == threads &&
        r.page_kind == page_kind && r.paging == paging) {
      return &r;
    }
  }
  return nullptr;
}

std::string SweepResult::summary_json(bool include_host) const {
  JsonWriter w;
  w.begin_object();
  w.field("tasks", static_cast<std::uint64_t>(records.size()));
  w.field("completed", static_cast<std::uint64_t>(completed()));
  w.field("failed", static_cast<std::uint64_t>(failed()));
  w.field("total_simulated_seconds", total_simulated_seconds());
  if (include_host) {
    w.field("workers", workers);
    w.field("strategy", strategy_name(strategy));
    w.field("wall_ms", wall_ms);
    w.field("cache_hits", static_cast<std::uint64_t>(cache_hits()));
    w.field("cache_misses", cache.misses);
    w.field("cache_hit_rate",
            records.empty() ? 0.0
                            : static_cast<double>(cache_hits()) /
                                  static_cast<double>(records.size()));
    w.field("cache_evictions", cache.evictions);
    w.field("store_hits", static_cast<std::uint64_t>(store_hits()));
    w.field("store_misses", store.misses);
    w.field("store_insertions", store.insertions);
    w.field("store_quarantined", store.quarantined);
    w.field("store_bytes_read", store.bytes_read);
    w.field("store_bytes_written", store.bytes_written);
    w.field("fused_groups", static_cast<std::uint64_t>(fused_groups));
    w.field("fused_lanes", static_cast<std::uint64_t>(fused_lanes));
    w.field("folded_lanes", static_cast<std::uint64_t>(folded_lanes));
    w.field("replay_fallbacks", static_cast<std::uint64_t>(replay_fallbacks));
    w.field("domains", domains);
    w.field("topology", topology);
    w.field("substrate_builds", substrate_builds);
    w.field("substrate_reuse", substrate_reuse);
    w.field("substrate_scrub_discards", substrate_scrub_discards);
    w.field("local_steals", local_steals);
    w.field("remote_steals", remote_steals);
  }
  w.end_object();
  return w.str();
}

std::string SweepResult::to_json(bool include_host) const {
  JsonWriter w;
  w.begin_object();
  w.field("schema", "lpomp-sweep-v1");
  w.key("summary");
  w.raw(summary_json(include_host));
  w.key("runs");
  w.begin_array();
  for (const RunRecord& r : records) w.raw(r.to_json(include_host));
  w.end_array();
  w.end_object();
  return w.str();
}

Scheduler::Scheduler(Config config)
    : config_(std::move(config)),
      cache_(config_.cache_capacity),
      trace_store_(config_.trace_store_bytes),
      pool_(config_.workers, config_.topology) {
  if (!config_.store_dir.empty()) {
    disk_store_ = std::make_unique<DiskResultStore>(config_.store_dir);
  }
  runner_ = [](const RunTask& task) { return execute_task(task); };
}

void Scheduler::set_task_runner(TaskRunner runner) {
  runner_ = std::move(runner);
  // A substituted runner owns execution entirely; group fusion would bypass
  // it for followers, so scheduling reverts to per-task submission.
  custom_runner_ = true;
}

std::optional<RunRecord> Scheduler::probe(const std::string& key) {
  if (std::optional<RunRecord> hit = cache_.lookup(key)) {
    hit->cache_hit = true;
    hit->store_hit = false;
    return hit;
  }
  if (disk_store_ != nullptr) {
    if (std::optional<RunRecord> hit = disk_store_->lookup(key)) {
      hit->cache_hit = false;
      hit->store_hit = true;
      cache_.insert(key, *hit);  // promote: repeat hits stay in memory
      return hit;
    }
  }
  return std::nullopt;
}

void Scheduler::commit(const std::string& key, const RunRecord& record) {
  cache_.insert(key, record);
  if (disk_store_ != nullptr) disk_store_->insert(key, record);
}

SweepResult Scheduler::run(const SweepSpec& spec) {
  return run(spec.expand(), config_.strategy);
}

SweepResult Scheduler::run(const std::vector<RunTask>& tasks) {
  return run(tasks, config_.strategy);
}

SweepResult Scheduler::run(const SweepSpec& spec, Strategy strategy) {
  return run(spec.expand(), strategy);
}

SweepResult Scheduler::run(const std::vector<RunTask>& tasks,
                           Strategy strategy) {
  const auto t0 = std::chrono::steady_clock::now();
  const ResultCache::Stats before = cache_.stats();
  const DiskResultStore::Stats store_before =
      disk_store_ != nullptr ? disk_store_->stats() : DiskResultStore::Stats{};
  const trace::SubstratePool::Stats sub_before = substrate_pool_.stats();
  const WorkStealingPool::StealStats steals_before = pool_.steal_stats();
  const Strategy active = resolve_strategy(strategy);

  // Stream groups, in first-seen order: under Multilane (default runner
  // only — a substituted runner owns execution entirely) the trace-backed
  // tasks sharing an address stream form one group; every other task is a
  // group of its own.
  const bool fuse = active == Strategy::Multilane && !custom_runner_;
  std::vector<std::vector<std::size_t>> groups;
  {
    std::unordered_map<std::string, std::size_t> group_of;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (!fuse || !tasks[i].trace_backed) {
        groups.push_back({i});
        continue;
      }
      const auto [it, fresh] =
          group_of.try_emplace(task_stream_key(tasks[i]), groups.size());
      if (fresh) groups.emplace_back();
      groups[it->second].push_back(i);
    }
  }

  SweepResult result;
  result.workers = pool_.workers();
  result.domains = pool_.domains();
  result.topology = pool_.topology().name();
  result.strategy = active;
  result.records.resize(tasks.size());
  FusedStats fused;
  // Each task writes its own pre-assigned slot, so the result order is the
  // task order no matter how the pool schedules. A multi-point group
  // becomes ONE fused job: its leader runs live while every follower's
  // simulator state tracks the same event stream as a lane
  // (run_fused_group) — one pool slot per group, groups still running in
  // parallel across workers. All locals captured here outlive the jobs:
  // run() blocks in wait_idle() until every one has finished.
  for (const std::vector<std::size_t>& group : groups) {
    if (group.size() == 1) {
      RunRecord* slot = &result.records[group.front()];
      const RunTask* task = &tasks[group.front()];
      pool_.submit([this, slot, task] { *slot = run_one(*task); });
    } else {
      pool_.submit([this, &group, &tasks, &result, &fused] {
        run_fused_group(group, tasks, result.records, fused);
      });
    }
  }
  pool_.wait_idle();

  result.wall_ms = ms_since(t0);
  result.cache = stats_delta(cache_.stats(), before);
  if (disk_store_ != nullptr) {
    result.store = stats_delta(disk_store_->stats(), store_before);
  }
  result.fused_groups = fused.groups.load();
  result.fused_lanes = fused.lanes.load();
  result.folded_lanes = fused.folds.load();
  const trace::SubstratePool::Stats sub_after = substrate_pool_.stats();
  result.substrate_builds = sub_after.builds - sub_before.builds;
  result.substrate_reuse = sub_after.reuses - sub_before.reuses;
  result.substrate_scrub_discards =
      sub_after.scrub_discards - sub_before.scrub_discards;
  const WorkStealingPool::StealStats steals_after = pool_.steal_stats();
  result.local_steals = steals_after.local - steals_before.local;
  result.remote_steals = steals_after.remote - steals_before.remote;
  return result;
}

void Scheduler::run_fused_group(const std::vector<std::size_t>& group,
                                const std::vector<RunTask>& tasks,
                                std::vector<RunRecord>& records,
                                FusedStats& fused) {
  // Cached grid points (either tier) are served immediately; only the rest
  // need lanes.
  std::vector<std::size_t> todo;
  for (const std::size_t i : group) {
    const auto t0 = std::chrono::steady_clock::now();
    if (std::optional<RunRecord> hit = probe(cache_key(tasks[i]))) {
      hit->wall_ms = ms_since(t0);
      records[i] = *hit;
    } else {
      todo.push_back(i);
    }
  }

  // Solo fallback: a plain live run.
  auto run_solo = [this, &tasks, &records](std::size_t i) {
    records[i] = run_one(tasks[i]);
  };

  if (todo.size() <= 1) {
    for (const std::size_t i : todo) run_solo(i);
    return;
  }

  // Live leader + lane fan-out: the first uncached point runs the kernel
  // for real; every other point's simulator state tracks the leader's
  // event stream as a lane, fed directly through the sink hooks.
  const std::size_t lead = todo.front();
  const RunTask& lead_task = tasks[lead];
  std::vector<std::size_t> solos;
  std::vector<std::size_t> lane_idx;

  trace::SubstratePool::Lease substrate = substrate_pool_.checkout(
      lead_task.kernel, lead_task.klass, lead_task.page_kind);

  // Fold (DESIGN.md §8): a point whose content key under its canonical
  // paging policy matches an earlier point's computes the same counters by
  // proof (paging::canonical_policy over the group's substrate), so only
  // the first point per fold key becomes the leader or a lane; the rest
  // copy its outcome once the group has run.
  std::vector<std::size_t> runs;
  std::vector<std::pair<std::size_t, std::size_t>> folded;  // (point, source)
  {
    std::unordered_map<std::string, std::size_t> first;
    for (const std::size_t i : todo) {
      RunTask canon = tasks[i];
      canon.paging = paging::canonical_policy(canon.paging, substrate->space());
      const auto [it, fresh] = first.try_emplace(cache_key(canon), i);
      if (fresh) {
        runs.push_back(i);
      } else {
        folded.emplace_back(i, it->second);
      }
    }
  }

  trace::LaneArena arena;
  trace::LaneSet lanes(*substrate, lead_task.threads);
  for (std::size_t j = 1; j < runs.size(); ++j) {
    const std::size_t i = runs[j];
    try {
      lanes.add_lane(replay_config(tasks[i]));
      lane_idx.push_back(i);
    } catch (const trace::TraceError&) {
      solos.push_back(i);  // does not fit this platform — runs (and fails
                           // with its own diagnostics) on its own
    }
  }
  lanes.seal(&arena);
  trace::LaneFanout fanout(lanes);

  const auto t0 = std::chrono::steady_clock::now();
  RunRecord lead_record = isolated(lead_task, [&] {
    return execute_task(lead_task,
                        lane_idx.empty() ? sim::SinkHooks{} : fanout.hooks());
  });
  const bool lead_ok = lead_record.ok;
  lead_record.cache_hit = false;
  lead_record.wall_ms = ms_since(t0);
  if (lead_record.ok) commit(cache_key(lead_task), lead_record);
  records[lead] = lead_record;

  if (lead_ok && !lane_idx.empty()) {
    const auto t1 = std::chrono::steady_clock::now();
    const std::string label = npb::kernel_name(lead_task.kernel) +
                              std::string(".") +
                              npb::klass_name(lead_task.klass);
    for (std::size_t k = 0; k < lane_idx.size(); ++k) {
      const std::size_t i = lane_idx[k];
      RunRecord record = replay_record(tasks[i], lanes.outcome(
          k, label, lead_record.verified, lead_record.checksum));
      record.trace_source = "lane";
      record.wall_ms = ms_since(t1) / static_cast<double>(lane_idx.size());
      commit(cache_key(tasks[i]), record);
      records[i] = record;
    }
    fused.groups.fetch_add(1);
    fused.lanes.fetch_add(lane_idx.size());
  } else if (!lead_ok) {
    // The lanes saw a partial stream; discard them and isolate the failure
    // to the leader — every follower gets its own untainted run.
    solos.insert(solos.end(), lane_idx.begin(), lane_idx.end());
  }

  // A folded point shares its source's fate: it copies the outcome of a
  // leader or lane that completed, and runs solo wherever its source did
  // (a failed leader, a platform the lane did not fit).
  for (const auto& [i, source] : folded) {
    if (!lead_ok ||
        std::find(solos.begin(), solos.end(), source) != solos.end()) {
      solos.push_back(i);
      continue;
    }
    const auto t1 = std::chrono::steady_clock::now();
    // Equal fold keys leave only the policy to tell the two points apart,
    // so the copy restamps just the policy's echo and the content key.
    const RunRecord own = base_record(tasks[i]);
    RunRecord record = records[source];
    record.paging = own.paging;
    record.key_digest = own.key_digest;
    record.trace_source = "fold";
    record.wall_ms = ms_since(t1);
    commit(cache_key(tasks[i]), record);
    records[i] = std::move(record);
    fused.folds.fetch_add(1);
  }
  for (const std::size_t i : solos) run_solo(i);
}

RunRecord Scheduler::run_one(const RunTask& task) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::string key = cache_key(task);
  if (std::optional<RunRecord> hit = probe(key)) {
    hit->wall_ms = ms_since(t0);
    return *hit;
  }
  RunRecord record = isolated(task, [&] { return runner_(task); });
  record.cache_hit = false;
  record.store_hit = false;
  record.wall_ms = ms_since(t0);
  if (record.ok) commit(key, record);
  return record;
}

RunRecord Scheduler::base_record(const RunTask& task) {
  RunRecord record;
  record.kernel = npb::kernel_name(task.kernel);
  record.klass = npb::klass_name(task.klass);
  record.platform = task.spec.name;
  record.threads = task.threads;
  record.page_kind = page_kind_name(task.page_kind);
  record.code_page_kind = page_kind_name(task.code_page_kind);
  record.paging = task.paging.name();
  record.seed = task.seed;
  record.key_digest = digest_hex(cache_key(task));
  return record;
}

RunRecord Scheduler::execute_task(const RunTask& task,
                                  const sim::SinkHooks& hooks) {
  core::RuntimeConfig cfg;
  cfg.num_threads = task.threads;
  cfg.page_kind = task.page_kind;
  cfg.code_page_kind = task.code_page_kind;
  cfg.paging = task.paging;
  cfg.sim = core::SimConfig{task.spec, task.cost, task.seed};
  cfg.trace_hooks = hooks;

  const npb::NpbResult r = npb::run_kernel(task.kernel, task.klass, cfg);
  RunRecord record = base_record(task);
  fill_outcome(record, r.verified, r.checksum, r.simulated_seconds, r.profile);
  return record;
}

RunRecord Scheduler::replay_record(const RunTask& task,
                                   const trace::ReplayOutcome& out) {
  RunRecord record = base_record(task);
  fill_outcome(record, out.verified, out.checksum, out.simulated_seconds,
               out.profile);
  return record;
}

}  // namespace lpomp::exec
