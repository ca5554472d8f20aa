#include "exec/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <unordered_map>

#include "exec/json.hpp"
#include "paging/policy.hpp"
#include "prof/profile.hpp"
#include "trace/lane.hpp"
#include "trace/recorder.hpp"
#include "trace/replay.hpp"
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
/// source — shared by the live, replay and lane paths so all produce
/// records through the exact same code.
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

RunRecord execute_live(const RunTask& task, const sim::SinkHooks& hooks,
                       RunRecord record) {
  core::RuntimeConfig cfg;
  cfg.num_threads = task.threads;
  cfg.page_kind = task.page_kind;
  cfg.code_page_kind = task.code_page_kind;
  cfg.paging = task.paging;
  cfg.sim = core::SimConfig{task.spec, task.cost, task.seed};
  cfg.trace_hooks = hooks;

  const npb::NpbResult r = npb::run_kernel(task.kernel, task.klass, cfg);
  fill_outcome(record, r.verified, r.checksum, r.simulated_seconds, r.profile);
  return record;
}

trace::ReplayConfig replay_config(const RunTask& task, bool analytic) {
  trace::ReplayConfig cfg{task.spec, task.cost, task.seed,
                          task.code_page_kind};
  cfg.paging = task.paging;
  cfg.analytic = analytic;
  return cfg;
}

/// Compiled plan for the trace under `key`, compiling and caching it on
/// first use. Shares TraceError semantics with replay: a trace whose plan
/// does not compile would not replay either.
std::shared_ptr<const trace::TracePlan> plan_for(trace::TraceStore& store,
                                                 const std::string& key,
                                                 const trace::Trace& tr) {
  std::shared_ptr<const trace::TracePlan> plan = store.plan_lookup(key);
  if (plan == nullptr) {
    plan = trace::TracePlan::compile(tr);
    store.plan_insert(key, plan);
  }
  return plan;
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

namespace {

void sharding_row_json(JsonWriter& w, const SweepResult::GroupSharding& g) {
  w.begin_object();
  w.field("stream", g.stream);
  w.field("mode", g.mode);
  w.field("shards", g.shards);
  w.field("imbalance", g.imbalance);
  w.field("ewma", g.ewma);
  w.field("promotions", g.promotions);
  w.field("demotions", g.demotions);
  w.end_object();
}

}  // namespace

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
    w.key("sharding");
    w.begin_array();
    for (const GroupSharding& g : sharding) sharding_row_json(w, g);
    w.end_array();
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
  runner_ = [this](const RunTask& task) {
    return execute_task(task, task.trace_backed ? &trace_store_ : nullptr,
                        active_ == Strategy::Analytic);
  };
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
  active_ = resolve_strategy(strategy);
  const bool analytic = active_ == Strategy::Analytic;

  // Recording has a per-access cost, so it only pays off when the stream is
  // replayed later. Count how many tasks share each address stream and run
  // single-use streams plain live (the records are identical either way —
  // trace backing is pure execution strategy). Strategy::Live opts the
  // whole sweep out of trace backing the same way.
  std::vector<RunTask> planned = tasks;
  if (active_ == Strategy::Live) {
    for (RunTask& task : planned) task.trace_backed = false;
  }
  std::unordered_map<std::string, unsigned> stream_uses;
  for (const RunTask& task : planned) {
    if (!task.trace_backed) continue;
    ++stream_uses[trace::trace_key(npb::kernel_name(task.kernel),
                                   npb::klass_name(task.klass), task.threads,
                                   task.page_kind)];
  }
  for (RunTask& task : planned) {
    if (!task.trace_backed) continue;
    if (stream_uses[trace::trace_key(npb::kernel_name(task.kernel),
                                     npb::klass_name(task.klass),
                                     task.threads, task.page_kind)] < 2) {
      task.trace_backed = false;
    }
  }

  // Sort tasks into address-stream groups (stable within and across
  // groups): a stream's recording run leads, its replays follow.
  std::vector<std::size_t> order(planned.size());
  std::vector<std::size_t> rank(planned.size());
  {
    std::unordered_map<std::string, std::size_t> first_seen;
    for (std::size_t i = 0; i < planned.size(); ++i) {
      const RunTask& t = planned[i];
      rank[i] = t.trace_backed
                    ? first_seen
                          .try_emplace(trace::trace_key(
                                           npb::kernel_name(t.kernel),
                                           npb::klass_name(t.klass), t.threads,
                                           t.page_kind),
                                       i)
                          .first->second
                    : i;
      order[i] = i;
    }
    std::stable_sort(order.begin(), order.end(),
                     [&rank](std::size_t a, std::size_t b) {
                       return rank[a] < rank[b];
                     });
  }

  // Release bookkeeping: once the last task sharing a stream completes, its
  // trace is dropped from the store — together with the leader/follower
  // submission below, the sweep keeps roughly one stream per worker
  // resident instead of accumulating the whole grid's traces.
  std::vector<std::string> stream_key(planned.size());
  std::unordered_map<std::string, std::atomic<unsigned>> remaining;
  for (std::size_t i = 0; i < planned.size(); ++i) {
    if (!planned[i].trace_backed) continue;
    stream_key[i] = trace::trace_key(npb::kernel_name(planned[i].kernel),
                                     npb::klass_name(planned[i].klass),
                                     planned[i].threads, planned[i].page_kind);
    ++remaining[stream_key[i]];
  }

  SweepResult result;
  result.workers = pool_.workers();
  result.domains = pool_.domains();
  result.topology = pool_.topology().name();
  result.strategy = active_;
  result.records.resize(planned.size());
  FusedStats fused;
  // Each task writes its own pre-assigned slot, so the result order is the
  // task order no matter how the pool schedules.
  std::function<void(std::size_t)> submit_task =
      [this, &result, &planned, &stream_key, &remaining](std::size_t i) {
        RunRecord* slot = &result.records[i];
        const RunTask* task = &planned[i];
        const std::string* key =
            stream_key[i].empty() ? nullptr : &stream_key[i];
        std::atomic<unsigned>* uses_left =
            key == nullptr ? nullptr : &remaining.find(*key)->second;
        pool_.submit([this, slot, task, key, uses_left] {
          *slot = run_one(*task);
          if (uses_left != nullptr && uses_left->fetch_sub(1) == 1) {
            trace_store_.erase(*key);
          }
        });
      };

  // Group submission. Under the Multilane and Analytic strategies (default
  // runner only), a whole stream group becomes ONE fused multi-lane job:
  // its leader runs live while every follower's simulator state tracks the
  // same event stream as a lane (run_fused_group below) — no encode, no
  // decode, one pool slot per group, groups still running in parallel
  // across workers. Under Recorded (or with a custom runner — tests inject
  // failures / count executions), the store-based schedule is kept: the
  // leader (recording run) is submitted alone and the followers enter the
  // pool only once the leader has finished and the trace is in the store —
  // submitting whole groups up front would let a multi-worker pool run a
  // pair concurrently, recording the stream twice instead of replaying it.
  // All locals captured here outlive the tasks: run() blocks in wait_idle()
  // until every dynamically submitted follower has finished too.
  const bool fuse_groups =
      (active_ == Strategy::Multilane || active_ == Strategy::Analytic) &&
      !custom_runner_;
  for (std::size_t g = 0; g < order.size();) {
    std::size_t end = g + 1;
    while (end < order.size() && rank[order[end]] == rank[order[g]]) ++end;
    const std::size_t lead = order[g];
    if (end - g == 1 || !planned[lead].trace_backed) {
      for (std::size_t j = g; j < end; ++j) submit_task(order[j]);
    } else if (fuse_groups) {
      std::vector<std::size_t> group(
          order.begin() + static_cast<std::ptrdiff_t>(g),
          order.begin() + static_cast<std::ptrdiff_t>(end));
      const std::string* key = &stream_key[lead];
      std::atomic<unsigned>* uses_left = &remaining.find(*key)->second;
      pool_.submit([this, group = std::move(group), &planned, &result, key,
                    uses_left, &fused, analytic] {
        run_fused_group(group, planned, result.records, *key, *uses_left,
                        fused, analytic);
      });
    } else {
      std::vector<std::size_t> followers(order.begin() +
                                             static_cast<std::ptrdiff_t>(g) + 1,
                                         order.begin() +
                                             static_cast<std::ptrdiff_t>(end));
      RunRecord* slot = &result.records[lead];
      const RunTask* task = &planned[lead];
      std::atomic<unsigned>* uses_left = &remaining.find(stream_key[lead])->second;
      const std::string* key = &stream_key[lead];
      pool_.submit([this, slot, task, key, uses_left, &submit_task,
                    followers = std::move(followers)] {
        *slot = run_one(*task);
        if (uses_left->fetch_sub(1) == 1) trace_store_.erase(*key);
        for (const std::size_t j : followers) submit_task(j);
      });
    }
    g = end;
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
  result.replay_fallbacks = fused.fallbacks.load();
  const trace::SubstratePool::Stats sub_after = substrate_pool_.stats();
  result.substrate_builds = sub_after.builds - sub_before.builds;
  result.substrate_reuse = sub_after.reuses - sub_before.reuses;
  result.substrate_scrub_discards =
      sub_after.scrub_discards - sub_before.scrub_discards;
  const WorkStealingPool::StealStats steals_after = pool_.steal_stats();
  result.local_steals = steals_after.local - steals_before.local;
  result.remote_steals = steals_after.remote - steals_before.remote;
  // Shard completion order is scheduling-dependent; sort the decision rows
  // so the telemetry itself is stable for a given set of decisions.
  result.sharding = std::move(fused.sharding);
  std::sort(result.sharding.begin(), result.sharding.end(),
            [](const SweepResult::GroupSharding& a,
               const SweepResult::GroupSharding& b) {
              return a.stream < b.stream;
            });
  return result;
}

/// Mutable state the lane shards of one stream group share. Heap-held
/// (shared_ptr) because shards outlive the group job that spawned them;
/// pointers reference run() locals, which outlive every shard via
/// wait_idle().
struct Scheduler::ShardGroup {
  std::shared_ptr<const trace::Trace> tr;
  std::shared_ptr<const trace::TracePlan> plan;  ///< null → interpreted
  std::vector<std::size_t> lane_idx;     ///< all lanes, shard-major order
  std::vector<std::size_t> shard_begin;  ///< size shards+1, offsets in lane_idx
  const std::vector<RunTask>* planned = nullptr;
  std::vector<RunRecord>* records = nullptr;
  const std::string* key = nullptr;
  std::atomic<unsigned>* uses_left = nullptr;
  FusedStats* fused = nullptr;
  bool analytic = false;
  bool stealing = false;  ///< mode this group executed under
  std::vector<double> walls;  ///< per shard, each written by its own shard
  std::atomic<std::size_t> remaining{0};
  std::atomic<std::size_t> ok_lanes{0};
  std::atomic<std::size_t> fallback_shards{0};
};

void Scheduler::serve_lane_shards(std::shared_ptr<const trace::Trace> tr,
                                  std::shared_ptr<const trace::TracePlan> plan,
                                  std::vector<std::size_t> lane_idx,
                                  const std::vector<RunTask>& planned,
                                  std::vector<RunRecord>& records,
                                  const std::string& key,
                                  std::atomic<unsigned>& uses_left,
                                  FusedStats& fused, bool analytic) {
  if (lane_idx.empty()) return;
  const std::size_t nlanes = lane_idx.size();
  const unsigned domains = pool_.domains();
  // Static mode: one contiguous chunk per domain — minimal scheduling
  // traffic, each shard first-touches its lane state on its own socket.
  // Stealing mode (after promotion): one task per lane, placed round-robin
  // and rebalanced by the pool's domain-preferring steals.
  const bool stealing = governor_.stealing(key);
  const std::size_t shards =
      stealing ? nlanes : std::min<std::size_t>(domains, nlanes);

  auto ctx = std::make_shared<ShardGroup>();
  ctx->tr = std::move(tr);
  ctx->plan = std::move(plan);
  ctx->lane_idx = std::move(lane_idx);
  ctx->shard_begin.resize(shards + 1);
  for (std::size_t s = 0; s <= shards; ++s) {
    ctx->shard_begin[s] = s * nlanes / shards;
  }
  ctx->planned = &planned;
  ctx->records = &records;
  ctx->key = &key;
  ctx->uses_left = &uses_left;
  ctx->fused = &fused;
  ctx->analytic = analytic;
  ctx->stealing = stealing;
  ctx->walls.assign(shards, 0.0);
  ctx->remaining.store(shards);

  for (std::size_t s = 0; s < shards; ++s) {
    auto job = [this, ctx, s] { run_shard(ctx, s); };
    if (stealing) {
      pool_.submit(std::move(job));
    } else {
      pool_.submit_to_domain(std::move(job),
                             static_cast<unsigned>(s % domains));
    }
  }
}

void Scheduler::run_shard(const std::shared_ptr<ShardGroup>& ctx,
                          std::size_t shard) {
  const std::vector<RunTask>& planned = *ctx->planned;
  std::vector<RunRecord>& records = *ctx->records;
  const std::size_t begin = ctx->shard_begin[shard];
  const std::size_t end = ctx->shard_begin[shard + 1];
  const auto count = static_cast<unsigned>(end - begin);

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<trace::ReplayConfig> cfgs;
  cfgs.reserve(end - begin);
  for (std::size_t k = begin; k < end; ++k) {
    cfgs.push_back(replay_config(planned[ctx->lane_idx[k]], ctx->analytic));
  }
  try {
    const std::vector<trace::ReplayOutcome> outs =
        ctx->plan != nullptr
            ? trace::MultiReplayDriver(std::move(cfgs))
                  .run(*ctx->tr, *ctx->plan, &substrate_pool_)
            : trace::MultiReplayDriver(std::move(cfgs))
                  .run(*ctx->tr, &substrate_pool_);
    const double per_lane =
        ms_since(t0) / static_cast<double>(end - begin);
    for (std::size_t k = begin; k < end; ++k) {
      const std::size_t i = ctx->lane_idx[k];
      RunRecord record = base_record(planned[i]);
      fill_outcome(record, outs[k - begin].verified, outs[k - begin].checksum,
                   outs[k - begin].simulated_seconds, outs[k - begin].profile);
      record.trace_source = ctx->analytic ? "analytic" : "replay";
      record.cache_hit = false;
      record.wall_ms = per_lane;
      commit(cache_key(planned[i]), record);
      records[i] = record;
    }
    ctx->ok_lanes.fetch_add(end - begin);
  } catch (const trace::TraceError&) {
    // This shard's replay was rejected (corrupt or inconsistent stored
    // stream). Drop the trace and serve the shard's own lanes live — the
    // sibling shards hold their own shared_ptr and finish however they
    // finish; isolation is per shard, results identical either way.
    trace_store_.erase(*ctx->key);
    ctx->fallback_shards.fetch_add(1);
    for (std::size_t k = begin; k < end; ++k) {
      RunTask solo = planned[ctx->lane_idx[k]];
      solo.trace_backed = false;
      records[ctx->lane_idx[k]] = run_one(solo);
    }
  }
  ctx->walls[shard] = ms_since(t0);

  // This shard's stream uses are done.
  if (ctx->uses_left->fetch_sub(count) == count) {
    trace_store_.erase(*ctx->key);
  }

  if (ctx->remaining.fetch_sub(1) != 1) return;

  // Last shard out: fold the walls into one imbalance observation. The
  // walls are bucketed to the domain count in both modes, so what the
  // governor sees is "what would static chunking have cost" — promotion
  // triggers on real static imbalance, demotion on its disappearance,
  // independent of how finely this round actually chunked.
  const std::size_t shards_n = ctx->walls.size();
  const std::size_t buckets =
      std::min<std::size_t>(pool_.domains(), shards_n);
  double max_bucket = 0.0;
  double sum = 0.0;
  for (std::size_t b = 0; b < buckets; ++b) {
    double bucket = 0.0;
    for (std::size_t s = b * shards_n / buckets;
         s < (b + 1) * shards_n / buckets; ++s) {
      bucket += ctx->walls[s];
    }
    max_bucket = std::max(max_bucket, bucket);
    sum += bucket;
  }
  const double mean = sum / static_cast<double>(buckets);
  const double imbalance = mean > 0.0 ? max_bucket / mean : 1.0;
  const ShardingGovernor::Group after = governor_.observe(*ctx->key,
                                                          imbalance);

  const std::size_t ok = ctx->ok_lanes.load();
  if (ok > 0) {
    ctx->fused->groups.fetch_add(1);
    ctx->fused->lanes.fetch_add(ok);
  }
  const std::size_t fell = ctx->fallback_shards.load();
  if (fell > 0) ctx->fused->fallbacks.fetch_add(fell);

  SweepResult::GroupSharding row;
  row.stream = *ctx->key;
  row.mode = ctx->stealing ? "stealing" : "static";
  row.shards = static_cast<unsigned>(shards_n);
  row.imbalance = imbalance;
  row.ewma = after.ewma;
  row.promotions = after.promotions;
  row.demotions = after.demotions;
  {
    std::lock_guard lock(ctx->fused->mu);
    ctx->fused->sharding.push_back(std::move(row));
  }
}

void Scheduler::run_fused_group(const std::vector<std::size_t>& group,
                                const std::vector<RunTask>& planned,
                                std::vector<RunRecord>& records,
                                const std::string& key,
                                std::atomic<unsigned>& uses_left,
                                FusedStats& fused, bool analytic) {
  // The group job releases the stream uses of every point it serves itself
  // (cached hits, solos, the leader); lanes handed to serve_lane_shards are
  // subtracted from `count` first — each shard releases its own share.
  struct Release {
    trace::TraceStore& store;
    const std::string& key;
    std::atomic<unsigned>& uses_left;
    unsigned count;
    ~Release() {
      if (count > 0 && uses_left.fetch_sub(count) == count) store.erase(key);
    }
  } release{trace_store_, key, uses_left,
            static_cast<unsigned>(group.size())};

  // Cached grid points (either tier) are served immediately; only the rest
  // need lanes.
  std::vector<std::size_t> todo;
  for (const std::size_t i : group) {
    const auto t0 = std::chrono::steady_clock::now();
    if (std::optional<RunRecord> hit = probe(cache_key(planned[i]))) {
      hit->wall_ms = ms_since(t0);
      records[i] = *hit;
    } else {
      todo.push_back(i);
    }
  }

  // Solo fallback: a plain live run, trace backing off (nobody left to
  // share the stream with inside a fused group).
  auto run_solo = [this, &planned, &records](std::size_t i) {
    RunTask solo = planned[i];
    solo.trace_backed = false;
    records[i] = run_one(solo);
  };

  if (todo.size() <= 1) {
    for (const std::size_t i : todo) run_solo(i);
    return;
  }

  // A stream already in the store (cross-sweep reuse, preloaded traces):
  // the remaining points are served as lane shards across the pool's
  // domains. A trace whose plan does not compile is dropped and the group
  // falls through to the live leader below — fallback, not failure (a
  // replay rejection is handled inside the shard itself, per shard).
  if (std::shared_ptr<const trace::Trace> tr = trace_store_.lookup(key)) {
    std::vector<std::size_t> lanes_idx;
    std::vector<std::size_t> solos;
    for (const std::size_t i : todo) {
      (planned[i].threads <= planned[i].spec.total_contexts() ? lanes_idx
                                                              : solos)
          .push_back(i);
    }
    if (!lanes_idx.empty()) {
      std::shared_ptr<const trace::TracePlan> plan;
      bool plan_ok = true;
      if (analytic) {
        try {
          plan = plan_for(trace_store_, key, *tr);
        } catch (const trace::TraceError&) {
          trace_store_.erase(key);
          fused.fallbacks.fetch_add(1);
          plan_ok = false;
        }
      }
      if (plan_ok) {
        release.count -= static_cast<unsigned>(lanes_idx.size());
        serve_lane_shards(std::move(tr), std::move(plan),
                          std::move(lanes_idx), planned, records, key,
                          uses_left, fused, analytic);
        for (const std::size_t i : solos) run_solo(i);
        return;
      }
    } else {
      for (const std::size_t i : solos) run_solo(i);
      return;
    }
  }

  const std::size_t lead = todo.front();
  const RunTask& lead_task = planned[lead];

  if (analytic) {
    // Analytic fan-out: the leader runs the kernel for real while recording
    // its stream; the stream is compiled into a TracePlan once and every
    // follower replays the plan with the analytic fast-forward tier — one
    // live run, one compile, N closed-form replays.
    trace::TraceRecorder recorder(lead_task.threads);
    const auto t0 = std::chrono::steady_clock::now();
    RunRecord lead_record = base_record(lead_task);
    bool lead_ok = true;
    try {
      lead_record = execute_live(lead_task, sim::bind_sink(&recorder),
                                 std::move(lead_record));
      lead_record.trace_source = "record";
    } catch (const std::exception& e) {
      lead_record.ok = false;
      lead_record.error = e.what();
      lead_ok = false;
    } catch (...) {
      lead_record.ok = false;
      lead_record.error = "unknown exception";
      lead_ok = false;
    }
    lead_record.cache_hit = false;
    lead_record.wall_ms = ms_since(t0);
    if (lead_record.ok) commit(cache_key(lead_task), lead_record);
    records[lead] = lead_record;

    std::vector<std::size_t> solos;
    if (lead_ok) {
      trace::TraceMeta meta;
      meta.kernel = npb::kernel_name(lead_task.kernel);
      meta.klass = npb::klass_name(lead_task.klass);
      meta.threads = lead_task.threads;
      meta.page_kind = lead_task.page_kind;
      meta.platform = lead_task.spec.name;
      meta.code_page_kind = lead_task.code_page_kind;
      meta.seed = lead_task.seed;
      meta.verified = lead_record.verified;
      meta.checksum = lead_record.checksum;
      const std::shared_ptr<const trace::Trace> tr =
          trace_store_.insert(key, recorder.finish(std::move(meta)));

      std::vector<std::size_t> lane_idx;
      for (std::size_t j = 1; j < todo.size(); ++j) {
        const std::size_t i = todo[j];
        if (planned[i].threads <= planned[i].spec.total_contexts()) {
          lane_idx.push_back(i);
        } else {
          solos.push_back(i);
        }
      }
      if (!lane_idx.empty()) {
        std::shared_ptr<const trace::TracePlan> plan;
        bool plan_ok = true;
        try {
          plan = plan_for(trace_store_, key, *tr);
        } catch (const trace::TraceError&) {
          // A freshly recorded stream its own plan rejects — should not
          // happen, but the fallback ladder is the same as everywhere:
          // followers re-run solo, nothing aborts.
          trace_store_.erase(key);
          fused.fallbacks.fetch_add(1);
          plan_ok = false;
        }
        if (plan_ok) {
          release.count -= static_cast<unsigned>(lane_idx.size());
          serve_lane_shards(std::move(tr), std::move(plan),
                            std::move(lane_idx), planned, records, key,
                            uses_left, fused, /*analytic=*/true);
        } else {
          solos.insert(solos.end(), lane_idx.begin(), lane_idx.end());
        }
      }
    } else {
      // Leader failed before completing the stream; every follower gets its
      // own untainted run.
      solos.assign(todo.begin() + 1, todo.end());
    }
    for (const std::size_t i : solos) run_solo(i);
    return;
  }

  // Live leader + lane fan-out (Strategy::Multilane): the first uncached
  // point runs the kernel for real; every other point's simulator state
  // tracks the leader's event stream as a lane, fed directly through the
  // sink hooks.
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
      RunTask canon = planned[i];
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
      lanes.add_lane(replay_config(planned[i], false));
      lane_idx.push_back(i);
    } catch (const trace::TraceError&) {
      solos.push_back(i);  // does not fit this platform — runs (and fails
                           // with its own diagnostics) on its own
    }
  }
  lanes.seal(&arena);
  trace::LaneFanout fanout(lanes);

  const auto t0 = std::chrono::steady_clock::now();
  RunRecord lead_record = base_record(lead_task);
  bool lead_ok = true;
  try {
    lead_record = execute_live(
        lead_task, lane_idx.empty() ? sim::SinkHooks{} : fanout.hooks(),
        std::move(lead_record));
  } catch (const std::exception& e) {
    lead_record.ok = false;
    lead_record.error = e.what();
    lead_ok = false;
  } catch (...) {
    lead_record.ok = false;
    lead_record.error = "unknown exception";
    lead_ok = false;
  }
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
      const trace::ReplayOutcome out = lanes.outcome(
          k, label, lead_record.verified, lead_record.checksum);
      RunRecord record = base_record(planned[i]);
      fill_outcome(record, out.verified, out.checksum, out.simulated_seconds,
                   out.profile);
      record.trace_source = "lane";
      record.cache_hit = false;
      record.wall_ms = ms_since(t1) / static_cast<double>(lane_idx.size());
      commit(cache_key(planned[i]), record);
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
    const RunRecord own = base_record(planned[i]);
    RunRecord record = records[source];
    record.paging = own.paging;
    record.key_digest = own.key_digest;
    record.trace_source = "fold";
    record.wall_ms = ms_since(t1);
    commit(cache_key(planned[i]), record);
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
  RunRecord record;
  try {
    record = runner_(task);
  } catch (const std::exception& e) {
    record = base_record(task);
    record.ok = false;
    record.error = e.what();
  } catch (...) {
    record = base_record(task);
    record.ok = false;
    record.error = "unknown exception";
  }
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

RunRecord Scheduler::execute_task(const RunTask& task) {
  return execute_live(task, sim::SinkHooks{}, base_record(task));
}

RunRecord Scheduler::execute_task(const RunTask& task,
                                  trace::TraceStore* store, bool analytic) {
  if (store == nullptr || !task.trace_backed) return execute_task(task);

  const std::string key = task_stream_key(task);
  if (std::shared_ptr<const trace::Trace> tr = store->lookup(key)) {
    try {
      trace::ReplayDriver driver(replay_config(task, analytic));
      const trace::ReplayOutcome out =
          analytic ? driver.run(*tr, *plan_for(*store, key, *tr))
                   : driver.run(*tr);
      RunRecord record = base_record(task);
      fill_outcome(record, out.verified, out.checksum, out.simulated_seconds,
                   out.profile);
      record.trace_source = analytic ? "analytic" : "replay";
      return record;
    } catch (const trace::TraceError&) {
      // Corrupt or inconsistent stored trace: drop it and serve the task
      // live — the store is an accelerator, never a correctness dependency.
      store->erase(key);
      RunRecord record =
          execute_live(task, sim::SinkHooks{}, base_record(task));
      record.trace_source = "fallback";
      return record;
    }
  }

  // TraceRecorder is final, so the bound hooks dispatch straight into the
  // encoder — no vtable on the recording hot path.
  trace::TraceRecorder recorder(task.threads);
  RunRecord record =
      execute_live(task, sim::bind_sink(&recorder), base_record(task));
  trace::TraceMeta meta;
  meta.kernel = npb::kernel_name(task.kernel);
  meta.klass = npb::klass_name(task.klass);
  meta.threads = task.threads;
  meta.page_kind = task.page_kind;
  meta.platform = task.spec.name;
  meta.code_page_kind = task.code_page_kind;
  meta.seed = task.seed;
  meta.verified = record.verified;
  meta.checksum = record.checksum;
  store->insert(key, recorder.finish(std::move(meta)));
  record.trace_source = "record";
  return record;
}

}  // namespace lpomp::exec
