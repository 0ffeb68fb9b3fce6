#include "service/query_service.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <utility>

#include "common/timer.h"
#include "lpath/parser.h"
#include "plan/compile.h"

namespace lpath {
namespace service {

namespace {

/// Recent-query latencies kept for the percentile summary.
constexpr size_t kLatencySamples = 8192;

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// Rebases a source's hits into the chain tid space. Must happen before
/// delivery or merge: delta tree 0 and base tree 0 are different trees.
void ShiftTids(std::vector<Hit>& hits, int32_t offset) {
  if (offset == 0) return;
  for (Hit& h : hits) h.tid += offset;
}

bool Cancelled(const QueryContext& ctx) {
  return ctx.cancel != nullptr && ctx.cancel->load(std::memory_order_relaxed);
}

}  // namespace

/// See the declaration: one executable (source, plan) pair.
struct QueryService::SourceRun {
  const sql::PlanExecutor* executor;
  const sql::PreparedPlan* plan;
  const NodeRelation* relation;
  int32_t tid_offset;  ///< added to every hit tid (0 for the base)
};

bool PendingQuery::ready() const {
  return future_.valid() &&
         future_.wait_for(std::chrono::seconds(0)) ==
             std::future_status::ready;
}

Result<QueryResult> PendingQuery::Get() const {
  if (!future_.valid()) {
    return Status::InvalidArgument("PendingQuery: empty handle");
  }
  return future_.get();
}

QueryService::QueryService(SnapshotPtr snapshot, QueryServiceOptions options)
    : options_(options),
      session_(std::make_shared<const Session>(std::move(snapshot), options_)),
      pool_(std::make_unique<ThreadPool>(options.threads)) {
  latency_ring_ms_.reserve(kLatencySamples);
}

QueryService::~QueryService() = default;

QueryService::SessionPtr QueryService::CurrentSession() const {
  std::lock_guard<std::mutex> lock(session_mu_);
  return session_;
}

std::shared_ptr<const void> QueryService::UpdateSnapshot(SnapshotPtr snapshot) {
  // Building the session (executor + empty cache) happens before the
  // exchange; the exchange is the single publication point. Readers that
  // loaded the old session keep it alive through their own shared_ptr; the
  // old session goes back to the caller so its last reference (possibly
  // the teardown of a whole snapshot) is never dropped under session_mu_
  // — nor under whatever lock the caller holds.
  auto next = std::make_shared<const Session>(std::move(snapshot), options_);
  SessionPtr old;
  {
    std::lock_guard<std::mutex> lock(session_mu_);
    old = std::exchange(session_, std::move(next));
  }
  return old;
}

SnapshotPtr QueryService::snapshot() const { return CurrentSession()->snapshot; }

Result<ExecPlan> QueryService::CompileQuery(const Session& session,
                                            const std::string& normalized) {
  const NodeRelation& relation = session.snapshot->relation();
  LPATH_ASSIGN_OR_RETURN(LocationPath path, ParseLPath(normalized));
  CompileOptions copts;
  copts.scheme = relation.scheme();
  copts.unnest_predicates = options_.unnest_predicates;
  return CompileLPath(path, copts);
}

Result<CachedPlan> QueryService::PrepareCompiled(const Session& session,
                                                 const ExecPlan& compiled) {
  const NodeRelation& relation = session.snapshot->relation();
  LPATH_ASSIGN_OR_RETURN(std::unique_ptr<sql::PreparedPlan> prepared,
                         sql::Prepare(compiled, relation, options_.exec));
  CachedPlan entry;
  entry.plan = std::move(prepared);
  if (const NodeRelation* delta = session.snapshot->delta_relation()) {
    // The chain's second source gets the same compiled plan prepared
    // against its own relation: literals resolve in the delta dictionary
    // (which may know strings the base has never seen, and vice versa)
    // and the optimizer sees delta statistics.
    LPATH_ASSIGN_OR_RETURN(std::unique_ptr<sql::PreparedPlan> dprep,
                           sql::Prepare(compiled, *delta, options_.exec));
    entry.delta_plan = std::move(dprep);
  }
  return entry;
}

Result<CachedPlanPtr> QueryService::GetPlanIn(const Session& session,
                                              const std::string& query) {
  const std::string key = NormalizeQueryText(query);
  if (CachedPlanPtr cached = session.cache.Get(key)) {
    if (cached->negative()) return cached->error;
    return cached;
  }
  // A miss compiles and prepares outside the cache lock. Either failure is
  // cached as a negative entry: the same bad text will be answered from
  // the cache.
  Result<ExecPlan> compiled = CompileQuery(session, key);
  if (!compiled.ok()) {
    session.cache.PutNegative(key, compiled.status());
    return compiled.status();
  }
  Result<CachedPlan> prepared = PrepareCompiled(session, *compiled);
  if (!prepared.ok()) {
    session.cache.PutNegative(key, prepared.status());
    return prepared.status();
  }
  // A racing miss duplicates the prepare; Put publishes the first bundle
  // and the racer adopts it.
  return session.cache.Put(
      key, std::make_shared<const CachedPlan>(std::move(*prepared)));
}

Result<std::shared_ptr<const sql::PreparedPlan>> QueryService::GetPlan(
    const std::string& query) {
  SessionPtr session = CurrentSession();
  LPATH_ASSIGN_OR_RETURN(CachedPlanPtr planned, GetPlanIn(*session, query));
  return planned->plan;
}

int QueryService::CollectSources(const Session& session,
                                 const CachedPlan& planned, SourceRun* out) {
  int n = 0;
  out[n++] = SourceRun{&session.executor, planned.plan.get(),
                       &session.snapshot->relation(), /*tid_offset=*/0};
  if (session.delta_executor.has_value() && planned.delta_plan != nullptr) {
    out[n++] = SourceRun{&*session.delta_executor, planned.delta_plan.get(),
                         session.snapshot->delta_relation(),
                         session.snapshot->base_tree_count()};
  }
  return n;
}

Result<QueryResult> QueryService::Run(const Session& session,
                                      const CachedPlan& planned,
                                      const QueryContext& ctx) {
  const int max_workers =
      options_.shards_per_query > 0
          ? std::min(options_.shards_per_query, pool_->size())
          : pool_->size();
  SourceRun sources[2];
  const int nsources = CollectSources(session, planned, sources);
  // Adaptive fan-out: when the optimizer expects the root variable to
  // enumerate only a handful of rows, the per-morsel setup (task posts,
  // binary-searched run cuts) costs more than it parallelizes. On a chain
  // the estimate is the sum over live (non-always-empty) sources.
  uint64_t root_estimate = 0;
  bool any_live = false;
  for (int s = 0; s < nsources; ++s) {
    if (sources[s].plan->always_empty) continue;
    any_live = true;
    root_estimate += sources[s].plan->root_cardinality;
  }
  bool serial = !any_live || max_workers <= 1 ||
                (options_.adaptive_serial_rows > 0 &&
                 root_estimate < options_.adaptive_serial_rows);
  // Morsel planning: ~kMorselsPerThread row-balanced tid slices per
  // worker, pulled from a shared claim cursor below. Over-decomposition is
  // the skew defence — a giant tree occupies one worker for one morsel
  // while the others drain the rest — and the minimum morsel size keeps
  // the per-morsel overhead amortized. On a chain, the budget is split
  // across sources proportionally to their row mass (every live source
  // gets at least one morsel), so a small delta costs one extra morsel
  // instead of doubling the fan-out.
  struct Morsel {
    int source;
    TidRange range;
  };
  std::vector<Morsel> morsels;
  if (!serial) {
    const uint64_t min_rows = std::max<uint64_t>(
        1, options_.adaptive_serial_rows / kMorselsPerThread);
    const uint64_t budget =
        static_cast<uint64_t>(max_workers) * kMorselsPerThread;
    uint64_t total_rows = 0;
    for (int s = 0; s < nsources; ++s) {
      if (!sources[s].plan->always_empty) {
        total_rows += sources[s].relation->row_count();
      }
    }
    for (int s = 0; s < nsources; ++s) {
      if (sources[s].plan->always_empty) continue;
      const uint64_t rows = sources[s].relation->row_count();
      const int share =
          total_rows == 0 ? 1
                          : std::max<int>(1, static_cast<int>(
                                                 budget * rows / total_rows));
      for (const TidRange& r :
           sources[s].relation->CarveTidRanges(share, min_rows)) {
        morsels.push_back(Morsel{s, r});
      }
    }
    if (morsels.size() <= 1) serial = true;
  }
  if (serial) {
    // The one-worker case: a whole-range morsel per source (an
    // always-empty one returns at once), and the unclamped tid range keeps
    // the executor on its unsharded fast paths.
    TidRange whole;
    whole.tid_hi = std::numeric_limits<int32_t>::max();
    morsels.clear();
    for (int s = 0; s < nsources; ++s) morsels.push_back(Morsel{s, whole});
  }

  const int count = static_cast<int>(morsels.size());
  std::vector<Result<QueryResult>> results(count,
                                           Result<QueryResult>(QueryResult{}));
  std::vector<sql::ExecStats> stats(count);
  std::atomic<uint64_t> steals{0};
  std::mutex sink_mu;  // serializes sink calls
  // Locals are captured by reference: a helper scheduled after this frame
  // returns never claims an item, so it never dereferences them.
  RunOnPool(count, serial ? 1 : max_workers, [&](int i, int worker) {
    // A cancelled query skips its remaining morsels (their result slots
    // keep the empty default); the terminal status is derived below.
    if (Cancelled(ctx)) return;
    const Morsel& m = morsels[i];
    const SourceRun& src = sources[m.source];
    Result<QueryResult>& r = results[i];
    r = src.executor->ExecuteShard(*src.plan, m.range.tid_lo, m.range.tid_hi,
                                   &stats[i]);
    if (src.tid_offset != 0) stats[i].delta_rows = stats[i].candidates;
    if (worker > 0) steals.fetch_add(1, std::memory_order_relaxed);
    if (!r.ok() || r->hits.empty()) return;
    ShiftTids(r->hits, src.tid_offset);
    // Every variable is tid-linked to the root variable the morsel clamps,
    // so the morsel's sorted, distinct hits lie inside its own shifted tid
    // range: morsels are disjoint and need no cross-morsel DISTINCT. This
    // O(1) check guards that invariant (and the source's tid shift).
    const int64_t lo = int64_t{m.range.tid_lo} + src.tid_offset;
    const int64_t hi = int64_t{m.range.tid_hi} + src.tid_offset;
    if (r->hits.front().tid < lo || r->hits.back().tid >= hi) {
      r = Status::Internal("morsel hits lie outside the morsel's tid range");
      return;
    }
    if (ctx.sink) {
      std::lock_guard<std::mutex> lock(sink_mu);
      ctx.sink(std::span<const Hit>(r->hits));
    }
  });

  sql::ExecStats total;
  for (const sql::ExecStats& s : stats) total.Add(s);
  total.morsels += serial ? 1 : static_cast<uint64_t>(count);
  total.steal_count += steals.load(std::memory_order_relaxed);
  total.sources = static_cast<uint64_t>(nsources);
  RecordExec(total, /*sharded=*/!serial);
  if (Cancelled(ctx)) return Status::Cancelled("query cancelled");
  QueryResult merged;
  for (const Result<QueryResult>& r : results) {
    if (!r.ok()) return r.status();
    merged.hits.insert(merged.hits.end(), r->hits.begin(), r->hits.end());
  }
  // Morsels run in tid order and hold disjoint tid ranges, so the
  // concatenation is already sorted and distinct; Normalize only verifies
  // that in one linear pass.
  merged.Normalize();
  return merged;
}

void QueryService::RunOnPool(int items, int max_workers,
                             std::function<void(int, int)> fn) {
  // Shared by the submitting thread and the pool helpers. Helpers hold the
  // state (and through it `fn` and whatever it owns) alive even if they
  // only get scheduled after the call has returned and claim no item.
  struct State {
    std::function<void(int, int)> fn;
    int items;
    std::atomic<int> next{0};
    std::mutex mu;
    std::condition_variable done_cv;
    int done = 0;
  };
  const int helpers =
      std::min({pool_->size(), items, std::max(1, max_workers)}) - 1;
  if (helpers <= 0) {
    for (int i = 0; i < items; ++i) fn(i, /*worker=*/0);
    return;
  }
  auto state = std::make_shared<State>();
  state->fn = std::move(fn);
  state->items = items;

  // `worker` identifies the participant (0 = the submitting thread), so
  // the caller can tell stolen claims from its own.
  auto drain = [state](int worker) {
    for (;;) {
      const int i = state->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= state->items) return;
      state->fn(i, worker);
      std::lock_guard<std::mutex> lock(state->mu);
      if (++state->done == state->items) state->done_cv.notify_all();
    }
  };
  std::vector<std::function<void()>> tasks;
  tasks.reserve(static_cast<size_t>(helpers));
  for (int w = 1; w <= helpers; ++w) {
    tasks.push_back([drain, w] { drain(w); });
  }
  pool_->Post(std::move(tasks));  // one lock round-trip for the whole fan-out
  drain(0);  // the caller works too, so a busy pool cannot stall the call
  std::unique_lock<std::mutex> lock(state->mu);
  state->done_cv.wait(lock, [&state] { return state->done == state->items; });
}

void QueryService::RecordQuery(double seconds, bool error) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  queries_ += 1;
  if (error) errors_ += 1;
  total_seconds_ += seconds;
  const double ms = seconds * 1e3;
  if (latency_ring_ms_.size() < kLatencySamples) {
    latency_ring_ms_.push_back(ms);
  } else {
    latency_ring_ms_[next_sample_ % kLatencySamples] = ms;
  }
  next_sample_ += 1;
}

Result<QueryResult> QueryService::Query(const std::string& query,
                                        const QueryContext& ctx) {
  Timer timer;
  // One consistent session per query: plan lookup and execution see the
  // same snapshot even if a swap lands mid-query.
  SessionPtr session = CurrentSession();
  Result<QueryResult> r = [&]() -> Result<QueryResult> {
    LPATH_ASSIGN_OR_RETURN(CachedPlanPtr planned, GetPlanIn(*session, query));
    return Run(*session, *planned, ctx);
  }();
  RecordQuery(timer.ElapsedSeconds(), !r.ok());
  if (ctx.done) ctx.done(r.status());
  return r;
}

PendingQuery QueryService::Submit(const std::string& query, QueryContext ctx) {
  // The task owns query + context; the packaged_task's shared state feeds
  // the caller's handle. Queued tasks are drained by the pool destructor,
  // so a handle outliving the service still resolves (and its `done` hook
  // still fires, exactly once).
  auto task = std::make_shared<std::packaged_task<Result<QueryResult>()>>(
      [this, query, ctx = std::move(ctx)] { return Query(query, ctx); });
  PendingQuery handle(task->get_future().share());
  pool_->Post([task] { (*task)(); });
  return handle;
}

void QueryService::RecordExec(const sql::ExecStats& exec, bool sharded) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  exec_.Add(exec);
  if (sharded) {
    sharded_queries_ += 1;
  } else {
    serial_queries_ += 1;
  }
}

void QueryService::NoteIngest() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  ingests_ += 1;
}

void QueryService::NoteCompaction() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  compactions_ += 1;
}

void QueryService::NoteWalAppend(uint64_t payload_bytes) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  wal_appends_ += 1;
  wal_bytes_ += payload_bytes;
}

void QueryService::NoteReplay(uint64_t batches) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  replayed_batches_ += batches;
}

void QueryService::NoteCheckpoint() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  checkpoints_ += 1;
}

ServiceStats QueryService::Stats() const {
  ServiceStats s;
  s.cache = CurrentSession()->cache.stats();
  std::vector<double> sorted;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    s.queries = queries_;
    s.errors = errors_;
    s.sharded_queries = sharded_queries_;
    s.serial_queries = serial_queries_;
    s.ingests = ingests_;
    s.compactions = compactions_;
    s.wal_appends = wal_appends_;
    s.wal_bytes = wal_bytes_;
    s.replayed_batches = replayed_batches_;
    s.checkpoints = checkpoints_;
    s.exec = exec_;
    s.total_seconds = total_seconds_;
    sorted = latency_ring_ms_;
  }
  std::sort(sorted.begin(), sorted.end());
  s.latency.samples = sorted.size();
  s.latency.p50_ms = Percentile(sorted, 0.50);
  s.latency.p90_ms = Percentile(sorted, 0.90);
  s.latency.p99_ms = Percentile(sorted, 0.99);
  s.latency.max_ms = sorted.empty() ? 0.0 : sorted.back();
  return s;
}

void QueryService::ResetStats() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  queries_ = 0;
  errors_ = 0;
  sharded_queries_ = 0;
  serial_queries_ = 0;
  ingests_ = 0;
  compactions_ = 0;
  wal_appends_ = 0;
  wal_bytes_ = 0;
  replayed_batches_ = 0;
  checkpoints_ = 0;
  exec_ = sql::ExecStats{};
  total_seconds_ = 0.0;
  latency_ring_ms_.clear();
  next_sample_ = 0;
}

}  // namespace service
}  // namespace lpath
