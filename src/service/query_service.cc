#include "service/query_service.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <unordered_set>
#include <utility>

#include "common/timer.h"
#include "lpath/parser.h"
#include "plan/compile.h"
#include "plan/sql_gen.h"
#include "sql/fingerprint.h"
#include "sql/parser.h"

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

uint64_t HitKey(const Hit& h) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(h.tid)) << 32) |
         static_cast<uint32_t>(h.id);
}

/// Rebases a source's hits into the chain tid space. Must happen before any
/// cross-source merge or DISTINCT stage: delta tree 0 and base tree 0 are
/// different trees, and an unshifted HitKey would alias them.
void ShiftTids(std::vector<Hit>& hits, int32_t offset) {
  if (offset == 0) return;
  for (Hit& h : hits) h.tid += offset;
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
  LPATH_ASSIGN_OR_RETURN(ExecPlan plan, CompileLPath(path, copts));
  if (options_.via_sql_text) {
    const std::string sql_text = GenerateSql(plan);
    LPATH_ASSIGN_OR_RETURN(plan, sql::ParseSql(sql_text));
  }
  return plan;
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

Result<CachedPlanPtr> QueryService::ProbePlan(const Session& session,
                                              const std::string& key,
                                              ExecPlan* compiled,
                                              uint64_t* fingerprint) {
  if (CachedPlanPtr cached = session.cache.Get(key)) {
    if (cached->negative()) return cached->error;
    return cached;
  }
  // Compile outside the cache lock, then probe the structural level: a
  // respelling of a cached structure binds to the existing entry and
  // shares its prepared plans without a sql::Prepare.
  Result<ExecPlan> plan = CompileQuery(session, key);
  if (!plan.ok()) {
    // Negative entry: the same bad text will be answered from the cache.
    session.cache.PutNegative(key, plan.status());
    return plan.status();
  }
  *fingerprint = sql::PlanFingerprint(*plan);
  if (CachedPlanPtr shared =
          session.cache.GetByFingerprint(key, *fingerprint, *plan)) {
    return shared;
  }
  *compiled = std::move(*plan);
  return CachedPlanPtr(nullptr);
}

Result<CachedPlanPtr> QueryService::PreparePlan(const Session& session,
                                                const std::string& key,
                                                uint64_t fingerprint,
                                                ExecPlan compiled) {
  Result<CachedPlan> prepared = PrepareCompiled(session, compiled);
  if (!prepared.ok()) {
    session.cache.PutNegative(key, prepared.status());
    return prepared.status();
  }
  prepared->fingerprint = fingerprint;
  auto entry = std::make_shared<const CachedPlan>(std::move(*prepared));
  return session.cache.Put(key, fingerprint, std::move(compiled),
                           std::move(entry));
}

Result<CachedPlanPtr> QueryService::GetPlanIn(const Session& session,
                                              const std::string& query) {
  const std::string key = NormalizeQueryText(query);
  ExecPlan compiled;
  uint64_t fingerprint = 0;
  LPATH_ASSIGN_OR_RETURN(CachedPlanPtr planned,
                         ProbePlan(session, key, &compiled, &fingerprint));
  if (planned != nullptr) return planned;
  // A racing miss duplicates the prepare; Put publishes the first bundle
  // and the racer adopts it (bundles of one structure are
  // interchangeable).
  return PreparePlan(session, key, fingerprint, std::move(compiled));
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

Result<QueryResult> QueryService::RunSerial(const Session& session,
                                            const CachedPlan& planned,
                                            const RowSink* sink,
                                            const std::atomic<bool>* cancel) {
  SourceRun sources[2];
  const int nsources = CollectSources(session, planned, sources);
  QueryResult merged;
  sql::ExecStats total;
  Status failure = Status::OK();
  for (int s = 0; s < nsources; ++s) {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      failure = Status::Cancelled("query cancelled");
      break;
    }
    const SourceRun& src = sources[s];
    sql::ExecStats stats;
    Result<QueryResult> r = src.executor->ExecutePrepared(*src.plan, &stats);
    if (src.tid_offset != 0) stats.delta_rows = stats.candidates;
    total.Add(stats);
    if (!r.ok()) {
      failure = r.status();
      break;
    }
    ShiftTids(r->hits, src.tid_offset);
    merged.hits.insert(merged.hits.end(), r->hits.begin(), r->hits.end());
  }
  total.morsels += 1;
  total.sources = static_cast<uint64_t>(nsources);
  RecordExec(total, /*sharded=*/false);
  if (!failure.ok()) return failure;
  // Sources cover disjoint tid ranges and each result is sorted, so the
  // concatenation is already DISTINCT and sorted; Normalize only verifies
  // that in one linear pass.
  merged.Normalize();
  if (sink != nullptr && !merged.hits.empty()) {
    (*sink)(std::span<const Hit>(merged.hits));
  }
  return merged;
}

Result<QueryResult> QueryService::RunSharded(const Session& session,
                                             CachedPlanPtr planned,
                                             const RowSink* sink,
                                             const std::atomic<bool>* cancel) {
  SourceRun sources[2];
  const int nsources = CollectSources(session, *planned, sources);
  int workers = options_.shards_per_query > 0
                    ? std::min(options_.shards_per_query, pool_->size())
                    : pool_->size();
  workers = std::max(1, workers);
  // Adaptive fan-out: when the optimizer expects the root variable to
  // enumerate only a handful of rows, the per-morsel setup (task posts,
  // binary-searched run cuts, result merge) costs more than it parallelizes.
  // On a chain the estimate is the sum over live (non-always-empty) sources.
  uint64_t root_estimate = 0;
  bool any_live = false;
  for (int s = 0; s < nsources; ++s) {
    if (sources[s].plan->always_empty) continue;
    any_live = true;
    root_estimate += sources[s].plan->root_cardinality;
  }
  bool serial = !any_live || workers <= 1;
  if (!serial && options_.adaptive_serial_rows > 0 &&
      root_estimate < options_.adaptive_serial_rows) {
    serial = true;
  }
  // Morsel planning: ~morsels_per_thread row-balanced tid slices per
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
        1, options_.adaptive_serial_rows /
               static_cast<uint64_t>(std::max(1, options_.morsels_per_thread)));
    const uint64_t budget = static_cast<uint64_t>(
        workers * std::max(1, options_.morsels_per_thread));
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
    return RunSerial(session, *planned, sink, cancel);
  }

  // Merge stage for streaming: per-morsel results are deduplicated against
  // everything already delivered, so sink batches are disjoint and their
  // union equals the DISTINCT result. The mutex also serializes sink calls.
  struct StreamMerge {
    std::mutex mu;
    std::unordered_set<uint64_t> seen;
  };
  auto merge = sink != nullptr ? std::make_shared<StreamMerge>() : nullptr;

  const int count = static_cast<int>(morsels.size());
  std::vector<Result<QueryResult>> results(count,
                                           Result<QueryResult>(QueryResult{}));
  std::vector<sql::ExecStats> stats(count);
  std::atomic<uint64_t> steals{0};
  // The item lambda owns the cache entry (the shared_ptr is copied into
  // RunOnPool's shared state), keeping its plans alive
  // for helpers scheduled after the query completes. The locals
  // (`sources`, `morsels`, `results`, ...) are captured by reference: a
  // late helper never claims an item, so it never dereferences them after
  // this frame returns.
  RunOnPool(count, workers,
            [planned, &sources, &morsels, &results, &stats, &steals, sink,
             merge, cancel](int i, int worker) {
    // A cancelled query skips its remaining morsels (their result slots
    // keep the empty default); the terminal status is derived below.
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) return;
    const Morsel& m = morsels[i];
    const SourceRun& src = sources[m.source];
    results[i] = src.executor->ExecuteShard(*src.plan, m.range.tid_lo,
                                            m.range.tid_hi, &stats[i]);
    if (src.tid_offset != 0) {
      stats[i].delta_rows = stats[i].candidates;
      // Rebase into chain tid space before the DISTINCT stages (both the
      // streaming merge below and the final Normalize) see the hits.
      if (results[i].ok()) ShiftTids(results[i]->hits, src.tid_offset);
    }
    if (worker > 0) steals.fetch_add(1, std::memory_order_relaxed);
    if (sink != nullptr && results[i].ok()) {
      std::vector<Hit> fresh;
      std::lock_guard<std::mutex> lock(merge->mu);
      for (const Hit& h : results[i]->hits) {
        if (merge->seen.insert(HitKey(h)).second) fresh.push_back(h);
      }
      if (!fresh.empty()) {
        std::sort(fresh.begin(), fresh.end());
        (*sink)(std::span<const Hit>(fresh));
      }
    }
  });

  sql::ExecStats total;
  for (int i = 0; i < count; ++i) total.Add(stats[i]);
  total.morsels += static_cast<uint64_t>(count);
  total.steal_count += steals.load(std::memory_order_relaxed);
  total.sources = static_cast<uint64_t>(nsources);
  RecordExec(total, /*sharded=*/true);
  if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
    return Status::Cancelled("query cancelled");
  }
  QueryResult merged;
  for (int i = 0; i < count; ++i) {
    if (!results[i].ok()) return results[i].status();
    merged.hits.insert(merged.hits.end(), results[i]->hits.begin(),
                       results[i]->hits.end());
  }
  // Distinct bindings in different morsels can project to the same output
  // node; Normalize dedups the concatenation (which needs no sort when the
  // morsels' hits stay inside their own tid ranges).
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
  const int helpers =
      std::min({pool_->size(), items, std::max(1, max_workers)}) - 1;
  std::vector<std::function<void()>> tasks;
  tasks.reserve(static_cast<size_t>(std::max(0, helpers)));
  for (int w = 1; w <= helpers; ++w) {
    tasks.push_back([drain, w] { drain(w); });
  }
  pool_->Post(std::move(tasks));  // one lock round-trip for the whole fan-out
  drain(0);  // the caller works too, so a busy pool cannot stall the call
  std::unique_lock<std::mutex> lock(state->mu);
  state->done_cv.wait(lock, [&state] { return state->done == state->items; });
}

Result<QueryResult> QueryService::QueryOnce(const std::string& query,
                                            bool sharded, const RowSink* sink,
                                            const std::atomic<bool>* cancel) {
  Timer timer;
  // One consistent session per query: plan lookup and execution see the
  // same snapshot even if a swap lands mid-query.
  SessionPtr session = CurrentSession();
  Result<QueryResult> r = [&]() -> Result<QueryResult> {
    LPATH_ASSIGN_OR_RETURN(CachedPlanPtr planned, GetPlanIn(*session, query));
    if (sharded) return RunSharded(*session, std::move(planned), sink, cancel);
    return RunSerial(*session, *planned, sink, cancel);
  }();
  RecordQueries(timer.ElapsedSeconds(), !r.ok(), /*count=*/1,
                /*coalesced=*/0);
  return r;
}

void QueryService::RecordQueries(double seconds, bool error, int count,
                                 int coalesced) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  queries_ += static_cast<uint64_t>(count);
  if (error) errors_ += static_cast<uint64_t>(count);
  batch_coalesced_ += static_cast<uint64_t>(coalesced);
  total_seconds_ += seconds * count;
  const double ms = seconds * 1e3;
  for (int i = 0; i < count; ++i) {
    if (latency_ring_ms_.size() < kLatencySamples) {
      latency_ring_ms_.push_back(ms);
    } else {
      latency_ring_ms_[next_sample_ % kLatencySamples] = ms;
    }
    next_sample_ += 1;
  }
}

Result<QueryResult> QueryService::Query(const std::string& query) {
  return QueryOnce(query, /*sharded=*/true, /*sink=*/nullptr,
                   /*cancel=*/nullptr);
}

Status QueryService::QueryStream(const std::string& query,
                                 const RowSink& sink) {
  return QueryOnce(query, /*sharded=*/true, &sink, /*cancel=*/nullptr)
      .status();
}

PendingQuery QueryService::Submit(const std::string& query) {
  return Submit(query, RowSink{});
}

PendingQuery QueryService::Submit(const std::string& query, RowSink sink) {
  return Submit(query, std::move(sink), SubmitOptions{});
}

PendingQuery QueryService::Submit(const std::string& query, RowSink sink,
                                  SubmitOptions opts) {
  // The task owns query + sink + hooks; the packaged_task's shared state
  // feeds the caller's handle. Queued tasks are drained by the pool
  // destructor, so a handle outliving the service still resolves (and its
  // `done` hook still fires, exactly once).
  auto task = std::make_shared<std::packaged_task<Result<QueryResult>()>>(
      [this, query, sink = std::move(sink), opts = std::move(opts)]() {
        Result<QueryResult> r =
            QueryOnce(query, /*sharded=*/true, sink ? &sink : nullptr,
                      opts.cancel ? opts.cancel.get() : nullptr);
        if (opts.done) opts.done(r.status());
        return r;
      });
  PendingQuery handle(task->get_future().share());
  pool_->Post([task] { (*task)(); });
  return handle;
}

std::vector<Result<QueryResult>> QueryService::QueryBatch(
    const std::vector<std::string>& queries) {
  std::vector<Result<QueryResult>> results(queries.size(),
                                           Result<QueryResult>(QueryResult{}));
  if (queries.empty()) return results;

  // One consistent session for the whole batch, so every member resolves
  // and executes against the same snapshot and the same cache.
  SessionPtr session = CurrentSession();

  // Coalescing, stage 1: group members by normalized text (exact
  // respellings collapse for free) and probe the cache for each distinct
  // text once — in parallel, since cache misses carry the parse/compile
  // cost. A text the cache cannot answer keeps its compiled plan.
  struct TextGroup {
    std::string key;
    std::vector<int> members;
    /// OK(null) while the text awaits a prepare.
    Result<CachedPlanPtr> planned = Result<CachedPlanPtr>(nullptr);
    ExecPlan compiled;
    uint64_t fingerprint = 0;
  };
  std::vector<TextGroup> texts;
  {
    std::unordered_map<std::string, size_t> index;
    for (size_t i = 0; i < queries.size(); ++i) {
      std::string key = NormalizeQueryText(queries[i]);
      auto [it, inserted] = index.emplace(std::move(key), texts.size());
      if (inserted) {
        texts.push_back(TextGroup{});
        texts.back().key = it->first;
      }
      texts[it->second].members.push_back(static_cast<int>(i));
    }
  }
  RunOnPool(static_cast<int>(texts.size()), pool_->size(),
            [this, &session, &texts](int i, int /*worker*/) {
    TextGroup& text = texts[i];
    text.planned = ProbePlan(*session, text.key, &text.compiled,
                             &text.fingerprint);
  });
  const auto awaits_prepare = [](const TextGroup& text) {
    return text.planned.ok() && *text.planned == nullptr;
  };

  // Stage 2: texts awaiting a prepare group by structure — the fingerprint
  // narrows, PlanEquals decides — so each structure prepares once, before
  // any of its spellings could race another into a second prepare. The
  // first text of a structure prepares and publishes; the others bind to
  // the published entry.
  std::vector<std::vector<size_t>> structures;
  {
    std::unordered_map<uint64_t, std::vector<size_t>> by_fingerprint;
    for (size_t t = 0; t < texts.size(); ++t) {
      if (!awaits_prepare(texts[t])) continue;
      std::vector<size_t>& candidates = by_fingerprint[texts[t].fingerprint];
      const auto same = std::find_if(
          candidates.begin(), candidates.end(), [&](size_t s) {
            return sql::PlanEquals(texts[structures[s].front()].compiled,
                                   texts[t].compiled);
          });
      if (same != candidates.end()) {
        structures[*same].push_back(t);
      } else {
        candidates.push_back(structures.size());
        structures.push_back({t});
      }
    }
  }
  RunOnPool(static_cast<int>(structures.size()), pool_->size(),
            [this, &session, &texts, &structures](int s, int /*worker*/) {
    const std::vector<size_t>& spellings = structures[s];
    TextGroup& lead = texts[spellings.front()];
    lead.planned = PreparePlan(*session, lead.key, lead.fingerprint,
                               std::move(lead.compiled));
    for (size_t k = 1; k < spellings.size(); ++k) {
      TextGroup& text = texts[spellings[k]];
      if (!lead.planned.ok()) {
        session->cache.PutNegative(text.key, lead.planned.status());
        text.planned = lead.planned.status();
        continue;
      }
      CachedPlanPtr shared = session->cache.GetByFingerprint(
          text.key, text.fingerprint, text.compiled);
      text.planned = shared != nullptr
                         ? shared
                         : session->cache.Put(text.key, text.fingerprint,
                                              std::move(text.compiled),
                                              *lead.planned);
    }
  });

  // Stage 3: distinct texts that resolved to the same cache entry —
  // structurally identical spellings — merge into one execution group.
  // Entry identity is pointer identity: the cache binds equal structures
  // to one shared CachedPlan.
  struct ExecGroup {
    CachedPlanPtr planned;
    std::vector<int> members;
  };
  std::vector<ExecGroup> groups;
  {
    std::unordered_map<const CachedPlan*, size_t> index;
    for (TextGroup& text : texts) {
      if (!text.planned.ok()) {
        // Resolution errors fan out to every member of the text group.
        for (int member : text.members) {
          results[member] = text.planned.status();
        }
        RecordQueries(/*seconds=*/0.0, /*error=*/true,
                      static_cast<int>(text.members.size()),
                      /*coalesced=*/0);
        continue;
      }
      const CachedPlanPtr& planned = *text.planned;
      auto [it, inserted] = index.emplace(planned.get(), groups.size());
      if (inserted) {
        groups.push_back(ExecGroup{planned, {}});
      }
      ExecGroup& group = groups[it->second];
      group.members.insert(group.members.end(), text.members.begin(),
                           text.members.end());
    }
  }

  // Stage 4: workers claim whole groups; each group executes its plan
  // once, serially (so concurrent groups do not contend over intra-query
  // morsels), and the result fans out to every member.
  RunOnPool(static_cast<int>(groups.size()), pool_->size(),
            [this, &session, &groups, &results](int g, int /*worker*/) {
    ExecGroup& group = groups[g];
    Timer timer;
    Result<QueryResult> r = RunSerial(*session, *group.planned,
                                      /*sink=*/nullptr, /*cancel=*/nullptr);
    for (int member : group.members) results[member] = r;
    RecordQueries(timer.ElapsedSeconds(), !r.ok(),
                  static_cast<int>(group.members.size()),
                  static_cast<int>(group.members.size()) - 1);
  });
  return results;
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
    s.batch_coalesced = batch_coalesced_;
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
  batch_coalesced_ = 0;
  exec_ = sql::ExecStats{};
  total_seconds_ = 0.0;
  latency_ring_ms_.clear();
  next_sample_ = 0;
}

}  // namespace service
}  // namespace lpath
