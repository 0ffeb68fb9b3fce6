// QueryService: the multi-user serving layer over one corpus snapshot.
//
// The paper's pitch is that LPath compiles to something an RDBMS evaluates
// correctly and fast; this module supplies the "many clients" shape around
// that claim. A service owns
//   - a *session*: an immutable (snapshot, plan cache, executor) triple
//     published through one atomic pointer. UpdateSnapshot() builds a fresh
//     session and swaps the pointer — a hot swap that never blocks readers:
//     queries in flight keep the old session (and through it the old corpus
//     and relation) alive via shared ownership, and new queries pick up the
//     new one. Prepared plans resolve symbols against one snapshot's
//     dictionary, so each session gets its own cache;
//   - a two-level LRU prepared-plan cache: normalized query text in
//     front, structural plan fingerprints behind (see service/plan_cache.h)
//     — so each distinct query is parsed, compiled and optimized once,
//     distinct *spellings* of one structure share a single prepared plan
//     bundle, and *negative* entries cache the error of a malformed query
//     instead of re-deriving it per submission;
//   - a fixed thread pool running morsel-driven parallel execution: the
//     scheduler carves the tree-id space into ~kMorselsPerThread×workers
//     row-balanced morsels (storage::NodeRelation::CarveTidRanges over the
//     per-tree row prefix sums, so a giant tree cannot serialize the whole
//     query the way an even-by-tid split does on skewed corpora), workers
//     pull morsels from a shared atomic claim cursor (work stealing for
//     free — a worker stuck on a long morsel simply stops claiming while
//     the others drain the rest), and sql::PlanExecutor::ExecuteShard is
//     the per-morsel kernel. Serial execution is the one-worker case of the
//     same path: one whole-range morsel per source, drained on the calling
//     thread. Fan-out is adaptive: a query whose root-variable cardinality
//     estimate is tiny runs serially. The decisions are visible as
//     ExecStats::shards / ::morsels / ::steal_count;
//   - aggregated executor work counters and a latency reservoir with
//     percentile summaries.
//
// Entry points, all safe to call concurrently from many threads. Per-query
// hooks (row sink, cancel flag, completion callback) travel in one
// QueryContext:
//   Query()       synchronous; streams rows to ctx.sink morsel by morsel
//                 when one is set.
//   Submit()      asynchronous; returns a future-like PendingQuery handle
//                 and evaluates Query() on the pool.
//   QueryBatch()  spreads a batch of queries over the pool workers — the
//                 throughput path a front end with its own queue would use.
//                 Members that resolve to the same cached plan (same
//                 structure, any spelling) coalesce into one execution
//                 whose result fans out to all of them.
//   GetPlan()     warmup and plan introspection.

#ifndef LPATHDB_SERVICE_QUERY_SERVICE_H_
#define LPATHDB_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "lpath/engine.h"
#include "plan/exec_plan.h"
#include "service/plan_cache.h"
#include "service/thread_pool.h"
#include "sql/executor.h"
#include "storage/snapshot.h"

namespace lpath {
namespace service {

/// Morsels carved per worker. Over-decomposition is what makes the shared
/// claim cursor balance skew: with ~4 morsels per worker, a worker that
/// lands on a giant tree holds one morsel while the others pull the
/// remaining 4w-1.
constexpr int kMorselsPerThread = 4;

struct QueryServiceOptions {
  /// Worker threads; also the default parallelism of one query.
  int threads = 4;
  /// Workers a single Query() fans out over; 0 means one per thread.
  int shards_per_query = 0;
  /// Prepared plans kept by each session's LRU cache.
  size_t plan_cache_capacity = 256;
  sql::ExecOptions exec;
  /// Unnest positive predicates into the main join (see plan/compile.h).
  bool unnest_predicates = true;
  /// Adaptive sharding: a query whose root-variable cardinality estimate
  /// falls below this many rows runs serially — fanning a tiny query out
  /// costs more than it saves. Also sizes the smallest morsel the planner
  /// will carve (adaptive_serial_rows / kMorselsPerThread rows). 0
  /// disables both heuristics (always fan out when the pool allows, carve
  /// down to single-tree morsels).
  size_t adaptive_serial_rows = 4096;
};

/// Latency percentiles over the most recent queries (milliseconds).
struct LatencySummary {
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  size_t samples = 0;
};

struct ServiceStats {
  uint64_t queries = 0;  ///< completed evaluations across all entry points
  uint64_t errors = 0;
  uint64_t sharded_queries = 0;  ///< executed with fan-out > 1
  uint64_t serial_queries = 0;   ///< executed serially (incl. adaptive picks)
  uint64_t ingests = 0;          ///< append-publications noted (NoteIngest)
  uint64_t compactions = 0;      ///< delta merges noted (NoteCompaction)
  uint64_t wal_appends = 0;      ///< durable-ingest WAL records committed
  uint64_t wal_bytes = 0;        ///< payload bytes of those records
  uint64_t replayed_batches = 0; ///< WAL batches recovered on attach/open
  uint64_t checkpoints = 0;      ///< WAL truncations after compaction
  /// Batch members answered by another member's execution: same-structure
  /// queries in one QueryBatch call coalesce to a single execution fanned
  /// out to all of them.
  uint64_t batch_coalesced = 0;
  PlanCache::Stats cache;        ///< current session's cache (reset by swap)
  sql::ExecStats exec;           ///< summed over all queries and shards
  LatencySummary latency;
  double total_seconds = 0.0;  ///< summed per-query wall time
};

/// Batches of result rows, delivered morsel by morsel as morsels complete.
/// Each batch is internally sorted; batches are disjoint and their union is
/// the query's DISTINCT result. Invocations are serialized (never
/// concurrent), but may come from pool threads.
using RowSink = std::function<void(std::span<const Hit>)>;

/// The per-query hooks of every entry point, in one bundle. A
/// default-constructed context streams nothing, cannot be cancelled and
/// reports to no one.
struct QueryContext {
  /// Receives the result rows as morsels finish (see RowSink). Rows may
  /// have been delivered even when the final status is an error (a late
  /// morsel can fail after earlier ones streamed). Empty: no streaming.
  RowSink sink;
  /// Checked at morsel boundaries while the query executes: once it reads
  /// true, remaining morsels are skipped and the query resolves to
  /// Status::Cancelled. Rows already streamed stay streamed — cancellation
  /// truncates a stream, it does not roll it back. Null disables the check.
  std::shared_ptr<const std::atomic<bool>> cancel;
  /// Invoked exactly once with the terminal status, after the final sink
  /// delivery (or the failure) — the wire protocol's STREAM_END trigger.
  /// It runs on the evaluating thread: before Query() returns, and before
  /// a Submit() handle resolves.
  std::function<void(const Status&)> done;
};

/// Future-like handle to a query submitted with QueryService::Submit.
class PendingQuery {
 public:
  PendingQuery() = default;

  bool valid() const { return future_.valid(); }
  /// Non-blocking completion poll.
  bool ready() const;
  /// Blocks until the query completes; repeatable (shared state).
  Result<QueryResult> Get() const;

 private:
  friend class QueryService;
  explicit PendingQuery(std::shared_future<Result<QueryResult>> future)
      : future_(std::move(future)) {}

  std::shared_future<Result<QueryResult>> future_;
};

class QueryService {
 public:
  /// Serves queries against `snapshot` (must be non-null). The service
  /// shares ownership: callers may drop their reference immediately.
  explicit QueryService(SnapshotPtr snapshot, QueryServiceOptions options = {});
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Atomically publishes a new snapshot (with a fresh plan cache).
  /// Queries in flight keep the old snapshot alive, never block on the
  /// publication and never observe a torn state; queries starting after
  /// the exchange see the new one. `snapshot` must be non-null.
  ///
  /// Returns an opaque keep-alive for the replaced session: if the caller
  /// holds a lock, it should drop the handle only after unlocking —
  /// releasing the last reference may tear down a whole corpus + relation.
  std::shared_ptr<const void> UpdateSnapshot(SnapshotPtr snapshot);

  /// The currently published snapshot.
  SnapshotPtr snapshot() const;

  /// Evaluates one LPath query, fanning its execution out across the pool
  /// (unless the adaptive heuristic picks serial), with `ctx`'s hooks.
  Result<QueryResult> Query(const std::string& query,
                            const QueryContext& ctx = {});

  /// Submits Query(query, ctx) for asynchronous evaluation on the pool. The
  /// handle resolves after `ctx.done` returned.
  PendingQuery Submit(const std::string& query, QueryContext ctx = {});

  /// Evaluates a batch of LPath queries, spreading them over the pool
  /// workers; results are positionally aligned with `queries`. Each
  /// structure not yet cached is prepared exactly once, however many
  /// spellings of it the batch holds.
  std::vector<Result<QueryResult>> QueryBatch(
      const std::vector<std::string>& queries);

  /// Parses/compiles/optimizes `query` into the current session's plan
  /// cache (or returns the cached plan). Exposed for warmup and for plan
  /// introspection.
  Result<std::shared_ptr<const sql::PreparedPlan>> GetPlan(
      const std::string& query);

  ServiceStats Stats() const;
  void ResetStats();

  /// Ingestion observability: the publisher (db::Database::Ingest /
  /// ::Compact, or any caller driving UpdateSnapshot with a chain) ticks
  /// these after the swap so :stats / monitoring see live-corpus traffic.
  void NoteIngest();
  void NoteCompaction();
  /// Durability observability, same publisher contract: one WAL commit of
  /// `payload_bytes`, `batches` records replayed on an attach, one
  /// post-compaction checkpoint.
  void NoteWalAppend(uint64_t payload_bytes);
  void NoteReplay(uint64_t batches);
  void NoteCheckpoint();

  int threads() const { return pool_->size(); }
  const QueryServiceOptions& options() const { return options_; }

 private:
  /// Everything one query needs, bundled so a hot swap replaces it as a
  /// unit: plans in `cache` resolve symbols against exactly `snapshot`'s
  /// dictionary, and `executor` shares ownership of the snapshot.
  struct Session {
    SnapshotPtr snapshot;
    sql::PlanExecutor executor;
    /// Snapshot-chain second source: a borrowing executor over the delta
    /// relation (the session owns the snapshot, which pins the borrow).
    /// Engaged exactly when snapshot->has_delta().
    std::optional<sql::PlanExecutor> delta_executor;
    mutable PlanCache cache;

    Session(SnapshotPtr snap, const QueryServiceOptions& options)
        : snapshot(std::move(snap)),
          executor(snapshot, options.exec),
          cache(options.plan_cache_capacity) {
      if (snapshot->has_delta()) {
        delta_executor.emplace(*snapshot->delta_relation(), options.exec);
      }
    }
  };
  using SessionPtr = std::shared_ptr<const Session>;

  /// One executable (source, plan) pair of a query: the base
  /// relation, plus the delta relation when the session's snapshot is a
  /// chain. Hits from a source are shifted by `tid_offset` into the chain
  /// tid space before delivery, so no two sources share a tid.
  struct SourceRun;

  /// Plan lookup returning the shared cache entry (one plan per source);
  /// the entry is always positive — errors surface as the
  /// Status. Resolution order: text front map, then structural fingerprint
  /// (respellings bind to the existing entry without a sql::Prepare), then
  /// a full prepare published via Put.
  Result<CachedPlanPtr> GetPlanIn(const Session& session,
                                  const std::string& query);
  /// GetPlanIn's cache levels for normalized `key`, short of a prepare:
  /// the text entry, or a structural match of the compiled text. Returns
  /// OK(null) on a miss of both, with the compiled plan and its
  /// fingerprint left in the out-params for PreparePlan.
  Result<CachedPlanPtr> ProbePlan(const Session& session,
                                  const std::string& key, ExecPlan* compiled,
                                  uint64_t* fingerprint);
  /// Prepares `compiled` and publishes it under `key` (an error is cached
  /// as a negative entry). Returns the published bundle.
  Result<CachedPlanPtr> PreparePlan(const Session& session,
                                    const std::string& key,
                                    uint64_t fingerprint, ExecPlan compiled);
  /// Parse + compile of normalized text.
  Result<ExecPlan> CompileQuery(const Session& session,
                                const std::string& normalized);
  /// sql::Prepare per source.
  Result<CachedPlan> PrepareCompiled(const Session& session,
                                     const ExecPlan& compiled);
  /// Fills `out` (room for 2) with the query's executable sources; returns
  /// the count (1, or 2 for a chain).
  static int CollectSources(const Session& session, const CachedPlan& planned,
                            SourceRun* out);
  /// Executes `planned` on up to `max_workers` workers. The scheduler
  /// carves row-balanced morsels over every live source, or — when the
  /// query is serial (one worker, a tiny root estimate, or too little to
  /// carve) — takes one whole-range morsel per source and drains them on
  /// the calling thread with nothing posted to the pool. Each morsel's
  /// hits are shifted into chain tid space, checked against the morsel's
  /// range and delivered to `ctx.sink`; `ctx.cancel` is polled per morsel.
  Result<QueryResult> Run(const Session& session, const CachedPlan& planned,
                          const QueryContext& ctx, int max_workers);
  /// Records `count` completed queries sharing one wall-clock measurement
  /// (QueryBatch's coalesced groups record every member at the group's
  /// latency; count-1 of them tick the coalesced counter).
  void RecordQueries(double seconds, bool error, int count, int coalesced);
  /// Runs fn(0..items-1, worker) across the pool: helper tasks are bulk-
  /// posted for up to max_workers-1 other workers while the calling thread
  /// (worker 0) drains the same claim counter, and the call returns once
  /// every item has finished. The shared counter is the morsel cursor:
  /// whichever worker is free claims the next item, so skew balances
  /// itself and a saturated pool degrades to serial execution instead of
  /// deadlocking. With nobody to help (one worker or one item) the caller
  /// drains every item without touching the pool.
  void RunOnPool(int items, int max_workers,
                 std::function<void(int, int)> fn);
  void RecordExec(const sql::ExecStats& exec, bool sharded);

  SessionPtr CurrentSession() const;

  const QueryServiceOptions options_;

  /// The one swap point. Readers copy the shared_ptr under a mutex held
  /// only for the pointer copy itself (tens of nanoseconds); UpdateSnapshot
  /// exchanges it and releases the old session outside the critical
  /// section. A query in flight holds its own session reference, so a swap
  /// never blocks it and it never observes a torn state.
  ///
  /// Not std::atomic<shared_ptr>: libstdc++'s _Sp_atomic unlocks its
  /// embedded spinlock with a relaxed RMW on the load path, which leaves
  /// the internal pointer read formally unordered against a concurrent
  /// store — ThreadSanitizer (correctly, per the model) reports it. The
  /// micro critical section has the same publication semantics and is
  /// provably clean under the tsan hot-swap hammer.
  mutable std::mutex session_mu_;
  SessionPtr session_;

  mutable std::mutex stats_mu_;
  uint64_t queries_ = 0;
  uint64_t errors_ = 0;
  uint64_t sharded_queries_ = 0;
  uint64_t serial_queries_ = 0;
  uint64_t ingests_ = 0;
  uint64_t compactions_ = 0;
  uint64_t wal_appends_ = 0;
  uint64_t wal_bytes_ = 0;
  uint64_t replayed_batches_ = 0;
  uint64_t checkpoints_ = 0;
  uint64_t batch_coalesced_ = 0;
  sql::ExecStats exec_;
  double total_seconds_ = 0.0;
  std::vector<double> latency_ring_ms_;  // bounded reservoir of recent queries
  size_t next_sample_ = 0;

  // Last member: its destructor drains and joins the workers while
  // everything the in-flight tasks touch (session_, stats) is still alive.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace service
}  // namespace lpath

#endif  // LPATHDB_SERVICE_QUERY_SERVICE_H_
