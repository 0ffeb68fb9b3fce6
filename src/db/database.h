// The multi-corpus database layer: a catalog mapping corpus names to their
// current snapshot, each served by its own QueryService (prepared-plan
// cache + shard pool). This is the shape of the server the paper's pitch
// implies: one process holding several treebanks (WSJ, SWB, ...), routing
// each query to the right corpus, swapping in rebuilt indexes without
// downtime, and serving clients synchronously, asynchronously or streaming.
//
// Concurrency model:
//   - The catalog maps each name to one shared entry per attachment: its
//     service, its WAL handle, its ingest lock and its compaction health.
//     Ingest, Reload and compaction resolve the entry once and work only
//     on it; each publication re-checks under the catalog mutex that the
//     entry is still the name's, so work that outlives a Detach can never
//     land in a later attachment under the same name.
//   - One mutex guards the catalog map, every entry's service and health,
//     and the options, taken only for name resolution, attach/detach
//     bookkeeping and snapshot publication — never across query
//     execution, pool construction, pool join, or relation rebuild.
//   - Swap(name, snapshot) publishes through the service's session pointer
//     *while holding the catalog mutex* (a session build is a handful of
//     small allocations), which serializes publication against
//     SetServiceOptions' service replacement — a swap can never be
//     silently reverted by a concurrent service rebuild. Readers never
//     block on a swap: queries in flight hold the old snapshot alive
//     through shared ownership, and no torn state exists — a query sees
//     entirely the old or entirely the new snapshot.

#ifndef LPATHDB_DB_DATABASE_H_
#define LPATHDB_DB_DATABASE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "service/query_service.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "tree/corpus.h"

namespace lpath {
namespace db {

struct DatabaseOptions {
  /// Per-corpus serving options (threads, plan-cache size, sharding).
  service::QueryServiceOptions service;
  /// Labeling scheme used when the database builds a corpus's *first*
  /// snapshot (Open/OpenCorpus). Snapshots attached prebuilt keep their
  /// own, and Reload always rebuilds under the current snapshot's own
  /// options — to change a corpus's labeling, attach a rebuilt snapshot
  /// via Swap.
  RelationOptions relation;
  /// Live-corpus compaction threshold: when an Ingest leaves the corpus's
  /// snapshot chain with at least this many delta trees, a background
  /// compaction (merge delta into the base, republish) is scheduled. The
  /// delta stays queryable throughout — compaction is a throughput
  /// optimization, never a correctness requirement. 0 disables automatic
  /// compaction (Compact() still works on demand).
  int32_t compact_delta_trees = 4096;
  /// Durable live ingestion: when non-empty, every attached corpus keeps a
  /// write-ahead log under `<wal_dir>/<escaped name>/` (storage/wal.h).
  /// Ingest then commits each batch to the log (fsync and all) *before*
  /// publishing it — a failed append errors out without publishing — and
  /// every attach path replays records the snapshot does not already cover
  /// before the corpus serves, so an acknowledged Ingest survives a crash.
  /// A successful image-backed compaction stamps the image with the LSN it
  /// covers and checkpoints (truncates) the log behind it. Empty (the
  /// default) disables durable ingest entirely.
  std::string wal_dir;
  /// WAL tuning (segment size, sync-per-commit) when wal_dir is set.
  WalOptions wal;
};

/// One catalog row, for listings and monitoring.
struct CorpusInfo {
  std::string name;
  uint64_t snapshot_id = 0;
  size_t trees = 0;  ///< chain-wide (base + unmerged delta)
  size_t nodes = 0;  ///< chain-wide
  size_t relation_bytes = 0;  ///< base + delta relation footprint
  /// Trees in the unmerged delta (0 for a plain snapshot) — the live
  /// tail a compaction would fold into the base.
  size_t delta_trees = 0;
  int threads = 0;
  // Durability (all zero/false without DatabaseOptions::wal_dir).
  bool wal = false;              ///< corpus has a live write-ahead log
  uint64_t wal_last_lsn = 0;     ///< highest committed WAL record
  uint64_t wal_segments = 0;     ///< live WAL segment files
  // Background-compaction health: failures are counted (and the latest
  // error kept) rather than dropped on the floor; the compactor retries
  // with capped backoff, and a later Ingest reschedules regardless.
  uint64_t compaction_failures = 0;
  std::string last_compaction_error;  ///< empty after a clean compaction
};

class Database {
 public:
  explicit Database(DatabaseOptions options = {});
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // --- Catalog management ---------------------------------------------------

  /// Attaches a prebuilt snapshot under `name` and spins up its service.
  /// AlreadyExists if the name is taken; InvalidArgument for an empty name
  /// or null snapshot.
  Status Attach(const std::string& name, SnapshotPtr snapshot);

  /// Builds a snapshot from `corpus` (consumed) and attaches it.
  Status OpenCorpus(const std::string& name, Corpus corpus);

  /// Attaches the file at `path` as corpus `name`. Sniffs the format: a
  /// persistent relation image (see storage/image.h) is mmap-opened in
  /// O(file size) with no labeling or sorting; anything else is loaded as
  /// a Penn-bracketed treebank and its relation is built in memory.
  Status Open(const std::string& name, const std::string& path);

  /// Attaches a persistent relation image explicitly (errors if `path` is
  /// not an image).
  Status OpenImage(const std::string& name, const std::string& path);

  /// Writes corpus `name`'s current snapshot as a persistent relation
  /// image at `path`; a later Open/OpenImage of that file serves the same
  /// relation without rebuilding it. NotFound if `name` is not attached.
  Status Save(const std::string& name, const std::string& path) const;

  /// Atomically publishes `snapshot` as the current version of `name`.
  /// In-flight queries finish on the snapshot they started with; queries
  /// starting after the call see the new one. NotFound if `name` is not
  /// attached.
  Status Swap(const std::string& name, SnapshotPtr snapshot);

  /// Rebuilds the current snapshot's relation over the same corpus (the
  /// index-rebuild path) and publishes it via Swap.
  Status Reload(const std::string& name);

  // --- Live ingestion -------------------------------------------------------

  /// Appends `trees` to corpus `name` without downtime: the current
  /// snapshot chain is extended (O(delta) work — the base relation is
  /// shared untouched, see storage/snapshot.h) and the new chain is
  /// hot-swapped in. Queries in flight finish on the pre-append snapshot;
  /// queries starting after the call see the appended trees. Appends to
  /// one corpus are serialized by a per-corpus ingest lock, so concurrent
  /// Ingest calls all land (in some order) rather than overwriting each
  /// other. When the resulting delta reaches
  /// DatabaseOptions::compact_delta_trees, a background compaction is
  /// scheduled. NotFound if `name` is not attached, or is detached before
  /// the batch publishes (its WAL record is then rolled back, and a
  /// corpus attached anew under the name never sees the batch);
  /// InvalidArgument for an empty batch.
  Status Ingest(const std::string& name, Corpus trees);

  /// Synchronously merges corpus `name`'s delta into its base and
  /// publishes the compacted snapshot (for an image-backed corpus this
  /// rewrites the image file crash-safely and remaps it). A no-op success
  /// when there is no delta. Readers are never blocked: in-flight queries
  /// keep the pre-compaction chain alive via their session references.
  Status Compact(const std::string& name);

  /// Removes `name` from the catalog. In-flight queries on its service are
  /// unaffected (the service lives until its last shared reference drops).
  Status Detach(const std::string& name);

  /// Rebuilds every corpus's service (fresh pools and plan caches, same
  /// snapshots) under new serving options — the ":threads N" path.
  void SetServiceOptions(const service::QueryServiceOptions& options);

  // --- Introspection --------------------------------------------------------

  bool Has(const std::string& name) const;
  std::vector<std::string> CorpusNames() const;  // sorted
  std::vector<CorpusInfo> List() const;          // sorted by name

  /// The current snapshot of `name`, or null if not attached.
  SnapshotPtr snapshot(const std::string& name) const;

  /// The serving handle for `name`, or null if not attached. Shared: keeps
  /// working (on its last published snapshot) even if the name is detached
  /// or swapped afterwards.
  std::shared_ptr<service::QueryService> service(const std::string& name) const;

  /// A copy: options may be rewritten concurrently by SetServiceOptions.
  DatabaseOptions options() const;

  // --- Routed query entry points -------------------------------------------

  /// Evaluates `query` against corpus `name`, synchronously, with `ctx`'s
  /// hooks (see service::QueryContext). `ctx.done` fires exactly once,
  /// also when the name does not route (with that NotFound).
  Result<QueryResult> Query(const std::string& name, const std::string& query,
                            const service::QueryContext& ctx = {});

  /// Submits `query` against corpus `name` for asynchronous evaluation —
  /// also the network front end's entry point (src/net/). The returned
  /// handle and the context's hooks stay valid across a concurrent
  /// Swap/Detach (the query pins its service and session). `ctx.done`
  /// fires exactly once, also when the name does not route.
  Result<service::PendingQuery> Submit(const std::string& name,
                                       const std::string& query,
                                       service::QueryContext ctx = {});

 private:
  /// One attach of a name, from Attach to Detach. Every per-corpus piece
  /// of state lives here, so an operation that resolved its entry once
  /// works on that attachment only: "still current" is
  /// `catalog_[name] == entry`, checked under mu_ at each publication,
  /// and a detached entry stays valid (just unlisted) for whoever still
  /// holds it.
  struct Entry {
    Entry(std::string name, std::unique_ptr<Wal> wal)
        : name(std::move(name)), wal(std::move(wal)) {}

    const std::string name;
    /// Live WAL handle (only with DatabaseOptions::wal_dir), fixed at
    /// attach; internally synchronized.
    const std::unique_ptr<Wal> wal;
    /// Serializes the read-append-publish sequence of Ingest and
    /// compaction against each other — never against queries, and never
    /// across corpora.
    std::mutex ingest_mu;
    /// Guarded by mu_: SetServiceOptions replaces it.
    std::shared_ptr<service::QueryService> service;
    /// Compaction health, guarded by mu_: failures are counted rather
    /// than dropped on the floor; the compactor retries with capped
    /// backoff, and a later Ingest reschedules regardless.
    uint64_t compaction_failures = 0;
    /// Cleared by a clean compaction, in the critical section that
    /// publishes its snapshot: List() never sees the delta gone while an
    /// earlier attempt's error still stands.
    std::string last_compaction_error;
  };

  /// `name`'s entry; NotFound if it is not attached.
  Result<std::shared_ptr<Entry>> Find(const std::string& name) const;
  std::shared_ptr<service::QueryService> Resolve(const std::string& name) const;
  /// Whether `entry` is still `catalog_`'s entry for its name. Requires mu_.
  bool IsCurrent(const Entry& entry) const;
  /// `entry`'s current snapshot; NotFound once it is detached.
  Result<SnapshotPtr> CurrentSnapshot(const Entry& entry) const;
  /// The locked publish step of Reload, Ingest and compaction: publishes
  /// `next` if `entry` is still attached and still serves `from`, and
  /// runs `also` in the same critical section. NotFound once detached;
  /// false, publishing nothing, if a Swap or Reload replaced `from`.
  Result<bool> Publish(Entry& entry, const SnapshotPtr& from,
                       SnapshotPtr next,
                       const std::function<void()>& also = {});
  /// Compact's body; also the background compactor's per-item work. Every
  /// outcome (either entry point) is recorded in the entry's health.
  Status CompactInternal(Entry& entry);
  Status CompactOnce(Entry& entry);
  /// Enqueues `entry` for the background compactor (deduplicated), lazily
  /// starting the compactor thread on first use.
  void ScheduleCompaction(const std::shared_ptr<Entry>& entry);
  void CompactorLoop();

  // Guards catalog_, every entry's service and health, options_ and
  // options_version_, and serializes snapshot publication with service
  // replacement; never held across queries or pool lifetimes, and no
  // entry's last reference drops under it. Lock order: compact_mu_
  // before mu_.
  mutable std::mutex mu_;
  DatabaseOptions options_;
  /// Bumped by SetServiceOptions; Attach re-checks it before inserting a
  /// service built unlocked, so a freshly attached corpus can never serve
  /// on options that were replaced while its pool was being built.
  uint64_t options_version_ = 0;
  std::unordered_map<std::string, std::shared_ptr<Entry>> catalog_;

  /// One unit of background-compaction work. A failed attempt is re-queued
  /// with doubling backoff up to kMaxCompactAttempts, while its entry is
  /// still attached; after that the delta simply stays live, the failure
  /// stays visible in List(), and a later Ingest reschedules from attempt
  /// zero. Weak: a queued task never keeps a detached corpus alive.
  struct CompactTask {
    std::weak_ptr<Entry> entry;
    int attempt = 0;
    std::chrono::steady_clock::time_point ready;
  };

  /// Background compactor: one lazily-started thread draining a
  /// deduplicated queue of compaction tasks; synchronous Compact() is the
  /// caller-facing error path, List() the monitoring one.
  mutable std::mutex compact_mu_;
  std::condition_variable compact_cv_;
  std::deque<CompactTask> compact_queue_;
  bool compact_stop_ = false;
  std::thread compactor_;
};

}  // namespace db
}  // namespace lpath

#endif  // LPATHDB_DB_DATABASE_H_
