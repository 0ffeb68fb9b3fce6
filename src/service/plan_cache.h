// A thread-safe LRU cache from query text to preparation outcomes — the
// parse/compile/optimize-once, execute-many half of the serving path.
//
// The cache is two-level:
//   text  → entry   the front map: normalized query text to its entry;
//   fingerprint → entry   the structural index: a front-map miss that
//                 compiles to a plan whose fingerprint (sql/fingerprint.h)
//                 matches an existing entry — and whose compiled plan
//                 PlanEquals that entry's representative, the collision
//                 check — *binds the new spelling to the existing entry*
//                 instead of preparing again. Distinct spellings of one
//                 structure share one prepared plan per relation source.
//
// An entry is either a shared prepared plan bundle or the error Status the
// text produced (a *negative* entry, text-keyed only — errors are spelling
// -specific and carry no plan to fingerprint). Both kinds share one LRU
// policy over entries; evicting an entry unbinds all of its spellings.
//
// Entries are handed out as shared_ptr<const CachedPlan> — one refcount
// bump per hit under the mutex — so an entry evicted while queries still
// execute against it stays alive until the last of them finishes.

#ifndef LPATHDB_SERVICE_PLAN_CACHE_H_
#define LPATHDB_SERVICE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "sql/optimizer.h"

namespace lpath {
namespace service {

/// Collapses whitespace runs to single spaces and trims the ends — outside
/// quoted literals, whose bytes (including whitespace runs) are preserved
/// verbatim — so reformatted spellings of one query share a cache entry
/// without aliasing distinct quoted strings. Queries are case- and
/// quote-sensitive beyond that.
std::string NormalizeQueryText(std::string_view text);

/// One preparation outcome: a plan bundle, or (negative entry) the error
/// Status that preparing the text produced. Positive entries carry one
/// prepared plan per relation source. Preparing per source is what keeps
/// symbol resolution honest — a literal present only in delta-ingested
/// trees is unknown to the base dictionary (and correctly empties the base
/// plan) while resolving in the delta plan, and vice versa. Everything
/// here lives and dies with the cache entry: LRU eviction and snapshot
/// swaps (which rebuild the whole cache) drop the plans together.
struct CachedPlan {
  /// Structural fingerprint of the compiled (unresolved) plan; 0 for
  /// negative entries.
  uint64_t fingerprint = 0;

  std::shared_ptr<const sql::PreparedPlan> plan;  ///< null iff negative

  /// Snapshot-chain second source (null when the session's snapshot has
  /// no delta, or the entry is negative).
  std::shared_ptr<const sql::PreparedPlan> delta_plan;

  Status error = Status::OK();  ///< !ok() iff negative

  bool negative() const { return plan == nullptr; }
};

using CachedPlanPtr = std::shared_ptr<const CachedPlan>;

class PlanCache {
 public:
  struct Stats {
    uint64_t hits = 0;           ///< text-level hits, including negative
    uint64_t negative_hits = 0;  ///< hits that returned a cached error
    uint64_t misses = 0;         ///< text-level misses
    /// Text misses that still avoided a sql::Prepare by structurally
    /// matching an existing entry (fingerprint + PlanEquals); the new
    /// spelling was bound to the shared entry.
    uint64_t shared_prepare_hits = 0;
    /// Fingerprint matches whose PlanEquals check failed — genuinely
    /// distinct plans colliding on the 64-bit hash. Each gets its own
    /// entry; correctness never rides on the hash alone.
    uint64_t fingerprint_collisions = 0;
    uint64_t evictions = 0;  ///< entries evicted (all spellings unbound)
    size_t size = 0;         ///< entries (shared plans + negatives)
    size_t texts = 0;        ///< normalized spellings currently bound
    size_t fingerprints = 0;  ///< distinct fingerprints indexed
    size_t capacity = 0;
  };

  /// A cache with room for `capacity` entries (at least one).
  explicit PlanCache(size_t capacity);

  /// Returns the entry bound to `key` (moving it to the LRU front), or
  /// null on a front-map miss — the caller should compile the text and
  /// probe GetByFingerprint before preparing.
  CachedPlanPtr Get(const std::string& key);

  /// Second-level lookup after a front-map miss: the caller compiled `key`
  /// into `compiled` with fingerprint `fp`. On a structural match against
  /// an existing entry's representative, `key` is bound to that entry and
  /// the shared bundle returned — a respelling serviced without
  /// sql::Prepare. Null when no structurally equal entry exists.
  CachedPlanPtr GetByFingerprint(const std::string& key, uint64_t fp,
                                 const ExecPlan& compiled);

  /// Inserts a freshly prepared `entry` for `key`, keeping `rep` (the
  /// compiled, unresolved plan) as the structural representative for
  /// future GetByFingerprint probes. If a racing thread already published
  /// a structurally equal entry (or one for the same text), that entry
  /// wins; the returned pointer is the bundle the caller should execute.
  CachedPlanPtr Put(const std::string& key, uint64_t fp, ExecPlan rep,
                    CachedPlanPtr entry);

  /// Caches the error `key` produced (negative, text-keyed entry).
  void PutNegative(const std::string& key, Status error);

  Stats stats() const;

 private:
  struct Entry {
    std::vector<std::string> texts;  ///< spellings bound to this entry
    bool has_fp = false;
    uint64_t fp = 0;
    std::unique_ptr<const ExecPlan> rep;  ///< null for negative entries
    CachedPlanPtr value;
  };
  using EntryList = std::list<Entry>;

  /// Binds `key` to the entry, evicting the entry's oldest spelling past
  /// the per-entry bound (a hostile stream of fresh spellings of one hot
  /// structure must not grow the front map without limit).
  void BindTextLocked(EntryList::iterator it, const std::string& key);
  void UnbindEntryLocked(EntryList::iterator it);
  void EvictLocked();

  static constexpr size_t kMaxTextsPerEntry = 64;

  mutable std::mutex mu_;
  size_t capacity_;
  EntryList lru_;  // front = most recently used
  std::unordered_map<std::string, EntryList::iterator> by_text_;
  std::unordered_map<uint64_t, std::vector<EntryList::iterator>> by_fp_;
  uint64_t hits_ = 0;
  uint64_t negative_hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t shared_prepare_hits_ = 0;
  uint64_t fingerprint_collisions_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace service
}  // namespace lpath

#endif  // LPATHDB_SERVICE_PLAN_CACHE_H_
