// The common query-engine interface that every system under test implements:
// the relational LPath engine, the XPath-labeling engine, the navigational
// reference evaluator, and the TGrep2 / CorpusSearch baselines. Each engine
// takes query text in its own language and returns the matched node set as
// (tid, id) pairs, so result sizes (Figure 6c) are directly comparable.

#ifndef LPATHDB_LPATH_ENGINE_H_
#define LPATHDB_LPATH_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace lpath {

/// One matched node: tree id + the node's per-tree id (1-based pre-order
/// position, identical to the `id` column of the relation).
struct Hit {
  int32_t tid = 0;
  int32_t id = 0;

  bool operator==(const Hit&) const = default;
  auto operator<=>(const Hit&) const = default;
};

/// A query's result: the distinct matched nodes, sorted.
struct QueryResult {
  std::vector<Hit> hits;

  size_t count() const { return hits.size(); }

  /// Sorts and removes duplicates; engines call this before returning.
  /// Hits that are already sorted (the executor's usual output, and the
  /// concatenation of tid-ordered per-source or per-morsel results) skip
  /// the sort, so normalizing twice costs one linear pass.
  void Normalize() {
    if (!std::is_sorted(hits.begin(), hits.end())) {
      std::sort(hits.begin(), hits.end());
    }
    hits.erase(std::unique(hits.begin(), hits.end()), hits.end());
  }

  bool operator==(const QueryResult&) const = default;
};

/// Abstract engine. Implementations hold whatever prebuilt state they need
/// (relations, indexes, binary corpus images); Run is const so one engine
/// can serve many queries.
class QueryEngine {
 public:
  virtual ~QueryEngine() = default;

  /// Short system name for reports ("LPath", "TGrep2", ...).
  virtual std::string name() const = 0;

  /// Evaluates `query` (in this engine's own query language).
  virtual Result<QueryResult> Run(const std::string& query) const = 0;
};

}  // namespace lpath

#endif  // LPATHDB_LPATH_ENGINE_H_
