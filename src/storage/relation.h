// The node relation of Section 5: labeled tree nodes stored with schema
//   { tid, left, right, depth, id, pid, name, value }
// clustered by { name, tid, left, right, depth, id, pid }, with secondary
// indexes for value lookups ({value, tid, id} / {tid, value, id}) and row
// lookups by {tid, id} — exactly the physical design the paper lists.
//
// Attribute rows (e.g. name "@lex", value "saw") carry their element's label
// (Definition 4.1, rule 8) and are distinguished by RowKind.
//
// Interval invariant: every row has 0 < left < right < INT32_MAX. LPath
// labels are unit leaf intervals counted from 1; in the XPath scheme a
// node's start tag precedes its end tag; attribute rows copy their
// element's label. Built, image-opened, delta and merged relations all
// keep it. The executor's probe planning relies on it: an upper bound on
// right caps left, a lower bound on left raises right, and INT32_MAX can
// serve as an exclusive upper probe key.
//
// Access paths exposed here are what the SQL executor uses:
//   - a per-tag "run" (contiguous, sorted by tid,left,right,depth,id);
//   - a per-tree "slice" of a run (RunForTree), located once;
//   - left, right and pid ranges probed within a slice — the clustered
//     run and the per-run permutations ordered by (tid, right, left) and
//     (tid, pid, left) all lead with tid, so a tree sits at the same
//     offsets in all three;
//   - the global value index;
//   - direct element lookup by (tid, id).

#ifndef LPATHDB_STORAGE_RELATION_H_
#define LPATHDB_STORAGE_RELATION_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/result.h"
#include "label/labeler.h"
#include "tree/corpus.h"

namespace lpath {

/// Index of a row in the relation's clustered order.
using Row = uint32_t;
inline constexpr Row kNoRow = UINT32_MAX;

/// Half-open row range [begin, end) within the clustered storage.
struct RowRange {
  Row begin = 0;
  Row end = 0;
  bool empty() const { return begin >= end; }
  size_t size() const { return end - begin; }
};

/// A half-open slice [tid_lo, tid_hi) of the tree-id space together with
/// the total relation rows (elements + attributes) its trees hold. The
/// unit of work of the morsel-driven parallel executor.
struct TidRange {
  int32_t tid_lo = 0;
  int32_t tid_hi = 0;
  uint64_t rows = 0;
};

/// Element or attribute row.
enum class RowKind : uint8_t { kElement = 0, kAttribute = 1 };

/// Options for building a relation.
struct RelationOptions {
  LabelScheme scheme = LabelScheme::kLPath;
};

/// The relation's row-aligned columns, in the order the v2 image format
/// indexes them. The first kRelColEncodable of these are 32-bit and
/// eligible for lightweight compression in persistent images; kKind stays
/// a raw byte array.
enum class RelCol : uint8_t {
  kTid = 0,
  kLeft = 1,
  kRight = 2,
  kDepth = 3,
  kId = 4,
  kPid = 5,
  kName = 6,
  kValue = 7,
  kKind = 8,
};
inline constexpr size_t kRelColEncodable = 8;

class ImageIO;

/// Immutable, columnar, dictionary-encoded node relation.
///
/// Columns are exposed as borrowed spans over a type-erased backing: a
/// relation built in memory owns its arrays (the backing is the arena the
/// build filled), while a relation opened from a persistent image serves
/// the very same spans straight out of a read-only file mapping (see
/// storage/image.h). Every consumer — executor, morsel planner, benches —
/// reads through one accessor surface and cannot tell the difference.
class NodeRelation {
 public:
  /// Labels every tree of `*corpus` under `options.scheme`, flattens nodes
  /// and attributes to rows, sorts into the clustered order and builds all
  /// secondary indexes. The relation shares ownership of the corpus (and
  /// through it the interner), so the corpus stays alive as long as any
  /// relation built over it — the invariant CorpusSnapshot and the
  /// hot-swap path rely on.
  static Result<NodeRelation> Build(std::shared_ptr<const Corpus> corpus,
                                    RelationOptions options = {});

  /// Borrowing overload for stack-scoped uses (tests, one-shot tools): the
  /// caller guarantees `corpus` outlives the relation and is not moved.
  static Result<NodeRelation> Build(const Corpus& corpus,
                                    RelationOptions options = {});

  /// Builds the compaction of `base` + `delta` — bit-identical to what a
  /// full Build over the concatenated corpora would produce — by pure
  /// linear merge: no labeling and no sorting. Works because the chain
  /// keeps three invariants: delta symbol ids extend the base's dictionary
  /// (shared strings keep their base ids, so per-name runs concatenate),
  /// every delta tid maps to base tree_count() + tid (so within a run the
  /// base rows sort strictly before the shifted delta rows under every
  /// clustered and secondary order, all of which lead with tid after the
  /// run's name), and labels are per-tree (no base label changes when
  /// trees are appended). `corpus` becomes the merged relation's owner and
  /// must carry the delta's (superset) dictionary; it may be tree-less
  /// (image-backed compaction) or hold the concatenated trees.
  static Result<NodeRelation> Merge(const NodeRelation& base,
                                    const NodeRelation& delta,
                                    std::shared_ptr<const Corpus> corpus);

  LabelScheme scheme() const { return scheme_; }
  const Corpus& corpus() const { return *corpus_; }
  /// Shared owner of the corpus. Built through the borrowing overload it
  /// is a non-owning alias (non-null but use_count() == 0) — do not treat
  /// it as something that keeps the corpus alive.
  const std::shared_ptr<const Corpus>& corpus_ptr() const { return corpus_; }
  const Interner& interner() const { return corpus_->interner(); }

  size_t row_count() const { return tid_.size(); }
  int32_t tree_count() const { return tree_count_; }

  // --- Column access (clustered row order) -------------------------------
  int32_t tid(Row r) const { return tid_[r]; }
  int32_t left(Row r) const { return left_[r]; }
  int32_t right(Row r) const { return right_[r]; }
  int32_t depth(Row r) const { return depth_[r]; }
  int32_t id(Row r) const { return id_[r]; }
  int32_t pid(Row r) const { return pid_[r]; }
  Symbol name(Row r) const { return name_[r]; }
  Symbol value(Row r) const { return value_[r]; }
  RowKind kind(Row r) const { return static_cast<RowKind>(kind_[r]); }
  bool is_attr(Row r) const { return kind_[r] != 0; }

  /// The label tuple of a row.
  Label label(Row r) const {
    return Label{left_[r], right_[r], depth_[r], id_[r], pid_[r]};
  }

  // --- Clustered runs ------------------------------------------------------
  /// Rows whose name is `name` — contiguous thanks to name-first clustering.
  /// Empty range for unknown symbols.
  RowRange run(Symbol name) const;

  /// All element rows (kind = element) — NOT contiguous; use this range plus
  /// the is_attr filter for wildcard scans.
  RowRange all_rows() const {
    return RowRange{0, static_cast<Row>(row_count())};
  }

  /// Subrange of run(name) with tid == t; binary search. This is the
  /// "tree slice" the three probes below take: it sits at the same offsets
  /// in the clustered run and in both per-run permutations, because all
  /// three orders lead with tid.
  RowRange RunForTree(Symbol name, int32_t t) const;

  /// Subrange of run(name) with tid in [tid_lo, tid_hi); binary search.
  /// This is how a shard of the parallel executor carves its slice of a
  /// tag run out of the clustered storage.
  RowRange RunTidRange(Symbol name, int32_t tid_lo, int32_t tid_hi) const;

  /// Rows of the tree slice `tree` (from RunForTree) with left in
  /// [left_lo, left_hi). This is the workhorse for descendant/following/
  /// immediate-following.
  RowRange RunLeftRange(RowRange tree, int32_t left_lo, int32_t left_hi) const;

  // --- Per-run secondary orders -------------------------------------------
  /// Rows of the tree slice `tree` with right in [right_lo, right_hi),
  /// returned as a span of row indexes ordered by right (for preceding /
  /// immediate-preceding).
  std::span<const Row> RunRightRange(RowRange tree, int32_t right_lo,
                                     int32_t right_hi) const;

  /// Rows of the tree slice `tree` with pid == p, ordered by left (for the
  /// sibling axes and child-of lookups).
  std::span<const Row> RunPidRange(RowRange tree, int32_t p) const;

  // --- Value index ----------------------------------------------------------
  /// Rows with value == v (attribute rows), ordered by (tid, id); the
  /// {value, tid, id} index of the paper.
  std::span<const Row> ValueRange(Symbol v) const;

  /// Rows with value == v within tree t (the {tid, value, id} index).
  std::span<const Row> ValueRangeForTree(Symbol v, int32_t t) const;

  /// Element rows of tree t whose left is in [left_lo, left_hi), in
  /// pre-order (= non-decreasing left). Used for wildcard steps.
  std::span<const Row> ElementsInLeftRange(int32_t t, int32_t left_lo,
                                           int32_t left_hi) const;

  /// All element rows of tree t in pre-order.
  std::span<const Row> ElementsOfTree(int32_t t) const;

  // --- Row lookup by (tid, id) ----------------------------------------------
  /// The element row with the given id in tree t, or kNoRow. O(1): ids are
  /// dense pre-order positions, so this is the {tid, id, ...} index.
  Row ElementRow(int32_t t, int32_t id) const;

  /// Attribute rows of element (t, id), ordered by name symbol.
  std::span<const Row> AttrRows(int32_t t, int32_t id) const;

  // --- Statistics (for the join-order optimizer) ----------------------------
  /// Number of rows with this tag (0 for unknown); wildcards use row_count().
  size_t NameCardinality(Symbol name) const { return run(name).size(); }
  size_t ValueCardinality(Symbol v) const { return ValueRange(v).size(); }
  size_t element_count() const { return element_count_; }

  // --- Per-tree row statistics (for the morsel planner) ---------------------
  /// Rows (elements + attributes) of tree t. O(1) via the prefix sums.
  uint64_t TreeRowCount(int32_t t) const {
    return tree_row_prefix_[t + 1] - tree_row_prefix_[t];
  }
  /// Total rows of all trees with tid < t (prefix sum over the tid space);
  /// TreeRowsBefore(tree_count()) == row_count().
  uint64_t TreeRowsBefore(int32_t t) const { return tree_row_prefix_[t]; }

  /// Carves the tid space into at most ~`target_ranges` contiguous slices
  /// of roughly equal *row mass* (not tree count): boundaries are binary
  /// searches over the per-tree row prefix sums, so a run of tiny trees is
  /// coalesced into one slice and a giant tree gets a slice of its own.
  /// Every slice except possibly the last holds at least
  /// max(min_rows, ceil(row_count / target_ranges)) rows, and no slice
  /// exceeds that target by more than its final tree — the balance
  /// guarantee skewed corpora need, where the even-by-tid split puts an
  /// unbounded share of the rows into whichever slice holds the longest
  /// sentences. Returns an empty vector for an empty relation.
  std::vector<TidRange> CarveTidRanges(int target_ranges,
                                       uint64_t min_rows = 1) const;

  /// Memory used by columns + indexes, for reports. For a mapped relation
  /// this is the mapped footprint served from the page cache.
  size_t MemoryBytes() const;

  /// True when the columns are served out of a read-only file mapping
  /// (opened via ImageIO) rather than build-owned arrays.
  bool mapped() const { return mapped_; }

  /// Process-wide count of in-memory builds (label + sort) ever run — the
  /// load-path counter tests use to assert that opening a persistent image
  /// performs no labeling or sorting.
  static uint64_t BuildCount();

  /// Process-wide count of trees ever labeled by Build. The O(delta)
  /// append guarantee is stated in this counter: appending N trees onto an
  /// M-tree snapshot advances it by exactly N — by delta + N onto a chain
  /// whose delta is rebuilt — never by anything proportional to M (the
  /// base is never relabeled), and compaction advances it by 0 (Merge
  /// neither labels nor sorts).
  static uint64_t LabeledTreeCount();

 private:
  friend class ImageIO;

  NodeRelation() = default;

  LabelScheme scheme_ = LabelScheme::kLPath;
  // Shared so the corpus (symbols, trees) outlives every reader; built
  // through the borrowing overload this is a non-owning alias.
  std::shared_ptr<const Corpus> corpus_;
  int32_t tree_count_ = 0;
  size_t element_count_ = 0;
  bool mapped_ = false;

  // Owner of every span below: the build's column arena, or the read-only
  // file mapping of a persistent image. Shared (not unique) so a moved
  // relation's spans stay valid — vector buffers and mappings never move.
  std::shared_ptr<const void> backing_;

  // Columns, clustered by (name, tid, left, right, depth, id, pid).
  std::span<const int32_t> tid_, left_, right_, depth_, id_, pid_;
  std::span<const Symbol> name_, value_;
  std::span<const uint8_t> kind_;

  // name symbol -> clustered run. Dense by symbol id.
  std::span<const RowRange> runs_;

  // Per-run permutations, concatenated in run order (same offsets as rows):
  // by (tid, right, left) and by (tid, pid, left).
  std::span<const Row> by_right_;
  std::span<const Row> by_pid_;

  // Global value index: attribute rows ordered by (value, tid, id), with a
  // dense offset table per value symbol.
  std::span<const Row> value_index_;
  std::span<const uint32_t> value_offsets_;  // size = interner.end_id() + 1

  // Per-tree row mass: tree_row_prefix_[t] = rows with tid < t (size
  // tree_count_ + 1). Feeds the morsel planner's balanced carving.
  std::span<const uint64_t> tree_row_prefix_;

  // (tid, id) -> element row: per-tree base into elem_row_.
  std::span<const uint32_t> tree_base_;  // size = tree_count_ + 1
  std::span<const Row> elem_row_;        // size = total element count

  // (tid, id) -> attribute rows: CSR over elements.
  std::span<const uint32_t> attr_offsets_;  // size = element_count_ + 1
  std::span<const Row> attr_rows_;
};

}  // namespace lpath

#endif  // LPATHDB_STORAGE_RELATION_H_
