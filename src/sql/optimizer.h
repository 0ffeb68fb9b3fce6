// Plan preparation: the statistics-driven join-order optimizer.
//
// Prepare() turns an ExecPlan into a PreparedPlan the executor can run:
//   1. comparisons are oriented column-first and string literals resolved
//      against the relation's dictionary (an unknown tag/word in a
//      top-level equality short-circuits the plan to empty; inside OR/NOT
//      filter trees it resolves to an unsatisfiable sentinel instead);
//   2. a variable evaluation order is chosen — greedy by estimated
//      cardinality (tag-run and value-index sizes, exactly the statistics
//      the paper's §5.2 discussion turns on), or left-to-right for the
//      ablation benchmark;
//   3. conjuncts are oriented (later-bound variable on the left) and
//      scheduled at the position where they first become checkable;
//   4. each position's index probe is planned: its access path, the source
//      of every key (a literal, an earlier variable, the parent binding or
//      a tid-linked variable), and the conjuncts it enforces — the rest
//      stay residual and are checked per candidate;
//   5. EXISTS subplans are prepared recursively, and every (plan,
//      position) of the nest gets a dense executor slot.

#ifndef LPATHDB_SQL_OPTIMIZER_H_
#define LPATHDB_SQL_OPTIMIZER_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "plan/exec_plan.h"
#include "storage/relation.h"

namespace lpath {
namespace sql {

/// Executor tuning knobs (ablation benchmarks flip these).
struct ExecOptions {
  enum class JoinOrder {
    kGreedy,       ///< cheapest-first by estimated cardinality (default)
    kLeftToRight,  ///< plan order, i.e. query-step order
  };
  JoinOrder join_order = JoinOrder::kGreedy;

  /// Once a complete binding extends a given output row, stop exploring
  /// alternatives that cannot change the DISTINCT result. Disabling this
  /// reproduces the "materialize all intermediate results, deduplicate at
  /// the end" behaviour of a naive RDBMS plan.
  bool distinct_early_exit = true;
};

/// Where a probe reads one key from: a literal, a column of a variable
/// bound at an earlier position, or (subplans) a column of the parent
/// plan's binding. `var` uses Operand's encoding.
struct KeyRef {
  int var = Operand::kLiteral;
  PlanCol col = PlanCol::kTid;
  int64_t num = 0;  ///< the literal (var == Operand::kLiteral)
};

/// The index access path of one position's probe.
enum class Access : uint8_t {
  kDirect,        ///< (tid, id): the element row and its attribute rows
  kValue,         ///< value index over the whole relation
  kValueInTree,   ///< value index within one tree
  kPidInSlice,    ///< pid within the tree slice of the name's run
  kWildcardPid,   ///< any-name rows of a tree whose pid is the key (a
                  ///< key of 0 reads the root)
  kLeftRange,     ///< left range of the tree slice
  kRightRange,    ///< right range of the tree slice, in by-right order
  kSlice,         ///< the whole tree slice
  kRun,           ///< the whole name run
  kWildcardTree,  ///< the rows of one tree, within a left range if `ranges`
  kFullScan,      ///< every row of the relation
};

/// A left or right comparison folded into a probe's intervals.
struct RangeKey {
  PlanCol col = PlanCol::kLeft;  ///< kLeft or kRight
  CmpOp op = CmpOp::kEq;         ///< never kNe
  KeyRef key;
};

/// The probe of one position, decided once by Prepare: the join order
/// fixes which variables are bound there, so the access path, the source
/// of every key, and the conjuncts the probe already enforces are static.
struct PlannedProbe {
  Access access = Access::kFullScan;
  /// The keys `access` reads; unused ones stay default.
  KeyRef tid, id, pid, value;
  /// Comparisons bounding the probe's interval (range and wildcard-tree
  /// paths). Rows satisfy left < right, so an upper bound on right caps
  /// left and a lower bound on left raises right; both kinds appear here.
  std::vector<RangeKey> ranges;
  /// The position's conjuncts the probe does not enforce, checked on every
  /// candidate.
  std::vector<Conjunct> residual;
};

/// A plan ready for execution against one NodeRelation. Owns a rewritten
/// copy of the plan, so it must not outlive the relation (symbols) but is
/// independent of the original ExecPlan.
struct PreparedPlan {
  ExecPlan plan;  // literals resolved to symbol ids (numbers)

  std::vector<int> order;   ///< position -> variable
  std::vector<int> pos_of;  ///< variable -> position
  int output_pos = 0;

  /// Per variable: the symbol of its literal `name =` conjunct (its tag
  /// run), or kNoSymbol for a wildcard; and its literal `kind =` value, or
  /// -1 when unconstrained.
  std::vector<Symbol> var_name;
  std::vector<int> var_kind;

  /// Executor slots: position p (and variable p) of this plan owns slot
  /// `slot_base + p`. Prepare numbers the positions of every plan in the
  /// EXISTS nest densely, so the root's `slot_count` (this plan's slots
  /// plus all nested ones) sizes the flat per-run cursor and binding
  /// arrays.
  int slot_base = 0;
  int slot_count = 0;

  /// Conjuncts checkable once the variable at position p is bound
  /// (oriented: lhs.var is that variable whenever a local var is involved;
  /// exact duplicates dropped).
  std::vector<std::vector<Conjunct>> conjuncts_at;

  /// Per position: the planned probe, whose residual conjuncts are the
  /// part of conjuncts_at[p] it does not enforce.
  std::vector<PlannedProbe> probes;

  /// Filters evaluable once position p is bound.
  std::vector<std::vector<const BoolExpr*>> filters_at;

  /// Prepared subplans, indexed by the kExists node's `sub_index`.
  std::vector<std::unique_ptr<PreparedPlan>> subs;

  /// True if some conjunct can never hold (e.g. name = unknown tag).
  bool always_empty = false;

  /// The optimizer's cardinality estimate for the root (first-bound)
  /// variable — the number of rows a shard partition would split. The
  /// service's adaptive heuristic runs the query serially when this is
  /// small (fan-out overhead would dominate).
  size_t root_cardinality = 0;
};

/// Prepares `plan` for execution against `rel`.
Result<std::unique_ptr<PreparedPlan>> Prepare(const ExecPlan& plan,
                                              const NodeRelation& rel,
                                              const ExecOptions& options);

/// Process-wide count of top-level Prepare() calls — the witness that a
/// plan cache hit skipped the prepare.
uint64_t PrepareCallCount();

}  // namespace sql
}  // namespace lpath

#endif  // LPATHDB_SQL_OPTIMIZER_H_
