#include "sql/executor.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <span>

namespace lpath {
namespace sql {

namespace {

constexpr int32_t kMinInt = std::numeric_limits<int32_t>::min();
constexpr int32_t kMaxInt = std::numeric_limits<int32_t>::max();

/// One plan's binding frame; frames chain to parents for correlation.
/// `bound` points at the plan's own region of the Runner's flat binding
/// array: a subplan is never re-entered while one of its evaluations is
/// active, so one region per plan of the nest is enough.
struct Frame {
  const PreparedPlan* pp;
  Row* bound;
  const Frame* parent = nullptr;
};

/// The last tree slice one (plan, position) slot probed. Every LPath step
/// stays inside one tree, and consecutive outer bindings sit in the same
/// tree or a later one, so most probes repeat or extend the previous one.
struct SliceCursor {
  bool valid = false;
  int32_t tid = 0;
  RowRange slice;
};

/// A key narrowed to an int32 column, or nothing when no int32 value can
/// equal it (a literal outside the column's range gives an empty probe).
bool Int32Key(int64_t key, int32_t* out) {
  if (key < kMinInt || key > kMaxInt) return false;
  *out = static_cast<int32_t>(key);
  return true;
}

/// Half-open intervals of left and right values a probe may yield.
struct Intervals {
  int64_t left_lo = kMinInt, left_hi = int64_t{kMaxInt} + 1;
  int64_t right_lo = kMinInt, right_hi = int64_t{kMaxInt} + 1;
};

/// A [lo, hi) interval clamped to int32 probe keys. Exact: rows satisfy
/// 0 < left < right < INT32_MAX (see storage/relation.h), so no row lies
/// outside [kMinInt, kMaxInt).
bool Clamp(int64_t lo, int64_t hi, int32_t* lo32, int32_t* hi32) {
  lo = std::max<int64_t>(lo, kMinInt);
  hi = std::min<int64_t>(hi, kMaxInt);
  if (lo >= hi) return false;
  *lo32 = static_cast<int32_t>(lo);
  *hi32 = static_cast<int32_t>(hi);
  return true;
}

class Runner {
 public:
  Runner(const NodeRelation& rel, const ExecOptions& options, ExecStats* stats)
      : rel_(rel), options_(options), stats_(stats) {}

  /// Runs `pp` with the root plan's first variable enumerating only rows
  /// of trees in [tid_lo, tid_hi). Subplan frames are unaffected: they chase
  /// correlations wherever the bound rows point. A vacuous range leaves
  /// root_pp_ null so serial execution keeps the unclamped fast paths.
  Status RunShard(const PreparedPlan& pp, int32_t tid_lo, int32_t tid_hi,
                  QueryResult* out) {
    if (pp.always_empty) return Status::OK();
    root_pp_ = (tid_lo > 0 || tid_hi < kMaxInt) ? &pp : nullptr;
    shard_lo_ = tid_lo;
    shard_hi_ = tid_hi;
    cursors_.assign(pp.slot_count, SliceCursor{});
    bound_.assign(pp.slot_count, kNoRow);
    Frame frame{&pp, bound_.data() + pp.slot_base, nullptr};
    Extend(frame, 0, out);
    // Hits arrive mostly in (tid, id) order with repeats adjacent, so this
    // usually skips the sort and dedups in one pass.
    out->Normalize();
    return Status::OK();
  }

 private:
  int64_t ColValue(Row r, PlanCol col) const {
    switch (col) {
      case PlanCol::kTid: return rel_.tid(r);
      case PlanCol::kLeft: return rel_.left(r);
      case PlanCol::kRight: return rel_.right(r);
      case PlanCol::kDepth: return rel_.depth(r);
      case PlanCol::kId: return rel_.id(r);
      case PlanCol::kPid: return rel_.pid(r);
      case PlanCol::kName: return rel_.name(r);
      case PlanCol::kValue: return rel_.value(r);
      case PlanCol::kKind: return static_cast<int64_t>(rel_.kind(r));
    }
    return 0;
  }

  /// Value of an operand under a frame (literal / local / outer).
  bool OperandValue(const Frame& f, const Operand& o, int64_t* out) const {
    if (o.is_literal()) {
      *out = o.num;
      return true;
    }
    Row r;
    if (o.is_outer()) {
      if (f.parent == nullptr) return false;
      r = f.parent->bound[o.outer_index()];
    } else {
      r = f.bound[o.var];
    }
    if (r == kNoRow) return false;
    *out = ColValue(r, o.col);
    return true;
  }

  /// A planned key: its source is bound by construction.
  int64_t Key(const Frame& f, const KeyRef& k) const {
    if (k.var == Operand::kLiteral) return k.num;
    const Row r = k.var >= Operand::kOuterVarBase
                      ? f.parent->bound[k.var - Operand::kOuterVarBase]
                      : f.bound[k.var];
    return ColValue(r, k.col);
  }

  static bool Compare(int64_t a, CmpOp op, int64_t b) {
    switch (op) {
      case CmpOp::kEq: return a == b;
      case CmpOp::kNe: return a != b;
      case CmpOp::kLt: return a < b;
      case CmpOp::kLe: return a <= b;
      case CmpOp::kGt: return a > b;
      case CmpOp::kGe: return a >= b;
    }
    return false;
  }

  bool EvalConjunct(const Frame& f, const Conjunct& c) const {
    int64_t a, b;
    if (!OperandValue(f, c.lhs, &a) || !OperandValue(f, c.rhs, &b)) {
      return false;  // unbound operand: cannot hold
    }
    return Compare(a, c.op, b);
  }

  bool EvalBool(Frame& f, const BoolExpr& e) {
    switch (e.kind) {
      case BoolExpr::Kind::kAnd:
        return EvalBool(f, *e.lhs) && EvalBool(f, *e.rhs);
      case BoolExpr::Kind::kOr:
        return EvalBool(f, *e.lhs) || EvalBool(f, *e.rhs);
      case BoolExpr::Kind::kNot:
        return !EvalBool(f, *e.lhs);
      case BoolExpr::Kind::kCmp:
        return EvalConjunct(f, e.cmp);
      case BoolExpr::Kind::kExists:
        return EvalExists(f, e);
    }
    return false;
  }

  /// Subplans never carry always_empty: their unknown literals resolve to
  /// the unsatisfiable sentinel, so an impossible EXISTS enumerates
  /// nothing and evaluates to false here.
  bool EvalExists(Frame& f, const BoolExpr& e) {
    const PreparedPlan& sub = *f.pp->subs[e.sub_index];
    if (stats_ != nullptr) stats_->subqueries += 1;
    Frame sub_frame{&sub, bound_.data() + sub.slot_base, &f};
    return Extend(sub_frame, 0, /*out=*/nullptr);
  }

  /// Binds the variable at `pos` and recurses. Returns true if at least one
  /// complete binding was reached below this point. `out == nullptr` means
  /// existence mode (stop at the first complete binding).
  bool Extend(Frame& f, int pos, QueryResult* out) {
    const PreparedPlan& pp = *f.pp;
    if (pos == static_cast<int>(pp.order.size())) {
      if (out != nullptr) {
        const Row r = f.bound[pp.plan.output_var];
        const Hit hit{rel_.tid(r), rel_.id(r)};
        if (out->hits.empty() || out->hits.back() != hit) {
          out->hits.push_back(hit);
        }
      }
      return true;
    }
    const int v = pp.order[pos];
    const PlannedProbe& probe = pp.probes[pos];
    bool found_any = false;

    auto try_candidate = [&](Row cand) -> bool {
      // returns true when the caller should stop enumerating
      if (stats_ != nullptr) stats_->candidates += 1;
      f.bound[v] = cand;
      bool ok = true;
      for (const Conjunct& c : probe.residual) {
        if (!EvalConjunct(f, c)) {
          ok = false;
          break;
        }
      }
      if (ok) {
        for (const BoolExpr* filter : pp.filters_at[pos]) {
          if (!EvalBool(f, *filter)) {
            ok = false;
            break;
          }
        }
      }
      if (ok) {
        if (stats_ != nullptr) stats_->bindings += 1;
        const bool sub_found = Extend(f, pos + 1, out);
        found_any |= sub_found;
        if (sub_found) {
          if (out == nullptr) return true;  // existence: done
          if (options_.distinct_early_exit && pos > pp.output_pos) {
            return true;  // deeper bindings cannot change DISTINCT output
          }
        }
      }
      f.bound[v] = kNoRow;
      return false;
    };

    ForEachCandidate(f, pos, v, probe, try_candidate);
    f.bound[v] = kNoRow;
    return found_any;
  }

  /// The intervals the probe's range keys allow, tightened through
  /// left < right: an upper bound on right caps left, and a lower bound on
  /// left raises right. Keys are clamped to just outside int32 first, which
  /// keeps every comparison with an int32 column and the arithmetic exact.
  Intervals DeriveIntervals(const Frame& f, const PlannedProbe& probe) const {
    constexpr int64_t kBelow = int64_t{kMinInt} - 1;
    constexpr int64_t kAbove = int64_t{kMaxInt} + 1;
    Intervals iv;
    for (const RangeKey& rk : probe.ranges) {
      const int64_t k = std::clamp(Key(f, rk.key), kBelow, kAbove);
      int64_t& lo = rk.col == PlanCol::kLeft ? iv.left_lo : iv.right_lo;
      int64_t& hi = rk.col == PlanCol::kLeft ? iv.left_hi : iv.right_hi;
      switch (rk.op) {
        case CmpOp::kEq:
          lo = std::max(lo, k);
          hi = std::min(hi, k + 1);
          break;
        case CmpOp::kGe: lo = std::max(lo, k); break;
        case CmpOp::kGt: lo = std::max(lo, k + 1); break;
        case CmpOp::kLe: hi = std::min(hi, k + 1); break;
        case CmpOp::kLt: hi = std::min(hi, k); break;
        case CmpOp::kNe: break;
      }
    }
    iv.left_hi = std::min(iv.left_hi, iv.right_hi - 1);
    iv.right_lo = std::max(iv.right_lo, iv.left_lo + 1);
    return iv;
  }

  /// First row in [from, end) whose tid fails `before`, which holds on a
  /// prefix of the range: exponential probing from `from`, then a binary
  /// search inside the last step — O(log distance), never a linear walk.
  template <typename Pred>
  Row Gallop(Row from, Row end, Pred before) const {
    if (from >= end || !before(rel_.tid(from))) return from;
    uint64_t lo = from;  // before(tid(lo)) holds
    uint64_t step = 1;
    while (lo + step < end && before(rel_.tid(static_cast<Row>(lo + step)))) {
      lo += step;
      step *= 2;
    }
    uint64_t hi = std::min<uint64_t>(lo + step, end);
    ++lo;
    while (lo < hi) {
      const uint64_t mid = lo + (hi - lo) / 2;
      if (before(rel_.tid(static_cast<Row>(mid)))) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return static_cast<Row>(lo);
  }

  /// The slice of run(name) holding tree t, through the cursor of `slot`:
  /// the cached slice when t repeats, a forward gallop on the tid column
  /// when t moved ahead, and a fresh binary search otherwise.
  RowRange TreeSlice(int slot, Symbol name, int32_t t) {
    SliceCursor& c = cursors_[slot];
    if (c.valid && t == c.tid) return c.slice;
    if (c.valid && t > c.tid) {
      const Row end = rel_.run(name).end;
      const Row lo = Gallop(c.slice.end, end, [t](int32_t x) { return x < t; });
      const Row hi = Gallop(lo, end, [t](int32_t x) { return x <= t; });
      c.slice = RowRange{lo, hi};
    } else {
      c.slice = rel_.RunForTree(name, t);
    }
    c.valid = true;
    c.tid = t;
    return c.slice;
  }

  /// Feeds `fn` element row `r` (unless the variable wants attributes
  /// only) and its attribute rows (unless it wants elements only), which
  /// share its label. Returns true when `fn` asked to stop.
  template <typename Fn>
  bool EmitWithAttrs(int32_t tid, Row r, int kind, Fn& fn) {
    if (kind != 1 && fn(r)) return true;
    if (kind != 0) {
      for (Row a : rel_.AttrRows(tid, rel_.id(r))) {
        if (fn(a)) return true;
      }
    }
    return false;
  }

  /// Enumerates the candidates of position `pos` through its planned probe.
  template <typename Fn>
  void ForEachCandidate(const Frame& f, int pos, int v,
                        const PlannedProbe& probe, Fn&& fn) {
    const PreparedPlan& pp = *f.pp;
    const Symbol name = pp.var_name[v];
    const int kind = pp.var_kind[v];

    // Shard constraint: only the root plan's first variable is clamped to
    // the shard's tid slice; every path below inherits the restriction
    // through the tid links. tids are non-negative, so the unsharded
    // [0, kMaxInt) defaults are vacuous.
    const bool sharded = &pp == root_pp_ && pos == 0;
    const int32_t tid_lo = sharded ? shard_lo_ : 0;
    const int32_t tid_hi = sharded ? shard_hi_ : kMaxInt;

    int32_t tid = 0;
    switch (probe.access) {
      case Access::kValue:
      case Access::kRun:
      case Access::kFullScan:
        break;
      default:
        if (!Int32Key(Key(f, probe.tid), &tid) || tid < tid_lo ||
            tid >= tid_hi) {
          return;
        }
    }

    switch (probe.access) {
      case Access::kDirect: {
        int32_t id;
        if (!Int32Key(Key(f, probe.id), &id)) return;
        if (kind != 0) {
          for (Row r : rel_.AttrRows(tid, id)) {
            if (fn(r)) return;
          }
        }
        if (kind != 1) {
          const Row r = rel_.ElementRow(tid, id);
          if (r != kNoRow && fn(r)) return;
        }
        return;
      }
      case Access::kValue:
      case Access::kValueInTree: {
        const int64_t key = Key(f, probe.value);
        if (key <= 0 || key > std::numeric_limits<Symbol>::max()) return;
        const Symbol value = static_cast<Symbol>(key);
        if (probe.access == Access::kValueInTree) {
          for (Row r : rel_.ValueRangeForTree(value, tid)) {
            if (fn(r)) return;
          }
          return;
        }
        // The global index is ordered by (tid, id), so a shard
        // binary-searches to its first tree and stops at its last.
        auto rows = rel_.ValueRange(value);
        auto it = rows.begin();
        if (sharded) {
          it = std::lower_bound(rows.begin(), rows.end(), tid_lo,
                                [this](Row r, int32_t t) {
                                  return rel_.tid(r) < t;
                                });
        }
        for (; it != rows.end(); ++it) {
          if (sharded && rel_.tid(*it) >= tid_hi) break;
          if (fn(*it)) return;
        }
        return;
      }
      case Access::kPidInSlice: {
        int32_t pid;
        if (!Int32Key(Key(f, probe.pid), &pid)) return;
        const RowRange tree = TreeSlice(pp.slot_base + pos, name, tid);
        for (Row r : rel_.RunPidRange(tree, pid)) {
          if (fn(r)) return;
        }
        return;
      }
      case Access::kWildcardPid: {
        int32_t pid;
        if (!Int32Key(Key(f, probe.pid), &pid)) return;
        if (pid == 0) {  // the root, id 1, is the only row with pid 0
          const Row root = rel_.ElementRow(tid, 1);
          if (root != kNoRow) EmitWithAttrs(tid, root, kind, fn);
          return;
        }
        // Children lie inside their parent's interval.
        const Row parent = rel_.ElementRow(tid, pid);
        if (parent == kNoRow) return;
        for (Row r : rel_.ElementsInLeftRange(tid, rel_.left(parent),
                                              rel_.right(parent))) {
          if (rel_.pid(r) == pid && EmitWithAttrs(tid, r, kind, fn)) return;
        }
        return;
      }
      case Access::kLeftRange:
      case Access::kRightRange:
      case Access::kSlice: {
        // The containment / sibling-order / edge-alignment workhorses: a
        // contiguous clustered slice, or a by-right row list.
        const RowRange tree = TreeSlice(pp.slot_base + pos, name, tid);
        RowRange range = tree;
        if (probe.access != Access::kSlice) {
          const Intervals iv = DeriveIntervals(f, probe);
          int32_t lo, hi;
          if (probe.access == Access::kRightRange) {
            if (!Clamp(iv.right_lo, iv.right_hi, &lo, &hi)) return;
            for (Row r : rel_.RunRightRange(tree, lo, hi)) {
              if (fn(r)) return;
            }
            return;
          }
          if (!Clamp(iv.left_lo, iv.left_hi, &lo, &hi)) return;
          range = rel_.RunLeftRange(tree, lo, hi);
        }
        for (Row r = range.begin; r < range.end; ++r) {
          if (fn(r)) return;
        }
        return;
      }
      case Access::kRun: {
        const RowRange range = sharded ? rel_.RunTidRange(name, tid_lo, tid_hi)
                                       : rel_.run(name);
        for (Row r = range.begin; r < range.end; ++r) {
          if (fn(r)) return;
        }
        return;
      }
      case Access::kWildcardTree: {
        // Elements interleave with their attribute rows.
        std::span<const Row> rows = rel_.ElementsOfTree(tid);
        if (!probe.ranges.empty()) {
          const Intervals iv = DeriveIntervals(f, probe);
          int32_t lo, hi;
          if (!Clamp(iv.left_lo, iv.left_hi, &lo, &hi)) return;
          rows = rel_.ElementsInLeftRange(tid, lo, hi);
        }
        for (Row r : rows) {
          if (EmitWithAttrs(tid, r, kind, fn)) return;
        }
        return;
      }
      case Access::kFullScan:
        for (Row r = 0; r < static_cast<Row>(rel_.row_count()); ++r) {
          if (sharded && (rel_.tid(r) < tid_lo || rel_.tid(r) >= tid_hi)) {
            continue;
          }
          if (kind >= 0 && static_cast<int>(rel_.kind(r)) != kind) continue;
          if (fn(r)) return;
        }
        return;
    }
  }

  const NodeRelation& rel_;
  const ExecOptions& options_;
  ExecStats* stats_;
  const PreparedPlan* root_pp_ = nullptr;
  int32_t shard_lo_ = 0;
  int32_t shard_hi_ = kMaxInt;
  // One cursor and one binding per (plan, position) slot of the prepared
  // nest; EXISTS re-entries reuse their subplan's slots.
  std::vector<SliceCursor> cursors_;
  std::vector<Row> bound_;
};

}  // namespace

Result<QueryResult> PlanExecutor::Execute(const ExecPlan& plan,
                                          ExecStats* stats) const {
  LPATH_ASSIGN_OR_RETURN(std::unique_ptr<PreparedPlan> pp,
                         Prepare(plan, rel_, options_));
  return ExecutePrepared(*pp, stats);
}

Result<QueryResult> PlanExecutor::ExecutePrepared(const PreparedPlan& pp,
                                                  ExecStats* stats) const {
  return ExecuteShard(pp, 0, kMaxInt, stats);
}

Result<QueryResult> PlanExecutor::ExecuteShard(const PreparedPlan& pp,
                                               int32_t tid_lo, int32_t tid_hi,
                                               ExecStats* stats) const {
  if (stats != nullptr) stats->shards += 1;
  Runner runner(rel_, options_, stats);
  QueryResult out;
  LPATH_RETURN_IF_ERROR(runner.RunShard(pp, tid_lo, tid_hi, &out));
  return out;
}

}  // namespace sql
}  // namespace lpath
