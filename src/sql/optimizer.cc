#include "sql/optimizer.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <limits>
#include <set>

namespace lpath {
namespace sql {

namespace {

std::atomic<uint64_t> g_prepare_calls{0};

bool IsLocal(const Operand& o) { return !o.is_literal() && !o.is_outer(); }

/// Collects this plan's local variables referenced by an expression,
/// including the correlation (outer) references made by nested subplans.
void CollectVars(const Conjunct& c, std::set<int>* vars) {
  if (IsLocal(c.lhs)) vars->insert(c.lhs.var);
  if (IsLocal(c.rhs)) vars->insert(c.rhs.var);
}

void CollectOuterAsLocal(const ExecPlan& sub, std::set<int>* vars);

void CollectVars(const BoolExpr& e, std::set<int>* vars) {
  switch (e.kind) {
    case BoolExpr::Kind::kAnd:
    case BoolExpr::Kind::kOr:
      CollectVars(*e.lhs, vars);
      CollectVars(*e.rhs, vars);
      return;
    case BoolExpr::Kind::kNot:
      CollectVars(*e.lhs, vars);
      return;
    case BoolExpr::Kind::kCmp:
      CollectVars(e.cmp, vars);
      return;
    case BoolExpr::Kind::kExists:
      CollectOuterAsLocal(*e.sub, vars);
      return;
  }
}

/// The outer references inside `sub` are *our* local variables.
void CollectOuterAsLocal(const ExecPlan& sub, std::set<int>* vars) {
  auto visit_op = [&](const Operand& o) {
    if (o.is_outer()) vars->insert(o.outer_index());
  };
  for (const Conjunct& c : sub.conjuncts) {
    visit_op(c.lhs);
    visit_op(c.rhs);
  }
  std::vector<const BoolExpr*> stack;
  for (const auto& f : sub.filters) stack.push_back(f.get());
  while (!stack.empty()) {
    const BoolExpr* e = stack.back();
    stack.pop_back();
    switch (e->kind) {
      case BoolExpr::Kind::kAnd:
      case BoolExpr::Kind::kOr:
        stack.push_back(e->lhs.get());
        stack.push_back(e->rhs.get());
        break;
      case BoolExpr::Kind::kNot:
        stack.push_back(e->lhs.get());
        break;
      case BoolExpr::Kind::kCmp:
        visit_op(e->cmp.lhs);
        visit_op(e->cmp.rhs);
        break;
      case BoolExpr::Kind::kExists:
        // A nested subplan's outer refs point at *sub*, not at us.
        break;
    }
  }
}

/// Mirror of a comparison operator, for swapping a conjunct's sides.
CmpOp MirrorOp(CmpOp op) {
  switch (op) {
    case CmpOp::kLt: return CmpOp::kGt;
    case CmpOp::kLe: return CmpOp::kGe;
    case CmpOp::kGt: return CmpOp::kLt;
    case CmpOp::kGe: return CmpOp::kLe;
    default: return op;
  }
}

/// Walks the plan's filter trees, applying `cmp_fn` to every comparison
/// and `sub_fn` to every EXISTS subplan (one level; `sub_fn` recurses if
/// it wants the whole nest). The single traversal the literal-resolution
/// and orientation passes share.
Status ForEachFilterNode(ExecPlan* plan,
                         const std::function<Status(Conjunct*)>& cmp_fn,
                         const std::function<Status(ExecPlan*)>& sub_fn) {
  std::vector<BoolExpr*> stack;
  for (auto& f : plan->filters) stack.push_back(f.get());
  while (!stack.empty()) {
    BoolExpr* e = stack.back();
    stack.pop_back();
    switch (e->kind) {
      case BoolExpr::Kind::kAnd:
      case BoolExpr::Kind::kOr:
        stack.push_back(e->lhs.get());
        stack.push_back(e->rhs.get());
        break;
      case BoolExpr::Kind::kNot:
        stack.push_back(e->lhs.get());
        break;
      case BoolExpr::Kind::kCmp:
        LPATH_RETURN_IF_ERROR(cmp_fn(&e->cmp));
        break;
      case BoolExpr::Kind::kExists:
        LPATH_RETURN_IF_ERROR(sub_fn(e->sub.get()));
        break;
    }
  }
  return Status::OK();
}

/// Rewrites string literals to dictionary symbol ids in place; validates
/// that string comparisons use only = / !=. An unknown symbol in an
/// equality empties the plan only when the equality is a top-level
/// conjunct (an AND leg that can never hold) and `always_empty` is
/// non-null. Inside OR/NOT filter trees — and throughout EXISTS subplans,
/// which pass a null flag — the comparison is rewritten to an
/// unsatisfiable sentinel and evaluation decides: `x = 'unknown' OR
/// <other>` must still consider <other>, and an impossible EXISTS simply
/// enumerates nothing.
Status ResolveLiterals(ExecPlan* plan, const Interner& interner,
                       bool* always_empty) {
  // `empty_flag` is the enclosing plan's always_empty for top-level
  // conjuncts and null for comparisons inside filter trees.
  auto resolve = [&interner](Conjunct* c, bool* empty_flag) -> Status {
    for (Operand* o : {&c->lhs, &c->rhs}) {
      if (!o->is_literal() || !o->is_string) continue;
      if (c->op != CmpOp::kEq && c->op != CmpOp::kNe) {
        return Status::NotSupported(
            "string literals support only = and != comparisons");
      }
      const Symbol sym = interner.Lookup(o->str);
      if (sym == kNoSymbol) {
        if (c->op == CmpOp::kEq && empty_flag != nullptr) *empty_flag = true;
        // -1 compares equal to no column (symbols are non-negative), so an
        // unknown = is always false and an unknown != always true — the
        // same answers a known-but-absent word would give. (kNoSymbol
        // itself would falsely match the value column of element rows,
        // which store kNoSymbol for "no value".)
        o->num = -1;
      } else {
        o->num = static_cast<int64_t>(sym);
      }
      o->is_string = false;  // now a resolved symbol id
    }
    return Status::OK();
  };
  for (Conjunct& c : plan->conjuncts) {
    LPATH_RETURN_IF_ERROR(resolve(&c, always_empty));
  }
  return ForEachFilterNode(
      plan, [&resolve](Conjunct* c) { return resolve(c, nullptr); },
      [&interner](ExecPlan* sub) {
        return ResolveLiterals(sub, interner, /*always_empty=*/nullptr);
      });
}

/// Puts the column reference on the lhs of literal-first comparisons
/// (`'VB' = a.name`), mirroring the operator. The fact harvesters and the
/// access-path derivation inspect only var-on-lhs conjuncts, so without
/// this a literal-first spelling silently degrades to a full scan. The SQL
/// parser normalizes as it parses; plans built programmatically may not be.
void NormalizeOrientation(ExecPlan* plan) {
  auto flip = [](Conjunct* c) {
    if (!c->lhs.is_literal() || c->rhs.is_literal()) return;
    std::swap(c->lhs, c->rhs);
    c->op = MirrorOp(c->op);
  };
  for (Conjunct& c : plan->conjuncts) flip(&c);
  (void)ForEachFilterNode(
      plan,
      [&flip](Conjunct* c) {
        flip(c);
        return Status::OK();
      },
      [](ExecPlan* sub) {
        NormalizeOrientation(sub);
        return Status::OK();
      });
}

/// The run a literal `name =` reads: its symbol, or — for a literal no
/// symbol can equal (an unknown string resolves to -1) — a symbol past
/// every run, whose run is empty.
constexpr Symbol kNoRun = std::numeric_limits<Symbol>::max();
Symbol NameRun(int64_t num) {
  return num > 0 && num < kNoRun ? static_cast<Symbol>(num) : kNoRun;
}

/// Static per-variable access facts harvested from literal conjuncts.
struct VarFacts {
  Symbol name = kNoSymbol;
  bool has_name = false;
  Symbol value = kNoSymbol;
  bool has_value = false;
  int kind = -1;
  bool has_pid0 = false;  // pid = 0 (root)
};

std::vector<VarFacts> HarvestFacts(const ExecPlan& plan) {
  std::vector<VarFacts> facts(plan.num_vars);
  for (const Conjunct& c : plan.conjuncts) {
    if (!IsLocal(c.lhs) || !c.rhs.is_literal() || c.op != CmpOp::kEq) continue;
    VarFacts& f = facts[c.lhs.var];
    switch (c.lhs.col) {
      case PlanCol::kName:
        f.name = NameRun(c.rhs.num);
        f.has_name = true;
        break;
      case PlanCol::kValue:
        f.value = static_cast<Symbol>(c.rhs.num);
        f.has_value = true;
        break;
      case PlanCol::kKind:
        f.kind = static_cast<int>(c.rhs.num);
        break;
      case PlanCol::kPid:
        if (c.rhs.num == 0) f.has_pid0 = true;
        break;
      default:
        break;
    }
  }
  return facts;
}

/// Rows a standalone scan of `v`'s best access path yields: the value or
/// tag-run cardinality, the whole relation for wildcards, capped at one
/// row per tree for roots. Also the service's shardability estimate.
double BaseCardinality(const VarFacts& f, const NodeRelation& rel) {
  const double trees = std::max<double>(1.0, rel.tree_count());
  double base;
  if (f.has_value) {
    base = std::max<double>(1.0, rel.ValueCardinality(f.value));
  } else if (f.has_name) {
    base = std::max<double>(1.0, rel.NameCardinality(f.name));
  } else {
    base = std::max<double>(1.0, rel.row_count());
  }
  if (f.has_pid0) base = std::min(base, trees);
  return base;
}

/// Estimated rows produced when binding `v` given the `bound` set (join
/// links give discounts). All heuristic — the point is the *ranking*.
double EstimateCost(const ExecPlan& plan, const std::vector<VarFacts>& facts,
                    const NodeRelation& rel, int v,
                    const std::vector<bool>& bound, bool anything_bound) {
  const VarFacts& f = facts[v];
  const double trees = std::max<double>(1.0, rel.tree_count());
  const double base = BaseCardinality(f, rel);

  if (!anything_bound) return base;

  // Join-link discount: the best access path available through a conjunct
  // against an already-bound variable (or an outer reference, always bound).
  double best = base / trees;  // per-tree scan via the tid link
  for (const Conjunct& c : plan.conjuncts) {
    const Operand* mine = nullptr;
    const Operand* other = nullptr;
    if (IsLocal(c.lhs) && c.lhs.var == v) {
      mine = &c.lhs;
      other = &c.rhs;
    } else if (IsLocal(c.rhs) && c.rhs.var == v) {
      mine = &c.rhs;
      other = &c.lhs;
    } else {
      continue;
    }
    const bool other_ready =
        other->is_literal() || other->is_outer() ||
        (IsLocal(*other) && bound[other->var]);
    if (!other_ready) continue;
    double est = base;
    switch (mine->col) {
      case PlanCol::kId:
        if (c.op == CmpOp::kEq) est = 1.0;
        break;
      case PlanCol::kPid:
        if (c.op == CmpOp::kEq) est = 4.0;
        break;
      case PlanCol::kLeft:
      case PlanCol::kRight:
        if (c.op == CmpOp::kEq) {
          est = 3.0;  // immediate axes: a handful of nodes share an edge
        } else {
          est = std::max(1.0, base / trees / 2.0);  // range scan
        }
        break;
      default:
        continue;
    }
    best = std::min(best, est);
  }
  return best;
}

std::vector<int> ChooseOrder(const ExecPlan& plan,
                             const std::vector<VarFacts>& facts,
                             const NodeRelation& rel,
                             ExecOptions::JoinOrder mode) {
  const int n = plan.num_vars;
  std::vector<int> order;
  order.reserve(n);
  if (mode == ExecOptions::JoinOrder::kLeftToRight) {
    for (int v = 0; v < n; ++v) order.push_back(v);
    return order;
  }
  std::vector<bool> bound(n, false);
  for (int step = 0; step < n; ++step) {
    int best_var = -1;
    double best_cost = std::numeric_limits<double>::infinity();
    for (int v = 0; v < n; ++v) {
      if (bound[v]) continue;
      const double cost = EstimateCost(plan, facts, rel, v, bound, step > 0);
      if (cost < best_cost) {
        best_cost = cost;
        best_var = v;
      }
    }
    bound[best_var] = true;
    order.push_back(best_var);
  }
  return order;
}

/// Position at which a conjunct becomes checkable: the max position of its
/// local variables (0 if it references none).
int ReadyPos(const Conjunct& c, const std::vector<int>& pos_of) {
  int pos = 0;
  if (IsLocal(c.lhs)) pos = std::max(pos, pos_of[c.lhs.var]);
  if (IsLocal(c.rhs)) pos = std::max(pos, pos_of[c.rhs.var]);
  return pos;
}

/// Orients a conjunct so its lhs is the variable bound at `pos` (when that
/// variable participates), which is what the access-path derivation scans.
Conjunct Orient(const Conjunct& c, int var_at_pos) {
  if (IsLocal(c.lhs) && c.lhs.var == var_at_pos) return c;
  if (IsLocal(c.rhs) && c.rhs.var == var_at_pos) {
    Conjunct m;
    m.lhs = c.rhs;
    m.rhs = c.lhs;
    m.op = MirrorOp(c.op);
    return m;
  }
  return c;
}

bool SameOperand(const Operand& a, const Operand& b) {
  return a.var == b.var && a.col == b.col && a.num == b.num &&
         a.is_string == b.is_string && a.str == b.str;
}

bool SameConjunct(const Conjunct& a, const Conjunct& b) {
  return a.op == b.op && SameOperand(a.lhs, b.lhs) && SameOperand(a.rhs, b.rhs);
}

/// tid equivalence classes: variables linked (transitively) by tid = tid
/// conjuncts share a class, named by a representative variable, so a
/// variable's tree can come from *any* bound member of its class.
std::vector<int> TidClasses(const ExecPlan& p) {
  std::vector<int> parent(p.num_vars);
  for (int v = 0; v < p.num_vars; ++v) parent[v] = v;
  auto find = [&parent](int v) {
    while (parent[v] != v) v = parent[v] = parent[parent[v]];
    return v;
  };
  for (const Conjunct& c : p.conjuncts) {
    if (c.op == CmpOp::kEq && c.lhs.col == PlanCol::kTid &&
        c.rhs.col == PlanCol::kTid && IsLocal(c.lhs) && IsLocal(c.rhs)) {
      parent[find(c.lhs.var)] = find(c.rhs.var);
    }
  }
  for (int v = 0; v < p.num_vars; ++v) parent[v] = find(v);
  return parent;
}

KeyRef KeyOf(const Operand& o) { return KeyRef{o.var, o.col, o.num}; }

/// Plans the probe of position `pos`: picks the access path from the
/// conjuncts whose other side is known before the variable binds, records
/// where each key comes from, and leaves as residual every conjunct the
/// path does not enforce.
PlannedProbe PlanProbe(const PreparedPlan& pp,
                       const std::vector<int>& tid_class, int pos) {
  const int v = pp.order[pos];
  const std::vector<Conjunct>& cs = pp.conjuncts_at[pos];
  const Symbol name = pp.var_name[v];
  auto ready = [&](const Conjunct& c) {
    if (!IsLocal(c.lhs) || c.lhs.var != v) return false;
    return c.rhs.is_literal() || c.rhs.is_outer() ||
           pp.pos_of[c.rhs.var] < pos;
  };

  // The first ready equality on each key column, and the ready comparisons
  // on left and right.
  constexpr int kNone = -1;
  int tid_c = kNone, id_c = kNone, pid_c = kNone, value_c = kNone;
  int name_c = kNone;
  bool left = false, right = false, left_eq = false, right_eq = false;
  for (int i = 0; i < static_cast<int>(cs.size()); ++i) {
    const Conjunct& c = cs[i];
    if (!ready(c)) continue;
    const bool eq = c.op == CmpOp::kEq;
    switch (c.lhs.col) {
      case PlanCol::kTid:
        if (eq && tid_c == kNone) tid_c = i;
        break;
      case PlanCol::kId:
        if (eq && id_c == kNone) id_c = i;
        break;
      case PlanCol::kPid:
        if (eq && pid_c == kNone) pid_c = i;
        break;
      case PlanCol::kValue:
        // Element rows hold value kNoSymbol and sit in no value index, so
        // only a literal symbol can key the index.
        if (eq && value_c == kNone && c.rhs.is_literal() &&
            c.rhs.num != kNoSymbol) {
          value_c = i;
        }
        break;
      case PlanCol::kName:
        if (eq && name_c == kNone && c.rhs.is_literal() &&
            name != kNoSymbol && NameRun(c.rhs.num) == name) {
          name_c = i;
        }
        break;
      case PlanCol::kLeft:
        left |= c.op != CmpOp::kNe;
        left_eq |= eq;
        break;
      case PlanCol::kRight:
        right |= c.op != CmpOp::kNe;
        right_eq |= eq;
        break;
      default:
        break;
    }
  }

  PlannedProbe probe;
  // The tree: a direct tid equality, else any tid-linked variable bound
  // earlier, else the class's link to the parent binding.
  bool has_tid = tid_c != kNone;
  if (has_tid) {
    probe.tid = KeyOf(cs[tid_c].rhs);
  } else {
    for (int q = 0; q < pos && !has_tid; ++q) {
      const int u = pp.order[q];
      if (tid_class[u] == tid_class[v]) {
        probe.tid = KeyRef{u, PlanCol::kTid, 0};
        has_tid = true;
      }
    }
    for (const Conjunct& c : pp.plan.conjuncts) {
      if (has_tid) break;
      if (c.op != CmpOp::kEq || c.lhs.col != PlanCol::kTid ||
          c.rhs.col != PlanCol::kTid) {
        continue;
      }
      for (const auto& [local, outer] : {std::pair{&c.lhs, &c.rhs},
                                         std::pair{&c.rhs, &c.lhs}}) {
        if (!has_tid && IsLocal(*local) && outer->is_outer() &&
            tid_class[local->var] == tid_class[v]) {
          probe.tid = KeyOf(*outer);
          has_tid = true;
        }
      }
    }
  }

  // Which conjuncts the chosen path enforces.
  std::vector<bool> enforced(cs.size(), false);
  auto enforce = [&](int i) {
    if (i != kNone) enforced[i] = true;
  };
  auto enforce_col = [&](PlanCol col) {
    for (int i = 0; i < static_cast<int>(cs.size()); ++i) {
      if (ready(cs[i]) && cs[i].lhs.col == col && cs[i].op != CmpOp::kNe) {
        enforced[i] = true;
      }
    }
  };
  // Interval keys: `col`'s own comparisons, plus those of the other column
  // that bound it through left < right (upper bounds on right cap left,
  // lower bounds on left raise right).
  auto add_ranges = [&](PlanCol col) {
    for (const Conjunct& c : cs) {
      if (!ready(c) || c.op == CmpOp::kNe) continue;
      const bool upper = c.op == CmpOp::kEq || c.op == CmpOp::kLe ||
                         c.op == CmpOp::kLt;
      const bool lower = c.op == CmpOp::kEq || c.op == CmpOp::kGe ||
                         c.op == CmpOp::kGt;
      const bool own = c.lhs.col == col;
      const bool caps =
          col == PlanCol::kLeft ? c.lhs.col == PlanCol::kRight && upper
                                : c.lhs.col == PlanCol::kLeft && lower;
      if (own || caps) {
        probe.ranges.push_back(RangeKey{c.lhs.col, c.op, KeyOf(c.rhs)});
      }
    }
  };

  if (id_c != kNone && has_tid) {
    probe.access = Access::kDirect;
    probe.id = KeyOf(cs[id_c].rhs);
    enforce(tid_c);
    enforce(id_c);
  } else if (value_c != kNone) {
    probe.access = has_tid ? Access::kValueInTree : Access::kValue;
    probe.value = KeyOf(cs[value_c].rhs);
    if (has_tid) enforce(tid_c);
    enforce(value_c);
  } else if (pid_c != kNone && has_tid) {
    probe.pid = KeyOf(cs[pid_c].rhs);
    if (name != kNoSymbol) {
      probe.access = Access::kPidInSlice;
      enforce(name_c);
    } else {
      probe.access = Access::kWildcardPid;
    }
    enforce(tid_c);
    enforce(pid_c);
  } else if (name != kNoSymbol) {
    enforce(name_c);
    if (!has_tid) {
      probe.access = Access::kRun;
    } else {
      enforce(tid_c);
      if (!left && !right) {
        probe.access = Access::kSlice;
      } else if (right && (!left || (right_eq && !left_eq))) {
        // Equality first: an equality on right beats a range on left.
        probe.access = Access::kRightRange;
        add_ranges(PlanCol::kRight);
        enforce_col(PlanCol::kRight);
      } else {
        probe.access = Access::kLeftRange;
        add_ranges(PlanCol::kLeft);
        enforce_col(PlanCol::kLeft);
      }
    }
  } else if (has_tid) {
    probe.access = Access::kWildcardTree;
    enforce(tid_c);
    add_ranges(PlanCol::kLeft);
    enforce_col(PlanCol::kLeft);
  }

  for (int i = 0; i < static_cast<int>(cs.size()); ++i) {
    if (!enforced[i]) probe.residual.push_back(cs[i]);
  }
  return probe;
}

Result<std::unique_ptr<PreparedPlan>> PrepareResolved(
    ExecPlan plan, const NodeRelation& rel, const ExecOptions& options,
    bool always_empty) {
  auto pp = std::make_unique<PreparedPlan>();
  pp->always_empty = always_empty;
  pp->plan = std::move(plan);
  const ExecPlan& p = pp->plan;

  const std::vector<VarFacts> facts = HarvestFacts(p);
  pp->var_name.resize(p.num_vars);
  pp->var_kind.resize(p.num_vars);
  for (int v = 0; v < p.num_vars; ++v) {
    pp->var_name[v] = facts[v].name;
    pp->var_kind[v] = facts[v].kind;
  }
  pp->order = ChooseOrder(p, facts, rel, options.join_order);
  pp->root_cardinality =
      pp->order.empty()
          ? 0
          : static_cast<size_t>(BaseCardinality(facts[pp->order[0]], rel));
  pp->pos_of.assign(p.num_vars, 0);
  for (int pos = 0; pos < static_cast<int>(pp->order.size()); ++pos) {
    pp->pos_of[pp->order[pos]] = pos;
  }
  pp->output_pos = p.num_vars > 0 ? pp->pos_of[p.output_var] : 0;

  pp->conjuncts_at.resize(std::max(1, p.num_vars));
  for (const Conjunct& c : p.conjuncts) {
    const int pos = ReadyPos(c, pp->pos_of);
    const Conjunct oriented =
        Orient(c, pp->order.empty() ? -1 : pp->order[pos]);
    std::vector<Conjunct>& at = pp->conjuncts_at[pos];
    // Scoped steps restate their axis' containment conjuncts; one copy of
    // each is enough.
    if (std::none_of(at.begin(), at.end(), [&](const Conjunct& d) {
          return SameConjunct(d, oriented);
        })) {
      at.push_back(oriented);
    }
  }
  const std::vector<int> tid_class = TidClasses(p);
  pp->probes.reserve(pp->order.size());
  for (int pos = 0; pos < static_cast<int>(pp->order.size()); ++pos) {
    pp->probes.push_back(PlanProbe(*pp, tid_class, pos));
  }

  pp->filters_at.resize(std::max(1, p.num_vars));
  for (const auto& f : p.filters) {
    std::set<int> vars;
    CollectVars(*f, &vars);
    int pos = 0;
    for (int v : vars) pos = std::max(pos, pp->pos_of[v]);
    pp->filters_at[pos].push_back(f.get());
  }

  // Prepare subplans recursively; each kExists node records its index.
  std::vector<BoolExpr*> stack;
  for (auto& f : pp->plan.filters) stack.push_back(f.get());
  while (!stack.empty()) {
    BoolExpr* e = stack.back();
    stack.pop_back();
    switch (e->kind) {
      case BoolExpr::Kind::kAnd:
      case BoolExpr::Kind::kOr:
        stack.push_back(e->lhs.get());
        stack.push_back(e->rhs.get());
        break;
      case BoolExpr::Kind::kNot:
        stack.push_back(e->lhs.get());
        break;
      case BoolExpr::Kind::kCmp:
        break;
      case BoolExpr::Kind::kExists: {
        LPATH_ASSIGN_OR_RETURN(
            std::unique_ptr<PreparedPlan> sub,
            PrepareResolved(e->sub->Clone(), rel, options, false));
        e->sub_index = static_cast<int>(pp->subs.size());
        pp->subs.push_back(std::move(sub));
        break;
      }
    }
  }
  return pp;
}

/// Assigns `pp` and its nested subplans consecutive cursor slot ranges
/// starting at `next`; returns the first slot past the nest.
int NumberSlots(PreparedPlan* pp, int next) {
  pp->slot_base = next;
  next += static_cast<int>(pp->order.size());
  for (auto& sub : pp->subs) next = NumberSlots(sub.get(), next);
  pp->slot_count = next - pp->slot_base;
  return next;
}

}  // namespace

Result<std::unique_ptr<PreparedPlan>> Prepare(const ExecPlan& plan,
                                              const NodeRelation& rel,
                                              const ExecOptions& options) {
  g_prepare_calls.fetch_add(1, std::memory_order_relaxed);
  ExecPlan resolved = plan.Clone();
  NormalizeOrientation(&resolved);
  bool always_empty = false;
  LPATH_RETURN_IF_ERROR(
      ResolveLiterals(&resolved, rel.interner(), &always_empty));
  LPATH_ASSIGN_OR_RETURN(
      std::unique_ptr<PreparedPlan> pp,
      PrepareResolved(std::move(resolved), rel, options, always_empty));
  NumberSlots(pp.get(), 0);
  return pp;
}

uint64_t PrepareCallCount() {
  return g_prepare_calls.load(std::memory_order_relaxed);
}

}  // namespace sql
}  // namespace lpath
