#include "sql/fingerprint.h"

#include <string>
#include <unordered_map>

namespace lpath {
namespace sql {

namespace {

/// splitmix64-style combine: absorbs one word into the running hash.
uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 12) + (h >> 4);
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

/// FNV-1a over the bytes of an unresolved string literal.
uint64_t HashBytes(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Mirror of a comparison operator, for canonicalizing literal-first
/// conjuncts without mutating the plan (optimizer.cc keeps its own copy;
/// the orientation contract is shared, the code deliberately local).
CmpOp Mirror(CmpOp op) {
  switch (op) {
    case CmpOp::kLt: return CmpOp::kGt;
    case CmpOp::kLe: return CmpOp::kGe;
    case CmpOp::kGt: return CmpOp::kLt;
    case CmpOp::kGe: return CmpOp::kLe;
    default: return op;
  }
}

/// Operand reference classes (hashed tags; values are arbitrary but fixed —
/// changing them invalidates persisted fingerprints, of which there are
/// none today).
enum : uint64_t {
  kTagLiteralNum = 0x11,
  kTagLiteralStr = 0x12,
  kTagLocalVar = 0x21,
  kTagEscapedOuter = 0x22,
  kTagNestedOuter = 0x23,
};

/// Shared traversal state: the alpha map renames outer references that
/// escape the hashed root (depth 0) by order of first appearance.
struct Hasher {
  uint64_t h = 0x5ca1ab1e0ddba11ULL;
  std::unordered_map<int, int> alpha;

  void Word(uint64_t v) { h = Mix(h, v); }

  void Op(const Operand& o, int depth) {
    if (o.is_literal()) {
      // `col` carries no meaning for literals; only the payload hashes.
      if (o.is_string) {
        Word(kTagLiteralStr);
        Word(HashBytes(o.str));
      } else {
        Word(kTagLiteralNum);
        Word(static_cast<uint64_t>(o.num));
      }
      return;
    }
    if (o.is_outer() && depth == 0) {
      const auto [it, inserted] =
          alpha.emplace(o.outer_index(), static_cast<int>(alpha.size()));
      (void)inserted;
      Word(kTagEscapedOuter);
      Word(static_cast<uint64_t>(it->second));
    } else if (o.is_outer()) {
      Word(kTagNestedOuter);
      Word(static_cast<uint64_t>(o.outer_index()));
    } else {
      Word(kTagLocalVar);
      Word(static_cast<uint64_t>(o.var));
    }
    Word(static_cast<uint64_t>(o.col));
  }

  void Cmp(const Conjunct& c, int depth) {
    // Canonical orientation: column-first, mirroring the operator.
    if (c.lhs.is_literal() && !c.rhs.is_literal()) {
      Op(c.rhs, depth);
      Word(static_cast<uint64_t>(Mirror(c.op)));
      Op(c.lhs, depth);
      return;
    }
    Op(c.lhs, depth);
    Word(static_cast<uint64_t>(c.op));
    Op(c.rhs, depth);
  }

  void Filter(const BoolExpr& e, int depth) {
    Word(static_cast<uint64_t>(e.kind) + 0x40);
    switch (e.kind) {
      case BoolExpr::Kind::kAnd:
      case BoolExpr::Kind::kOr:
        Filter(*e.lhs, depth);
        Filter(*e.rhs, depth);
        return;
      case BoolExpr::Kind::kNot:
        Filter(*e.lhs, depth);
        return;
      case BoolExpr::Kind::kCmp:
        Cmp(e.cmp, depth);
        return;
      case BoolExpr::Kind::kExists:
        // The subplan's own conjuncts sit one level deeper: its outer
        // references target *this* plan's variables, which are structural
        // here, not escaping.
        Plan(*e.sub, depth + 1);
        return;
    }
  }

  void Plan(const ExecPlan& p, int depth) {
    Word(static_cast<uint64_t>(p.num_vars));
    Word(static_cast<uint64_t>(p.output_var));
    Word(p.conjuncts.size());
    for (const Conjunct& c : p.conjuncts) Cmp(c, depth);
    Word(p.filters.size());
    for (const auto& f : p.filters) Filter(*f, depth);
  }
};

}  // namespace

uint64_t PlanFingerprint(const ExecPlan& plan) {
  Hasher hasher;
  hasher.Plan(plan, /*depth=*/0);
  return hasher.h;
}

}  // namespace sql
}  // namespace lpath
