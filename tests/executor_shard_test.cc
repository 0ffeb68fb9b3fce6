// Shard execution tests: ExecuteShard over any partition of the tid space
// must merge to exactly ExecutePrepared's result (differential over the
// fuzz corpus/query generator), shards must respect their boundaries, and
// concurrent shard execution over one shared PreparedPlan must be free of
// data races (this suite runs under ThreadSanitizer in CI). A hand-written
// plan whose inner variable's tree moves backwards between probes covers
// the executor's slice-cursor fallback, and hand-written plans over every
// planned access path are checked against a brute-force nested loop.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "lpath/engines.h"
#include "sql/executor.h"
#include "sql/optimizer.h"
#include "sql/parser.h"
#include "test_util.h"

namespace lpath {
namespace {

using testing::QueryGen;

/// Merges per-shard results over an even partition into `shards` slices.
QueryResult MergeShards(const sql::PlanExecutor& executor,
                        const sql::PreparedPlan& pp, int32_t trees,
                        int shards, sql::ExecStats* stats = nullptr) {
  QueryResult merged;
  for (int i = 0; i < shards; ++i) {
    const int32_t lo = static_cast<int32_t>(int64_t{trees} * i / shards);
    const int32_t hi = static_cast<int32_t>(int64_t{trees} * (i + 1) / shards);
    Result<QueryResult> part = executor.ExecuteShard(pp, lo, hi, stats);
    EXPECT_TRUE(part.ok()) << part.status();
    if (!part.ok()) return merged;
    merged.hits.insert(merged.hits.end(), part->hits.begin(),
                       part->hits.end());
  }
  merged.Normalize();
  return merged;
}

class ShardDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShardDifferentialTest, ShardsMergeToSerialResult) {
  Rng rng(GetParam() * 104729 + 13);
  Corpus corpus = testing::RandomCorpus(GetParam() * 97 + 3, /*trees=*/17,
                                        /*max_nodes=*/25);
  Result<NodeRelation> rel = NodeRelation::Build(corpus);
  ASSERT_TRUE(rel.ok());
  LPathEngine engine(rel.value());
  sql::PlanExecutor executor(rel.value());
  const int32_t trees = rel.value().tree_count();

  QueryGen gen(&rng);
  for (int i = 0; i < 120; ++i) {
    const std::string q = gen.Query();
    Result<ExecPlan> plan = engine.Translate(q);
    ASSERT_TRUE(plan.ok()) << q << " -> " << plan.status();
    Result<std::unique_ptr<sql::PreparedPlan>> pp =
        sql::Prepare(plan.value(), rel.value(), {});
    ASSERT_TRUE(pp.ok()) << q << " -> " << pp.status();

    Result<QueryResult> serial = executor.ExecutePrepared(*pp.value());
    ASSERT_TRUE(serial.ok()) << q << " -> " << serial.status();
    for (int shards : {2, 4, 7}) {
      const QueryResult merged =
          MergeShards(executor, *pp.value(), trees, shards);
      ASSERT_EQ(merged, serial.value())
          << "query: " << q << "\nshards: " << shards
          << "\nseed: " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardDifferentialTest,
                         ::testing::Range<uint64_t>(1, 5));

class ShardBoundaryTest : public ::testing::Test {
 protected:
  ShardBoundaryTest() : corpus_(testing::RandomCorpus(42, 9, 20)) {
    Result<NodeRelation> rel = NodeRelation::Build(corpus_);
    EXPECT_TRUE(rel.ok());
    rel_ = std::make_unique<NodeRelation>(std::move(rel).value());
  }

  std::unique_ptr<sql::PreparedPlan> PrepareQuery(const std::string& q) {
    LPathEngine engine(*rel_);
    Result<ExecPlan> plan = engine.Translate(q);
    EXPECT_TRUE(plan.ok()) << plan.status();
    Result<std::unique_ptr<sql::PreparedPlan>> pp =
        sql::Prepare(plan.value(), *rel_, {});
    EXPECT_TRUE(pp.ok()) << pp.status();
    return std::move(pp).value();
  }

  Corpus corpus_;
  std::unique_ptr<NodeRelation> rel_;
};

TEST_F(ShardBoundaryTest, EmptyAndOutOfRangeShardsYieldNothing) {
  auto pp = PrepareQuery("//NP");
  sql::PlanExecutor executor(*rel_);
  EXPECT_EQ(executor.ExecuteShard(*pp, 3, 3)->count(), 0u);
  const int32_t trees = rel_->tree_count();
  EXPECT_EQ(executor.ExecuteShard(*pp, trees, 2 * trees)->count(), 0u);
}

TEST_F(ShardBoundaryTest, FullRangeShardEqualsSerial) {
  auto pp = PrepareQuery("//NP[//N or @lex=zzzunknown]");
  sql::PlanExecutor executor(*rel_);
  Result<QueryResult> serial = executor.ExecutePrepared(*pp);
  Result<QueryResult> full =
      executor.ExecuteShard(*pp, 0, rel_->tree_count());
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.value(), serial.value());
}

TEST_F(ShardBoundaryTest, ShardHitsStayInsideTheShard) {
  auto pp = PrepareQuery("//_");
  sql::PlanExecutor executor(*rel_);
  Result<QueryResult> part = executor.ExecuteShard(*pp, 2, 5);
  ASSERT_TRUE(part.ok());
  ASSERT_GT(part->count(), 0u);
  for (const Hit& h : part->hits) {
    EXPECT_GE(h.tid, 2);
    EXPECT_LT(h.tid, 5);
  }
}

// S and NP joined on depth only: NP's tree is not tied to S's, so for every
// S binding the NP scan restarts at tid 0 and the third variable, probed
// through the tree slice of its NP, sees its tree move backwards.
enum class Inner { kChild, kDescendant, kPreceding };

const char* InnerSql(Inner inner) {
  switch (inner) {
    case Inner::kChild:
      return "SELECT DISTINCT c.tid, c.id FROM nodes AS s, nodes AS n, "
             "nodes AS c WHERE s.name = 'S' AND n.name = 'NP' AND "
             "n.depth = s.depth AND c.name = 'N' AND c.tid = n.tid AND "
             "c.pid = n.id";
    case Inner::kDescendant:
      return "SELECT DISTINCT c.tid, c.id FROM nodes AS s, nodes AS n, "
             "nodes AS c WHERE s.name = 'S' AND n.name = 'NP' AND "
             "n.depth = s.depth AND c.name = 'N' AND c.tid = n.tid AND "
             "c.left >= n.left AND c.right <= n.right AND c.depth > n.depth";
    case Inner::kPreceding:
      return "SELECT DISTINCT c.tid, c.id FROM nodes AS s, nodes AS n, "
             "nodes AS c WHERE s.name = 'S' AND n.name = 'NP' AND "
             "n.depth = s.depth AND c.name = 'N' AND c.tid = n.tid AND "
             "c.right <= n.left";
  }
  return "";
}

bool InnerHolds(const NodeRelation& rel, Inner inner, Row n, Row c) {
  if (rel.tid(c) != rel.tid(n)) return false;
  switch (inner) {
    case Inner::kChild:
      return rel.pid(c) == rel.id(n);
    case Inner::kDescendant:
      return rel.left(c) >= rel.left(n) && rel.right(c) <= rel.right(n) &&
             rel.depth(c) > rel.depth(n);
    case Inner::kPreceding:
      return rel.right(c) <= rel.left(n);
  }
  return false;
}

/// The plan's answer by a nested loop over relation rows.
QueryResult BruteForce(const NodeRelation& rel, Inner inner) {
  const Interner& in = rel.interner();
  const RowRange ss = rel.run(in.Lookup("S"));
  const RowRange ns = rel.run(in.Lookup("NP"));
  const RowRange cs = rel.run(in.Lookup("N"));
  std::set<Hit> hits;
  for (Row s = ss.begin; s < ss.end; ++s) {
    for (Row n = ns.begin; n < ns.end; ++n) {
      if (rel.depth(n) != rel.depth(s)) continue;
      for (Row c = cs.begin; c < cs.end; ++c) {
        if (InnerHolds(rel, inner, n, c)) {
          hits.insert(Hit{rel.tid(c), rel.id(c)});
        }
      }
    }
  }
  QueryResult out;
  out.hits.assign(hits.begin(), hits.end());
  return out;
}

TEST(SliceCursorTest, InnerTreeMovingBackwardsMatchesNestedLoop) {
  Corpus corpus = testing::RandomCorpus(8128, /*trees=*/60, /*max_nodes=*/40);
  Result<NodeRelation> built = NodeRelation::Build(corpus);
  ASSERT_TRUE(built.ok());
  const NodeRelation& rel = built.value();
  const int32_t trees = rel.tree_count();
  for (Inner inner : {Inner::kChild, Inner::kDescendant, Inner::kPreceding}) {
    const QueryResult want = BruteForce(rel, inner);
    ASSERT_FALSE(want.hits.empty()) << InnerSql(inner);
    Result<ExecPlan> plan = sql::ParseSql(InnerSql(inner));
    ASSERT_TRUE(plan.ok()) << plan.status();
    for (auto order : {sql::ExecOptions::JoinOrder::kGreedy,
                       sql::ExecOptions::JoinOrder::kLeftToRight}) {
      sql::ExecOptions options;
      options.join_order = order;
      Result<std::unique_ptr<sql::PreparedPlan>> pp =
          sql::Prepare(plan.value(), rel, options);
      ASSERT_TRUE(pp.ok()) << pp.status();
      sql::PlanExecutor executor(rel, options);
      Result<QueryResult> serial = executor.ExecutePrepared(*pp.value());
      ASSERT_TRUE(serial.ok()) << serial.status();
      EXPECT_EQ(serial.value(), want) << InnerSql(inner);
      for (int shards : {2, 5}) {
        EXPECT_EQ(MergeShards(executor, *pp.value(), trees, shards), want)
            << InnerSql(inner) << "\nshards: " << shards;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Planned probes against a brute-force nested loop. Hand-written SQL plans
// reach every access path Prepare can plan, with redundant, conflicting
// and out-of-range conjuncts: a conjunct a probe claims to enforce but does
// not, or a key narrowed to int32 by truncation, changes some answer.

/// Value of an unresolved operand under a binding (`outer` is the parent
/// plan's binding). String literals resolve to their symbol, or to -1 for
/// strings the relation has never seen.
int64_t OracleValue(const NodeRelation& rel, const Operand& o,
                    const std::vector<Row>& bound,
                    const std::vector<Row>* outer) {
  if (o.is_literal()) {
    if (!o.is_string) return o.num;
    const Symbol sym = rel.interner().Lookup(o.str);
    return sym == kNoSymbol ? -1 : static_cast<int64_t>(sym);
  }
  const Row r = o.is_outer() ? (*outer)[o.outer_index()] : bound[o.var];
  switch (o.col) {
    case PlanCol::kTid: return rel.tid(r);
    case PlanCol::kLeft: return rel.left(r);
    case PlanCol::kRight: return rel.right(r);
    case PlanCol::kDepth: return rel.depth(r);
    case PlanCol::kId: return rel.id(r);
    case PlanCol::kPid: return rel.pid(r);
    case PlanCol::kName: return rel.name(r);
    case PlanCol::kValue: return rel.value(r);
    case PlanCol::kKind: return static_cast<int64_t>(rel.kind(r));
  }
  return 0;
}

bool OracleHolds(const NodeRelation& rel, const Conjunct& c,
                 const std::vector<Row>& bound,
                 const std::vector<Row>* outer) {
  const int64_t a = OracleValue(rel, c.lhs, bound, outer);
  const int64_t b = OracleValue(rel, c.rhs, bound, outer);
  switch (c.op) {
    case CmpOp::kEq: return a == b;
    case CmpOp::kNe: return a != b;
    case CmpOp::kLt: return a < b;
    case CmpOp::kLe: return a <= b;
    case CmpOp::kGt: return a > b;
    case CmpOp::kGe: return a >= b;
  }
  return false;
}

/// Highest local variable a conjunct reads (-1 for none).
int MaxLocal(const Conjunct& c) {
  int v = -1;
  for (const Operand* o : {&c.lhs, &c.rhs}) {
    if (!o->is_literal() && !o->is_outer()) v = std::max(v, o->var);
  }
  return v;
}

bool OracleExists(const NodeRelation& rel, const ExecPlan& plan,
                  const std::vector<Row>* outer);

bool OracleFilter(const NodeRelation& rel, const BoolExpr& e,
                  const std::vector<Row>& bound,
                  const std::vector<Row>* outer) {
  switch (e.kind) {
    case BoolExpr::Kind::kAnd:
      return OracleFilter(rel, *e.lhs, bound, outer) &&
             OracleFilter(rel, *e.rhs, bound, outer);
    case BoolExpr::Kind::kOr:
      return OracleFilter(rel, *e.lhs, bound, outer) ||
             OracleFilter(rel, *e.rhs, bound, outer);
    case BoolExpr::Kind::kNot:
      return !OracleFilter(rel, *e.lhs, bound, outer);
    case BoolExpr::Kind::kCmp:
      return OracleHolds(rel, e.cmp, bound, outer);
    case BoolExpr::Kind::kExists:
      return OracleExists(rel, *e.sub, &bound);
  }
  return false;
}

/// Nested loop over every row for every variable, in declaration order;
/// a conjunct is checked once its highest variable is bound. Calls `emit`
/// on each complete binding that also passes the filters; stops when
/// `emit` returns true.
template <typename Emit>
bool OracleBind(const NodeRelation& rel, const ExecPlan& plan,
                const std::vector<Row>* outer, std::vector<Row>& bound,
                int var, Emit& emit) {
  if (var == plan.num_vars) {
    for (const auto& f : plan.filters) {
      if (!OracleFilter(rel, *f, bound, outer)) return false;
    }
    return emit(bound);
  }
  for (Row r = 0; r < static_cast<Row>(rel.row_count()); ++r) {
    bound[var] = r;
    bool ok = true;
    for (const Conjunct& c : plan.conjuncts) {
      if (MaxLocal(c) == var || (var == 0 && MaxLocal(c) < 0)) {
        if (!OracleHolds(rel, c, bound, outer)) {
          ok = false;
          break;
        }
      }
    }
    if (ok && OracleBind(rel, plan, outer, bound, var + 1, emit)) return true;
  }
  return false;
}

bool OracleExists(const NodeRelation& rel, const ExecPlan& plan,
                  const std::vector<Row>* outer) {
  std::vector<Row> bound(plan.num_vars, kNoRow);
  auto first = [](const std::vector<Row>&) { return true; };
  return OracleBind(rel, plan, outer, bound, 0, first);
}

QueryResult OracleRun(const NodeRelation& rel, const ExecPlan& plan) {
  std::set<Hit> hits;
  std::vector<Row> bound(plan.num_vars, kNoRow);
  auto collect = [&](const std::vector<Row>& b) {
    const Row r = b[plan.output_var];
    hits.insert(Hit{rel.tid(r), rel.id(r)});
    return false;
  };
  OracleBind(rel, plan, nullptr, bound, 0, collect);
  QueryResult out;
  out.hits.assign(hits.begin(), hits.end());
  return out;
}

/// Records every access path planned anywhere in a prepared nest.
void CollectAccess(const sql::PreparedPlan& pp, std::set<sql::Access>* seen) {
  for (const sql::PlannedProbe& probe : pp.probes) seen->insert(probe.access);
  for (const auto& sub : pp.subs) CollectAccess(*sub, seen);
}

/// One hand-written plan: SQL text plus conjuncts the SQL lexer cannot
/// spell (negative literals).
struct ProbeCase {
  ProbeCase(std::string sql_text, std::vector<Conjunct> extra_conjuncts = {})
      : sql(std::move(sql_text)), extra(std::move(extra_conjuncts)) {}
  std::string sql;
  std::vector<Conjunct> extra;
};

Conjunct Lit(int var, PlanCol col, CmpOp op, int64_t num) {
  return Conjunct{Operand::Column(var, col), op, Operand::Number(num)};
}

std::vector<ProbeCase> ProbeCases() {
  const std::string sel1 = "SELECT DISTINCT a.tid, a.id FROM nodes AS a WHERE ";
  const std::string sel2 =
      "SELECT DISTINCT b.tid, b.id FROM nodes AS a, nodes AS b WHERE ";
  const std::string sel3 =
      "SELECT DISTINCT c.tid, c.id FROM nodes AS a, nodes AS b, nodes AS c "
      "WHERE ";
  std::vector<ProbeCase> cases = {
      // Direct (tid, id): attribute rows of an element, and a parent of
      // either kind.
      {sel2 + "a.name = 'NP' AND b.tid = a.tid AND b.id = a.id AND "
              "b.kind = 1"},
      {sel2 + "a.name = 'V' AND b.tid = a.tid AND b.id = a.pid"},
      {sel2 + "a.name = 'N' AND b.tid = a.tid AND b.id = a.pid AND "
              "b.name = 'NP'"},
      {sel2 + "a.name = 'V' AND b.tid = a.tid AND b.id = a.id AND "
              "b.depth >= 4"},
      // Value index, whole relation and within a tree; value 0 is what
      // element rows hold, so it must not key the (attribute-only) index.
      {sel1 + "a.value = 'saw'"},
      {sel2 + "a.name = 'VP' AND b.tid = a.tid AND b.value = 'dog'"},
      {sel2 + "b.value = 'man' AND b.tid = a.tid AND a.name = 'S' AND "
              "b.left >= a.left AND b.right <= a.right"},
      {sel1 + "a.value = 0 AND a.depth = 2"},
      {sel1 + "a.value = 'zzzunknown'"},
      // pid in the slice of a name's run; wildcard pid, with and without a
      // kind; root by literal pid 0 and by a pid that happens to be 0.
      {sel2 + "a.name = 'NP' AND b.name = 'N' AND b.tid = a.tid AND "
              "b.pid = a.id"},
      {sel2 + "a.name = 'NP' AND b.tid = a.tid AND b.pid = a.id"},
      {sel2 + "a.name = 'VP' AND b.tid = a.tid AND b.pid = a.id AND "
              "b.kind = 0"},
      {sel2 + "a.name = 'S' AND b.tid = a.tid AND b.pid = 0"},
      {sel2 + "a.name = 'S' AND b.tid = a.tid AND b.pid = a.pid"},
      {sel2 + "a.name = 'X' AND b.tid = a.tid AND b.pid = 0 AND b.kind = 1"},
      // Left range; right range; right equality beside a left range.
      {sel2 + "a.name = 'VP' AND b.name = 'NP' AND b.tid = a.tid AND "
              "b.left >= a.left AND b.right <= a.right"},
      {sel2 + "a.name = 'NP' AND b.name = 'N' AND b.tid = a.tid AND "
              "b.left >= a.right"},
      {sel2 + "a.name = 'NP' AND b.name = 'V' AND b.tid = a.tid AND "
              "b.right <= a.left"},
      {sel2 + "a.name = 'VP' AND b.name = 'NP' AND b.tid = a.tid AND "
              "b.left >= a.left AND b.right = a.right"},
      {sel2 + "a.name = 'S' AND b.name = 'N' AND b.tid = a.tid AND "
              "b.left = a.left AND b.right <= a.right"},
      {sel2 + "a.name = 'NP' AND b.name = 'Det' AND b.tid = a.tid AND "
              "b.right > a.left AND b.right < a.right"},
      // Whole slice; whole run; wildcard in a tree, with and without a
      // range; full scan.
      {sel2 + "a.name = 'S' AND b.name = 'N' AND b.tid = a.tid AND "
              "b.depth > a.depth"},
      {sel1 + "a.name = 'NP' AND a.depth >= 2"},
      {sel2 + "a.name = 'NP' AND b.name = 'VP' AND a.depth = b.depth"},
      {sel2 + "a.name = 'VP' AND b.tid = a.tid AND b.left >= a.left AND "
              "b.right <= a.right"},
      {sel2 + "a.name = 'PP' AND b.tid = a.tid AND b.depth = a.depth AND "
              "b.kind = 0"},
      {sel2 + "a.name = 'Adj' AND b.tid = a.tid AND b.right <= a.left"},
      {sel1 + "a.depth = 3"},
      {sel1 + "a.kind = 1 AND a.depth >= 4"},
      // Two tid equalities to different members of one class, and a
      // literal tid that conflicts with the class.
      {sel3 + "a.name = 'S' AND b.name = 'NP' AND c.name = 'N' AND "
              "b.tid = a.tid AND c.tid = a.tid AND c.tid = b.tid AND "
              "c.pid = b.id"},
      {sel3 + "a.name = 'VP' AND b.name = 'NP' AND c.tid = a.tid AND "
              "c.tid = b.tid AND c.pid = b.id AND b.left >= a.left"},
      {sel2 + "a.name = 'NP' AND b.name = 'N' AND b.tid = a.tid AND "
              "b.tid = 3 AND b.left >= a.left"},
      // != on left and right beside the ranges they do not narrow.
      {sel2 + "a.name = 'VP' AND b.name = 'NP' AND b.tid = a.tid AND "
              "b.left >= a.left AND b.right <= a.right AND "
              "b.left != a.left AND b.right != a.right"},
      {sel2 + "a.name = 'NP' AND b.tid = a.tid AND b.left != a.left AND "
              "b.right != a.right AND b.kind = 0"},
      // Duplicate and overlapping depth comparisons.
      {sel2 + "a.name = 'S' AND b.name = 'NP' AND b.tid = a.tid AND "
              "b.depth > a.depth AND b.depth > a.depth AND "
              "b.depth >= a.depth AND b.depth <= 5 AND b.depth < 7"},
      {sel2 + "a.name = 'NP' AND b.name = 'N' AND b.tid = a.tid AND "
              "b.left >= a.left AND b.left >= a.left AND "
              "b.right <= a.right"},
      // Literals outside int32: equality keys must probe nothing (never a
      // truncated key), range keys must clamp exactly.
      {sel1 + "a.tid = 4294967296"},
      {sel1 + "a.name = 'NP' AND a.tid = 4294967296"},
      {sel2 + "a.name = 'NP' AND b.tid = a.tid AND b.id = 4294967297"},
      {sel2 + "a.name = 'NP' AND b.name = 'N' AND b.tid = a.tid AND "
              "b.pid = 4294967297"},
      {sel2 + "a.name = 'NP' AND b.tid = a.tid AND b.pid = 4294967296"},
      {sel2 + "a.name = 'S' AND b.name = 'NP' AND b.tid = a.tid AND "
              "b.left < 4294967296 AND b.right <= 9223372036854775807"},
      {sel2 + "a.name = 'S' AND b.name = 'NP' AND b.tid = a.tid AND "
              "b.left >= 4294967296"},
      {sel2 + "a.name = 'S' AND b.name = 'NP' AND b.tid = a.tid AND "
              "b.right > 4294967296"},
      {sel2 + "a.name = 'S' AND b.tid = a.tid AND "
              "b.right < 9223372036854775807"},
      {sel1 + "a.value = 4294967297"},
      {sel1 + "a.name = 4294967297"},
      {sel1 + "a.name = 'NP'", {Lit(0, PlanCol::kTid, CmpOp::kEq,
                                    -4294967296)}},
      {sel2 + "a.name = 'NP' AND b.name = 'N' AND b.tid = a.tid",
       {Lit(1, PlanCol::kLeft, CmpOp::kGt, -5000000000),
        Lit(1, PlanCol::kRight, CmpOp::kGe, -5000000000)}},
      {sel2 + "a.name = 'NP' AND b.name = 'N' AND b.tid = a.tid",
       {Lit(1, PlanCol::kRight, CmpOp::kLt, -5000000000)}},
      {sel2 + "a.name = 'VP' AND b.tid = a.tid",
       {Lit(1, PlanCol::kPid, CmpOp::kEq, -4294967296)}},
      // EXISTS without a tid link, nested EXISTS, and OR of two EXISTS.
      {sel1 + "a.name = 'VP' AND EXISTS (SELECT 1 FROM nodes AS b WHERE "
              "b.name = 'X' AND b.depth = a.depth)"},
      {sel1 + "a.name = 'S' AND EXISTS (SELECT 1 FROM nodes AS b WHERE "
              "b.tid = a.tid AND b.pid = a.id AND EXISTS (SELECT 1 FROM "
              "nodes AS c WHERE c.tid = b.tid AND c.left >= b.left AND "
              "c.right <= b.right AND c.value = 'dog'))"},
      {sel1 + "a.name = 'NP' AND (EXISTS (SELECT 1 FROM nodes AS b WHERE "
              "b.tid = a.tid AND b.pid = a.id AND b.name = 'N') OR EXISTS "
              "(SELECT 1 FROM nodes AS c WHERE c.tid = a.tid AND "
              "c.name = 'Det' AND c.right = a.right AND c.left >= a.left))"},
      {sel1 + "a.name = 'VP' AND NOT (EXISTS (SELECT 1 FROM nodes AS b "
              "WHERE b.tid = a.tid AND b.right <= a.left AND b.kind = 1))"},
  };
  return cases;
}

TEST(PlannedProbeTest, EveryPathMatchesNestedLoopOracle) {
  Corpus corpus = testing::RandomCorpus(4242, /*trees=*/60, /*max_nodes=*/40);
  Result<NodeRelation> built = NodeRelation::Build(corpus);
  ASSERT_TRUE(built.ok());
  const NodeRelation& rel = built.value();
  const int32_t trees = rel.tree_count();
  std::set<sql::Access> seen;
  int nonempty = 0;
  for (const ProbeCase& c : ProbeCases()) {
    Result<ExecPlan> parsed = sql::ParseSql(c.sql);
    ASSERT_TRUE(parsed.ok()) << c.sql << " -> " << parsed.status();
    ExecPlan plan = std::move(parsed).value();
    for (const Conjunct& extra : c.extra) plan.conjuncts.push_back(extra);
    const QueryResult want = OracleRun(rel, plan);
    nonempty += want.hits.empty() ? 0 : 1;
    for (auto order : {sql::ExecOptions::JoinOrder::kGreedy,
                       sql::ExecOptions::JoinOrder::kLeftToRight}) {
      sql::ExecOptions options;
      options.join_order = order;
      Result<std::unique_ptr<sql::PreparedPlan>> pp =
          sql::Prepare(plan, rel, options);
      ASSERT_TRUE(pp.ok()) << c.sql << " -> " << pp.status();
      CollectAccess(*pp.value(), &seen);
      sql::PlanExecutor executor(rel, options);
      Result<QueryResult> serial = executor.ExecutePrepared(*pp.value());
      ASSERT_TRUE(serial.ok()) << serial.status();
      EXPECT_EQ(serial.value(), want) << c.sql;
      for (int shards : {2, 5}) {
        EXPECT_EQ(MergeShards(executor, *pp.value(), trees, shards), want)
            << c.sql << "\nshards: " << shards;
      }
    }
  }
  // The cases reach every planned access path, and enough of them have
  // answers that a wrong probe cannot hide behind empty results.
  for (sql::Access a :
       {sql::Access::kDirect, sql::Access::kValue, sql::Access::kValueInTree,
        sql::Access::kPidInSlice, sql::Access::kWildcardPid,
        sql::Access::kLeftRange, sql::Access::kRightRange,
        sql::Access::kSlice, sql::Access::kRun, sql::Access::kWildcardTree,
        sql::Access::kFullScan}) {
    EXPECT_TRUE(seen.count(a)) << "access path " << static_cast<int>(a)
                               << " never planned";
  }
  EXPECT_GE(nonempty, 35);
}

TEST(ShardConcurrencyTest, ConcurrentShardsOnSharedPlanAgree) {
  Corpus corpus = testing::RandomCorpus(271828, /*trees=*/24, /*max_nodes=*/30);
  Result<NodeRelation> rel = NodeRelation::Build(corpus);
  ASSERT_TRUE(rel.ok());
  LPathEngine engine(rel.value());
  sql::PlanExecutor executor(rel.value());
  const int32_t trees = rel.value().tree_count();

  const std::string q = "//NP[@lex=dog or @lex=zzzunknown]//_";
  Result<ExecPlan> plan = engine.Translate(q);
  ASSERT_TRUE(plan.ok());
  Result<std::unique_ptr<sql::PreparedPlan>> pp =
      sql::Prepare(plan.value(), rel.value(), {});
  ASSERT_TRUE(pp.ok());
  Result<QueryResult> serial = executor.ExecutePrepared(*pp.value());
  ASSERT_TRUE(serial.ok());

  // Eight workers repeatedly run overlapping shard sweeps of one shared
  // prepared plan; each sweep must reproduce the serial result.
  constexpr int kWorkers = 8;
  std::vector<QueryResult> merged(kWorkers);
  std::vector<sql::ExecStats> stats(kWorkers);
  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      const int shards = 2 + (w % 5);
      merged[w] =
          MergeShards(executor, *pp.value(), trees, shards, &stats[w]);
    });
  }
  for (std::thread& t : workers) t.join();
  for (int w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(merged[w], serial.value()) << "worker " << w;
    EXPECT_GT(stats[w].candidates, 0u);
  }
}

}  // namespace
}  // namespace lpath
