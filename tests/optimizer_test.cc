// Unit tests for the plan preparation stage (sql/optimizer.h): literal
// resolution, cardinality-driven join ordering, conjunct scheduling,
// orientation and deduplication, and planned probes.

#include "sql/optimizer.h"

#include <gtest/gtest.h>

#include "gen/generator.h"
#include "lpath/engines.h"
#include "lpath/eval_nav.h"
#include "sql/parser.h"
#include "test_util.h"

namespace lpath {
namespace {

class OptimizerTest : public ::testing::Test {
 protected:
  OptimizerTest() : corpus_(testing::BuildFigure1Corpus()) {
    Result<NodeRelation> rel = NodeRelation::Build(corpus_);
    EXPECT_TRUE(rel.ok());
    rel_ = std::make_unique<NodeRelation>(std::move(rel).value());
  }

  std::unique_ptr<sql::PreparedPlan> Prepare(const std::string& sql_text,
                                             sql::ExecOptions opts = {}) {
    Result<ExecPlan> plan = sql::ParseSql(sql_text);
    EXPECT_TRUE(plan.ok()) << plan.status();
    Result<std::unique_ptr<sql::PreparedPlan>> pp =
        sql::Prepare(plan.value(), *rel_, opts);
    EXPECT_TRUE(pp.ok()) << pp.status();
    return std::move(pp).value();
  }

  Corpus corpus_;
  std::unique_ptr<NodeRelation> rel_;
};

TEST_F(OptimizerTest, UnknownNameShortCircuitsToEmpty) {
  auto pp = Prepare(
      "SELECT DISTINCT a.tid, a.id FROM nodes AS a WHERE a.name = 'ZZZ'");
  EXPECT_TRUE(pp->always_empty);
}

TEST_F(OptimizerTest, UnknownNameInequalityIsNotEmpty) {
  auto pp = Prepare(
      "SELECT DISTINCT a.tid, a.id FROM nodes AS a WHERE a.name != 'ZZZ'");
  EXPECT_FALSE(pp->always_empty);
}

TEST_F(OptimizerTest, UnknownLiteralInsideOrIsNotAlwaysEmpty) {
  // Regression: resolution used to write the top-level always_empty flag
  // from inside filter trees, emptying `... OR <satisfiable>` plans.
  auto pp = Prepare(
      "SELECT DISTINCT a.tid, a.id FROM nodes AS a WHERE a.name = 'V' AND "
      "(a.value = 'zzz_unknown' OR a.left >= 0)");
  EXPECT_FALSE(pp->always_empty);
}

TEST_F(OptimizerTest, UnknownLiteralInsideNotIsNotAlwaysEmpty) {
  auto pp = Prepare(
      "SELECT DISTINCT a.tid, a.id FROM nodes AS a WHERE a.name = 'NP' AND "
      "NOT (a.value = 'zzz_unknown')");
  EXPECT_FALSE(pp->always_empty);
}

TEST_F(OptimizerTest, LiteralFirstConjunctIsOriented) {
  // A hand-built plan spelled literal-first must be flipped column-first
  // at prepare time so the static fact harvest sees the name equality.
  ExecPlan plan;
  plan.num_vars = 1;
  plan.conjuncts.push_back(Conjunct{Operand::String("NP"), CmpOp::kEq,
                                    Operand::Column(0, PlanCol::kName)});
  Result<std::unique_ptr<sql::PreparedPlan>> pp =
      sql::Prepare(plan, *rel_, {});
  ASSERT_TRUE(pp.ok()) << pp.status();
  ASSERT_EQ(pp.value()->plan.conjuncts.size(), 1u);
  const Conjunct& c = pp.value()->plan.conjuncts[0];
  EXPECT_FALSE(c.lhs.is_literal());
  EXPECT_EQ(c.lhs.col, PlanCol::kName);
  EXPECT_TRUE(c.rhs.is_literal());
  EXPECT_EQ(pp.value()->var_name[0], rel_->interner().Lookup("NP"));
  EXPECT_EQ(pp.value()->var_kind[0], -1);
}

TEST_F(OptimizerTest, LiteralFirstOrderingOperatorIsMirrored) {
  // `5 < a.left` must become `a.left > 5`.
  ExecPlan plan;
  plan.num_vars = 1;
  plan.conjuncts.push_back(Conjunct{Operand::Number(5), CmpOp::kLt,
                                    Operand::Column(0, PlanCol::kLeft)});
  Result<std::unique_ptr<sql::PreparedPlan>> pp =
      sql::Prepare(plan, *rel_, {});
  ASSERT_TRUE(pp.ok()) << pp.status();
  const Conjunct& c = pp.value()->plan.conjuncts[0];
  EXPECT_FALSE(c.lhs.is_literal());
  EXPECT_EQ(c.lhs.col, PlanCol::kLeft);
  EXPECT_EQ(c.op, CmpOp::kGt);
  EXPECT_EQ(c.rhs.num, 5);
}

TEST_F(OptimizerTest, GreedyOrderAnchorsOnSmallestRun) {
  // S occurs once; NP four times; the wildcard var has no name. Greedy must
  // start from the S variable.
  auto pp = Prepare(
      "SELECT DISTINCT c.tid, c.id FROM nodes AS a, nodes AS b, nodes AS c "
      "WHERE a.name = 'NP' AND b.name = 'S' AND c.kind = 0 AND "
      "b.tid = a.tid AND c.tid = a.tid AND a.left >= b.left AND "
      "c.left >= a.right");
  ASSERT_EQ(pp->order.size(), 3u);
  EXPECT_EQ(pp->order[0], 1);  // the S variable
}

TEST_F(OptimizerTest, ValueEqualityWinsOverNames) {
  // The attribute variable with value='saw' (cardinality 1) must anchor.
  auto pp = Prepare(
      "SELECT DISTINCT a.tid, a.id FROM nodes AS a, nodes AS b "
      "WHERE a.name = 'NP' AND b.value = 'saw' AND b.tid = a.tid");
  ASSERT_EQ(pp->order.size(), 2u);
  EXPECT_EQ(pp->order[0], 1);
}

TEST_F(OptimizerTest, LeftToRightModeKeepsPlanOrder) {
  sql::ExecOptions opts;
  opts.join_order = sql::ExecOptions::JoinOrder::kLeftToRight;
  auto pp = Prepare(
      "SELECT DISTINCT b.tid, b.id FROM nodes AS a, nodes AS b "
      "WHERE a.name = 'NP' AND b.name = 'S' AND b.tid = a.tid",
      opts);
  EXPECT_EQ(pp->order, std::vector<int>({0, 1}));
}

TEST_F(OptimizerTest, ConjunctsScheduledAtMaxPosition) {
  auto pp = Prepare(
      "SELECT DISTINCT b.tid, b.id FROM nodes AS a, nodes AS b "
      "WHERE a.name = 'S' AND b.name = 'NP' AND b.tid = a.tid AND "
      "b.left >= a.left");
  // Single-variable conjuncts land at that variable's position; the two
  // cross-variable conjuncts land at the later position (1).
  size_t at0 = pp->conjuncts_at[0].size();
  size_t at1 = pp->conjuncts_at[1].size();
  EXPECT_EQ(at0, 1u);  // the anchor's name test
  EXPECT_EQ(at1, 3u);  // the other name test + tid link + left bound
}

TEST_F(OptimizerTest, OrientationPutsLaterVarOnLhs) {
  auto pp = Prepare(
      "SELECT DISTINCT b.tid, b.id FROM nodes AS a, nodes AS b "
      "WHERE a.name = 'S' AND b.name = 'NP' AND a.tid = b.tid AND "
      "a.right <= b.left");
  // Whatever side the SQL wrote them on, conjuncts checkable at position 1
  // must have the position-1 variable on the left.
  const int late_var = pp->order[1];
  for (const Conjunct& c : pp->conjuncts_at[1]) {
    if (!c.lhs.is_literal() && !c.rhs.is_literal()) {
      EXPECT_EQ(c.lhs.var, late_var);
    }
  }
}

TEST_F(OptimizerTest, SubplanCorrelationIdentified) {
  auto pp = Prepare(
      "SELECT DISTINCT a.tid, a.id FROM nodes AS a WHERE a.name = 'NP' AND "
      "EXISTS (SELECT 1 FROM nodes AS b WHERE b.tid = a.tid AND "
      "b.pid = a.id AND b.name = 'Det')");
  ASSERT_EQ(pp->plan.filters.size(), 1u);
  const BoolExpr* e = pp->plan.filters[0].get();
  ASSERT_EQ(e->sub_index, 0);
  ASSERT_EQ(pp->subs.size(), 1u);
  // The subplan's first probe takes its tree (and its parent id) from the
  // outer binding of variable a: the pid probe of Det's tree slice.
  const sql::PlannedProbe& probe = pp->subs[0]->probes[0];
  EXPECT_EQ(probe.access, sql::Access::kPidInSlice);
  EXPECT_EQ(probe.tid.var, Operand::kOuterVarBase + 0);
  EXPECT_EQ(probe.tid.col, PlanCol::kTid);
  EXPECT_EQ(probe.pid.var, Operand::kOuterVarBase + 0);
  EXPECT_EQ(probe.pid.col, PlanCol::kId);
  // tid, pid and name are all enforced by that probe.
  EXPECT_TRUE(probe.residual.empty());
}

/// Fails when two conjuncts scheduled at one position of `pp`, or of any
/// plan nested in it, are identical.
void ExpectNoDuplicateConjuncts(const sql::PreparedPlan& pp,
                                const std::string& query) {
  for (size_t pos = 0; pos < pp.conjuncts_at.size(); ++pos) {
    const std::vector<Conjunct>& at = pp.conjuncts_at[pos];
    for (size_t i = 0; i < at.size(); ++i) {
      for (size_t j = i + 1; j < at.size(); ++j) {
        const bool same =
            at[i].op == at[j].op && at[i].lhs.var == at[j].lhs.var &&
            at[i].lhs.col == at[j].lhs.col && at[i].lhs.num == at[j].lhs.num &&
            at[i].rhs.var == at[j].rhs.var && at[i].rhs.col == at[j].rhs.col &&
            at[i].rhs.num == at[j].rhs.num;
        EXPECT_FALSE(same) << query << ": position " << pos << " holds "
                           << "conjuncts " << i << " and " << j << " twice";
      }
    }
  }
  for (const auto& sub : pp.subs) ExpectNoDuplicateConjuncts(*sub, query);
}

TEST(OptimizerDedupTest, ScopedQueriesHoldNoDuplicateConjuncts) {
  // Scoped steps compile their axis' containment conjuncts a second time;
  // Prepare keeps one copy, and the answers do not change.
  Result<Corpus> corpus = gen::GenerateWsj(400, /*seed=*/11);
  ASSERT_TRUE(corpus.ok());
  Result<NodeRelation> rel = NodeRelation::Build(corpus.value());
  ASSERT_TRUE(rel.ok());
  LPathEngine engine(rel.value());
  NavigationalEngine nav(corpus.value());
  size_t answers = 0;
  for (const std::string q :
       {"//VP{//NP$}", "//VP[{//^VB->NP->PP$}]",
        "//S[{//_[@lex=what]->_[@lex=building]}]"}) {
    Result<ExecPlan> plan = engine.Translate(q);
    ASSERT_TRUE(plan.ok()) << q << " -> " << plan.status();
    Result<std::unique_ptr<sql::PreparedPlan>> pp =
        sql::Prepare(plan.value(), rel.value(), {});
    ASSERT_TRUE(pp.ok()) << pp.status();
    ExpectNoDuplicateConjuncts(*pp.value(), q);
    Result<QueryResult> got = engine.Run(q);
    Result<QueryResult> want = nav.Run(q);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_TRUE(want.ok()) << want.status();
    EXPECT_EQ(got.value(), want.value()) << q;
    answers += got->count();
  }
  EXPECT_GT(answers, 0u);
}

TEST_F(OptimizerTest, StringComparisonWithOrderingRejected) {
  Result<ExecPlan> plan = sql::ParseSql(
      "SELECT DISTINCT a.tid, a.id FROM nodes AS a WHERE a.name < 'NP'");
  ASSERT_TRUE(plan.ok());
  sql::ExecOptions opts;
  Result<std::unique_ptr<sql::PreparedPlan>> pp =
      sql::Prepare(plan.value(), *rel_, opts);
  EXPECT_TRUE(pp.status().IsNotSupported());
}

}  // namespace
}  // namespace lpath
