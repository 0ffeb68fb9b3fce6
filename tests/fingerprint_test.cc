// Structural plan fingerprint tests: sql::PlanFingerprint is value-only
// (address/ASLR independent), alpha-renames outer references escaping the
// hashed root, mirrors literal-first comparisons, and separates exactly the
// plans whose SQL renderings differ.

#include "sql/fingerprint.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "lpath/parser.h"
#include "plan/compile.h"
#include "plan/exec_plan.h"
#include "plan/sql_gen.h"
#include "test_util.h"

namespace lpath {
namespace {

using testing::QueryGen;

/// Parse + compile with the same options the service uses (scheme-less:
/// fingerprints key the *unresolved* plan, so no relation is needed).
ExecPlan MustCompile(const std::string& query) {
  Result<LocationPath> path = ParseLPath(query);
  EXPECT_TRUE(path.ok()) << query << " -> " << path.status();
  CompileOptions copts;
  copts.unnest_predicates = true;
  Result<ExecPlan> plan = CompileLPath(path.value(), copts);
  EXPECT_TRUE(plan.ok()) << query << " -> " << plan.status();
  return std::move(plan).value();
}

// ---------------------------------------------------------------------------
// The hash itself

TEST(FingerprintTest, StableAcrossClonesAndRecompiles) {
  Rng rng(4242);
  QueryGen gen(&rng);
  for (int i = 0; i < 150; ++i) {
    const std::string q = gen.Query();
    const ExecPlan a = MustCompile(q);
    const ExecPlan b = MustCompile(q);   // fresh parse, fresh allocations
    const ExecPlan c = a.Clone();        // same values, different addresses
    const uint64_t fp = sql::PlanFingerprint(a);
    EXPECT_EQ(fp, sql::PlanFingerprint(b)) << q;
    EXPECT_EQ(fp, sql::PlanFingerprint(c)) << q;
  }
}

TEST(FingerprintTest, EqualFingerprintIffEqualSql) {
  // Over a fuzzed plan population, the 64-bit hash and the SQL rendering
  // (plan/sql_gen.h, which spells out every conjunct of every nesting
  // level) must induce the same partition. A chance collision among 150
  // plans would be a 2^-64-scale event; a failure here means the hash
  // ignores or invents structure.
  Rng rng(99);
  QueryGen gen(&rng);
  std::vector<uint64_t> fps;
  std::vector<std::string> sqls;
  std::vector<std::string> texts;
  for (int i = 0; i < 150; ++i) {
    const std::string q = gen.Query();
    const ExecPlan p = MustCompile(q);
    fps.push_back(sql::PlanFingerprint(p));
    sqls.push_back(GenerateSql(p));
    texts.push_back(q);
  }
  for (size_t i = 0; i < fps.size(); ++i) {
    for (size_t j = i + 1; j < fps.size(); ++j) {
      EXPECT_EQ(fps[i] == fps[j], sqls[i] == sqls[j])
          << texts[i] << "  vs  " << texts[j];
    }
  }
}

TEST(FingerprintTest, QuotedRespellingsShareAFingerprint) {
  const ExecPlan bare = MustCompile("//NP[@lex='saw' or //N]");
  const ExecPlan single = MustCompile("//'NP'[@lex='saw' or //'N']");
  const ExecPlan dbl = MustCompile("//\"NP\"[@lex=\"saw\" or //N]");
  const uint64_t fp = sql::PlanFingerprint(bare);
  EXPECT_EQ(fp, sql::PlanFingerprint(single));
  EXPECT_EQ(fp, sql::PlanFingerprint(dbl));
  // Different tag, same shape: must not collide.
  const ExecPlan other = MustCompile("//VP[@lex='saw' or //N]");
  EXPECT_NE(fp, sql::PlanFingerprint(other));
}

TEST(FingerprintTest, LiteralFirstComparisonsAreMirrored) {
  auto make = [](bool literal_first) {
    ExecPlan p;
    p.num_vars = 1;
    Conjunct c;
    if (literal_first) {
      c.lhs = Operand::Number(5);
      c.op = CmpOp::kGt;
      c.rhs = Operand::Column(0, PlanCol::kLeft);
    } else {
      c.lhs = Operand::Column(0, PlanCol::kLeft);
      c.op = CmpOp::kLt;
      c.rhs = Operand::Number(5);
    }
    p.conjuncts.push_back(std::move(c));
    return p;
  };
  const ExecPlan a = make(true);
  const ExecPlan b = make(false);
  EXPECT_EQ(sql::PlanFingerprint(a), sql::PlanFingerprint(b));
}

TEST(FingerprintTest, EscapingOuterRefsAreAlphaRenamed) {
  // An EXISTS subtree hashed standalone: which parent variable it happens
  // to correlate with must not change the hash, only the *pattern* of
  // correlation.
  auto subtree = [](int outer_var) {
    ExecPlan p;
    p.num_vars = 1;
    Conjunct c;
    c.lhs = Operand::Column(0, PlanCol::kTid);
    c.rhs = Operand::Column(Operand::kOuterVarBase + outer_var, PlanCol::kTid);
    p.conjuncts.push_back(std::move(c));
    return p;
  };
  const ExecPlan a = subtree(0);
  const ExecPlan b = subtree(7);
  EXPECT_EQ(sql::PlanFingerprint(a), sql::PlanFingerprint(b));

  // Two *distinct* escaping refs must not alias one: (outer0, outer0) and
  // (outer0, outer3) correlate differently.
  auto pair_subtree = [](int second) {
    ExecPlan p;
    p.num_vars = 1;
    for (int outer : {0, second}) {
      Conjunct c;
      c.lhs = Operand::Column(0, PlanCol::kTid);
      c.rhs = Operand::Column(Operand::kOuterVarBase + outer, PlanCol::kTid);
      p.conjuncts.push_back(std::move(c));
    }
    return p;
  };
  const ExecPlan same = pair_subtree(0);
  const ExecPlan diff = pair_subtree(3);
  EXPECT_NE(sql::PlanFingerprint(same), sql::PlanFingerprint(diff));

  // Outer refs of a *nested* EXISTS point at variables inside the hashed
  // tree — structural, not escaping: renaming them changes the plan.
  auto nested = [&subtree](int inner_outer) {
    ExecPlan p;
    p.num_vars = 2;
    auto e = std::make_unique<BoolExpr>(BoolExpr::Kind::kExists);
    e->sub = std::make_unique<ExecPlan>(subtree(inner_outer));
    p.filters.push_back(std::move(e));
    return p;
  };
  const ExecPlan n0 = nested(0);
  const ExecPlan n1 = nested(1);
  EXPECT_NE(sql::PlanFingerprint(n0), sql::PlanFingerprint(n1));
}

}  // namespace
}  // namespace lpath
