// Structural plan fingerprint tests. Two layers under test:
//
//   sql/fingerprint.h      the canonical hash and PlanEquals — value-only
//                          (address/ASLR independent), alpha-renames outer
//                          references escaping the hashed root, mirrors
//                          literal-first comparisons, and agrees with
//                          PlanEquals exactly (equal fp <=> equal plan,
//                          modulo engineered 64-bit collisions);
//   service/plan_cache.h + QueryService
//                          the serving contract: N differently spelled
//                          queries of one structure cost exactly one
//                          sql::Prepare, fingerprint-shared serving returns
//                          the same answers as text-keyed serving (150-query
//                          differential, base-only and base+delta chains),
//                          and QueryBatch coalesces same-structure members.

#include "sql/fingerprint.h"

#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "lpath/engines.h"
#include "lpath/parser.h"
#include "plan/compile.h"
#include "plan/exec_plan.h"
#include "service/query_service.h"
#include "sql/optimizer.h"
#include "storage/snapshot.h"
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

/// Respells `q` by single-quoting every maximal letter run that starts
/// uppercase. The fuzz grammar (test_util.h) draws tags from a capitalized
/// alphabet and everything else (axes, keywords, @lex words) lowercase, so
/// this quotes exactly the node tests — a different normalized text that
/// parses to an identical plan.
std::string QuoteTags(const std::string& q) {
  std::string out;
  size_t i = 0;
  while (i < q.size()) {
    const unsigned char c = q[i];
    if (std::isupper(c)) {
      size_t j = i;
      while (j < q.size() &&
             std::isalpha(static_cast<unsigned char>(q[j]))) {
        ++j;
      }
      out += '\'';
      out.append(q, i, j - i);
      out += '\'';
      i = j;
    } else {
      out += q[i++];
    }
  }
  return out;
}

SnapshotPtr MustBuild(Corpus corpus) {
  Result<SnapshotPtr> snap = CorpusSnapshot::Build(std::move(corpus));
  EXPECT_TRUE(snap.ok()) << snap.status().ToString();
  return std::move(snap).value();
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
    EXPECT_TRUE(sql::PlanEquals(a, b)) << q;
  }
}

TEST(FingerprintTest, EqualFingerprintIffPlanEquals) {
  // Over a fuzzed plan population, the 64-bit hash and the structural
  // comparison must induce the same partition (a chance collision among
  // 150 plans would be a 2^-64-scale event — a failure here means the
  // hash and the matcher canonicalize differently).
  Rng rng(99);
  QueryGen gen(&rng);
  std::vector<ExecPlan> plans;
  std::vector<uint64_t> fps;
  std::vector<std::string> texts;
  for (int i = 0; i < 150; ++i) {
    const std::string q = gen.Query();
    ExecPlan p = MustCompile(q);
    fps.push_back(sql::PlanFingerprint(p));
    plans.push_back(std::move(p));
    texts.push_back(q);
  }
  for (size_t i = 0; i < plans.size(); ++i) {
    for (size_t j = i + 1; j < plans.size(); ++j) {
      EXPECT_EQ(fps[i] == fps[j], sql::PlanEquals(plans[i], plans[j]))
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
  EXPECT_TRUE(sql::PlanEquals(bare, single));
  // Different tag, same shape: must not collide.
  const ExecPlan other = MustCompile("//VP[@lex='saw' or //N]");
  EXPECT_NE(fp, sql::PlanFingerprint(other));
  EXPECT_FALSE(sql::PlanEquals(bare, other));
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
  EXPECT_TRUE(sql::PlanEquals(a, b));
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
  EXPECT_TRUE(sql::PlanEquals(a, b));

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
  EXPECT_FALSE(sql::PlanEquals(same, diff));

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
  EXPECT_FALSE(sql::PlanEquals(n0, n1));
}

// ---------------------------------------------------------------------------
// Serving: one Prepare for N spellings

TEST(FingerprintServiceTest, NSpellingsCostExactlyOnePrepare) {
  auto service = std::make_unique<service::QueryService>(
      MustBuild(testing::RandomCorpus(31, 24)));
  const std::vector<std::string> spellings = {
      "//NP[@lex='saw' or //N]",      "//'NP'[@lex='saw' or //N]",
      "//\"NP\"[@lex='saw' or //N]",  "//NP[@lex=\"saw\" or //N]",
      "//'NP'[@lex=\"saw\" or //'N']",
  };
  const uint64_t before = sql::PrepareCallCount();
  std::vector<QueryResult> results;
  for (const std::string& q : spellings) {
    Result<QueryResult> r = service->Query(q);
    ASSERT_TRUE(r.ok()) << q << " -> " << r.status();
    results.push_back(std::move(r).value());
  }
  // The acceptance bar: one prepared plan serves every spelling.
  EXPECT_EQ(sql::PrepareCallCount() - before, 1u);
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i], results[0]) << spellings[i];
  }
  const service::ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.cache.misses, spellings.size());
  EXPECT_EQ(stats.cache.shared_prepare_hits, spellings.size() - 1);
  EXPECT_EQ(stats.cache.size, 1u);
  EXPECT_EQ(stats.cache.texts, spellings.size());
  EXPECT_EQ(stats.cache.fingerprints, 1u);

  // A swap rebuilds the session: the next spelling prepares afresh against
  // the new snapshot (fingerprint sharing never crosses a generation).
  service->UpdateSnapshot(MustBuild(testing::RandomCorpus(32, 10)));
  const uint64_t before_swap = sql::PrepareCallCount();
  ASSERT_TRUE(service->Query(spellings[0]).ok());
  EXPECT_EQ(sql::PrepareCallCount() - before_swap, 1u);
}

TEST(FingerprintServiceTest, FingerprintsAgreeAcrossCorpora) {
  // The cache keys the *unresolved* plan: two services over different
  // corpora assign one query the same fingerprint even though symbols
  // resolve differently per dictionary.
  service::QueryService a(MustBuild(testing::RandomCorpus(7, 16)));
  service::QueryService b(MustBuild(testing::RandomCorpus(1234, 30)));
  for (const char* q :
       {"//NP//V[@lex='saw']", "//S[not(//X)]", "//VP[//N or @lex='dog']"}) {
    Result<std::shared_ptr<const sql::PreparedPlan>> pa = a.GetPlan(q);
    Result<std::shared_ptr<const sql::PreparedPlan>> pb = b.GetPlan(q);
    ASSERT_TRUE(pa.ok());
    ASSERT_TRUE(pb.ok());
    EXPECT_NE(pa.value()->fingerprint, 0u) << q;
    EXPECT_EQ(pa.value()->fingerprint, pb.value()->fingerprint) << q;
  }
}

// ---------------------------------------------------------------------------
// Differential: fingerprint-shared serving == text-keyed serving

class FingerprintDifferentialTest : public ::testing::Test {
 protected:
  /// Runs `queries` through `service` twice — original spelling, then the
  /// quoted respelling (a front-map miss that must bind by fingerprint) —
  /// and checks both against `reference`.
  static void RunDifferential(service::QueryService& service,
                              LPathEngine& reference,
                              const std::vector<std::string>& queries) {
    for (const std::string& q : queries) {
      Result<QueryResult> expected = reference.Run(q);
      ASSERT_TRUE(expected.ok()) << q << " -> " << expected.status();
      Result<QueryResult> text_keyed = service.Query(q);
      ASSERT_TRUE(text_keyed.ok()) << q << " -> " << text_keyed.status();
      ASSERT_EQ(text_keyed.value(), expected.value()) << q;
      const std::string respelled = QuoteTags(q);
      Result<QueryResult> fp_keyed = service.Query(respelled);
      ASSERT_TRUE(fp_keyed.ok()) << respelled << " -> " << fp_keyed.status();
      ASSERT_EQ(fp_keyed.value(), expected.value()) << respelled;
    }
  }

  static std::vector<std::string> FuzzQueries(uint64_t seed, int n) {
    Rng rng(seed);
    QueryGen gen(&rng);
    std::vector<std::string> queries;
    for (int i = 0; i < n; ++i) queries.push_back(gen.Query());
    return queries;
  }
};

TEST_F(FingerprintDifferentialTest, BaseOnly150Queries) {
  SnapshotPtr snap = MustBuild(testing::RandomCorpus(2026, 24));
  service::QueryServiceOptions opts;
  opts.threads = 4;
  opts.adaptive_serial_rows = 0;  // exercise the sharded path too
  service::QueryService service(snap, opts);
  LPathEngine reference(snap->relation());
  RunDifferential(service, reference, FuzzQueries(808, 150));
  const service::ServiceStats stats = service.Stats();
  EXPECT_GT(stats.cache.shared_prepare_hits, 0u);
  EXPECT_EQ(stats.cache.fingerprint_collisions, 0u);
}

TEST_F(FingerprintDifferentialTest, BaseDeltaChain150Queries) {
  // The chain prepares every structure twice (base + delta dictionaries);
  // fingerprint sharing must share *both* per-source bundles, and the
  // rebuilt-combined corpus is the ground truth.
  Corpus base = testing::RandomCorpus(17, 18);
  Corpus combined;
  combined.ResetInterner(base.interner().Clone());
  combined.AppendFrom(base);
  combined.AppendFrom(testing::RandomCorpus(18, 9));
  SnapshotPtr base_snap = MustBuild(std::move(base));
  Result<SnapshotPtr> chain =
      base_snap->Append(testing::RandomCorpus(18, 9));
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  ASSERT_TRUE((*chain)->has_delta());
  SnapshotPtr reference_snap = MustBuild(std::move(combined));

  service::QueryService service(*chain);
  LPathEngine reference(reference_snap->relation());
  RunDifferential(service, reference, FuzzQueries(909, 150));
  const service::ServiceStats stats = service.Stats();
  EXPECT_GT(stats.cache.shared_prepare_hits, 0u);
  EXPECT_EQ(stats.cache.fingerprint_collisions, 0u);
}

// ---------------------------------------------------------------------------
// Batch coalescing

TEST(FingerprintServiceTest, QueryBatchCoalescesSameStructureMembers) {
  auto service = std::make_unique<service::QueryService>(
      MustBuild(testing::RandomCorpus(2100, 22)));
  const std::vector<std::string> batch = {
      "//NP[@lex='saw' or //N]",        // group A
      "//'NP'[@lex='saw' or //N]",      // group A, respelled
      "//\"NP\"[@lex='saw' or //N]",    // group A, respelled
      "//S//VP",                        // group B
      "//S //VP",                       // group B (normalizes equal)
      "//]broken",                      // parse error
  };
  const uint64_t before = sql::PrepareCallCount();
  std::vector<Result<QueryResult>> results = service->QueryBatch(batch);
  ASSERT_EQ(results.size(), batch.size());
  // Two structures -> two prepares, regardless of six members.
  EXPECT_EQ(sql::PrepareCallCount() - before, 2u);
  ASSERT_TRUE(results[0].ok());
  for (int i : {1, 2}) {
    ASSERT_TRUE(results[i].ok()) << batch[i];
    EXPECT_EQ(results[i].value(), results[0].value()) << batch[i];
  }
  ASSERT_TRUE(results[3].ok());
  ASSERT_TRUE(results[4].ok());
  EXPECT_EQ(results[4].value(), results[3].value());
  EXPECT_FALSE(results[5].ok());
  // Group A coalesced 2 members, group B 1 (the error member never runs).
  const service::ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.batch_coalesced, 3u);
  EXPECT_EQ(stats.queries, batch.size());
  EXPECT_EQ(stats.errors, 1u);
}

}  // namespace
}  // namespace lpath
