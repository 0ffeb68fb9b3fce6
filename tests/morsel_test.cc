// Morsel-driven execution tests, all over the skewed corpus profile (a few
// huge clause-chain trees among many tiny ones — the input that breaks
// tree-count-based work splitting):
//   - the planner's row-balanced carving must bound per-worker work where
//     the old even-by-tid split provably does not;
//   - morsel execution (Query, plain and streaming) must be result-
//     identical to serial ExecutePrepared — differential over the fuzz
//     query generator;
//   - EXISTS-heavy queries must survive concurrent morsels plus snapshot
//     hot swaps without races (this suite runs under ThreadSanitizer in
//     CI).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gen/generator.h"
#include "lpath/engines.h"
#include "service/query_service.h"
#include "storage/snapshot.h"
#include "test_util.h"

namespace lpath {
namespace {

using testing::QueryGen;

/// Row masses of an even-by-tid split into `shards` slices — the old
/// scheduler's partition, kept here as the baseline under test.
std::vector<uint64_t> EvenSplitMasses(const NodeRelation& rel, int shards) {
  std::vector<uint64_t> masses;
  const int64_t trees = rel.tree_count();
  for (int i = 0; i < shards; ++i) {
    const int32_t lo = static_cast<int32_t>(trees * i / shards);
    const int32_t hi = static_cast<int32_t>(trees * (i + 1) / shards);
    masses.push_back(rel.TreeRowsBefore(hi) - rel.TreeRowsBefore(lo));
  }
  return masses;
}

/// Deterministic model of the shared claim cursor: morsels are claimed in
/// order by whichever worker is least loaded (list scheduling) — per-worker
/// totals under dynamic claiming are bounded by this assignment's shape.
std::vector<uint64_t> ListSchedule(const std::vector<TidRange>& morsels,
                                   int workers) {
  std::vector<uint64_t> load(workers, 0);
  for (const TidRange& m : morsels) {
    *std::min_element(load.begin(), load.end()) += m.rows;
  }
  return load;
}

double MaxOverMin(const std::vector<uint64_t>& masses) {
  const auto [mn, mx] = std::minmax_element(masses.begin(), masses.end());
  return static_cast<double>(*mx) /
         static_cast<double>(std::max<uint64_t>(1, *mn));
}

TEST(MorselPlannerTest, CarveBalancesSkewWhereEvenByTidSplitDoesNot) {
  // 128 skewed sentences: a handful of clause-chain giants (~900 rows)
  // among medians of ~15 rows (seed chosen for a stable shape).
  Result<Corpus> corpus = gen::GenerateSkewed(128, /*seed=*/41);
  ASSERT_TRUE(corpus.ok());
  Result<NodeRelation> rel = NodeRelation::Build(std::move(corpus).value());
  ASSERT_TRUE(rel.ok());
  const NodeRelation& r = rel.value();
  const uint64_t total = r.TreeRowsBefore(r.tree_count());
  ASSERT_EQ(total, r.row_count());
  uint64_t max_tree = 0;
  for (int32_t t = 0; t < r.tree_count(); ++t) {
    max_tree = std::max(max_tree, r.TreeRowCount(t));
  }
  ASSERT_GT(max_tree, total / 16)  // the profile really is skewed
      << "skew profile regressed: no dominant tree";

  constexpr int kWorkers = 8;
  const std::vector<TidRange> morsels = r.CarveTidRanges(4 * kWorkers);

  // The carve is a contiguous partition of the tid space covering every row.
  ASSERT_GT(morsels.size(), 1u);
  ASSERT_LE(morsels.size(), static_cast<size_t>(4 * kWorkers));
  int32_t expect_lo = 0;
  uint64_t covered = 0;
  const uint64_t target = (total + 4 * kWorkers - 1) / (4 * kWorkers);
  for (const TidRange& m : morsels) {
    EXPECT_EQ(m.tid_lo, expect_lo);
    EXPECT_LT(m.tid_lo, m.tid_hi);
    EXPECT_EQ(m.rows, r.TreeRowsBefore(m.tid_hi) - r.TreeRowsBefore(m.tid_lo));
    // Balance invariant: a slice stops at the tree that crosses the
    // target, so it can overshoot by at most one (possibly giant) tree.
    EXPECT_LE(m.rows, target + max_tree);
    expect_lo = m.tid_hi;
    covered += m.rows;
  }
  EXPECT_EQ(expect_lo, r.tree_count());
  EXPECT_EQ(covered, total);

  // The point of the rework: per-worker row mass under the claim cursor is
  // bounded, while the old even-by-tid split concentrates the giants.
  const double even_ratio = MaxOverMin(EvenSplitMasses(r, kWorkers));
  const double morsel_ratio = MaxOverMin(ListSchedule(morsels, kWorkers));
  EXPECT_GT(even_ratio, 4.0) << "even split should be provably imbalanced";
  EXPECT_LT(morsel_ratio, 3.0);
  EXPECT_GT(even_ratio, 2.0 * morsel_ratio);
}

TEST(MorselPlannerTest, CarveRespectsMinimumMorselRows) {
  Result<Corpus> corpus = gen::GenerateSkewed(64, /*seed=*/123);
  ASSERT_TRUE(corpus.ok());
  Result<NodeRelation> rel = NodeRelation::Build(std::move(corpus).value());
  ASSERT_TRUE(rel.ok());
  const NodeRelation& r = rel.value();
  const uint64_t total = r.TreeRowsBefore(r.tree_count());

  // A minimum above the whole corpus collapses to one slice.
  EXPECT_EQ(r.CarveTidRanges(16, total + 1).size(), 1u);

  // Otherwise every slice but the last reaches the minimum.
  const std::vector<TidRange> morsels = r.CarveTidRanges(64, /*min_rows=*/100);
  ASSERT_GT(morsels.size(), 1u);
  for (size_t i = 0; i + 1 < morsels.size(); ++i) {
    EXPECT_GE(morsels[i].rows, 100u);
  }
}

TEST(MorselPlannerTest, CarveOfEmptyRelationIsEmpty) {
  Corpus corpus;  // no trees
  Result<NodeRelation> rel = NodeRelation::Build(corpus);
  ASSERT_TRUE(rel.ok());
  EXPECT_TRUE(rel.value().CarveTidRanges(8).empty());
}

class MorselServiceTest : public ::testing::Test {
 protected:
  MorselServiceTest() {
    Result<Corpus> corpus = gen::GenerateSkewed(64, /*seed=*/123);
    EXPECT_TRUE(corpus.ok());
    Result<SnapshotPtr> snap = CorpusSnapshot::Build(std::move(corpus).value());
    EXPECT_TRUE(snap.ok());
    snap_ = std::move(snap).value();
    serial_ = std::make_unique<LPathEngine>(snap_->relation());
  }

  std::unique_ptr<service::QueryService> MakeMorselService(int threads = 4) {
    service::QueryServiceOptions opts;
    opts.threads = threads;
    opts.adaptive_serial_rows = 0;  // always fan out: the point is morsels
    return std::make_unique<service::QueryService>(snap_, opts);
  }

  SnapshotPtr snap_;
  std::unique_ptr<LPathEngine> serial_;
};

TEST_F(MorselServiceTest, MorselQueriesMatchSerialOnSkewedCorpus) {
  auto service = MakeMorselService();
  Rng rng(20260730);
  QueryGen gen(&rng);
  for (int i = 0; i < 150; ++i) {
    const std::string q = gen.Query();
    Result<QueryResult> got = service->Query(q);
    Result<QueryResult> expected = serial_->Run(q);
    ASSERT_TRUE(got.ok()) << q << " -> " << got.status();
    ASSERT_TRUE(expected.ok()) << q << " -> " << expected.status();
    ASSERT_EQ(got.value(), expected.value()) << "query: " << q;
  }
  // The workload really exercised the morsel path: fan-outs recorded more
  // than one morsel per sharded query on average.
  const service::ServiceStats stats = service->Stats();
  EXPECT_GT(stats.sharded_queries, 0u);
  EXPECT_GT(stats.exec.morsels, stats.queries);
}

TEST_F(MorselServiceTest, StreamedMorselBatchesMatchSerialOnSkewedCorpus) {
  auto service = MakeMorselService();
  Rng rng(424242);
  QueryGen gen(&rng);
  for (int i = 0; i < 100; ++i) {
    const std::string q = gen.Query();
    std::vector<std::vector<Hit>> batches;
    service::QueryContext ctx;
    ctx.sink = [&batches](std::span<const Hit> rows) {
      batches.emplace_back(rows.begin(), rows.end());
    };
    const Status s = service->Query(q, ctx).status();
    ASSERT_TRUE(s.ok()) << q << " -> " << s;

    // Delivery contract unchanged by morsel scheduling: batches internally
    // sorted, disjoint, never empty; union = the serial DISTINCT result.
    std::set<Hit> seen;
    QueryResult streamed;
    for (const std::vector<Hit>& batch : batches) {
      ASSERT_FALSE(batch.empty()) << q;
      ASSERT_TRUE(std::is_sorted(batch.begin(), batch.end())) << q;
      for (const Hit& h : batch) {
        ASSERT_TRUE(seen.insert(h).second) << "duplicate row streamed: " << q;
        streamed.hits.push_back(h);
      }
    }
    streamed.Normalize();
    Result<QueryResult> expected = serial_->Run(q);
    ASSERT_TRUE(expected.ok()) << q;
    ASSERT_EQ(streamed, expected.value()) << "query: " << q;
  }
}

TEST(MorselMemoHammerTest, ConcurrentMorselsAndHotSwapsStayConsistent) {
  // Clients hammer EXISTS-heavy queries (all morsels of each execution
  // share one prepared plan) while a swapper republishes alternating
  // snapshots; every answer must match one of the two snapshots' truths.
  // TSan runs this in CI.
  Result<Corpus> corpus_a = gen::GenerateSkewed(48, /*seed=*/7);
  Result<Corpus> corpus_b = gen::GenerateSkewed(56, /*seed=*/99);
  ASSERT_TRUE(corpus_a.ok());
  ASSERT_TRUE(corpus_b.ok());
  Result<SnapshotPtr> snap_a = CorpusSnapshot::Build(std::move(corpus_a).value());
  Result<SnapshotPtr> snap_b = CorpusSnapshot::Build(std::move(corpus_b).value());
  ASSERT_TRUE(snap_a.ok());
  ASSERT_TRUE(snap_b.ok());

  const std::vector<std::string> queries = {
      "//VP[//N or @lex='zzzunknown']",
      "//S[not(//X)]",
      "//VP[//N or //Det]",
      "//NP[not(//V[@lex='saw'])]",
  };
  LPathEngine engine_a((*snap_a)->relation());
  LPathEngine engine_b((*snap_b)->relation());
  std::vector<QueryResult> truth_a, truth_b;
  for (const std::string& q : queries) {
    Result<QueryResult> ra = engine_a.Run(q);
    Result<QueryResult> rb = engine_b.Run(q);
    ASSERT_TRUE(ra.ok()) << q;
    ASSERT_TRUE(rb.ok()) << q;
    truth_a.push_back(std::move(ra).value());
    truth_b.push_back(std::move(rb).value());
  }

  service::QueryServiceOptions opts;
  opts.threads = 4;
  opts.adaptive_serial_rows = 0;
  service::QueryService service(*snap_a, opts);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread swapper([&] {
    bool use_b = true;
    for (int i = 0; i < 40; ++i) {
      service.UpdateSnapshot(use_b ? *snap_b : *snap_a);
      use_b = !use_b;
      std::this_thread::yield();
    }
    stop.store(true);
  });

  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      int round = 0;
      while (!stop.load() || round < 8) {
        const size_t qi = (c + round) % queries.size();
        Result<QueryResult> r = service.Query(queries[qi]);
        if (!r.ok() ||
            !(r.value() == truth_a[qi] || r.value() == truth_b[qi])) {
          failures.fetch_add(1);
        }
        QueryResult streamed;
        service::QueryContext ctx;
        ctx.sink = [&streamed](std::span<const Hit> rows) {
          streamed.hits.insert(streamed.hits.end(), rows.begin(), rows.end());
        };
        const Status s =
            service.Query(queries[(qi + 1) % queries.size()], ctx).status();
        streamed.Normalize();
        const size_t si = (qi + 1) % queries.size();
        if (!s.ok() ||
            !(streamed == truth_a[si] || streamed == truth_b[si])) {
          failures.fetch_add(1);
        }
        ++round;
      }
    });
  }
  swapper.join();
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  const service::ServiceStats stats = service.Stats();
  EXPECT_GT(stats.queries, 0u);
  EXPECT_EQ(stats.errors, 0u);
}

}  // namespace
}  // namespace lpath
