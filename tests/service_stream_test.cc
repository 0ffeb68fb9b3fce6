// Async/streaming differential tests: rows streamed morsel by morsel,
// once collected, must be bit-identical to the synchronous Query() result
// and to the navigational reference engine — over a plain snapshot and a
// base+delta chain, with forced fan-out and with adaptive serial
// execution; Submit() handles must resolve to the same results; a
// cancelled context resolves Cancelled deterministically. This suite runs
// under ThreadSanitizer in CI.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lpath/engines.h"
#include "lpath/eval_nav.h"
#include "service/query_service.h"
#include "test_util.h"

namespace lpath {
namespace {

using testing::QueryGen;

class ServiceStreamTest : public ::testing::Test {
 protected:
  ServiceStreamTest() {
    Result<SnapshotPtr> snap =
        CorpusSnapshot::Build(testing::RandomCorpus(4242, 24, 30));
    EXPECT_TRUE(snap.ok());
    snap_ = std::move(snap).value();
    serial_ = std::make_unique<LPathEngine>(snap_->relation());
  }

  std::unique_ptr<service::QueryService> MakeService(
      service::QueryServiceOptions opts = {}) {
    return std::make_unique<service::QueryService>(snap_, opts);
  }

  SnapshotPtr snap_;
  std::unique_ptr<LPathEngine> serial_;
};

/// One shape of the streaming differential: the relation sources the
/// service reads, and whether the scheduler fans out or runs serially.
struct StreamCase {
  const char* name;
  bool chain;    ///< base + delta snapshot chain instead of a plain snapshot
  bool fan_out;  ///< adaptive_serial_rows = 0 instead of the default
};

// Names the case in test listings (ctest shows the printed parameter).
void PrintTo(const StreamCase& c, std::ostream* os) { *os << c.name; }

class ServiceStreamDiffTest : public ::testing::TestWithParam<StreamCase> {
 protected:
  void SetUp() override {
    Corpus base = testing::RandomCorpus(4242, 24, 30);
    // The oracle walks every tree the service serves, in chain tid order.
    oracle_corpus_.AppendFrom(base);
    Result<SnapshotPtr> snap = CorpusSnapshot::Build(std::move(base));
    ASSERT_TRUE(snap.ok());
    snap_ = std::move(snap).value();
    if (GetParam().chain) {
      const Corpus delta = testing::RandomCorpus(4343, 10, 30);
      Result<SnapshotPtr> chain = snap_->Append(delta);
      ASSERT_TRUE(chain.ok());
      snap_ = std::move(chain).value();
      ASSERT_TRUE(snap_->has_delta());
      oracle_corpus_.AppendFrom(delta);
    }
    oracle_ = std::make_unique<NavigationalEngine>(oracle_corpus_);
  }

  SnapshotPtr snap_;
  Corpus oracle_corpus_;
  std::unique_ptr<NavigationalEngine> oracle_;
};

TEST_P(ServiceStreamDiffTest, StreamedRowsEqualSynchronousResults) {
  service::QueryServiceOptions opts;
  opts.threads = 4;
  // Forced fan-out streams one batch per morsel; the default adaptive
  // threshold keeps every query on this small corpus serial, one
  // whole-range morsel (so at most one batch) per source.
  if (GetParam().fan_out) opts.adaptive_serial_rows = 0;
  service::QueryService service(snap_, opts);
  Rng rng(99);
  QueryGen gen(&rng);
  constexpr int kQueries = 120;
  for (int i = 0; i < kQueries; ++i) {
    const std::string q = gen.Query();
    std::vector<std::vector<Hit>> batches;
    service::QueryContext ctx;
    ctx.sink = [&batches](std::span<const Hit> rows) {
      batches.emplace_back(rows.begin(), rows.end());
    };
    const Status s = service.Query(q, ctx).status();
    ASSERT_TRUE(s.ok()) << q << " -> " << s;

    // Delivery contract: batches internally sorted, disjoint across the
    // stream, never empty.
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

    Result<QueryResult> sync = service.Query(q);
    Result<QueryResult> expected = oracle_->Run(q);
    ASSERT_TRUE(sync.ok()) << q;
    ASSERT_TRUE(expected.ok()) << q;
    ASSERT_EQ(streamed, sync.value()) << "query: " << q;
    ASSERT_EQ(streamed, expected.value()) << "query: " << q;
  }
  // The case ran the path it names.
  const service::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.queries, 2u * kQueries);
  EXPECT_EQ(stats.exec.sources, GetParam().chain ? 2u : 1u);
  if (GetParam().fan_out) {
    EXPECT_GT(stats.sharded_queries, 0u);
  } else {
    EXPECT_EQ(stats.sharded_queries, 0u);
    EXPECT_EQ(stats.exec.morsels, stats.queries);  // one per serial query
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sources, ServiceStreamDiffTest,
    ::testing::Values(StreamCase{"PlainFanOut", false, true},
                      StreamCase{"PlainSerial", false, false},
                      StreamCase{"ChainFanOut", true, true},
                      StreamCase{"ChainSerial", true, false}));

TEST_F(ServiceStreamTest, StreamingReportsErrorsWithoutRows) {
  auto service = MakeService();
  int batches = 0;
  int done_calls = 0;
  service::QueryContext ctx;
  ctx.sink = [&batches](std::span<const Hit>) { ++batches; };
  ctx.done = [&done_calls](const Status& s) {
    EXPECT_FALSE(s.ok());
    ++done_calls;
  };
  EXPECT_FALSE(service->Query("///[[", ctx).ok());
  EXPECT_EQ(batches, 0);
  EXPECT_EQ(done_calls, 1);
}

TEST_F(ServiceStreamTest, PreCancelledContextResolvesCancelledWithoutRows) {
  // A flag already set when the query starts: every morsel is skipped, so
  // the outcome is deterministic — Cancelled, no rows, one done call —
  // through both entry points and both execution shapes.
  const std::string q = "//NP//_";
  for (const bool fan_out : {false, true}) {
    service::QueryServiceOptions opts;
    opts.threads = 4;
    if (fan_out) opts.adaptive_serial_rows = 0;
    auto service = MakeService(opts);
    std::atomic<int> sink_calls{0};
    std::atomic<int> done_calls{0};
    Status last_done = Status::OK();
    service::QueryContext ctx;
    ctx.sink = [&sink_calls](std::span<const Hit>) { ++sink_calls; };
    ctx.cancel = std::make_shared<const std::atomic<bool>>(true);
    ctx.done = [&done_calls, &last_done](const Status& s) {
      last_done = s;
      ++done_calls;
    };

    Result<QueryResult> sync = service->Query(q, ctx);
    EXPECT_TRUE(sync.status().IsCancelled()) << sync.status();
    EXPECT_EQ(done_calls.load(), 1);
    EXPECT_TRUE(last_done.IsCancelled());

    // done runs before the handle resolves, so Get() also fences it.
    Result<QueryResult> async = service->Submit(q, ctx).Get();
    EXPECT_TRUE(async.status().IsCancelled()) << async.status();
    EXPECT_EQ(done_calls.load(), 2);
    EXPECT_TRUE(last_done.IsCancelled());
    EXPECT_EQ(sink_calls.load(), 0);

    const service::ServiceStats stats = service->Stats();
    EXPECT_EQ(stats.sharded_queries, fan_out ? 2u : 0u);
    EXPECT_EQ(stats.serial_queries, fan_out ? 0u : 2u);
    EXPECT_EQ(stats.exec.shards, 0u);  // no morsel executed
  }
}

TEST_F(ServiceStreamTest, SubmittedQueriesResolveToSynchronousResults) {
  service::QueryServiceOptions opts;
  opts.threads = 4;
  auto service = MakeService(opts);
  Rng rng(555);
  QueryGen gen(&rng);
  std::vector<std::string> queries;
  std::vector<service::PendingQuery> pending;
  for (int i = 0; i < 50; ++i) {
    queries.push_back(gen.Query());
    pending.push_back(service->Submit(queries.back()));
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    Result<QueryResult> got = pending[i].Get();
    Result<QueryResult> expected = serial_->Run(queries[i]);
    ASSERT_TRUE(got.ok()) << queries[i] << " -> " << got.status();
    ASSERT_TRUE(expected.ok());
    ASSERT_EQ(got.value(), expected.value()) << "query: " << queries[i];
    EXPECT_TRUE(pending[i].ready());  // resolved handles stay readable
  }
}

TEST_F(ServiceStreamTest, SubmitWithSinkStreamsAndResolves) {
  service::QueryServiceOptions opts;
  opts.threads = 4;
  opts.adaptive_serial_rows = 0;
  auto service = MakeService(opts);
  const std::string q = "//NP//_";
  QueryResult streamed;
  service::QueryContext ctx;
  ctx.sink = [&streamed](std::span<const Hit> rows) {
    streamed.hits.insert(streamed.hits.end(), rows.begin(), rows.end());
  };
  service::PendingQuery pending = service->Submit(q, ctx);
  Result<QueryResult> got = pending.Get();  // also fences the sink writes
  ASSERT_TRUE(got.ok());
  streamed.Normalize();
  EXPECT_EQ(streamed, got.value());
  Result<QueryResult> expected = serial_->Run(q);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(got.value(), expected.value());
}

TEST_F(ServiceStreamTest, SubmittedErrorsSurfaceThroughTheHandle) {
  auto service = MakeService();
  service::PendingQuery bad = service->Submit("///[[");
  Result<QueryResult> r = bad.Get();
  EXPECT_FALSE(r.ok());

  service::PendingQuery empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_FALSE(empty.ready());
  EXPECT_TRUE(empty.Get().status().IsInvalidArgument());
}

TEST_F(ServiceStreamTest, HandlesOutliveTheService) {
  // Queued tasks are drained by the pool destructor; a handle held past
  // service destruction must still resolve.
  service::PendingQuery pending;
  Result<QueryResult> expected = serial_->Run("//VP[//N]");
  ASSERT_TRUE(expected.ok());
  {
    auto service = MakeService();
    pending = service->Submit("//VP[//N]");
  }
  Result<QueryResult> got = pending.Get();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), expected.value());
}

}  // namespace
}  // namespace lpath
