// Morsel scheduling on a skewed corpus: the measurement behind the
// skew-aware rework. The corpus is the SKEW profile (a few clause-chain
// giants among many tiny sentences), where splitting work evenly by tree
// *count* — the old scheduler — leaves whichever shard holds the giants
// running long after the rest went idle.
//
// Three execution shapes, per thread count:
//   Serial/threads:N    — one worker (baseline; flat in N);
//   EvenShard/threads:N — the old fixed split: N shards of equal tree
//                         count, one thread each (no stealing);
//   Morsel/threads:N    — the service's scheduler: ~4N row-balanced
//                         morsels pulled from the shared claim cursor.
// On multi-core hardware EvenShard trails Morsel by roughly the row share
// of the heaviest even shard; on a single-CPU container all three curves
// are flat and only the scheduling overhead differs.

#include <cstdlib>
#include <thread>

#include "bench_common.h"
#include "gen/generator.h"
#include "lpath/engines.h"
#include "service/query_service.h"
#include "sql/executor.h"
#include "sql/optimizer.h"
#include "storage/snapshot.h"

namespace lpath {
namespace bench {
namespace {

/// Skew-corpus scale (env LPATHDB_SKEW_SENTENCES, default 1000).
int SkewSentences() {
  static const int sentences = [] {
    const char* env = std::getenv("LPATHDB_SKEW_SENTENCES");
    const int n = env != nullptr ? std::atoi(env) : 0;
    return n > 0 ? n : 1000;
  }();
  return sentences;
}

const SnapshotPtr& SkewSnapshot() {
  static const SnapshotPtr* snap = [] {
    Result<Corpus> corpus = gen::GenerateSkewed(SkewSentences(), /*seed=*/41);
    if (!corpus.ok()) {
      fprintf(stderr, "skew corpus: %s\n", corpus.status().ToString().c_str());
      std::abort();
    }
    Result<SnapshotPtr> built = CorpusSnapshot::Build(std::move(corpus).value());
    if (!built.ok()) {
      fprintf(stderr, "snapshot: %s\n", built.status().ToString().c_str());
      std::abort();
    }
    return new SnapshotPtr(std::move(built).value());
  }();
  return *snap;
}

/// Scan-heavy and EXISTS-heavy shapes; the latter runs a subplan per
/// binding inside every morsel.
const std::vector<std::string>& SkewQueries() {
  static const auto* queries = new std::vector<std::string>{
      "//NP//N",
      "//VP//_",
      "//VP[//N or @lex='zzzunknown']",
  };
  return *queries;
}

enum class Mode { kSerial, kMorsel };

std::map<std::pair<Mode, int>, service::QueryService*>& ServiceRegistry() {
  static auto* services =
      new std::map<std::pair<Mode, int>, service::QueryService*>();
  return *services;
}

service::QueryService* GetService(Mode mode, int threads) {
  service::QueryService*& slot = ServiceRegistry()[{mode, threads}];
  if (slot == nullptr) {
    service::QueryServiceOptions opts;
    opts.threads = threads;
    opts.adaptive_serial_rows = 0;
    if (mode == Mode::kSerial) opts.shards_per_query = 1;
    slot = new service::QueryService(SkewSnapshot(), opts);
    for (const std::string& q : SkewQueries()) (void)slot->GetPlan(q);
  }
  return slot;
}

void FreeServices() {
  for (auto& [key, service] : ServiceRegistry()) delete service;
  ServiceRegistry().clear();
}

/// Prepared plans for the even-shard baseline, built once.
const std::vector<const sql::PreparedPlan*>& PreparedQueries() {
  static const auto* plans = [] {
    auto* out = new std::vector<const sql::PreparedPlan*>();
    LPathEngine engine(SkewSnapshot()->relation());
    for (const std::string& q : SkewQueries()) {
      Result<ExecPlan> plan = engine.Translate(q);
      if (!plan.ok()) std::abort();
      Result<std::unique_ptr<sql::PreparedPlan>> pp =
          sql::Prepare(plan.value(), SkewSnapshot()->relation(), {});
      if (!pp.ok()) std::abort();
      out->push_back(std::move(pp).value().release());  // leaked (LSan-safe)
    }
    return out;
  }();
  return *plans;
}

ReportTable& SkewTable() {
  static ReportTable* table = new ReportTable(
      "Morsel scheduling on the SKEW corpus (suite pass; serial vs "
      "even-by-tid shards vs morsels)");
  return *table;
}

std::string ThreadColumn(int threads) {
  std::string c = "T";
  c += std::to_string(threads);
  return c;
}

void RecordSuite(benchmark::State& st, const std::string& row, int threads,
                 double total, uint64_t iters, size_t hits) {
  st.SetItemsProcessed(
      static_cast<int64_t>(iters * SkewQueries().size()));
  if (iters == 0) return;
  const double per_suite = total / static_cast<double>(iters);
  st.counters["qps"] =
      static_cast<double>(SkewQueries().size()) / per_suite;
  SkewTable().Record(row, ThreadColumn(threads),
                     Measurement{per_suite, hits, true});
}

/// Service-path suite pass (serial or morsel mode).
void BenchService(benchmark::State& st, Mode mode, int threads) {
  service::QueryService* service = GetService(mode, threads);
  // Delta-based counters: stats are cumulative across benchmark reruns of
  // the same registry service.
  const service::ServiceStats before = service->Stats();
  double total = 0.0;
  uint64_t iters = 0;
  size_t hits = 0;
  for (auto _ : st) {
    Timer timer;
    for (const std::string& q : SkewQueries()) {
      Result<QueryResult> r = service->Query(q);
      if (!r.ok()) {
        st.SkipWithError(r.status().ToString().c_str());
        return;
      }
      hits = r->count();
    }
    total += timer.ElapsedSeconds();
    ++iters;
  }
  if (mode == Mode::kMorsel) {
    const service::ServiceStats stats = service->Stats();
    const uint64_t d_queries = stats.queries - before.queries;
    const uint64_t d_morsels = stats.exec.morsels - before.exec.morsels;
    st.counters["morsels_per_query"] =
        d_queries > 0 ? static_cast<double>(d_morsels) /
                            static_cast<double>(d_queries)
                      : 0.0;
    st.counters["steals"] = static_cast<double>(stats.exec.steal_count -
                                                before.exec.steal_count);
  }
  RecordSuite(st, mode == Mode::kSerial ? "Serial" : "Morsel", threads, total,
              iters, hits);
}

/// The old scheduler, reproduced exactly: N shards of equal *tree count*,
/// one dedicated thread each, no cursor to steal from.
void BenchEvenShard(benchmark::State& st, int threads) {
  const NodeRelation& rel = SkewSnapshot()->relation();
  sql::PlanExecutor executor(SkewSnapshot());
  const int32_t trees = rel.tree_count();
  double total = 0.0;
  uint64_t iters = 0;
  size_t hits = 0;
  for (auto _ : st) {
    Timer timer;
    for (const sql::PreparedPlan* pp : PreparedQueries()) {
      std::vector<QueryResult> parts(threads);
      std::vector<std::thread> workers;
      workers.reserve(threads);
      for (int i = 0; i < threads; ++i) {
        workers.emplace_back([&, i] {
          const int32_t lo = static_cast<int32_t>(int64_t{trees} * i / threads);
          const int32_t hi =
              static_cast<int32_t>(int64_t{trees} * (i + 1) / threads);
          Result<QueryResult> part = executor.ExecuteShard(*pp, lo, hi);
          if (part.ok()) parts[i] = std::move(part).value();
        });
      }
      for (std::thread& w : workers) w.join();
      QueryResult merged;
      for (QueryResult& part : parts) {
        merged.hits.insert(merged.hits.end(), part.hits.begin(),
                           part.hits.end());
      }
      merged.Normalize();
      hits = merged.count();
      benchmark::DoNotOptimize(merged);
    }
    total += timer.ElapsedSeconds();
    ++iters;
  }
  RecordSuite(st, "EvenShard", threads, total, iters, hits);
}

void RegisterAll() {
  for (int threads : {1, 2, 4, 8}) {
    for (const char* shape : {"Serial", "EvenShard", "Morsel"}) {
      std::string name = shape;
      name += "/threads:";
      name += std::to_string(threads);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [shape = std::string(shape), threads](benchmark::State& st) {
            if (shape == "Serial") {
              BenchService(st, Mode::kSerial, threads);
            } else if (shape == "Morsel") {
              BenchService(st, Mode::kMorsel, threads);
            } else {
              BenchEvenShard(st, threads);
            }
          })
          ->UseRealTime()
          ->Unit(benchmark::kMillisecond);
    }
  }
}

void PrintTables() {
  printf("%s", SkewTable().Render({"T1", "T2", "T4", "T8"}).c_str());
  printf("\n(per suite pass over %zu queries; SKEW corpus: %d sentences, "
         "LPATHDB_SKEW_SENTENCES overrides; speedup needs real cores)\n",
         SkewQueries().size(), SkewSentences());
}

}  // namespace
}  // namespace bench
}  // namespace lpath

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  lpath::bench::RegisterAll();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  lpath::bench::PrintTables();
  lpath::bench::FreeServices();
  return 0;
}
