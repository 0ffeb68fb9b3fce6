// "Figure 11" (ours, not the paper's): query throughput of the
// QueryService serving layer versus thread count, on the WSJ and SWB
// profile corpora.
//
// Two shapes are measured over the 23-query suite, plans from the warm LRU
// cache:
//   Morsel/<dataset>/threads:N — single-query latency: each query's
//     execution carved into row-balanced morsels pulled by N workers from
//     the shared claim cursor.
//   Serial/<dataset>/threads:N — the serial baseline (fan-out forced to
//     one); flat in N by construction.
// Expected shape: morsel latency gains are query-dependent (long scans
// split well, tiny lookups are overhead-bound).
// The printed table reports the speedup over threads:1.
//
// Machine-readable output (the BENCH_*.json trajectory): set
// LPATHDB_BENCH_JSON=<path> to write the table as JSON after the run; the
// bench also honours Google Benchmark's own --benchmark_out=<path>
// (--benchmark_out_format=json) for the raw per-benchmark dump. CI runs
// both through the bench_fig11_report ctest entry and uploads the files.

#include <cstdio>
#include <cstdlib>

#include "bench_common.h"
#include "service/query_service.h"

namespace lpath {
namespace bench {
namespace {

const std::vector<std::string>& SuiteQueries() {
  static const std::vector<std::string>* queries = [] {
    auto* q = new std::vector<std::string>();
    for (const BenchmarkQuery& bq : The23Queries()) q->push_back(bq.lpath);
    return q;
  }();
  return *queries;
}

/// Whether a service runs the full morsel scheduler or the forced-serial
/// baseline — the serial/parallel axis of the report.
enum class Mode { kSerial, kMorsel };

/// Services keyed by (dataset, threads, mode). A leaked-pointer map (so
/// no static destructor drops the entries behind LeakSanitizer's back);
/// main() frees the services, which also joins their pools.
std::map<std::tuple<Dataset, int, Mode>, service::QueryService*>&
ServiceRegistry() {
  static auto* services =
      new std::map<std::tuple<Dataset, int, Mode>, service::QueryService*>();
  return *services;
}

service::QueryService* GetService(Dataset dataset, int threads, Mode mode) {
  service::QueryService*& slot = ServiceRegistry()[{dataset, threads, mode}];
  if (slot == nullptr) {
    const EngineSet& fx = GetFixture(dataset);
    service::QueryServiceOptions opts;
    opts.threads = threads;
    // Fixed fan-out: this figure measures morsel scheduling against thread
    // count, so the adaptive serial heuristic is disabled; the serial
    // baseline instead caps the per-query fan-out at one worker.
    opts.adaptive_serial_rows = 0;
    if (mode == Mode::kSerial) opts.shards_per_query = 1;
    slot = new service::QueryService(fx.lpath_snapshot, opts);
    // Warm the plan cache so the timed loop measures the serve path, not
    // the one-off parse/compile/optimize of each query.
    for (const std::string& q : SuiteQueries()) (void)slot->GetPlan(q);
  }
  return slot;
}

void FreeServices() {
  for (auto& [key, service] : ServiceRegistry()) delete service;
  ServiceRegistry().clear();
}

ReportTable& Fig11Table() {
  static ReportTable* table = new ReportTable(
      "Figure 11 — QueryService throughput vs. thread count (23-query "
      "suite)");
  return *table;
}

std::string ThreadColumn(int threads) {
  std::string c = "T";
  c += std::to_string(threads);
  return c;
}

std::string RowName(const char* shape, Dataset dataset) {
  std::string row = shape;
  row += "/";
  row += DatasetName(dataset);
  return row;
}

/// One pass over the suite, each query morsel-parallel (or forced serial);
/// mean seconds per suite pass.
void BenchPerQuery(benchmark::State& st, Dataset dataset, int threads,
                   Mode mode) {
  service::QueryService* service = GetService(dataset, threads, mode);
  const std::vector<std::string>& queries = SuiteQueries();
  // Stats are service-lifetime-cumulative and this body runs more than
  // once per service; report this loop's delta.
  const service::ServiceStats before = service->Stats();

  double total = 0.0;
  uint64_t iters = 0;
  for (auto _ : st) {
    Timer timer;
    for (const std::string& q : queries) {
      Result<QueryResult> r = service->Query(q);
      if (!r.ok()) {
        st.SkipWithError(r.status().ToString().c_str());
        return;
      }
    }
    total += timer.ElapsedSeconds();
    ++iters;
  }
  st.SetItemsProcessed(static_cast<int64_t>(iters * queries.size()));
  if (iters > 0) {
    const double per_suite = total / static_cast<double>(iters);
    st.counters["qps"] =
        static_cast<double>(queries.size()) / per_suite;
    const service::ServiceStats stats = service->Stats();
    const uint64_t d_queries = stats.queries - before.queries;
    const uint64_t d_morsels = stats.exec.morsels - before.exec.morsels;
    st.counters["morsels_per_query"] =
        d_queries > 0 ? static_cast<double>(d_morsels) /
                            static_cast<double>(d_queries)
                      : 0.0;
    st.counters["steals"] = static_cast<double>(stats.exec.steal_count -
                                                before.exec.steal_count);
    Fig11Table().Record(
        RowName(mode == Mode::kSerial ? "Serial" : "Morsel", dataset),
        ThreadColumn(threads), Measurement{per_suite, queries.size(), true});
  }
}

void RegisterAll() {
  for (Dataset dataset : {Dataset::kWsj, Dataset::kSwb}) {
    for (int threads : {1, 2, 4, 8}) {
      struct Shape {
        const char* prefix;
        Mode mode;
      };
      for (const Shape& shape :
           {Shape{"Morsel", Mode::kMorsel}, Shape{"Serial", Mode::kSerial}}) {
        std::string name = RowName(shape.prefix, dataset);
        name += "/threads:";
        name += std::to_string(threads);
        benchmark::RegisterBenchmark(
            name.c_str(),
            [dataset, threads, mode = shape.mode](benchmark::State& st) {
              BenchPerQuery(st, dataset, threads, mode);
            })
            ->UseRealTime()
            ->Unit(benchmark::kMillisecond);
      }
    }
  }
}

void PrintTables() {
  printf("%s", Fig11Table().Render({"T1", "T2", "T4", "T8"}).c_str());
  printf("\n(times are per 23-query suite pass; speedup = T1 / TN; scale: "
         "%d sentences, LPATHDB_SENTENCES overrides)\n",
         BenchmarkSentences());
}

/// Writes the table as the BENCH_fig11.json trajectory point when
/// LPATHDB_BENCH_JSON names a path.
void MaybeWriteJson() {
  const char* path = std::getenv("LPATHDB_BENCH_JSON");
  if (path == nullptr || path[0] == '\0') return;
  // Stamped with git SHA / compiler / nproc so uploaded trajectories are
  // diffable across runs and runners (bench/bench_diff.py reads these).
  std::map<std::string, std::string> extra = RunMetadataJson();
  extra["benchmark"] = "\"fig11\"";
  extra["unit"] = "\"seconds per 23-query suite pass\"";
  extra["sentences"] = std::to_string(BenchmarkSentences());
  extra["threads"] = "[1, 2, 4, 8]";
  const std::string json = Fig11Table().RenderJson(extra);
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  fputs(json.c_str(), f);
  std::fclose(f);
  printf("wrote %s\n", path);
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
  lpath::bench::MaybeWriteJson();
  lpath::bench::FreeServices();
  return 0;
}
