#include "workloads.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <malloc.h>
#include <functional>
#include <memory>
#include <random>
#include <thread>
#include <unordered_map>
#include <utility>

#include "bench_util/suite.h"
#include "db/database.h"
#include "gen/generator.h"
#include "lpath/eval_nav.h"
#include "lpath/parser.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "plan/compile.h"
#include "querygen.h"
#include "service/plan_cache.h"
#include "sql/executor.h"
#include "sql/fingerprint.h"
#include "sql/optimizer.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "tree/bracket_io.h"

namespace perfbench {

using lpath::Corpus;
using lpath::Hit;
using lpath::QueryResult;
using lpath::Result;
using lpath::SnapshotPtr;
using lpath::Status;
namespace fs = std::filesystem;

void Report::Merge(uint64_t attempted_ops, uint64_t failed_ops,
                   const std::vector<std::string>& messages) {
  attempted += attempted_ops;
  failed += failed_ops;
  for (const std::string& m : messages) {
    if (errors.size() < 8) errors.push_back(m);
  }
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"suite_direct", "wire_mixed",
                                                  "live_ingest"};
  return kNames;
}

namespace {

// Set-up runs this many times per run; setup_s is the median.
constexpr int kSetupRepeats = 9;
// Share of a traced run spent in the alternating untraced/traced workload
// slices; the rest probes the layers one public call at a time.
constexpr double kTracedWindowShare = 0.6;
// Slices of an untraced run; its rates and percentiles are medians over
// them. live_ingest runs epochs instead (see RunLiveIngest).
constexpr int kSlices = 10;
constexpr int kEpochs = 5;

// Span names: "<layer>.<public function>".
constexpr const char* kOpSpan = "bench.op";
constexpr const char* kProbeSpan = "bench.probe";
constexpr const char* kParse = "lpath.ParseLPath";
constexpr const char* kCompile = "plan.CompileLPath";
constexpr const char* kFingerprint = "sql.PlanFingerprint";
constexpr const char* kPrepare = "sql.Prepare";
constexpr const char* kExec = "sql.PlanExecutor::ExecutePrepared";
constexpr const char* kGetPlan = "service.QueryService::GetPlan";
constexpr const char* kServiceQuery = "service.QueryService::Query";
constexpr const char* kDbQuery = "db.Database::Query";
constexpr const char* kDbIngest = "db.Database::Ingest";
constexpr const char* kClientQuery = "net.Client::Query";
constexpr const char* kEncode = "net.EncodeBatch";
constexpr const char* kDecode = "net.DecodeBatch";
constexpr const char* kImageOpen = "storage.CorpusSnapshot::Open";
constexpr const char* kAppend = "storage.CorpusSnapshot::Append";
constexpr const char* kWalAppend = "storage.Wal::Append";
constexpr const char* kCompaction = "storage.compaction";

uint64_t SubSeed(uint64_t seed, uint64_t k) {
  uint64_t x = seed * 0x9e3779b97f4a7c15ull + k + 1;
  x ^= x >> 31;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 29;
  return x;
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

double Median(std::vector<double> v) { return Percentile(std::move(v), 50.0); }

// --- Correctness accounting -------------------------------------------------

/// One thread's operation outcomes.
struct Checker {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void Pass() { ++attempted; }
  void Fail(std::string message) {
    ++attempted;
    ++failed;
    if (errors.size() < 4) errors.push_back(std::move(message));
  }
  /// Counts `status` (must be OK) and `got` == `want`.
  void Expect(const Status& status, const Digest& got, const Digest& want,
              const std::string& what) {
    if (!status.ok()) {
      Fail(what + ": " + status.ToString());
    } else if (!(got == want)) {
      Fail(what + ": " + std::to_string(got.count) + " hits, oracle " +
           std::to_string(want.count));
    } else {
      Pass();
    }
  }
  void MergeInto(Report* report) const {
    report->Merge(attempted, failed, errors);
  }
};

Result<Digest> NavDigest(const lpath::NavigationalEngine& nav,
                         const std::string& query) {
  Result<QueryResult> r = nav.Run(query);
  if (!r.ok()) return r.status();
  return DigestOf(r->hits);
}

// --- The measurement window -------------------------------------------------

/// Consecutive time slices of a closed-loop run. Client threads read the
/// current slice at the start of each operation and log the operation
/// there. Untraced runs measure equal slices of kind 0 and report
/// medians over them, which damps stalls that hit one slice; traced runs
/// alternate untraced (0) and traced (1) slices in a mirrored order, 0110
/// twice, which loads both kinds alike when the workload drifts.
class Window {
 public:
  static constexpr int kNotStarted = -1;
  static constexpr int kStop = -2;

  /// Slices of the given kinds, each lasting `slice_seconds`.
  Window(std::vector<int> kinds, double slice_seconds)
      : kinds_(std::move(kinds)),
        slice_seconds_(slice_seconds),
        seconds_(kinds_.size(), 0.0) {}

  /// The window of a run of `seconds`: kSlices untraced slices, or 0110
  /// twice over the traced share of the run.
  static Window ForRun(bool traced, double seconds) {
    if (!traced) return Window(std::vector<int>(kSlices, 0), seconds / kSlices);
    return Window({0, 1, 1, 0, 0, 1, 1, 0}, seconds * kTracedWindowShare / 8);
  }

  int slice() const { return slice_.load(std::memory_order_acquire); }
  bool stopped() const { return slice() == kStop; }
  void WaitStart() const {
    while (slice() == kNotStarted) std::this_thread::yield();
  }
  size_t slices() const { return kinds_.size(); }
  int kind(size_t slice) const { return kinds_[slice]; }
  double seconds(size_t slice) const { return seconds_[slice]; }

  void Run() {
    for (size_t i = 0; i < kinds_.size(); ++i) {
      const int64_t start = NowNs();
      slice_.store(static_cast<int>(i), std::memory_order_release);
      std::this_thread::sleep_for(std::chrono::duration<double>(slice_seconds_));
      seconds_[i] = static_cast<double>(NowNs() - start) / 1e9;
    }
    slice_.store(kStop, std::memory_order_release);
  }

 private:
  std::vector<int> kinds_;
  double slice_seconds_ = 0.0;
  std::vector<double> seconds_;
  std::atomic<int> slice_{kNotStarted};
};

/// One thread's operation latencies (ms), per window slice.
struct OpLog {
  explicit OpLog(const Window& w) : ms(w.slices()) {}
  std::vector<std::vector<double>> ms;
  void Add(int slice, int64_t start_ns, int64_t end_ns) {
    ms[slice].push_back(Ms(end_ns - start_ns));
  }
};

/// The operations of one slice (or one epoch): their rate and latencies.
struct SliceSummary {
  double rate = 0.0;
  std::vector<double> ms;
};

/// Summaries of every slice of `kind`, each pooling all threads' logs.
/// The rate counts operations times `per_op` per second.
std::vector<SliceSummary> SummarizeSlices(const std::vector<OpLog>& logs,
                                          const Window& window, int kind,
                                          double per_op) {
  std::vector<SliceSummary> out;
  for (size_t s = 0; s < window.slices(); ++s) {
    if (window.kind(s) != kind) continue;
    SliceSummary sum;
    for (const OpLog& l : logs) sum.ms.insert(sum.ms.end(), l.ms[s].begin(), l.ms[s].end());
    sum.rate = Ratio(static_cast<double>(sum.ms.size()) * per_op, window.seconds(s));
    out.push_back(std::move(sum));
  }
  return out;
}

/// `<rate_name>`, `<prefix>_p50_ms` and `<prefix>_p99_ms`: medians over the
/// slices of each slice's own value, except that p99 is taken over all
/// samples pooled when a slice holds too few for ten to lie beyond its p99.
/// The sample count is the operations behind them.
void SetLatencyMetrics(Report* report, const std::string& prefix,
                       const std::vector<SliceSummary>& slices,
                       const std::string& rate_name, const std::string& rate_unit) {
  std::vector<double> rate, p50, p99, pooled;
  bool p99_per_slice = true;
  for (const SliceSummary& s : slices) {
    const LatencySummary l = Summarize(s.ms);
    rate.push_back(s.rate);
    p50.push_back(l.p50);
    p99.push_back(l.p99);
    p99_per_slice = p99_per_slice && l.beyond_p99 >= 10;
    pooled.insert(pooled.end(), s.ms.begin(), s.ms.end());
  }
  report->Set(rate_name, Median(rate), rate_unit, pooled.size());
  report->Set(prefix + "_p50_ms", Median(p50), "ms", pooled.size());
  report->Set(prefix + "_p99_ms", p99_per_slice ? Median(p99) : Percentile(pooled, 99.0), "ms",
              pooled.size());
}

/// Operations and seconds per slice kind (0 untraced, 1 traced).
struct KindTotals {
  double ops[2] = {0.0, 0.0};
  double seconds[2] = {0.0, 0.0};

  void Add(const std::vector<OpLog>& logs, const Window& window) {
    for (size_t s = 0; s < window.slices(); ++s) {
      seconds[window.kind(s)] += window.seconds(s);
      for (const OpLog& l : logs) ops[window.kind(s)] += static_cast<double>(l.ms[s].size());
    }
  }
  void Merge(const KindTotals& o) {
    for (int k = 0; k < 2; ++k) {
      ops[k] += o.ops[k];
      seconds[k] += o.seconds[k];
    }
  }
};

/// trace.qps_ratio: traced over untraced operations per second.
void SetQpsRatio(Report* report, const KindTotals& t) {
  report->Set("trace.qps_ratio",
              Ratio(Ratio(t.ops[1], t.seconds[1]), Ratio(t.ops[0], t.seconds[0])), "ratio",
              static_cast<uint64_t>(t.ops[1]));
}

/// This process's resident set (VmRSS), in MiB; 0 if unreadable.
double RssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmRSS: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

/// Samples the resident set every 10 ms while `window` runs and keeps each
/// slice's peak. Freed heap is first returned to the kernel, so every
/// window starts from the same baseline rather than from whatever set-up
/// and the oracle left mapped. Construct it just before window.Run().
class RssSampler {
 public:
  explicit RssSampler(const Window& window) : window_(window), peak_(window.slices(), 0.0) {
    malloc_trim(0);
    thread_ = std::thread([this] {
      window_.WaitStart();
      for (int s; (s = window_.slice()) != Window::kStop;) {
        peak_[s] = std::max(peak_[s], RssMb());
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
  }
  ~RssSampler() {
    if (thread_.joinable()) thread_.join();
  }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// The peaks (MiB) of the slices of `kind`; call after the window ran.
  std::vector<double> Peaks(int kind) {
    if (thread_.joinable()) thread_.join();
    std::vector<double> out;
    for (size_t s = 0; s < peak_.size(); ++s) {
      if (window_.kind(s) == kind) out.push_back(peak_[s]);
    }
    return out;
  }

 private:
  const Window& window_;
  std::vector<double> peak_;
  std::thread thread_;
};

// --- Set-up -----------------------------------------------------------------

/// Runs `setup(dir)` kSetupRepeats times, each in a fresh directory under
/// `work_dir`, and keeps the last state; earlier states are destroyed and
/// their directories removed outside the timed interval. Returns the
/// median set-up seconds in `*median_s`.
template <typename State, typename Fn>
Result<State> TimedSetups(const std::string& work_dir, Fn setup,
                          double* median_s) {
  std::vector<double> seconds;
  std::unique_ptr<State> kept;
  std::string kept_dir;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const std::string dir = work_dir + "/setup" + std::to_string(r);
    fs::create_directories(dir);
    const int64_t start = NowNs();
    Result<State> state = setup(dir);
    const int64_t end = NowNs();
    if (!state.ok()) return state.status();
    seconds.push_back(static_cast<double>(end - start) / 1e9);
    kept.reset();
    if (!kept_dir.empty()) fs::remove_all(kept_dir);
    kept = std::make_unique<State>(std::move(state).value());
    kept_dir = dir;
  }
  *median_s = Median(seconds);
  return std::move(*kept);
}

/// Generates, builds and saves one corpus as an image; returns the built
/// (tree-backed) snapshot, which the oracle reads.
Result<SnapshotPtr> BuildImage(Result<Corpus> corpus, const std::string& path,
                               uint64_t* bracket_bytes, uint64_t* image_bytes) {
  if (!corpus.ok()) return corpus.status();
  *bracket_bytes += lpath::BracketCorpusSize(*corpus);
  Result<SnapshotPtr> snap = lpath::CorpusSnapshot::Build(std::move(corpus).value());
  if (!snap.ok()) return snap.status();
  Status saved = (*snap)->Save(path);
  if (!saved.ok()) return saved;
  *image_bytes += fs::file_size(path);
  return snap;
}

// --- Layer probes -------------------------------------------------------------

/// What a probe calls into: one attached corpus, plus a client connection
/// when the workload has a server.
struct ProbeTarget {
  lpath::db::Database* db = nullptr;
  std::string corpus;
  lpath::net::Client* client = nullptr;
};

/// Times each layer's public function on one query, children of one
/// bench.probe span: parse, compile, fingerprint, prepare, cached GetPlan,
/// then twice each serial ExecutePrepared, QueryService::Query,
/// Database::Query and, with a client, Client::Query plus the batch codec.
/// `check` sees the Database::Query answers.
void ProbeQuery(const ProbeTarget& t, const std::string& text,
                Tracer* tracer, Tracer::Buffer* buf, uint64_t* codec_rows,
                const std::function<void(const Status&, const QueryResult&)>& check) {
  const uint64_t request = tracer->NewRequest();
  const uint64_t root = buf->NewId();
  const int64_t root_start = NowNs();
  std::shared_ptr<lpath::service::QueryService> svc = t.db->service(t.corpus);
  SnapshotPtr snap = svc->snapshot();
  const std::string normalized = lpath::service::NormalizeQueryText(text);

  int64_t a = NowNs();
  Result<lpath::LocationPath> path = lpath::ParseLPath(normalized);
  buf->Record(kParse, a, NowNs(), root, request);
  if (path.ok()) {
    lpath::CompileOptions copts;
    copts.unnest_predicates = svc->options().unnest_predicates;
    a = NowNs();
    Result<lpath::ExecPlan> plan = lpath::CompileLPath(*path, copts);
    buf->Record(kCompile, a, NowNs(), root, request);
    if (plan.ok()) {
      a = NowNs();
      (void)lpath::sql::PlanFingerprint(*plan);
      buf->Record(kFingerprint, a, NowNs(), root, request);
      a = NowNs();
      auto prepared = lpath::sql::Prepare(*plan, snap->relation(), svc->options().exec);
      buf->Record(kPrepare, a, NowNs(), root, request);
    }
  }

  (void)svc->GetPlan(text);  // make the next call a cache hit
  a = NowNs();
  auto cached = svc->GetPlan(text);
  buf->Record(kGetPlan, a, NowNs(), root, request);

  // The paired calls run in a mirrored order (service, exec, db, client,
  // client, db, exec, service) after one untimed warm-up, so a drift across
  // the sequence cancels out of every paired difference.
  lpath::sql::PlanExecutor executor(snap, svc->options().exec);
  (void)svc->Query(text);
  std::vector<std::function<void()>> calls;
  calls.push_back([&] {
    a = NowNs();
    Result<QueryResult> r = svc->Query(text);
    buf->Record(kServiceQuery, a, NowNs(), root, request);
  });
  if (cached.ok()) {
    calls.push_back([&] {
      a = NowNs();
      auto serial = executor.ExecutePrepared(**cached);
      buf->Record(kExec, a, NowNs(), root, request);
    });
  }
  calls.push_back([&] {
    a = NowNs();
    Result<QueryResult> r = t.db->Query(t.corpus, text);
    buf->Record(kDbQuery, a, NowNs(), root, request);
    check(r.status(), r.ok() ? *r : QueryResult{});
  });
  if (t.client != nullptr) {
    calls.push_back([&] {
      a = NowNs();
      Result<QueryResult> r = t.client->Query(t.corpus, text);
      buf->Record(kClientQuery, a, NowNs(), root, request);
      if (!r.ok()) return;
      a = NowNs();
      std::vector<uint8_t> payload = lpath::net::EncodeBatch(r->hits);
      buf->Record(kEncode, a, NowNs(), root, request);
      a = NowNs();
      auto decoded = lpath::net::DecodeBatch(payload);
      buf->Record(kDecode, a, NowNs(), root, request);
      *codec_rows += r->hits.size();
    });
  }
  for (size_t i = 0; i < calls.size(); ++i) calls[i]();
  for (size_t i = calls.size(); i-- > 0;) calls[i]();
  buf->RecordWithId(root, kProbeSpan, root_start, NowNs(), 0, request);
}

/// Times CorpusSnapshot::Open on an image file (one bench.probe span).
void ProbeImageOpen(const std::string& path, Tracer* tracer,
                    Tracer::Buffer* buf) {
  const uint64_t request = tracer->NewRequest();
  const uint64_t root = buf->NewId();
  const int64_t start = NowNs();
  int64_t a = NowNs();
  auto opened = lpath::CorpusSnapshot::Open(path);
  buf->Record(kImageOpen, a, NowNs(), root, request);
  buf->RecordWithId(root, kProbeSpan, start, NowNs(), 0, request);
}

/// Per-request self times (us) of the named spans, for paired differences.
std::unordered_map<uint64_t, std::unordered_map<std::string, double>>
ByRequest(const std::vector<SpanRecord>& spans) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::unordered_map<uint64_t, std::unordered_map<std::string, double>> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].request][spans[i].name] += static_cast<double>(self[i]) / 1e3;
  }
  return out;
}

/// Per-layer timing metrics from the probe spans. Metrics of layers the
/// workload does not reach are left unset (reported as 0 by the caller).
void SetProbeMetrics(Report* report, const std::vector<SpanRecord>& spans,
                     uint64_t codec_rows) {
  const std::map<std::string, SpanStats> by_name = SelfTimeByName(spans);
  auto median_us = [&](const char* name, const char* metric) {
    auto it = by_name.find(name);
    if (it == by_name.end()) return;
    report->Set(metric, Median(it->second.self_us), "us", it->second.self_us.size());
  };
  median_us(kParse, "lpath.parse_us");
  median_us(kCompile, "plan.compile_us");
  median_us(kFingerprint, "sql.fingerprint_us");
  median_us(kPrepare, "sql.prepare_us");
  median_us(kExec, "sql.exec_us");
  median_us(kGetPlan, "service.get_plan_hit_us");
  if (auto it = by_name.find(kImageOpen); it != by_name.end()) {
    report->Set("storage.image_open_ms", Median(it->second.self_us) / 1e3, "ms",
                it->second.self_us.size());
  }
  if (auto it = by_name.find(kAppend); it != by_name.end()) {
    report->Set("storage.append_ms", Median(it->second.self_us) / 1e3, "ms",
                it->second.self_us.size());
  }
  if (auto it = by_name.find(kWalAppend); it != by_name.end()) {
    report->Set("storage.wal_append_ms", Median(it->second.self_us) / 1e3, "ms",
                it->second.self_us.size());
  }
  if (auto it = by_name.find(kCompaction); it != by_name.end()) {
    report->Set("storage.compact_ms", Median(it->second.self_us) / 1e3, "ms",
                it->second.self_us.size());
  }
  if (codec_rows > 0) {
    const double us = (by_name.count(kEncode) ? by_name.at(kEncode).total_self_us : 0.0) +
                      (by_name.count(kDecode) ? by_name.at(kDecode).total_self_us : 0.0);
    report->Set("net.codec_us_per_krow",
                us / static_cast<double>(codec_rows) * 1e3, "us/krow", codec_rows);
  }

  std::vector<double> route_us, wire_us, speedup, ingest_overhead_ms;
  for (const auto& [request, spans_of] : ByRequest(spans)) {
    auto has = [&](const char* n) { return spans_of.count(n) > 0; };
    if (has(kDbQuery) && has(kServiceQuery)) {
      route_us.push_back((spans_of.at(kDbQuery) - spans_of.at(kServiceQuery)) / 2);
    }
    if (has(kClientQuery) && has(kDbQuery)) {
      wire_us.push_back((spans_of.at(kClientQuery) - spans_of.at(kDbQuery)) / 2);
    }
    if (has(kExec) && has(kServiceQuery)) {
      speedup.push_back(Ratio(spans_of.at(kExec), spans_of.at(kServiceQuery)));
    }
    if (has(kDbIngest) && has(kAppend) && has(kWalAppend)) {
      ingest_overhead_ms.push_back((spans_of.at(kDbIngest) - spans_of.at(kAppend) -
                                    spans_of.at(kWalAppend)) / 1e3);
    }
  }
  if (!route_us.empty()) report->Set("db.route_us", Median(route_us), "us", route_us.size());
  if (!wire_us.empty()) {
    report->Set("net.wire_overhead_us", Median(wire_us), "us", wire_us.size());
  }
  if (!speedup.empty()) {
    report->Set("service.parallel_speedup", GeoMean(speedup), "ratio", speedup.size());
  }
  if (!ingest_overhead_ms.empty()) {
    report->Set("db.ingest_overhead_ms", Median(ingest_overhead_ms), "ms",
                ingest_overhead_ms.size());
  }
}

// --- Counter deltas over the measured window ----------------------------------

/// The Stats() and PrepareCallCount() counters behind the per-layer
/// ratios, summed over corpora. The difference of two readings is a
/// window's activity; differences of several windows add.
enum Counter {
  kQueries, kSharded, kSerial, kCompactions, kCheckpoints, kWalAppends,
  kWalBytes, kCacheHits, kCacheMisses, kSharedPrepareHits, kEvictions,
  kCandidates, kSubqueries, kMemoHits, kDeltaRows, kMorsels, kSteals,
  kPrepares, kCounterCount
};
using Counters = std::array<double, kCounterCount>;

Counters ReadCounters(lpath::db::Database& db, const std::vector<std::string>& corpora) {
  Counters c{};
  c[kPrepares] = static_cast<double>(lpath::sql::PrepareCallCount());
  for (const std::string& name : corpora) {
    const lpath::service::ServiceStats s = db.service(name)->Stats();
    const lpath::sql::ExecStats& e = s.exec;
    const uint64_t values[] = {
        s.queries, s.sharded_queries, s.serial_queries, s.compactions, s.checkpoints,
        s.wal_appends, s.wal_bytes, s.cache.hits, s.cache.misses,
        s.cache.shared_prepare_hits, s.cache.evictions, e.candidates, e.subqueries,
        e.memo_hits + e.shared_memo_hits + e.subplan_memo_hits, e.delta_rows, e.morsels,
        e.steal_count};
    for (size_t i = 0; i < std::size(values); ++i) c[i] += static_cast<double>(values[i]);
  }
  return c;
}

Counters Minus(const Counters& after, const Counters& before) {
  Counters d{};
  for (size_t i = 0; i < d.size(); ++i) d[i] = after[i] - before[i];
  return d;
}

void Accumulate(Counters* sum, const Counters& d) {
  for (size_t i = 0; i < d.size(); ++i) (*sum)[i] += d[i];
}

/// Counter-derived per-layer metrics of a window's activity `d`. `rows` is
/// the result rows the window's queries returned. The plan-cache ratios
/// need one session throughout (a snapshot swap resets the cache).
void SetCounterMetrics(Report* report, const Counters& d, uint64_t rows, bool cache_stable) {
  const auto n = [](double x) { return static_cast<uint64_t>(x); };
  const uint64_t queries = n(d[kQueries]);
  report->Set("sql.candidates_per_result", Ratio(d[kCandidates], static_cast<double>(rows)),
              "ratio", rows);
  report->Set("sql.subqueries_per_query", Ratio(d[kSubqueries], d[kQueries]), "per_query",
              queries);
  report->Set("sql.memo_hit_ratio", Ratio(d[kMemoHits], d[kMemoHits] + d[kSubqueries]),
              "ratio", n(d[kMemoHits] + d[kSubqueries]));
  report->Set("sql.delta_row_share", Ratio(d[kDeltaRows], d[kCandidates]), "ratio",
              n(d[kCandidates]));
  report->Set("service.sharded_share", Ratio(d[kSharded], d[kSharded] + d[kSerial]), "ratio",
              queries);
  report->Set("service.morsels_per_query", Ratio(d[kMorsels], d[kQueries]), "per_query",
              queries);
  report->Set("service.steal_share", Ratio(d[kSteals], d[kMorsels]), "ratio", n(d[kMorsels]));
  report->Set("service.prepares_per_query", Ratio(d[kPrepares], d[kQueries]), "per_query",
              queries);
  if (cache_stable) {
    const double lookups = d[kCacheHits] + d[kCacheMisses];
    report->Set("service.plan_cache_hit_ratio",
                Ratio(d[kCacheHits] + d[kSharedPrepareHits], lookups), "ratio", n(lookups));
    report->Set("service.plan_cache_evictions", d[kEvictions], "count", queries);
  }
}

/// Shuffled passes over the 23 paper queries on `corpora`, one stream per
/// seed: yields (corpus index, query index).
class SuiteStream {
 public:
  SuiteStream(size_t corpora, uint64_t seed) : rng_(seed) {
    for (size_t c = 0; c < corpora; ++c) {
      for (size_t q = 0; q < lpath::bench::The23Queries().size(); ++q) {
        order_.emplace_back(c, q);
      }
    }
    next_ = order_.size();
  }
  std::pair<size_t, size_t> Next() {
    if (next_ == order_.size()) {
      std::shuffle(order_.begin(), order_.end(), rng_);
      next_ = 0;
    }
    return order_[next_++];
  }

 private:
  std::mt19937_64 rng_;
  std::vector<std::pair<size_t, size_t>> order_;
  size_t next_ = 0;
};

const char* SuiteText(size_t q) { return lpath::bench::The23Queries()[q].lpath; }

/// Probe rounds until `deadline_ns` (at least one): `round()` per round.
void ProbeUntil(int64_t deadline_ns, const std::function<void()>& round) {
  do {
    round();
  } while (NowNs() < deadline_ns);
}

// ============================================================================
// suite_direct
// ============================================================================

struct SuiteState {
  std::unique_ptr<lpath::db::Database> db;
  std::vector<SnapshotPtr> built;  // tree-backed, for the oracle
  std::vector<std::string> images;
  uint64_t bracket_bytes = 0;
  uint64_t image_bytes = 0;
};

const std::vector<std::string> kSuiteCorpora = {"wsj", "swb"};
constexpr int kSuiteSentences = 8000;

Status RunSuiteDirect(const RunConfig& cfg, Tracer* tracer, Report* report) {
  double setup_s = 0.0;
  Result<SuiteState> state_or = TimedSetups<SuiteState>(
      cfg.work_dir,
      [&](const std::string& dir) -> Result<SuiteState> {
        SuiteState s;
        for (size_t c = 0; c < kSuiteCorpora.size(); ++c) {
          const uint64_t seed = SubSeed(cfg.seed, c);
          Result<Corpus> corpus = c == 0 ? lpath::gen::GenerateWsj(kSuiteSentences, seed)
                                         : lpath::gen::GenerateSwb(kSuiteSentences, seed);
          const std::string path = dir + "/" + kSuiteCorpora[c] + ".img";
          Result<SnapshotPtr> snap =
              BuildImage(std::move(corpus), path, &s.bracket_bytes, &s.image_bytes);
          if (!snap.ok()) return snap.status();
          s.built.push_back(*snap);
          s.images.push_back(path);
        }
        s.db = std::make_unique<lpath::db::Database>();
        for (size_t c = 0; c < kSuiteCorpora.size(); ++c) {
          Status st = s.db->OpenImage(kSuiteCorpora[c], s.images[c]);
          if (!st.ok()) return st;
        }
        return s;
      },
      &setup_s);
  if (!state_or.ok()) return state_or.status();
  SuiteState state = std::move(state_or).value();
  lpath::db::Database& db = *state.db;
  const size_t nq = lpath::bench::The23Queries().size();

  // Oracle, outside setup_s.
  std::vector<std::vector<Digest>> oracle(kSuiteCorpora.size());
  for (size_t c = 0; c < kSuiteCorpora.size(); ++c) {
    lpath::NavigationalEngine nav(state.built[c]->corpus());
    for (size_t q = 0; q < nq; ++q) {
      Result<Digest> d = NavDigest(nav, SuiteText(q));
      if (!d.ok()) return d.status();
      oracle[c].push_back(*d);
    }
  }
  state.built.clear();

  Checker checker;
  const auto check = [&](Checker* ck, size_t c, size_t q, const Status& st,
                         const QueryResult& r) {
    ck->Expect(st, DigestOf(r.hits), oracle[c][q],
               kSuiteCorpora[c] + " " + SuiteText(q));
  };
  // Warm the plan cache (46 plans, capacity 256).
  for (size_t c = 0; c < kSuiteCorpora.size(); ++c) {
    for (size_t q = 0; q < nq; ++q) {
      Result<QueryResult> r = db.Query(kSuiteCorpora[c], SuiteText(q));
      check(&checker, c, q, r.status(), r.ok() ? *r : QueryResult{});
    }
  }

  Window window = Window::ForRun(cfg.trace, cfg.seconds);
  std::vector<OpLog> logs(1, OpLog(window));
  uint64_t rows = 0;
  Tracer::Buffer* buf = cfg.trace ? tracer->NewBuffer() : nullptr;
  const Counters before = ReadCounters(db, kSuiteCorpora);
  std::thread client([&] {
    SuiteStream stream(kSuiteCorpora.size(), SubSeed(cfg.seed, 100));
    window.WaitStart();
    for (int slice; (slice = window.slice()) != Window::kStop;) {
      const bool traced = window.kind(slice) == 1;
      const auto [c, q] = stream.Next();
      const int64_t start = NowNs();
      Result<QueryResult> r = db.Query(kSuiteCorpora[c], SuiteText(q));
      const int64_t end = NowNs();
      logs[0].Add(slice, start, end);
      check(&checker, c, q, r.status(), r.ok() ? *r : QueryResult{});
      if (r.ok()) rows += r->hits.size();
      if (traced) {
        const uint64_t request = tracer->NewRequest();
        const uint64_t root = buf->NewId();
        buf->Record(kDbQuery, start, end, root, request);
        buf->RecordWithId(root, kOpSpan, start, NowNs(), 0, request);
      }
    }
  });
  RssSampler rss(window);
  window.Run();
  client.join();
  const Counters after = ReadCounters(db, kSuiteCorpora);

  if (!cfg.trace) {
    report->Set("setup_s", setup_s, "s", kSetupRepeats);
    SetLatencyMetrics(report, "query", SummarizeSlices(logs, window, 0, 1.0), "query_qps",
                      "1/s");
    const std::vector<double> peaks = rss.Peaks(0);
    report->Set("peak_rss_mb", Median(peaks), "MiB", peaks.size());
  } else {
    KindTotals totals;
    totals.Add(logs, window);
    SetQpsRatio(report, totals);
    SetCounterMetrics(report, Minus(after, before), rows, /*cache_stable=*/true);
    const int64_t deadline =
        NowNs() + static_cast<int64_t>(cfg.seconds * (1.0 - kTracedWindowShare) * 1e9);
    uint64_t codec_rows = 0;
    ProbeUntil(deadline, [&] {
      for (size_t c = 0; c < kSuiteCorpora.size(); ++c) {
        ProbeImageOpen(state.images[c], tracer, buf);
        for (size_t q = 0; q < nq; ++q) {
          ProbeQuery(ProbeTarget{&db, kSuiteCorpora[c], nullptr}, SuiteText(q), tracer,
                     buf, &codec_rows, [&](const Status& st, const QueryResult& r) {
                       check(&checker, c, q, st, r);
                     });
        }
      }
    });
    SetProbeMetrics(report, tracer->Collect(), codec_rows);
  }
  report->Set("image_bytes_per_input_byte",
              Ratio(static_cast<double>(state.image_bytes),
                    static_cast<double>(state.bracket_bytes)),
              "ratio", kSuiteCorpora.size());
  checker.MergeInto(report);
  return Status::OK();
}

// ============================================================================
// wire_mixed
// ============================================================================

constexpr int kWireConnections = 4;
constexpr int kWireSentences = 2000;
// Fresh structures per connection; 4 x 192 = 768 distinct plans cycle
// through the 256-entry plan cache, so each is evicted before it recurs.
constexpr size_t kFreshPerConnection = 192;
// Large results must span at least three STREAM_BATCH frames.
constexpr size_t kLargeMinRows = 2 * 4096 + 1;

struct WireState {
  std::unique_ptr<lpath::db::Database> db;
  std::unique_ptr<lpath::net::NetServer> server;
  std::vector<std::unique_ptr<lpath::net::Client>> clients;
  SnapshotPtr built;
  std::string image;
  uint64_t bracket_bytes = 0;
  uint64_t image_bytes = 0;

  WireState() = default;
  WireState(WireState&&) = default;
  WireState& operator=(WireState&&) = default;
  ~WireState() {
    for (auto& c : clients) {
      if (c != nullptr && c->connected()) (void)c->Close();
    }
    if (server != nullptr) server->Stop();
  }
};

/// The stream shares of one connection.
enum class WireKind { kHot, kRespelled, kFresh, kLarge };
WireKind DrawKind(std::mt19937_64& rng) {
  const uint64_t r = rng() % 100;
  if (r < 50) return WireKind::kHot;
  if (r < 70) return WireKind::kRespelled;
  if (r < 98) return WireKind::kFresh;
  return WireKind::kLarge;
}

Status RunWireMixed(const RunConfig& cfg, Tracer* tracer, Report* report) {
  double setup_s = 0.0;
  Result<WireState> state_or = TimedSetups<WireState>(
      cfg.work_dir,
      [&](const std::string& dir) -> Result<WireState> {
        WireState s;
        s.image = dir + "/wsj.img";
        Result<SnapshotPtr> snap =
            BuildImage(lpath::gen::GenerateWsj(kWireSentences, SubSeed(cfg.seed, 0)),
                       s.image, &s.bracket_bytes, &s.image_bytes);
        if (!snap.ok()) return snap.status();
        s.built = *snap;
        s.db = std::make_unique<lpath::db::Database>();
        Status st = s.db->OpenImage("wsj", s.image);
        if (!st.ok()) return st;
        s.server = std::make_unique<lpath::net::NetServer>(s.db.get());
        st = s.server->Start();
        if (!st.ok()) return st;
        for (int c = 0; c < kWireConnections; ++c) {
          s.clients.push_back(std::make_unique<lpath::net::Client>());
          st = s.clients.back()->Connect("127.0.0.1", s.server->port());
          if (!st.ok()) return st;
        }
        return s;
      },
      &setup_s);
  if (!state_or.ok()) return state_or.status();
  WireState state = std::move(state_or).value();
  lpath::db::Database& db = *state.db;
  const size_t nq = lpath::bench::The23Queries().size();

  // Inputs and oracle (outside setup_s).
  std::mt19937_64 gen_rng(SubSeed(cfg.seed, 200));
  const std::vector<std::string> fresh =
      FreshStructures(kFreshPerConnection * kWireConnections, gen_rng);
  std::unordered_map<std::string, Digest> oracle;
  std::vector<std::string> large;
  {
    lpath::NavigationalEngine nav(state.built->corpus());
    auto add = [&](const std::string& q) -> Status {
      Result<Digest> d = NavDigest(nav, q);
      if (!d.ok()) return Status::Internal("oracle: " + q + ": " + d.status().ToString());
      oracle[q] = *d;
      return Status::OK();
    };
    for (size_t q = 0; q < nq; ++q) {
      if (Status st = add(SuiteText(q)); !st.ok()) return st;
    }
    for (const std::string& q : fresh) {
      if (Status st = add(q); !st.ok()) return st;
    }
    for (const char* q : {"//NP", "//VP", "//NN", "//PP", "//_"}) {
      if (Status st = add(q); !st.ok()) return st;
      if (oracle[q].count >= kLargeMinRows) large.push_back(q);
    }
  }
  state.built.reset();
  if (large.empty()) return Status::Internal("wire_mixed: no large-result query");

  // Warm the hot set.
  Checker warm;
  for (size_t q = 0; q < nq; ++q) {
    Result<QueryResult> r = state.clients[0]->Query("wsj", SuiteText(q));
    warm.Expect(r.status(), r.ok() ? DigestOf(r->hits) : Digest{}, oracle[SuiteText(q)],
                SuiteText(q));
  }
  warm.MergeInto(report);

  Window window = Window::ForRun(cfg.trace, cfg.seconds);
  std::vector<OpLog> logs(kWireConnections, OpLog(window));
  std::vector<Checker> checkers(kWireConnections);
  std::vector<uint64_t> rows(kWireConnections, 0);
  std::vector<Tracer::Buffer*> bufs(kWireConnections, nullptr);
  for (auto& b : bufs) b = cfg.trace ? tracer->NewBuffer() : nullptr;
  const Counters before = ReadCounters(db, {"wsj"});
  const lpath::net::NetStats net_before = state.server->stats();
  std::vector<std::thread> threads;
  for (int c = 0; c < kWireConnections; ++c) {
    threads.emplace_back([&, c] {
      std::mt19937_64 rng(SubSeed(cfg.seed, 300 + c));
      lpath::net::Client& client = *state.clients[c];
      size_t fresh_next = 0;
      window.WaitStart();
      for (int slice; (slice = window.slice()) != Window::kStop;) {
      const bool traced = window.kind(slice) == 1;
        std::string text;
        const Digest* want = nullptr;
        switch (DrawKind(rng)) {
          case WireKind::kHot:
            text = SuiteText(rng() % nq);
            want = &oracle.at(text);
            break;
          case WireKind::kRespelled: {
            const char* q = SuiteText(rng() % nq);
            text = Respell(q, rng);
            want = &oracle.at(q);
            break;
          }
          case WireKind::kFresh:
            text = fresh[c * kFreshPerConnection + fresh_next];
            fresh_next = (fresh_next + 1) % kFreshPerConnection;
            want = &oracle.at(text);
            break;
          case WireKind::kLarge:
            text = large[rng() % large.size()];
            want = &oracle.at(text);
            break;
        }
        const int64_t start = NowNs();
        Result<QueryResult> r = client.Query("wsj", text);
        const int64_t end = NowNs();
        logs[c].Add(slice, start, end);
        checkers[c].Expect(r.status(), r.ok() ? DigestOf(r->hits) : Digest{}, *want, text);
        if (r.ok()) rows[c] += r->hits.size();
        if (traced) {
          const uint64_t request = tracer->NewRequest();
          const uint64_t root = bufs[c]->NewId();
          bufs[c]->Record(kClientQuery, start, end, root, request);
          bufs[c]->RecordWithId(root, kOpSpan, start, NowNs(), 0, request);
        }
      }
    });
  }
  RssSampler rss(window);
  window.Run();
  for (std::thread& t : threads) t.join();
  const Counters after = ReadCounters(db, {"wsj"});
  const lpath::net::NetStats net_after = state.server->stats();
  for (const Checker& ck : checkers) ck.MergeInto(report);

  if (!cfg.trace) {
    report->Set("setup_s", setup_s, "s", kSetupRepeats);
    SetLatencyMetrics(report, "query", SummarizeSlices(logs, window, 0, 1.0), "query_qps",
                      "1/s");
    const std::vector<double> peaks = rss.Peaks(0);
    report->Set("peak_rss_mb", Median(peaks), "MiB", peaks.size());
  } else {
    KindTotals totals;
    totals.Add(logs, window);
    SetQpsRatio(report, totals);
    uint64_t total_rows = 0;
    for (uint64_t r : rows) total_rows += r;
    SetCounterMetrics(report, Minus(after, before), total_rows, /*cache_stable=*/true);
    const uint64_t executes = net_after.executes - net_before.executes;
    report->Set("net.frames_per_query",
                Ratio(static_cast<double>(net_after.frames_out - net_before.frames_out),
                      static_cast<double>(executes)),
                "per_query", executes);
    report->Set("net.refused",
                static_cast<double>((net_after.refused_requests - net_before.refused_requests) +
                                    (net_after.protocol_errors - net_before.protocol_errors)),
                "count", executes);
    // Probes: the hot set, respellings of it, some fresh structures and the
    // large-result queries, through every layer including the wire.
    const int64_t deadline =
        NowNs() + static_cast<int64_t>(cfg.seconds * (1.0 - kTracedWindowShare) * 1e9);
    std::mt19937_64 rng(SubSeed(cfg.seed, 400));
    Checker probe_checker;
    uint64_t codec_rows = 0;
    size_t fresh_next = 0;
    const ProbeTarget target{&db, "wsj", state.clients[0].get()};
    auto probe = [&](const std::string& text, const Digest& want) {
      ProbeQuery(target, text, tracer, bufs[0], &codec_rows,
                 [&](const Status& st, const QueryResult& r) {
                   probe_checker.Expect(st, DigestOf(r.hits), want, text);
                 });
    };
    ProbeUntil(deadline, [&] {
      ProbeImageOpen(state.image, tracer, bufs[0]);
      for (size_t q = 0; q < nq; ++q) {
        probe(SuiteText(q), oracle[SuiteText(q)]);
        probe(Respell(SuiteText(q), rng), oracle[SuiteText(q)]);
        const std::string& f = fresh[fresh_next++ % fresh.size()];
        probe(f, oracle[f]);
      }
      for (const std::string& q : large) probe(q, oracle[q]);
    });
    probe_checker.MergeInto(report);
    SetProbeMetrics(report, tracer->Collect(), codec_rows);
  }
  report->Set("image_bytes_per_input_byte",
              Ratio(static_cast<double>(state.image_bytes),
                    static_cast<double>(state.bracket_bytes)),
              "ratio", 1);
  return Status::OK();
}

// ============================================================================
// live_ingest
// ============================================================================

constexpr int kIngestBase = 4000;
constexpr int kBatchTrees = 32;
constexpr int kBatchPool = 64;
constexpr int kWriters = 2;
// Small enough that background compaction (image rewrite + WAL
// checkpoint) runs several cycles in every run.
constexpr int32_t kCompactDeltaTrees = 1024;
constexpr int kIngestProbesPerRound = 4;

lpath::db::DatabaseOptions IngestOptions(const std::string& dir) {
  lpath::db::DatabaseOptions o;
  o.wal_dir = dir + "/wal";
  o.compact_delta_trees = kCompactDeltaTrees;
  return o;  // default WalOptions: fsync per commit
}

struct IngestState {
  std::unique_ptr<lpath::db::Database> db;
  SnapshotPtr built;
  std::string image;
  std::vector<std::string> batches;  // bracket text of each pool batch
  uint64_t bracket_bytes = 0;
  uint64_t image_bytes = 0;
};

Result<Corpus> ParseBatch(const std::string& text) {
  Corpus c;
  Status st = lpath::ParseBracketText(text, &c);
  if (!st.ok()) return st;
  return c;
}

/// Digest of the delta part of a chain result, folded per batch slot:
/// hits on tid base + 32k + j count as (j, id), so the sum over slots is
/// independent of the order in which concurrent writers committed.
void SplitChainHits(const std::vector<Hit>& hits, int32_t base, Digest* base_part,
                    Digest* delta_part) {
  for (const Hit& h : hits) {
    if (h.tid < base) {
      base_part->Add(h.tid, h.id);
    } else {
      delta_part->Add((h.tid - base) % kBatchTrees, h.id);
    }
  }
}

/// What every epoch starts from and checks against.
struct IngestInputs {
  std::string base_image;            // pristine; epochs work on copies
  std::vector<std::string> batches;  // bracket text of each pool batch
  std::vector<uint64_t> batch_bytes;
  std::vector<Digest> base_oracle;                // per suite query
  std::vector<std::vector<Digest>> batch_oracle;  // per batch, per query
};

/// What one epoch measured.
struct EpochResult {
  int kind = 0;
  KindTotals read_totals;             // for trace.qps_ratio
  std::vector<SliceSummary> reads;    // one entry: the epoch's window
  std::vector<SliceSummary> ingests;  // rates in trees per second
  double peak_rss_mb = 0.0;
  // Traced epochs only:
  Counters activity{};
  uint64_t rows = 0;
  uint64_t acked_batches = 0;
  uint64_t ingested_bytes = 0;
  std::vector<double> resident_delta;  // sampled after each ingest
};

/// One epoch: a durable copy of the base attached in `dir`, two writers and
/// one reader for one slice of `kind` lasting `seconds`, then (if `probe`)
/// the layer probes for `probe_seconds`, and finally the durability check
/// on a reopened Database. A traced epoch records spans around every call.
Status RunIngestEpoch(const RunConfig& cfg, int epoch, int kind, double seconds, bool probe,
                      const IngestInputs& in, const std::string& dir, Tracer* tracer,
                      Report* report, EpochResult* out) {
  const size_t nq = lpath::bench::The23Queries().size();
  const int32_t base = kIngestBase;
  const std::string image = dir + "/wsj.img";
  fs::create_directories(dir);
  fs::copy_file(in.base_image, image);
  auto db = std::make_unique<lpath::db::Database>(IngestOptions(dir));
  if (Status st = db->OpenImage("wsj", image); !st.ok()) return st;

  // Acknowledged batches per pool index, per writer (+1 slot for probes).
  std::vector<std::vector<uint64_t>> acked(kWriters + 1, std::vector<uint64_t>(kBatchPool, 0));
  std::vector<Checker> checkers(kWriters + 2);
  Checker& reader_checker = checkers[kWriters];
  Checker& probe_checker = checkers[kWriters + 1];
  auto check_read = [&](Checker* ck, size_t q, const Status& st, const QueryResult& r) {
    Digest base_part, delta_part;
    SplitChainHits(r.hits, base, &base_part, &delta_part);
    ck->Expect(st, base_part, in.base_oracle[q], std::string("live ") + SuiteText(q));
  };
  for (size_t q = 0; q < nq; ++q) {  // warm
    Result<QueryResult> r = db->Query("wsj", SuiteText(q));
    check_read(&reader_checker, q, r.status(), r.ok() ? *r : QueryResult{});
  }

  const bool traced = kind == 1;
  Window window({kind}, seconds);
  std::vector<OpLog> read_logs(1, OpLog(window));
  std::vector<OpLog> ingest_logs(kWriters, OpLog(window));
  std::vector<std::vector<double>> resident(kWriters);
  std::vector<uint64_t> ingested_bytes(kWriters, 0);
  std::vector<Tracer::Buffer*> bufs(kWriters + 2, nullptr);
  for (auto& b : bufs) b = cfg.trace ? tracer->NewBuffer() : nullptr;
  uint64_t rows = 0;
  const Counters before = ReadCounters(*db, {"wsj"});
  const uint64_t stream = 1000 * static_cast<uint64_t>(epoch);

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      std::mt19937_64 rng(SubSeed(cfg.seed, stream + 500 + w));
      window.WaitStart();
      for (int slice; (slice = window.slice()) != Window::kStop;) {
        const size_t b = rng() % kBatchPool;
        Result<Corpus> batch = ParseBatch(in.batches[b]);
        if (!batch.ok()) {
          checkers[w].Fail(batch.status().ToString());
          continue;
        }
        const int64_t start = NowNs();
        Status st = db->Ingest("wsj", std::move(batch).value());
        const int64_t end = NowNs();
        ingest_logs[w].Add(slice, start, end);
        if (!st.ok()) {
          checkers[w].Fail("ingest: " + st.ToString());
          continue;
        }
        checkers[w].Pass();
        acked[w][b] += 1;
        ingested_bytes[w] += in.batch_bytes[b];
        if (traced) {
          const uint64_t request = tracer->NewRequest();
          const uint64_t root = bufs[w]->NewId();
          bufs[w]->Record(kDbIngest, start, end, root, request);
          resident[w].push_back(db->snapshot("wsj")->delta_tree_count());
          bufs[w]->RecordWithId(root, kOpSpan, start, NowNs(), 0, request);
        }
      }
    });
  }
  threads.emplace_back([&] {  // the reader
    SuiteStream suite(1, SubSeed(cfg.seed, stream + 100));
    window.WaitStart();
    for (int slice; (slice = window.slice()) != Window::kStop;) {
      const size_t q = suite.Next().second;
      const int64_t start = NowNs();
      Result<QueryResult> r = db->Query("wsj", SuiteText(q));
      const int64_t end = NowNs();
      read_logs[0].Add(slice, start, end);
      check_read(&reader_checker, q, r.status(), r.ok() ? *r : QueryResult{});
      if (r.ok()) rows += r->hits.size();
      if (traced) {
        const uint64_t request = tracer->NewRequest();
        const uint64_t root = bufs[kWriters]->NewId();
        bufs[kWriters]->Record(kDbQuery, start, end, root, request);
        bufs[kWriters]->RecordWithId(root, kOpSpan, start, NowNs(), 0, request);
      }
    }
  });
  if (traced) {
    // Background compaction is observed from outside, polling the chain
    // every millisecond: a span from the first poll that sees the delta at
    // the threshold to the first that sees it shrink (the publication).
    threads.emplace_back([&] {
      window.WaitStart();
      int32_t prev = db->snapshot("wsj")->delta_tree_count();
      int64_t due = 0;
      while (!window.stopped()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        const int32_t cur = db->snapshot("wsj")->delta_tree_count();
        if (cur < prev && due != 0) {
          bufs[kWriters + 1]->Record(kCompaction, due, NowNs(), 0, tracer->NewRequest());
          due = 0;
        } else if (cur >= kCompactDeltaTrees && due == 0) {
          due = NowNs();
        }
        prev = cur;
      }
    });
  }
  RssSampler rss(window);
  window.Run();
  for (std::thread& t : threads) t.join();

  out->kind = kind;
  out->peak_rss_mb = rss.Peaks(kind).front();
  out->read_totals.Add(read_logs, window);
  out->reads = SummarizeSlices(read_logs, window, kind, 1.0);
  out->ingests = SummarizeSlices(ingest_logs, window, kind, kBatchTrees);
  if (traced) {
    out->activity = Minus(ReadCounters(*db, {"wsj"}), before);
    out->rows = rows;
    for (int w = 0; w < kWriters; ++w) {
      for (uint64_t n : acked[w]) out->acked_batches += n;
      out->ingested_bytes += ingested_bytes[w];
      out->resident_delta.insert(out->resident_delta.end(), resident[w].begin(),
                                 resident[w].end());
    }
  }

  if (probe) {
    // Writers and reader stopped: each ingest probe times
    // CorpusSnapshot::Append on the current chain and Wal::Append of the
    // same payload on a private log, then ingests the batch for real.
    Result<std::unique_ptr<lpath::Wal>> probe_wal = lpath::Wal::Open(dir + "/probe_wal");
    if (!probe_wal.ok()) return probe_wal.status();
    const int64_t deadline =
        NowNs() + static_cast<int64_t>(cfg.seconds * (1.0 - kTracedWindowShare) * 1e9);
    std::mt19937_64 rng(SubSeed(cfg.seed, stream + 600));
    Tracer::Buffer* buf = bufs[kWriters];
    uint64_t codec_rows = 0;
    ProbeUntil(deadline, [&] {
      ProbeImageOpen(image, tracer, buf);
      for (int i = 0; i < kIngestProbesPerRound; ++i) {
        const size_t b = rng() % kBatchPool;
        Result<Corpus> batch = ParseBatch(in.batches[b]);
        if (!batch.ok()) {
          probe_checker.Fail(batch.status().ToString());
          continue;
        }
        const uint64_t request = tracer->NewRequest();
        const uint64_t root = buf->NewId();
        const int64_t root_start = NowNs();
        int64_t a = NowNs();
        auto appended = db->snapshot("wsj")->Append(*batch);
        buf->Record(kAppend, a, NowNs(), root, request);
        a = NowNs();
        auto lsn = (*probe_wal)->Append(in.batches[b]);
        buf->Record(kWalAppend, a, NowNs(), root, request);
        a = NowNs();
        Status st = db->Ingest("wsj", std::move(batch).value());
        buf->Record(kDbIngest, a, NowNs(), root, request);
        buf->RecordWithId(root, kProbeSpan, root_start, NowNs(), 0, request);
        if (!appended.ok() || !lsn.ok() || !st.ok()) {
          probe_checker.Fail("ingest probe: " + st.ToString());
          continue;
        }
        probe_checker.Pass();
        acked[kWriters][b] += 1;
      }
      for (size_t q = 0; q < nq; ++q) {
        ProbeQuery(ProbeTarget{db.get(), "wsj", nullptr}, SuiteText(q), tracer, buf, &codec_rows,
                   [&](const Status& st, const QueryResult& r) {
                     check_read(&probe_checker, q, st, r);
                   });
      }
    });
    SetProbeMetrics(report, tracer->Collect(), codec_rows);
  }
  for (const Checker& ck : checkers) ck.MergeInto(report);

  // Durability: reopen image + WAL in a fresh Database; every acknowledged
  // batch must be there, and the suite must match the oracle over the final
  // tree set (base exactly, the delta per batch slot).
  uint64_t expected_batches = 0;
  std::vector<Digest> expected_delta(nq);
  for (const auto& per_writer : acked) {
    for (int b = 0; b < kBatchPool; ++b) {
      expected_batches += per_writer[b];
      for (size_t q = 0; q < nq; ++q) {
        for (uint64_t k = 0; k < per_writer[b]; ++k) {
          expected_delta[q].Merge(in.batch_oracle[b][q]);
        }
      }
    }
  }
  db.reset();
  Checker durable;
  lpath::db::Database reopened(IngestOptions(dir));
  Status st = reopened.OpenImage("wsj", image);
  if (!st.ok()) {
    durable.Fail("reopen: " + st.ToString());
  } else {
    const int64_t want = base + kBatchTrees * static_cast<int64_t>(expected_batches);
    const int64_t got = reopened.snapshot("wsj")->tree_count();
    if (got != want) {
      durable.Fail("reopened tree count " + std::to_string(got) + ", acknowledged " +
                   std::to_string(want));
    } else {
      durable.Pass();
    }
    for (size_t q = 0; q < nq; ++q) {
      Result<QueryResult> r = reopened.Query("wsj", SuiteText(q));
      Digest base_part, delta_part;
      if (r.ok()) SplitChainHits(r->hits, base, &base_part, &delta_part);
      durable.Expect(r.status(), base_part, in.base_oracle[q],
                     std::string("reopened base ") + SuiteText(q));
      durable.Expect(r.status(), delta_part, expected_delta[q],
                     std::string("reopened delta ") + SuiteText(q));
    }
  }
  durable.MergeInto(report);
  return Status::OK();
}

Status RunLiveIngest(const RunConfig& cfg, Tracer* tracer, Report* report) {
  double setup_s = 0.0;
  Result<IngestState> state_or = TimedSetups<IngestState>(
      cfg.work_dir,
      [&](const std::string& dir) -> Result<IngestState> {
        IngestState s;
        s.image = dir + "/wsj.img";
        Result<SnapshotPtr> snap =
            BuildImage(lpath::gen::GenerateWsj(kIngestBase, SubSeed(cfg.seed, 0)), s.image,
                       &s.bracket_bytes, &s.image_bytes);
        if (!snap.ok()) return snap.status();
        s.built = *snap;
        Result<Corpus> pool =
            lpath::gen::GenerateWsj(kBatchPool * kBatchTrees, SubSeed(cfg.seed, 1));
        if (!pool.ok()) return pool.status();
        for (int b = 0; b < kBatchPool; ++b) {
          std::string text;
          for (int j = 0; j < kBatchTrees; ++j) {
            lpath::WriteBracketTree(pool->tree(b * kBatchTrees + j), pool->interner(), &text);
            text += '\n';
          }
          s.batches.push_back(std::move(text));
        }
        s.db = std::make_unique<lpath::db::Database>(IngestOptions(dir));
        Status st = s.db->OpenImage("wsj", s.image);
        if (!st.ok()) return st;
        return s;
      },
      &setup_s);
  if (!state_or.ok()) return state_or.status();
  IngestState state = std::move(state_or).value();
  const size_t nq = lpath::bench::The23Queries().size();

  // Oracles: the base corpus, and each pool batch on its own (tids 0..31).
  IngestInputs inputs;
  inputs.base_image = state.image;
  inputs.batches = std::move(state.batches);
  inputs.batch_bytes.resize(kBatchPool);
  inputs.batch_oracle.resize(kBatchPool);
  {
    lpath::NavigationalEngine nav(state.built->corpus());
    for (size_t q = 0; q < nq; ++q) {
      Result<Digest> d = NavDigest(nav, SuiteText(q));
      if (!d.ok()) return d.status();
      inputs.base_oracle.push_back(*d);
    }
    for (int b = 0; b < kBatchPool; ++b) {
      Result<Corpus> batch = ParseBatch(inputs.batches[b]);
      if (!batch.ok()) return batch.status();
      if (static_cast<int>(batch->size()) != kBatchTrees) return Status::Internal("batch size");
      inputs.batch_bytes[b] = lpath::BracketCorpusSize(*batch);
      lpath::NavigationalEngine batch_nav(*batch);
      for (size_t q = 0; q < nq; ++q) {
        Result<Digest> d = NavDigest(batch_nav, SuiteText(q));
        if (!d.ok()) return d.status();
        inputs.batch_oracle[b].push_back(*d);
      }
    }
  }
  state.built.reset();

  state.db.reset();  // the base image stays pristine: epochs copy it

  // Every epoch restarts from the base, so each measures the same growth
  // from 4,000 trees. Untraced runs report medians over kEpochs epochs;
  // traced runs alternate untraced and traced epochs (0110) and probe the
  // layers at the end of the last.
  const std::vector<int> kinds =
      cfg.trace ? std::vector<int>{0, 1, 1, 0} : std::vector<int>(kEpochs, 0);
  const double epoch_seconds =
      cfg.seconds * (cfg.trace ? kTracedWindowShare : 1.0) / static_cast<double>(kinds.size());
  std::vector<EpochResult> epochs(kinds.size());
  for (size_t e = 0; e < kinds.size(); ++e) {
    Status st = RunIngestEpoch(cfg, static_cast<int>(e), kinds[e], epoch_seconds,
                               cfg.trace && e + 1 == kinds.size(), inputs,
                               cfg.work_dir + "/epoch" + std::to_string(e), tracer, report,
                               &epochs[e]);
    if (!st.ok()) return st;
  }
  std::vector<SliceSummary> reads, ingests;
  std::vector<double> peaks;
  for (const EpochResult& ep : epochs) {
    if (ep.kind != 0) continue;
    reads.insert(reads.end(), ep.reads.begin(), ep.reads.end());
    ingests.insert(ingests.end(), ep.ingests.begin(), ep.ingests.end());
    peaks.push_back(ep.peak_rss_mb);
  }
  SetLatencyMetrics(report, "ingest", ingests, "ingest_trees_per_s", "trees/s");
  if (!cfg.trace) {
    report->Set("setup_s", setup_s, "s", kSetupRepeats);
    SetLatencyMetrics(report, "query", reads, "query_qps", "1/s");
    report->Set("peak_rss_mb", Median(peaks), "MiB", peaks.size());
  } else {
    KindTotals totals;
    Counters activity{};
    uint64_t rows = 0, acked = 0, bytes = 0;
    std::vector<double> resident;
    for (const EpochResult& ep : epochs) {
      totals.Merge(ep.read_totals);
      if (ep.kind != 1) continue;
      Accumulate(&activity, ep.activity);
      rows += ep.rows;
      acked += ep.acked_batches;
      bytes += ep.ingested_bytes;
      resident.insert(resident.end(), ep.resident_delta.begin(), ep.resident_delta.end());
    }
    SetQpsRatio(report, totals);
    SetCounterMetrics(report, activity, rows, /*cache_stable=*/false);
    double sum = 0.0;
    for (double d : resident) sum += d;
    report->Set("storage.resident_delta_trees", Ratio(sum, static_cast<double>(resident.size())),
                "trees", resident.size());
    report->Set("storage.wal_appends_per_batch",
                Ratio(activity[kWalAppends], static_cast<double>(acked)), "per_batch", acked);
    report->Set("storage.wal_bytes_per_ingested_byte",
                Ratio(activity[kWalBytes], static_cast<double>(bytes)), "ratio", acked);
    report->Set("storage.compactions", activity[kCompactions], "count", acked);
    report->Set("storage.checkpoints", activity[kCheckpoints], "count", acked);
  }
  report->Set("image_bytes_per_input_byte",
              Ratio(static_cast<double>(state.image_bytes),
                    static_cast<double>(state.bracket_bytes)),
              "ratio", 1);
  return Status::OK();
}

}  // namespace

lpath::Status RunWorkload(const RunConfig& config, Tracer* tracer, Report* report) {
  if (config.workload == "suite_direct") return RunSuiteDirect(config, tracer, report);
  if (config.workload == "wire_mixed") return RunWireMixed(config, tracer, report);
  if (config.workload == "live_ingest") return RunLiveIngest(config, tracer, report);
  return Status::InvalidArgument("unknown workload: " + config.workload);
}

}  // namespace perfbench
