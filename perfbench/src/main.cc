// lpbench: the lpathdb benchmark program. perfbench/run.py builds and runs
// it; see perfbench/README.md.
//
//   lpbench --workload NAME --seed N --seconds S --trace 0|1
//           [--git-sha SHA] [--src-digest HEX]
//
// Prints a metadata line, a table of every metric (name, value, unit,
// samples), and as its last line one JSON object with every metric the run
// measured:
//   {"correct": ..., "attempted": ..., "failed": ...,
//    "metrics": {"<name>": {"value": ..., "unit": ..., "samples": ...}}}
// run.py selects from it the metrics BENCHMARK.json declares. Exits 1 when
// any operation failed or answered wrongly, 2 on bad arguments or when the
// benchmark could not set up.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "metrics.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "lpbench: %s\nusage: lpbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--git-sha SHA] [--src-digest HEX]\n",
               why);
  return 2;
}

/// Spin-calibrated parallelism: `n` threads each run the same spin loop as
/// one thread alone; effective cores = n * t1 / tn. A machine that reports
/// 4 CPUs but time-slices them reads about 2.
double EffectiveCores(int n) {
  auto spin = [] {
    uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 40'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    return x;
  };
  std::atomic<uint64_t> sink{0};
  int64_t start = NowNs();
  sink += spin();
  const double t1 = static_cast<double>(NowNs() - start);
  start = NowNs();
  std::vector<std::thread> threads;
  for (int i = 0; i < n; ++i) threads.emplace_back([&] { sink += spin(); });
  for (std::thread& t : threads) t.join();
  const double tn = static_cast<double>(NowNs() - start);
  return tn <= 0.0 ? 0.0 : n * t1 / tn;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int Main(int argc, char** argv) {
  RunConfig cfg;
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      cfg.workload = val;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0' || val.empty()) return Usage("bad --seed");
      have_seed = true;
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(cfg.seconds > 0.0)) return Usage("bad --seconds");
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") return Usage("bad --trace");
      cfg.trace = val == "1";
    } else if (arg == "--git-sha") {
      git_sha = val;
    } else if (arg == "--src-digest") {
      src_digest = val;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), cfg.workload) == names.end()) {
    return Usage("unknown or missing --workload");
  }
  if (!have_seed) return Usage("missing --seed");

  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const double effective = EffectiveCores(nproc);
  std::string meta = "{\"workload\":\"" + cfg.workload + "\",\"seed\":" +
                     std::to_string(cfg.seed) + ",\"seconds\":" + Num(cfg.seconds) +
                     ",\"trace\":" + (cfg.trace ? "1" : "0") + ",\"git_sha\":\"" +
                     JsonEscape(git_sha) + "\",\"src_digest\":\"" + JsonEscape(src_digest) +
                     "\",\"compiler\":\"" + JsonEscape(std::string("gcc ") + __VERSION__) +
                     "\",\"nproc\":" + std::to_string(nproc) +
                     ",\"effective_cores\":" + Num(effective) + "}";
  std::printf("# meta %s\n", meta.c_str());
  std::fflush(stdout);

  namespace fs = std::filesystem;
  const fs::path out_dir = ".bench_out";
  cfg.work_dir = (out_dir / ("work-" + std::to_string(::getpid()))).string();
  fs::create_directories(cfg.work_dir);
  Tracer tracer;
  Report report;
  const lpath::Status status = RunWorkload(cfg, &tracer, &report);
  fs::remove_all(cfg.work_dir);
  if (!status.ok()) {
    std::fprintf(stderr, "lpbench: %s: %s\n", cfg.workload.c_str(),
                 status.ToString().c_str());
    return 2;
  }
  if (cfg.trace) {
    const std::string path = (out_dir / ("trace-" + cfg.workload + "-seed" +
                                         std::to_string(cfg.seed) + ".jsonl"))
                                 .string();
    if (!tracer.WriteJsonl(path, meta)) {
      std::fprintf(stderr, "lpbench: cannot write %s\n", path.c_str());
      return 2;
    }
    std::printf("# spans written to %s\n", path.c_str());
  }

  report.Set("error_rate",
             Ratio(static_cast<double>(report.failed), static_cast<double>(report.attempted)),
             "ratio", report.attempted);
  std::printf("# %-38s %16s  %-10s %s\n", "metric", "value", "unit", "samples");
  for (const auto& [name, m] : report.metrics) {
    std::printf("# %-38s %16.6g  %-10s %llu\n", name.c_str(), m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.samples));
  }
  for (const std::string& e : report.errors) std::printf("# error: %s\n", e.c_str());

  std::string json = "{\"correct\": ";
  json += report.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (const auto& [name, m] : report.metrics) {
    if (json.back() != '{') json += ", ";
    json += "\"" + name + "\": {\"value\": " + Num(m.value) + ", \"unit\": \"" + m.unit +
            "\", \"samples\": " + std::to_string(m.samples) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return report.failed == 0 && report.attempted > 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
