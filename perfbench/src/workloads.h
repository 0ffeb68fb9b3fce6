// The three benchmark workloads (see perfbench/README.md for why each
// exists and which layers it loads):
//
//   suite_direct  one client, db::Database::Query, the 23 paper queries
//                 over WSJ + SWB images of 8,000 sentences each;
//   wire_mixed    four net::Client connections to an in-process NetServer
//                 over a WSJ image of 2,000 sentences: hot, respelled,
//                 fresh (cache-evicting) and large-result queries;
//   live_ingest   two Database::Ingest writers plus one suite reader over
//                 a durable (WAL, fsync per commit) WSJ base of 4,000
//                 sentences with background compaction.
//
// Every workload is closed-loop and checks every answer against the
// navigational engine. An untraced run measures the end-to-end metrics; a
// traced run alternates untraced and traced slices of the same workload
// (the ratio of their throughputs is the tracing overhead), then probes
// each layer's public functions on the workload's own inputs.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "trace.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for images and WALs (created and removed by the
  /// caller).
  std::string work_dir;
};

struct Metric {
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;  ///< measurements behind the value
};

struct Report {
  std::map<std::string, Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  ///< the first few failure messages

  void Set(const std::string& name, double value, const std::string& unit,
           uint64_t samples) {
    metrics[name] = Metric{value, unit, samples};
  }
  void Merge(uint64_t attempted_ops, uint64_t failed_ops,
             const std::vector<std::string>& messages);
};

/// The workload names, in run order.
const std::vector<std::string>& WorkloadNames();

/// Runs `config.workload`. A non-OK status means the benchmark itself could
/// not run (set-up failed); failed or wrong answers are counted in the
/// report instead.
lpath::Status RunWorkload(const RunConfig& config, Tracer* tracer,
                          Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
