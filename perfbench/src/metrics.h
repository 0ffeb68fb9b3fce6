// The benchmark's arithmetic: latency percentiles with their sample count,
// ratios with zero bases, geometric means, span self time, and the
// order-independent digest that compares a result set with its oracle.
// Everything here is pure and unit-tested (perfbench/tests/metrics_test.cc).

#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of `samples` (need not be sorted): the smallest
/// sample such that at least p% of all samples are <= it. 0 when empty.
double Percentile(std::vector<double> samples, double p);

/// How many samples lie strictly above the nearest-rank p-th percentile's
/// rank: n - ceil(p/100 * n). A percentile is reported only when this is at
/// least 10 (the choosing-metrics rule); p99 therefore needs n >= 1000.
size_t SamplesBeyond(size_t n, double p);

/// Median, p99 and the sample count of one latency series.
struct LatencySummary {
  size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  size_t beyond_p99 = 0;  ///< samples ranked above the p99 sample
};
LatencySummary Summarize(const std::vector<double>& samples);

/// num / den, or 0 when den is 0 (a layer that did no work reports 0, not
/// NaN or infinity).
double Ratio(double num, double den);

/// Geometric mean of the positive entries; 0 when there are none.
double GeoMean(const std::vector<double>& values);

/// One recorded span: [start_ns, end_ns) on the steady clock, caused by
/// span `parent` (0 = a root) and belonging to request `request`.
struct SpanRecord {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t thread = 0;
};

/// Self time of every span, in nanoseconds, index-aligned with `spans`: the
/// span's duration minus the part of its interval that the union of its
/// direct children covers. Overlapping (parallel) children count once, and
/// child time outside the parent's interval is ignored.
std::vector<int64_t> SelfTimesNs(const std::vector<SpanRecord>& spans);

/// Order-independent digest of a set of (tid, id) hits: the count plus the
/// wrapping sum of a 64-bit mix of each pair. Equal sets give equal digests
/// in any order; a digest is additive, so the digest of a disjoint union is
/// the sum of the parts.
struct Digest {
  uint64_t count = 0;
  uint64_t hash = 0;

  void Add(int32_t tid, int32_t id);
  void Merge(const Digest& other) {
    count += other.count;
    hash += other.hash;
  }
  bool operator==(const Digest&) const = default;
};

template <typename Hits>
Digest DigestOf(const Hits& hits) {
  Digest d;
  for (const auto& h : hits) d.Add(h.tid, h.id);
  return d;
}

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
