#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

/// 0-based index of the nearest-rank p-th percentile among n sorted samples.
size_t RankIndex(size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  const size_t r = rank < 1.0 ? 1 : static_cast<size_t>(rank);
  return std::min(r, n) - 1;
}

uint64_t Mix64(uint64_t x) {  // splitmix64 finalizer
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const size_t k = RankIndex(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(k),
                   samples.end());
  return samples[k];
}

size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  return n - (RankIndex(n, p) + 1);
}

LatencySummary Summarize(const std::vector<double>& samples) {
  LatencySummary s;
  s.count = samples.size();
  s.p50 = Percentile(samples, 50.0);
  s.p99 = Percentile(samples, 99.0);
  s.beyond_p99 = SamplesBeyond(samples.size(), 99.0);
  return s;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double GeoMean(const std::vector<double>& values) {
  double log_sum = 0.0;
  size_t n = 0;
  for (double v : values) {
    if (v > 0.0) {
      log_sum += std::log(v);
      ++n;
    }
  }
  return n == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(n));
}

std::vector<int64_t> SelfTimesNs(const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, size_t> index_of;
  index_of.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;

  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent == 0) continue;
    auto it = index_of.find(s.parent);
    if (it != index_of.end()) children[it->second].emplace_back(s.start_ns, s.end_ns);
  }

  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (auto [a, b] : kids) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (a >= b) continue;
      if (open && a <= run_hi) {
        run_hi = std::max(run_hi, b);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = a;
      run_hi = b;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

void Digest::Add(int32_t tid, int32_t id) {
  const uint64_t key = (static_cast<uint64_t>(static_cast<uint32_t>(tid)) << 32) |
                       static_cast<uint32_t>(id);
  count += 1;
  hash += Mix64(key + 0x9e3779b97f4a7c15ull);
}

}  // namespace perfbench
