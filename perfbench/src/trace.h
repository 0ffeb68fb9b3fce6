// Benchmark-side tracing: spans recorded around the calls the benchmark
// makes into the program's public functions (nothing is traced inside the
// program itself). Each client thread appends to its own buffer, so a span
// costs two clock reads and a vector push; buffers are kept in memory and
// written out once, when the run ends.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "metrics.h"

namespace perfbench {

/// Steady-clock nanoseconds.
int64_t NowNs();

class Tracer {
 public:
  /// One thread's span buffer. Only its owning thread appends to it.
  class Buffer {
   public:
    /// Appends a finished span and returns its id.
    uint64_t Record(const char* name, int64_t start_ns, int64_t end_ns,
                    uint64_t parent, uint64_t request);
    /// Reserves an id for a span whose children are recorded before it.
    uint64_t NewId() { return tracer_->next_id_.fetch_add(1) + 1; }
    /// Appends a finished span under an id from NewId().
    void RecordWithId(uint64_t id, const char* name, int64_t start_ns,
                      int64_t end_ns, uint64_t parent, uint64_t request);

   private:
    friend class Tracer;
    Buffer(Tracer* tracer, uint32_t thread) : tracer_(tracer), thread_(thread) {}
    Tracer* tracer_;
    uint32_t thread_;
    std::vector<SpanRecord> spans_;
  };

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// A fresh buffer for one thread; owned by the tracer.
  Buffer* NewBuffer();

  /// A request id shared by the spans of one benchmark operation.
  uint64_t NewRequest() { return next_request_.fetch_add(1) + 1; }

  /// Every span recorded so far. Call after the recording threads joined.
  std::vector<SpanRecord> Collect() const;

  /// Writes `meta` (a JSON object) as the first line, then one JSON object
  /// per span. Returns false on an I/O error.
  bool WriteJsonl(const std::string& path, const std::string& meta) const;

 private:
  std::atomic<uint64_t> next_id_{0};
  std::atomic<uint64_t> next_request_{0};
  mutable std::mutex mu_;  // guards buffers_ (shape only)
  std::deque<Buffer> buffers_;
};

/// Self-time aggregation of a span list by span name.
struct SpanStats {
  std::vector<double> self_us;  ///< one entry per span, in record order
  double total_self_us = 0.0;
};
std::map<std::string, SpanStats> SelfTimeByName(
    const std::vector<SpanRecord>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
