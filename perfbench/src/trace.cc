#include "trace.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t Tracer::Buffer::Record(const char* name, int64_t start_ns,
                                int64_t end_ns, uint64_t parent,
                                uint64_t request) {
  const uint64_t id = NewId();
  RecordWithId(id, name, start_ns, end_ns, parent, request);
  return id;
}

void Tracer::Buffer::RecordWithId(uint64_t id, const char* name,
                                  int64_t start_ns, int64_t end_ns,
                                  uint64_t parent, uint64_t request) {
  spans_.push_back(
      SpanRecord{name, id, parent, request, start_ns, end_ns, thread_});
}

Tracer::Buffer* Tracer::NewBuffer() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(Buffer(this, static_cast<uint32_t>(buffers_.size())));
  return &buffers_.back();
}

std::vector<SpanRecord> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> all;
  for (const Buffer& b : buffers_) {
    all.insert(all.end(), b.spans_.begin(), b.spans_.end());
  }
  return all;
}

bool Tracer::WriteJsonl(const std::string& path, const std::string& meta) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%s\n", meta.c_str());
  for (const SpanRecord& s : Collect()) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"request\":%llu,\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"thread\":%u}\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.thread);
  }
  return std::fclose(f) == 0;
}

std::map<std::string, SpanStats> SelfTimeByName(
    const std::vector<SpanRecord>& spans) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, SpanStats> by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanStats& s = by_name[spans[i].name];
    const double us = static_cast<double>(self[i]) / 1e3;
    s.self_us.push_back(us);
    s.total_self_us += us;
  }
  return by_name;
}

}  // namespace perfbench
