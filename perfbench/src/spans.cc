#include "perfbench/src/spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {
namespace {

std::atomic<bool> g_enabled{false};

// Every thread that ever recorded owns one buffer; buffers live in a global
// list so TakeAll can collect them after the recording threads are gone.
struct ThreadBuffer {
  std::mutex mu;  // uncontended except against TakeAll
  std::vector<SpanRecord> spans;
};

std::mutex g_buffers_mu;
std::vector<std::shared_ptr<ThreadBuffer>>& Buffers() {
  static auto* buffers = new std::vector<std::shared_ptr<ThreadBuffer>>();
  return *buffers;
}

ThreadBuffer& LocalBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto created = std::make_shared<ThreadBuffer>();
    created->spans.reserve(4096);
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    Buffers().push_back(created);
    return created;
  }();
  return *buffer;
}

}  // namespace

const char* SpanNameString(SpanName name) {
  static constexpr const char* kNames[kNumSpanNames] = {
      "request", "pool_wait", "writer_side", "reader_side", "shim_write",
      "publish", "lineage_decode", "barrier", "shim_read"};
  return kNames[static_cast<size_t>(name)];
}

SpanName SpanParent(SpanName name) {
  switch (name) {
    case SpanName::kShimWrite:
    case SpanName::kPublish:
      return SpanName::kWriterSide;
    case SpanName::kLineageDecode:
    case SpanName::kBarrier:
    case SpanName::kShimRead:
      return SpanName::kReaderSide;
    default:
      return SpanName::kRequest;
  }
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool SpanRecorder::enabled() { return g_enabled.load(std::memory_order_relaxed); }
void SpanRecorder::SetEnabled(bool enabled) { g_enabled.store(enabled); }

void SpanRecorder::Record(uint64_t request, SpanName name, int64_t start_ns, int64_t end_ns) {
  if (!enabled()) {
    return;
  }
  ThreadBuffer& buffer = LocalBuffer();
  std::lock_guard<std::mutex> lock(buffer.mu);
  buffer.spans.push_back(SpanRecord{request, name, start_ns, end_ns});
}

std::vector<SpanRecord> SpanRecorder::TakeAll() {
  std::vector<SpanRecord> all;
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& buffer : Buffers()) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
  }
  return all;
}

SpanSummary Summarize(std::vector<SpanRecord> spans) {
  SpanSummary summary;
  std::sort(spans.begin(), spans.end(), [](const SpanRecord& a, const SpanRecord& b) {
    return a.request != b.request ? a.request < b.request : a.name < b.name;
  });
  for (size_t begin = 0; begin < spans.size();) {
    size_t end = begin;
    while (end < spans.size() && spans[end].request == spans[begin].request) {
      ++end;
    }
    // At most one span per name per request: index them by name.
    std::array<const SpanRecord*, kNumSpanNames> by_name{};
    for (size_t i = begin; i < end; ++i) {
      by_name[static_cast<size_t>(spans[i].name)] = &spans[i];
    }
    if (by_name[0] != nullptr) {
      ++summary.requests;
    }
    for (size_t n = 0; n < kNumSpanNames; ++n) {
      const SpanRecord* span = by_name[n];
      if (span == nullptr) {
        continue;
      }
      const double duration_ms = static_cast<double>(span->end_ns - span->start_ns) / 1e6;
      // Children of one parent run one after another, so their clipped
      // durations add up to the covered part of the parent's interval.
      double covered_ms = 0.0;
      for (size_t c = 1; c < kNumSpanNames; ++c) {
        const SpanRecord* child = by_name[c];
        if (child == nullptr || static_cast<size_t>(SpanParent(child->name)) != n) {
          continue;
        }
        const int64_t lo = std::max(child->start_ns, span->start_ns);
        const int64_t hi = std::min(child->end_ns, span->end_ns);
        if (hi > lo) {
          covered_ms += static_cast<double>(hi - lo) / 1e6;
        }
      }
      ++summary.count[n];
      summary.self_ms[n] += std::max(0.0, duration_ms - covered_ms);
      summary.durations_ms[n].push_back(duration_ms);
    }
    begin = end;
  }
  return summary;
}

bool WriteSpans(const std::vector<SpanRecord>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  bool ok = true;
  for (const SpanRecord& span : spans) {
    ok = std::fprintf(f,
                      "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,\"id\":%llu,"
                      "\"parent\":%llu,\"request\":%llu}\n",
                      SpanNameString(span.name), static_cast<long long>(span.start_ns),
                      static_cast<long long>(span.end_ns),
                      static_cast<unsigned long long>(span.id()),
                      static_cast<unsigned long long>(span.parent_id()),
                      static_cast<unsigned long long>(span.request)) > 0 &&
         ok;
  }
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
