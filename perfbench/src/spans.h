// In-memory span recorder for the traced run. The benchmark wraps each call
// it makes into a product layer (shim write, publish, barrier, shim read,
// mesh writer/reader side) and the request as a whole in a span; the program
// itself is not instrumented. Spans go to per-thread buffers (no lock on the
// record path), are kept in memory for the whole run, and are summarized —
// and optionally written out — when the run ends.
//
// The span tree is fixed: a request's root span covers scheduled arrival to
// completion; pool_wait, writer_side and reader_side are its children;
// shim_write/publish nest under writer_side, lineage_decode/barrier/shim_read
// under reader_side. A span's self time is its duration minus the part of
// its interval its children cover.

#ifndef PERFBENCH_SRC_SPANS_H_
#define PERFBENCH_SRC_SPANS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanName : uint8_t {
  kRequest = 0,
  kPoolWait,
  kWriterSide,
  kReaderSide,
  kShimWrite,
  kPublish,
  kLineageDecode,
  kBarrier,
  kShimRead,
  kCount,
};
inline constexpr size_t kNumSpanNames = static_cast<size_t>(SpanName::kCount);

const char* SpanNameString(SpanName name);
SpanName SpanParent(SpanName name);

// Steady-clock nanoseconds.
int64_t NowNs();

struct SpanRecord {
  uint64_t request = 0;
  SpanName name = SpanName::kRequest;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  // Ids are unique per ⟨request, name⟩: every span name occurs at most once
  // per request.
  uint64_t id() const { return (request << 4) | static_cast<uint64_t>(name); }
  uint64_t parent_id() const {
    return name == SpanName::kRequest ? 0 : (request << 4) | static_cast<uint64_t>(SpanParent(name));
  }
};

struct SpanSummary {
  uint64_t requests = 0;  // distinct requests with a root span
  std::array<uint64_t, kNumSpanNames> count{};
  std::array<double, kNumSpanNames> self_ms{};
  // Durations of every span of a name, for percentiles.
  std::array<std::vector<double>, kNumSpanNames> durations_ms;
};

class SpanRecorder {
 public:
  static bool enabled();
  static void SetEnabled(bool enabled);

  // Records a span when tracing is enabled; no-op otherwise.
  static void Record(uint64_t request, SpanName name, int64_t start_ns, int64_t end_ns);

  // Moves every recorded span out of the per-thread buffers.
  static std::vector<SpanRecord> TakeAll();
};

SpanSummary Summarize(std::vector<SpanRecord> spans);

// Writes spans as JSON lines (name, start, end, id, parent, request). Returns
// false on I/O failure.
bool WriteSpans(const std::vector<SpanRecord>& spans, const std::string& path);

// RAII span over a scope.
class ScopedSpan {
 public:
  ScopedSpan(uint64_t request, SpanName name)
      : request_(request), name_(name), start_ns_(SpanRecorder::enabled() ? NowNs() : 0) {}
  ~ScopedSpan() {
    if (start_ns_ != 0) {
      SpanRecorder::Record(request_, name_, start_ns_, NowNs());
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  uint64_t request_;
  SpanName name_;
  int64_t start_ns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPANS_H_
