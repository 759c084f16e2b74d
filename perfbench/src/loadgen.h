// Load generator: one timing thread releases arrivals to a client pool.
//
//   * Open loop (the nominal window): arrival i is due at start + i/rate and
//     is released when due, whether or not earlier requests completed —
//     independent users. Latency is timed from the *scheduled* arrival, so a
//     stall charges every request that was due during it, and the generator's
//     own lateness (release − scheduled) is reported.
//   * Closed loop (the saturation window): a fixed number of requests is kept
//     outstanding; each completion admits the next request. Completions per
//     second over the window measure capacity.
//
// A workload (`Bed`) runs request `index` on a client-pool thread and reports
// its outcome exactly once through `Window::Complete`, possibly from another
// thread (e.g. a subscriber or reader pool).

#ifndef PERFBENCH_SRC_LOADGEN_H_
#define PERFBENCH_SRC_LOADGEN_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/thread_pool.h"

namespace perfbench {

enum class Outcome : uint8_t {
  kPending = 0,
  kOk,         // the guarded read found the write
  kViolation,  // the guarded read missed the write it depends on (XCY miss)
  kFailed,     // a layer returned an error
};

class Window;

class Bed {
 public:
  virtual ~Bed() = default;
  // Runs request `index` of the workload's stream on the calling client-pool
  // thread; the outcome goes to `window->Complete(slot, ...)`.
  virtual void Issue(Window* window, uint64_t slot, uint64_t index) = 0;
  // Waits for in-flight replication so the bed can be torn down or replayed.
  virtual void Drain() = 0;
};

struct WindowOptions {
  bool closed_loop = false;
  double rate = 1000.0;       // open loop: arrivals per second
  uint32_t outstanding = 64;  // closed loop: requests kept in flight
  double seconds = 1.0;       // generation window
  double drain_cap_s = 30.0;  // completion wait after generation stops
  uint64_t first_index = 0;   // stream offset: distinct windows, distinct keys
  uint32_t client_threads = 4;
};

struct WindowResult {
  uint64_t issued = 0;
  uint64_t ok = 0;
  uint64_t violations = 0;
  uint64_t failed = 0;
  uint64_t unfinished = 0;  // neither completed nor failed by the drain cap
  double generation_s = 0.0;
  double throughput_req_s = 0.0;  // completions inside the generation window / its length
  std::vector<double> per_second_req_s;  // completions in each whole second of the window
  // Open loop: process CPU in each whole second over that second's completions.
  std::vector<double> per_second_cpu_us_per_req;
  double cpu_s = 0.0;             // process user+sys through the drain
  uint64_t allocations = 0;       // heap allocations through the drain
  double arrival_interval_ms = 0.0;
  // Per-request samples (ms), in issue order.
  std::vector<double> latency_ms;     // completion − scheduled arrival
  std::vector<double> late_ms;        // release − scheduled arrival
  std::vector<double> queue_wait_ms;  // client-thread start − release
};

// One measurement window over a bed. Construct, Run, read the result.
class Window {
 public:
  // Requests one window can issue: far beyond any reachable rate (10M+ req/s
  // over a 60 s window). A window that reaches it is not a measurement, and
  // the run fails its self-check rather than report a clipped figure.
  static constexpr uint64_t kMaxRequests = uint64_t{1} << 30;

  Window(Bed* bed, WindowOptions options);
  Window(const Window&) = delete;
  Window& operator=(const Window&) = delete;

  WindowResult Run();

  // Reports request `slot`'s outcome. Exactly once per issued request.
  void Complete(uint64_t slot, Outcome outcome);

 private:
  struct Slot {
    int64_t scheduled_ns = 0;
    int64_t released_ns = 0;
    int64_t started_ns = 0;
    int64_t done_ns = 0;
    std::atomic<Outcome> outcome{Outcome::kPending};
  };

  // Slots live in fixed-size chunks allocated as requests are issued, so a
  // closed loop issues as many requests as it completes. The chunk directory
  // never moves, and the timing thread allocates a chunk before it releases
  // any of its slots; the pool hand-off in Release orders that allocation
  // before every other access to the slot.
  static constexpr uint64_t kChunkSlots = uint64_t{1} << 14;

  void EnsureChunk(uint64_t slot);
  Slot& SlotAt(uint64_t slot) { return chunks_[slot / kChunkSlots][slot % kChunkSlots]; }
  void Release(uint64_t slot, int64_t scheduled_ns);

  Bed* bed_;
  WindowOptions options_;
  std::unique_ptr<std::unique_ptr<Slot[]>[]> chunks_;
  uint64_t open_requests_ = 0;  // open loop: arrivals in the window
  std::unique_ptr<antipode::ThreadPool> pool_;

  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t completed_ = 0;    // guarded by mu_
  uint64_t outstanding_ = 0;  // guarded by mu_
};

// Exact quantile (linear interpolation between closest ranks) of `values`;
// 0 when empty. Sorts a copy.
double Quantile(std::vector<double> values, double q);

// Process user+system CPU seconds (getrusage).
double ProcessCpuSeconds();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LOADGEN_H_
