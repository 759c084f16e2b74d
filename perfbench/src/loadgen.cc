#include "perfbench/src/loadgen.h"

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "bench/alloc_hook.h"
#include "perfbench/src/spans.h"

namespace perfbench {
namespace {

void SleepUntilNs(int64_t deadline_ns) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::nanoseconds(deadline_ns))));
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

Window::Window(Bed* bed, WindowOptions options)
    : bed_(bed),
      options_(options),
      chunks_(std::make_unique<std::unique_ptr<Slot[]>[]>(kMaxRequests / kChunkSlots)) {
  if (!options_.closed_loop) {
    open_requests_ = std::min(
        static_cast<uint64_t>(std::ceil(options_.rate * options_.seconds)), kMaxRequests);
    // Allocated up front, so the schedule never waits on an allocation.
    for (uint64_t slot = 0; slot < open_requests_; slot += kChunkSlots) {
      EnsureChunk(slot);
    }
  }
}

void Window::EnsureChunk(uint64_t slot) {
  std::unique_ptr<Slot[]>& chunk = chunks_[slot / kChunkSlots];
  if (chunk == nullptr) {
    chunk = std::make_unique<Slot[]>(kChunkSlots);
  }
}

void Window::Release(uint64_t slot, int64_t scheduled_ns) {
  Slot& s = SlotAt(slot);
  s.scheduled_ns = scheduled_ns;
  s.released_ns = NowNs();
  pool_->Submit([this, slot] {
    Slot& started = SlotAt(slot);
    started.started_ns = NowNs();
    const uint64_t index = options_.first_index + slot;
    SpanRecorder::Record(index, SpanName::kPoolWait, started.released_ns, started.started_ns);
    bed_->Issue(this, slot, index);
  });
}

void Window::Complete(uint64_t slot, Outcome outcome) {
  Slot& s = SlotAt(slot);
  Outcome expected = Outcome::kPending;
  const int64_t now = NowNs();
  if (!s.outcome.compare_exchange_strong(expected, outcome)) {
    return;  // duplicate delivery: the first outcome stands
  }
  s.done_ns = now;
  SpanRecorder::Record(options_.first_index + slot, SpanName::kRequest, s.scheduled_ns, now);
  std::lock_guard<std::mutex> lock(mu_);
  ++completed_;
  --outstanding_;
  cv_.notify_all();
}

WindowResult Window::Run() {
  WindowResult result;
  pool_ = std::make_unique<antipode::ThreadPool>(options_.client_threads, "perfbench-clients");
  // The timing thread wakes at each arrival: drop the default 50 µs timer
  // slack so sleeps end close to the schedule.
  const int previous_slack = prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
  prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
  const double cpu_before = ProcessCpuSeconds();
  const uint64_t allocs_before = antipode::benchhook::AllocationCount();

  const int64_t start_ns = NowNs() + 1'000'000;
  const auto window_ns = static_cast<int64_t>(options_.seconds * 1e9);
  uint64_t issued = 0;
  // Open loop: process CPU at the first wake-up in each whole second of the
  // schedule, for per-second CPU per request.
  std::vector<double> cpu_marks;
  if (!options_.closed_loop) {
    const double interval_ns = 1e9 / options_.rate;
    result.arrival_interval_ms = interval_ns / 1e6;
    const auto due = [&](uint64_t i) {
      return start_ns + static_cast<int64_t>(static_cast<double>(i) * interval_ns);
    };
    int64_t next_mark_ns = start_ns;
    while (issued < open_requests_) {
      SleepUntilNs(due(issued));
      // Release every arrival that is due: a sleep that overshoots several
      // intervals must not shed load.
      const int64_t now = NowNs();
      if (now >= next_mark_ns) {
        cpu_marks.push_back(ProcessCpuSeconds());
        next_mark_ns += 1'000'000'000;
      }
      while (issued < open_requests_ && due(issued) <= now) {
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++outstanding_;
        }
        Release(issued, due(issued));
        ++issued;
      }
    }
    result.generation_s = static_cast<double>(due(issued) - start_ns) / 1e9;
  } else {
    SleepUntilNs(start_ns);
    const int64_t end_ns = start_ns + window_ns;
    const auto end_tp = std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::nanoseconds(end_ns)));
    while (issued < kMaxRequests) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (!cv_.wait_until(lock, end_tp,
                            [&] { return outstanding_ < options_.outstanding; })) {
          break;
        }
        ++outstanding_;
      }
      EnsureChunk(issued);
      const int64_t now = NowNs();
      if (now >= end_ns) {
        std::lock_guard<std::mutex> lock(mu_);
        --outstanding_;
        break;
      }
      Release(issued, now);
      ++issued;
    }
    result.generation_s = options_.seconds;
  }
  result.issued = issued;
  prctl(PR_SET_TIMERSLACK, previous_slack > 0 ? previous_slack : 50'000, 0, 0, 0);

  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, std::chrono::duration<double>(options_.drain_cap_s),
                 [&] { return completed_ >= issued; });
  }
  pool_->Shutdown();
  bed_->Drain();
  result.cpu_s = ProcessCpuSeconds() - cpu_before;
  result.allocations = antipode::benchhook::AllocationCount() - allocs_before;

  const int64_t window_end_ns = start_ns + static_cast<int64_t>(result.generation_s * 1e9);
  uint64_t in_window = 0;
  std::vector<uint64_t> per_second(static_cast<size_t>(result.generation_s), 0);
  result.latency_ms.reserve(issued);
  result.late_ms.reserve(issued);
  result.queue_wait_ms.reserve(issued);
  for (uint64_t i = 0; i < issued; ++i) {
    const Slot& s = SlotAt(i);
    const Outcome outcome = s.outcome.load();
    switch (outcome) {
      case Outcome::kOk:
        ++result.ok;
        break;
      case Outcome::kViolation:
        ++result.violations;
        break;
      case Outcome::kFailed:
        ++result.failed;
        break;
      case Outcome::kPending:
        ++result.unfinished;
        continue;
    }
    if (s.done_ns <= window_end_ns) {
      ++in_window;
      const auto second = static_cast<size_t>((s.done_ns - start_ns) / 1'000'000'000);
      if (second < per_second.size()) {
        ++per_second[second];
      }
    }
    result.latency_ms.push_back(Ms(s.done_ns - s.scheduled_ns));
    result.late_ms.push_back(Ms(s.released_ns - s.scheduled_ns));
    result.queue_wait_ms.push_back(Ms(s.started_ns - s.released_ns));
  }
  result.throughput_req_s =
      result.generation_s > 0 ? static_cast<double>(in_window) / result.generation_s : 0.0;
  result.per_second_req_s.assign(per_second.begin(), per_second.end());
  for (size_t k = 0; k + 1 < cpu_marks.size() && k < per_second.size(); ++k) {
    if (per_second[k] > 0) {
      result.per_second_cpu_us_per_req.push_back(1e6 * (cpu_marks[k + 1] - cpu_marks[k]) /
                                                 static_cast<double>(per_second[k]));
    }
  }
  return result;
}

}  // namespace perfbench
