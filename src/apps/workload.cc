#include "src/apps/workload.h"

#include <condition_variable>
#include <mutex>

#include "src/common/sim.h"

namespace antipode {

WorkloadResult OpenLoopRunner::Run(const Options& options,
                                   std::function<void(uint64_t)> request) {
  WorkloadResult result;
  ThreadPool clients(options.client_threads, "workload-clients");
  ConcurrentHistogram latency;
  Rng rng(options.seed);

  std::mutex mu;
  std::condition_variable cv;
  uint64_t inflight = 0;

  const TimePoint start = GlobalClock().Now();
  const Duration duration = TimeScale::FromModelMillis(options.duration_model_seconds * 1000.0);
  const double mean_gap_millis = 1000.0 / options.rate_per_model_second;

  uint64_t sequence = 0;
  TimePoint next_arrival = start;
  while (next_arrival - start < duration) {
    GlobalClock().SleepFor(
        std::chrono::duration_cast<Duration>(next_arrival - GlobalClock().Now()));
    const uint64_t id = sequence++;
    {
      std::lock_guard<std::mutex> lock(mu);
      ++inflight;
    }
    clients.Submit([&, id] {
      const TimePoint begin = GlobalClock().Now();
      request(id);
      const TimePoint end = GlobalClock().Now();
      latency.Record(TimeScale::ToModelMillis(std::chrono::duration_cast<Duration>(end - begin)));
      {
        std::lock_guard<std::mutex> lock(mu);
        --inflight;
      }
      cv.notify_all();
    });
    const double gap = options.poisson_arrivals ? rng.NextExponential(mean_gap_millis)
                                                : mean_gap_millis;
    next_arrival += TimeScale::FromModelMillis(gap);
  }

  BlockUntil(mu, cv, TimePoint::max(), [&] { return inflight == 0; });
  const TimePoint finish = GlobalClock().Now();
  clients.Shutdown();

  result.offered = sequence;
  result.completed = sequence;
  result.duration_model_seconds =
      TimeScale::ToModelMillis(std::chrono::duration_cast<Duration>(finish - start)) / 1000.0;
  result.throughput = result.duration_model_seconds > 0
                          ? static_cast<double>(result.completed) / result.duration_model_seconds
                          : 0.0;
  result.latency_model_millis = latency.Snapshot();
  return result;
}

}  // namespace antipode
