#include "src/common/clock.h"

#include <algorithm>
#include <atomic>
#include <cmath>

namespace antipode {

double TimeScale::scale_ = 1.0;

double TimeScale::Get() { return scale_; }

void TimeScale::Set(double scale) { scale_ = std::max(scale, 0.0); }

Duration TimeScale::FromModelMillis(double model_millis) {
  const double micros = model_millis * 1000.0 * scale_;
  return Duration(static_cast<int64_t>(std::llround(std::max(micros, 0.0))));
}

double TimeScale::ToModelMillis(Duration wall) {
  if (scale_ <= 0.0) {
    return 0.0;
  }
  return static_cast<double>(wall.count()) / 1000.0 / scale_;
}

SystemClock& SystemClock::Instance() {
  // Leaked: the leaked TimerService dispatcher threads read it during exit.
  static auto* clock = new SystemClock();
  return *clock;
}

namespace {
std::atomic<Clock*> g_global_clock{nullptr};
}  // namespace

Clock& GlobalClock() {
  Clock* clock = g_global_clock.load(std::memory_order_acquire);
  return clock != nullptr ? *clock : SystemClock::Instance();
}

Clock* SetGlobalClock(Clock* clock) {
  return g_global_clock.exchange(clock, std::memory_order_acq_rel);
}

}  // namespace antipode
