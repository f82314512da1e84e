#ifndef TPSL_UTIL_TIMER_H_
#define TPSL_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>

namespace tpsl {

/// Monotonic wall-clock stopwatch used for all run-time measurements in
/// the experiment harness.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  /// Elapsed time since construction.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  int64_t ElapsedNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace tpsl

#endif  // TPSL_UTIL_TIMER_H_
