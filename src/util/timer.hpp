// Timing helpers for the bench harness and frame statistics: wall-clock
// (Timer) and the calling thread's CPU time (ThreadCpuTimer).
#pragma once

#include <chrono>
#include <ctime>

namespace fv {

/// Monotonic stopwatch. Starts running on construction.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Milliseconds elapsed since construction or the last reset().
  double millis() const { return seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// CPU time the calling thread has used since construction
/// (CLOCK_THREAD_CPUTIME_ID). Unlike Timer it does not count time the
/// thread spent waiting for a core, so it measures the work itself when
/// many threads share few cores. Read it on the thread that made it.
class ThreadCpuTimer {
 public:
  ThreadCpuTimer() : start_(now()) {}

  /// CPU seconds used by this thread since construction.
  double seconds() const { return now() - start_; }

 private:
  static double now() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
  double start_;
};

}  // namespace fv
