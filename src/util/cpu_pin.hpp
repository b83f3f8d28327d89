#pragma once

/// \file cpu_pin.hpp
/// Scoped CPU pinning for the benchmarks: a timed thread that stays on one
/// CPU pays for no migration, and two threads that hand work back and
/// forth on separate CPUs never wait for each other's time slice.

#include <sched.h>

namespace wsmd {

/// Pins the calling thread to `cpu` until destroyed, then restores the
/// affinity it had; a no-op when cpu < 0 or the kernel refuses.
class CpuPin {
 public:
  explicit CpuPin(int cpu) {
    if (cpu < 0 || sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
  }
  ~CpuPin() {
    if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

}  // namespace wsmd
