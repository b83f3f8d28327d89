/// \file host_speed.cpp
/// See host_speed.hpp. Built with fixed flags of its own (CMakeLists.txt), not
/// with the product's, so a change to the product cannot change this code.

#include "host_speed.hpp"

#include <chrono>
#include <cmath>
#include <cstddef>
#include <random>
#include <vector>

namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kAtoms = 4096;
constexpr int kNeighbors = 48;
constexpr int kWindow = 600;  ///< neighbours lie within this many indices

template <class T>
class PairSweep {
 public:
  PairSweep()
      : x_(kAtoms), y_(kAtoms), z_(kAtoms), f_(kAtoms),
        nb_(static_cast<std::size_t>(kAtoms) * kNeighbors) {
    std::mt19937 rng(3);
    std::uniform_real_distribution<float> u(0.0f, 20.0f);
    for (int i = 0; i < kAtoms; ++i) {
      x_[i] = u(rng);
      y_[i] = u(rng);
      z_[i] = u(rng);
    }
    for (std::size_t k = 0; k < nb_.size(); ++k) {
      const std::size_t i = k / kNeighbors;
      nb_[k] = static_cast<int>((i + 1 + rng() % kWindow) % kAtoms);
    }
  }

  /// Milliseconds for `sweeps` full force sweeps.
  double run(int sweeps) {
    const auto t0 = Clock::now();
    for (int s = 0; s < sweeps; ++s) {
      for (int i = 0; i < kAtoms; ++i) {
        T ax = 0, ay = 0, az = 0;
        const int* list = &nb_[static_cast<std::size_t>(i) * kNeighbors];
        for (int k = 0; k < kNeighbors; ++k) {
          const int j = list[k];
          const T dx = x_[i] - x_[j], dy = y_[i] - y_[j], dz = z_[i] - z_[j];
          const T ir2 = T(1) / (dx * dx + dy * dy + dz * dz + T(0.5));
          const T ir6 = ir2 * ir2 * ir2;
          const T f = ir6 * (ir6 - T(0.5)) * ir2;
          ax += f * dx;
          ay += f * dy;
          az += f * dz;
        }
        f_[i] = ax + ay + az;
      }
    }
    sink_ = f_[7];
    return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  }

 private:
  std::vector<T> x_, y_, z_, f_;
  std::vector<int> nb_;
  volatile T sink_ = 0;
};

}  // namespace

double host_speed_ms() {
  static PairSweep<float> fp32;
  static PairSweep<double> fp64;
  return std::sqrt(fp32.run(20) * fp64.run(10));
}

}  // namespace e2e
