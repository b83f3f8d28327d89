/// \file simd.cpp
/// Tier dispatch plus the canonical scalar kernels.
///
/// This TU is compiled with `-ffp-contract=off` (see CMakeLists.txt): the
/// scalar kernels below are the bitwise specification the AVX2 and AVX-512
/// TUs must match, so the compiler may not fuse the written mul/add
/// sequences into FMAs the vector code does not issue. Each kernel walks
/// fixed-width lane blocks, evaluates every lane with the same expression
/// order the vector paths use, zeroes remainder lanes, and reduces with the
/// exact AVX2 horizontal-add tree (see simd.hpp); an AVX-512 block is two
/// of these blocks.

#include "md/simd.hpp"

#include <cmath>
#include <cstdlib>
#include <string>

#include "util/error.hpp"

namespace wsmd::simd {

namespace {

// --- FP64 kernels (4-lane blocks, reduction tree (l0+l2)+(l1+l3)) --------

std::size_t sieve_f64_scalar(const double* px, const double* py,
                             const double* pz, double xi, double yi, double zi,
                             const std::uint32_t* idx, std::size_t count,
                             const BoxF64& box, double rc2,
                             std::uint32_t* out_idx, double* out_dx,
                             double* out_dy, double* out_dz, double* out_r2) {
  std::size_t out_n = 0;
  for (std::size_t m = 0; m < count; ++m) {
    const std::uint32_t j = idx[m];
    double dx = px[j] - xi;
    double dy = py[j] - yi;
    double dz = pz[j] - zi;
    dx -= std::nearbyint(dx * box.inv_len[0]) * box.len[0];
    dy -= std::nearbyint(dy * box.inv_len[1]) * box.len[1];
    dz -= std::nearbyint(dz * box.inv_len[2]) * box.len[2];
    const double r2 = dx * dx + dy * dy + dz * dz;
    // Branchless compaction: always store, advance only on accept — the
    // same store-then-count shape the vector compaction uses.
    out_idx[out_n] = j;
    out_dx[out_n] = dx;
    out_dy[out_n] = dy;
    out_dz[out_n] = dz;
    out_r2[out_n] = r2;
    out_n += (r2 < rc2) ? 1 : 0;
  }
  return out_n;
}

double rho_row_f64_scalar(const eam::ProfileF64::Raw& tab, const int* types,
                          const std::uint32_t* idx, const double* r2,
                          std::size_t n) {
  double acc = 0.0;
  const int nr = tab.nr;
  for (std::size_t m0 = 0; m0 < n; m0 += kLanesF64) {
    double lane[kLanesF64];
    for (std::size_t l = 0; l < kLanesF64; ++l) {
      const std::size_t m = m0 + l;
      if (m >= n) {
        lane[l] = 0.0;
        continue;
      }
      const double t = r2[m] * tab.inv_dr2;
      int k = static_cast<int>(t);
      k = k < nr - 1 ? k : nr - 1;
      const double frac = t - static_cast<double>(k);
      const int tj = types[idx[m]];
      const double* c =
          tab.rho + static_cast<std::size_t>(tj * nr + k) * 2;
      lane[l] = c[0] + c[1] * frac;
    }
    acc += (lane[0] + lane[2]) + (lane[1] + lane[3]);
  }
  return acc;
}

PairAccumF64 force_row_f64_scalar(const eam::ProfileF64::Raw& tab,
                                  const int* types, const double* fprime,
                                  double fprime_i, int ti,
                                  const std::uint32_t* idx, const double* dx,
                                  const double* dy, const double* dz,
                                  const double* r2, std::size_t n,
                                  bool pairwise_only) {
  double afx = 0.0, afy = 0.0, afz = 0.0, aphi = 0.0;
  const int nr = tab.nr;
  const int nt = tab.nt;
  for (std::size_t m0 = 0; m0 < n; m0 += kLanesF64) {
    double lfx[kLanesF64], lfy[kLanesF64], lfz[kLanesF64], lphi[kLanesF64];
    for (std::size_t l = 0; l < kLanesF64; ++l) {
      const std::size_t m = m0 + l;
      if (m >= n) {
        lfx[l] = lfy[l] = lfz[l] = lphi[l] = 0.0;
        continue;
      }
      const std::uint32_t j = idx[m];
      const double t = r2[m] * tab.inv_dr2;
      int k = static_cast<int>(t);
      k = k < nr - 1 ? k : nr - 1;
      const double frac = t - static_cast<double>(k);
      const int tj = types[j];
      const double* pc =
          tab.pair + static_cast<std::size_t>((ti * nt + tj) * nr + k) * 4;
      lphi[l] = pc[0] + pc[1] * frac;
      double pf = pc[2] + pc[3] * frac;
      if (!pairwise_only) {
        const double* cj =
            tab.rho_force + static_cast<std::size_t>(tj * nr + k) * 2;
        const double* ci =
            tab.rho_force + static_cast<std::size_t>(ti * nr + k) * 2;
        pf = pf + fprime_i * (cj[0] + cj[1] * frac);
        pf = pf + fprime[j] * (ci[0] + ci[1] * frac);
      }
      lfx[l] = dx[m] * pf;
      lfy[l] = dy[m] * pf;
      lfz[l] = dz[m] * pf;
    }
    afx += (lfx[0] + lfx[2]) + (lfx[1] + lfx[3]);
    afy += (lfy[0] + lfy[2]) + (lfy[1] + lfy[3]);
    afz += (lfz[0] + lfz[2]) + (lfz[1] + lfz[3]);
    aphi += (lphi[0] + lphi[2]) + (lphi[1] + lphi[3]);
  }
  return {afx, afy, afz, aphi};
}

// --- FP32 kernels (8-lane blocks, tree ((l0+l4)+(l2+l6))+((l1+l5)+(l3+l7)))

std::size_t sieve_f32_scalar(const float* px, const float* py, const float* pz,
                             float xi, float yi, float zi,
                             const std::uint32_t* idx, std::size_t count,
                             const BoxF32& box, float rc2,
                             std::uint32_t* out_idx, float* out_dx,
                             float* out_dy, float* out_dz, float* out_r2) {
  std::size_t out_n = 0;
  for (std::size_t m = 0; m < count; ++m) {
    const std::uint32_t j = idx[m];
    float dx = px[j] - xi;
    float dy = py[j] - yi;
    float dz = pz[j] - zi;
    dx -= std::nearbyint(dx * box.inv_len[0]) * box.len[0];
    dy -= std::nearbyint(dy * box.inv_len[1]) * box.len[1];
    dz -= std::nearbyint(dz * box.inv_len[2]) * box.len[2];
    const float r2 = dx * dx + dy * dy + dz * dz;
    out_idx[out_n] = j;
    out_dx[out_n] = dx;
    out_dy[out_n] = dy;
    out_dz[out_n] = dz;
    out_r2[out_n] = r2;
    out_n += (r2 < rc2) ? 1 : 0;
  }
  return out_n;
}

float rho_row_f32_scalar(const eam::ProfileF32::Raw& tab, const int* types,
                         const std::uint32_t* idx, const float* r2,
                         std::size_t n) {
  float acc = 0.0f;
  const int nr = tab.nr;
  for (std::size_t m0 = 0; m0 < n; m0 += kLanesF32) {
    float lane[kLanesF32];
    for (std::size_t l = 0; l < kLanesF32; ++l) {
      const std::size_t m = m0 + l;
      if (m >= n) {
        lane[l] = 0.0f;
        continue;
      }
      const float t = r2[m] * tab.inv_dr2;
      int k = static_cast<int>(t);
      k = k < nr - 1 ? k : nr - 1;
      const float frac = t - static_cast<float>(k);
      const int tj = types[idx[m]];
      const float* c = tab.rho + static_cast<std::size_t>(tj * nr + k) * 2;
      lane[l] = c[0] + c[1] * frac;
    }
    acc += ((lane[0] + lane[4]) + (lane[2] + lane[6])) +
           ((lane[1] + lane[5]) + (lane[3] + lane[7]));
  }
  return acc;
}

PairAccumF32 force_row_f32_scalar(const eam::ProfileF32::Raw& tab,
                                  const int* types, const float* fprime,
                                  float fprime_i, int ti,
                                  const std::uint32_t* idx, const float* dx,
                                  const float* dy, const float* dz,
                                  const float* r2, std::size_t n,
                                  bool pairwise_only) {
  float afx = 0.0f, afy = 0.0f, afz = 0.0f, aphi = 0.0f;
  const int nr = tab.nr;
  const int nt = tab.nt;
  for (std::size_t m0 = 0; m0 < n; m0 += kLanesF32) {
    float lfx[kLanesF32], lfy[kLanesF32], lfz[kLanesF32], lphi[kLanesF32];
    for (std::size_t l = 0; l < kLanesF32; ++l) {
      const std::size_t m = m0 + l;
      if (m >= n) {
        lfx[l] = lfy[l] = lfz[l] = lphi[l] = 0.0f;
        continue;
      }
      const std::uint32_t j = idx[m];
      const float t = r2[m] * tab.inv_dr2;
      int k = static_cast<int>(t);
      k = k < nr - 1 ? k : nr - 1;
      const float frac = t - static_cast<float>(k);
      const int tj = types[j];
      const float* pc =
          tab.pair + static_cast<std::size_t>((ti * nt + tj) * nr + k) * 4;
      lphi[l] = pc[0] + pc[1] * frac;
      float pf = pc[2] + pc[3] * frac;
      if (!pairwise_only) {
        const float* cj =
            tab.rho_force + static_cast<std::size_t>(tj * nr + k) * 2;
        const float* ci =
            tab.rho_force + static_cast<std::size_t>(ti * nr + k) * 2;
        pf = pf + fprime_i * (cj[0] + cj[1] * frac);
        pf = pf + fprime[j] * (ci[0] + ci[1] * frac);
      }
      lfx[l] = dx[m] * pf;
      lfy[l] = dy[m] * pf;
      lfz[l] = dz[m] * pf;
    }
    afx += ((lfx[0] + lfx[4]) + (lfx[2] + lfx[6])) +
           ((lfx[1] + lfx[5]) + (lfx[3] + lfx[7]));
    afy += ((lfy[0] + lfy[4]) + (lfy[2] + lfy[6])) +
           ((lfy[1] + lfy[5]) + (lfy[3] + lfy[7]));
    afz += ((lfz[0] + lfz[4]) + (lfz[2] + lfz[6])) +
           ((lfz[1] + lfz[5]) + (lfz[3] + lfz[7]));
    aphi += ((lphi[0] + lphi[4]) + (lphi[2] + lphi[6])) +
            ((lphi[1] + lphi[5]) + (lphi[3] + lphi[7]));
  }
  return {afx, afy, afz, aphi};
}

const KernelTable kScalarTable = {
    sieve_f64_scalar, rho_row_f64_scalar, force_row_f64_scalar,
    sieve_f32_scalar, rho_row_f32_scalar, force_row_f32_scalar,
};

// --- Dispatch -------------------------------------------------------------

// The vector table a tier runs (nullptr when not compiled in).
const KernelTable* vector_table(Tier t) {
  switch (t) {
    case Tier::kAvx2:
      return detail::avx2_table();
    case Tier::kAvx512:
      return detail::avx512_table();
    case Tier::kScalar:
      break;
  }
  return nullptr;
}

// WSMD_SIMD_TIER is user input: its errors name the variable, not the code.
Tier resolve_default_tier() {
  const char* env = std::getenv("WSMD_SIMD_TIER");
  if (env == nullptr) return runtime_tier();
  const std::string s(env);
  for (const Tier t : {Tier::kScalar, Tier::kAvx2, Tier::kAvx512}) {
    if (s != tier_name(t)) continue;
    if (!tier_supported(t)) {
      throw Error("WSMD_SIMD_TIER=" + s + ", but this host lacks " +
                  tier_missing(t));
    }
    return t;
  }
  throw Error("unknown WSMD_SIMD_TIER '" + s + "' (want scalar|avx2|avx512)");
}

// Overrides are rare (tests/bench) and single-threaded by contract; the
// default is resolved once and cached.
bool g_has_override = false;
Tier g_override = Tier::kScalar;

}  // namespace

const char* tier_name(Tier t) {
  switch (t) {
    case Tier::kAvx2:
      return "avx2";
    case Tier::kAvx512:
      return "avx512";
    case Tier::kScalar:
      return "scalar";
  }
  return "unknown";
}

Tier compiled_tier() {
  if (detail::avx512_table() != nullptr) return Tier::kAvx512;
  if (detail::avx2_table() != nullptr) return Tier::kAvx2;
  return Tier::kScalar;
}

const char* tier_missing(Tier t) {
  if (t == Tier::kScalar) return nullptr;
  if (vector_table(t) == nullptr) {
    return "the vector kernels (WSMD_SIMD=OFF or a non-x86-64 build)";
  }
#if defined(__x86_64__) || defined(__i386__)
  // The AVX-512 list is every feature simd_avx512.cpp's target attribute
  // names, after AVX2 for the tier below it.
  if (!__builtin_cpu_supports("avx2")) return "avx2";
  if (t == Tier::kAvx2) return nullptr;
  if (!__builtin_cpu_supports("avx512f")) return "avx512f";
  if (!__builtin_cpu_supports("avx512vl")) return "avx512vl";
#endif
  return nullptr;
}

bool tier_supported(Tier t) { return tier_missing(t) == nullptr; }

Tier runtime_tier() {
  for (const Tier t : {Tier::kAvx512, Tier::kAvx2}) {
    if (tier_supported(t)) return t;
  }
  return Tier::kScalar;
}

Tier active_tier() {
  if (g_has_override) return g_override;
  static const Tier resolved = resolve_default_tier();
  return resolved;
}

void set_tier_override(Tier t) {
  WSMD_REQUIRE(tier_supported(t), "cannot force simd tier '"
                                      << tier_name(t) << "': this host lacks "
                                      << tier_missing(t));
  g_has_override = true;
  g_override = t;
}

void clear_tier_override() { g_has_override = false; }

const KernelTable& kernels_for(Tier t) {
  if (t == Tier::kScalar) return kScalarTable;
  WSMD_REQUIRE(tier_supported(t), tier_name(t)
                                      << " kernels requested, but this host "
                                      << "lacks " << tier_missing(t));
  return *vector_table(t);
}

const KernelTable& kernels() { return kernels_for(active_tier()); }

}  // namespace wsmd::simd
