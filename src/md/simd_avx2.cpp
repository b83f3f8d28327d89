/// \file simd_avx2.cpp
/// AVX2 implementations of the batched kernels (simd.hpp).
///
/// Compiled into every build; the vector bodies are gated on
/// WSMD_SIMD_ENABLED (the WSMD_SIMD CMake option) and x86-64, with
/// per-function `target("avx2")` attributes so the rest of the binary stays
/// baseline and the scalar fallback runs on any CPU. Like simd.cpp this TU
/// is built with `-ffp-contract=off`; every arithmetic sequence here
/// mirrors the scalar kernels op for op (same mul/add order, same
/// round-half-even rounding, same reduction tree), which is what makes the
/// two tiers bitwise interchangeable.
///
/// Remainder policy: tails use masked loads/gathers (masked-off lanes never
/// touch memory) and contribute exact zeros to the block sums. The sieves
/// compact accepted lanes with a movemask-indexed permutation table and a
/// full-width store — hence the `count + kPad*` capacity contract on the
/// output arrays.

#include "md/simd.hpp"

#if defined(WSMD_SIMD_ENABLED) && defined(__x86_64__)

#include <immintrin.h>

#include "md/simd_x86.hpp"

namespace wsmd::simd {
namespace {

using x86::hsum4;
using x86::hsum8;
using x86::kRoundEven;

#define WSMD_AVX2 __attribute__((target("avx2")))

// Sliding tail mask: load at (8 - valid) to get `valid` leading -1 lanes.
alignas(32) constexpr std::int32_t kTailMask[16] = {
    -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0};

// Movemask-indexed compaction tables: for accept-mask m, lane permutations
// that pack accepted lanes to the front in input order.
struct PackTables {
  alignas(32) std::int32_t perm8[256][8];  // 8 x 32-bit lanes
  alignas(32) std::int32_t perm4[16][8];   // 4 x 64-bit lanes as i32 pairs
  alignas(16) std::int8_t shuf4[16][16];   // 4 x u32 in xmm, byte shuffle
};

const PackTables kPack = [] {
  PackTables t{};
  for (int m = 0; m < 256; ++m) {
    int out = 0;
    for (int l = 0; l < 8; ++l) {
      if (m & (1 << l)) t.perm8[m][out++] = l;
    }
  }
  for (int m = 0; m < 16; ++m) {
    int out = 0;
    for (int l = 0; l < 4; ++l) {
      if (!(m & (1 << l))) continue;
      t.perm4[m][2 * out] = 2 * l;
      t.perm4[m][2 * out + 1] = 2 * l + 1;
      for (int b = 0; b < 4; ++b) {
        t.shuf4[m][4 * out + b] = static_cast<std::int8_t>(4 * l + b);
      }
      ++out;
    }
  }
  return t;
}();

WSMD_AVX2 inline __m128i tail_mask4(std::size_t valid) {
  return _mm_loadu_si128(
      reinterpret_cast<const __m128i*>(kTailMask + (8 - valid)));
}

WSMD_AVX2 inline __m256i tail_mask8(std::size_t valid) {
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kTailMask + (8 - valid)));
}

// --- FP64 -----------------------------------------------------------------

WSMD_AVX2 std::size_t sieve_f64_avx2(const double* px, const double* py,
                                     const double* pz, double xi, double yi,
                                     double zi, const std::uint32_t* idx,
                                     std::size_t count, const BoxF64& box,
                                     double rc2, std::uint32_t* out_idx,
                                     double* out_dx, double* out_dy,
                                     double* out_dz, double* out_r2) {
  const __m256d vxi = _mm256_set1_pd(xi);
  const __m256d vyi = _mm256_set1_pd(yi);
  const __m256d vzi = _mm256_set1_pd(zi);
  const __m256d vl0 = _mm256_set1_pd(box.len[0]);
  const __m256d vl1 = _mm256_set1_pd(box.len[1]);
  const __m256d vl2 = _mm256_set1_pd(box.len[2]);
  const __m256d vi0 = _mm256_set1_pd(box.inv_len[0]);
  const __m256d vi1 = _mm256_set1_pd(box.inv_len[1]);
  const __m256d vi2 = _mm256_set1_pd(box.inv_len[2]);
  const __m256d vrc2 = _mm256_set1_pd(rc2);
  const __m256d zero = _mm256_setzero_pd();
  std::size_t out_n = 0;
  for (std::size_t m0 = 0; m0 < count; m0 += kLanesF64) {
    const std::size_t valid =
        count - m0 < kLanesF64 ? count - m0 : kLanesF64;
    const __m128i m32 = tail_mask4(valid);
    const __m128i vj =
        _mm_maskload_epi32(reinterpret_cast<const int*>(idx + m0), m32);
    const __m256d mpd = _mm256_castsi256_pd(_mm256_cvtepi32_epi64(m32));
    __m256d dx =
        _mm256_sub_pd(_mm256_mask_i32gather_pd(zero, px, vj, mpd, 8), vxi);
    __m256d dy =
        _mm256_sub_pd(_mm256_mask_i32gather_pd(zero, py, vj, mpd, 8), vyi);
    __m256d dz =
        _mm256_sub_pd(_mm256_mask_i32gather_pd(zero, pz, vj, mpd, 8), vzi);
    dx = _mm256_sub_pd(
        dx, _mm256_mul_pd(
                _mm256_round_pd(_mm256_mul_pd(dx, vi0), kRoundEven), vl0));
    dy = _mm256_sub_pd(
        dy, _mm256_mul_pd(
                _mm256_round_pd(_mm256_mul_pd(dy, vi1), kRoundEven), vl1));
    dz = _mm256_sub_pd(
        dz, _mm256_mul_pd(
                _mm256_round_pd(_mm256_mul_pd(dz, vi2), kRoundEven), vl2));
    const __m256d r2 = _mm256_add_pd(
        _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)),
        _mm256_mul_pd(dz, dz));
    const __m256d accept =
        _mm256_and_pd(_mm256_cmp_pd(r2, vrc2, _CMP_LT_OQ), mpd);
    const int mask = _mm256_movemask_pd(accept);
    const __m256i perm = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(kPack.perm4[mask]));
    _mm256_storeu_pd(out_dx + out_n,
                     _mm256_castps_pd(_mm256_permutevar8x32_ps(
                         _mm256_castpd_ps(dx), perm)));
    _mm256_storeu_pd(out_dy + out_n,
                     _mm256_castps_pd(_mm256_permutevar8x32_ps(
                         _mm256_castpd_ps(dy), perm)));
    _mm256_storeu_pd(out_dz + out_n,
                     _mm256_castps_pd(_mm256_permutevar8x32_ps(
                         _mm256_castpd_ps(dz), perm)));
    _mm256_storeu_pd(out_r2 + out_n,
                     _mm256_castps_pd(_mm256_permutevar8x32_ps(
                         _mm256_castpd_ps(r2), perm)));
    const __m128i sh = _mm_load_si128(
        reinterpret_cast<const __m128i*>(kPack.shuf4[mask]));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out_idx + out_n),
                     _mm_shuffle_epi8(vj, sh));
    out_n += static_cast<std::size_t>(__builtin_popcount(
        static_cast<unsigned>(mask)));
  }
  return out_n;
}

WSMD_AVX2 double rho_row_f64_avx2(const eam::ProfileF64::Raw& tab,
                                  const int* types, const std::uint32_t* idx,
                                  const double* r2, std::size_t n) {
  const __m256d vinv = _mm256_set1_pd(tab.inv_dr2);
  const __m128i vnr = _mm_set1_epi32(tab.nr);
  const __m128i vnr1 = _mm_set1_epi32(tab.nr - 1);
  const __m256d zero = _mm256_setzero_pd();
  const __m128i zero32 = _mm_setzero_si128();
  double acc = 0.0;
  for (std::size_t m0 = 0; m0 < n; m0 += kLanesF64) {
    const std::size_t valid = n - m0 < kLanesF64 ? n - m0 : kLanesF64;
    const __m128i m32 = tail_mask4(valid);
    const __m256i m64 = _mm256_cvtepi32_epi64(m32);
    const __m256d mpd = _mm256_castsi256_pd(m64);
    const __m128i vj =
        _mm_maskload_epi32(reinterpret_cast<const int*>(idx + m0), m32);
    const __m256d vr2 = _mm256_maskload_pd(r2 + m0, m64);
    const __m256d vt = _mm256_mul_pd(vr2, vinv);
    const __m128i vk = _mm_min_epi32(_mm256_cvttpd_epi32(vt), vnr1);
    const __m256d vfrac = _mm256_sub_pd(vt, _mm256_cvtepi32_pd(vk));
    const __m128i vtj = _mm_mask_i32gather_epi32(zero32, types, vj, m32, 4);
    const __m128i vb2 = _mm_slli_epi32(
        _mm_add_epi32(_mm_mullo_epi32(vtj, vnr), vk), 1);
    const __m256d c0 = _mm256_mask_i32gather_pd(zero, tab.rho, vb2, mpd, 8);
    const __m256d c1 =
        _mm256_mask_i32gather_pd(zero, tab.rho + 1, vb2, mpd, 8);
    acc += hsum4(_mm256_add_pd(c0, _mm256_mul_pd(c1, vfrac)));
  }
  return acc;
}

WSMD_AVX2 PairAccumF64 force_row_f64_avx2(
    const eam::ProfileF64::Raw& tab, const int* types, const double* fprime,
    double fprime_i, int ti, const std::uint32_t* idx, const double* dx,
    const double* dy, const double* dz, const double* r2, std::size_t n,
    bool pairwise_only) {
  const __m256d vinv = _mm256_set1_pd(tab.inv_dr2);
  const __m128i vnr = _mm_set1_epi32(tab.nr);
  const __m128i vnr1 = _mm_set1_epi32(tab.nr - 1);
  const __m128i vrow_i = _mm_set1_epi32(ti * tab.nt);
  const __m128i vbase_i = _mm_set1_epi32(ti * tab.nr);
  const __m256d vfp_i = _mm256_set1_pd(fprime_i);
  const __m256d zero = _mm256_setzero_pd();
  const __m128i zero32 = _mm_setzero_si128();
  double afx = 0.0, afy = 0.0, afz = 0.0, aphi = 0.0;
  for (std::size_t m0 = 0; m0 < n; m0 += kLanesF64) {
    const std::size_t valid = n - m0 < kLanesF64 ? n - m0 : kLanesF64;
    const __m128i m32 = tail_mask4(valid);
    const __m256i m64 = _mm256_cvtepi32_epi64(m32);
    const __m256d mpd = _mm256_castsi256_pd(m64);
    const __m128i vj =
        _mm_maskload_epi32(reinterpret_cast<const int*>(idx + m0), m32);
    const __m256d vr2 = _mm256_maskload_pd(r2 + m0, m64);
    const __m256d vt = _mm256_mul_pd(vr2, vinv);
    const __m128i vk = _mm_min_epi32(_mm256_cvttpd_epi32(vt), vnr1);
    const __m256d vfrac = _mm256_sub_pd(vt, _mm256_cvtepi32_pd(vk));
    const __m128i vtj = _mm_mask_i32gather_epi32(zero32, types, vj, m32, 4);
    const __m128i vb4 = _mm_slli_epi32(
        _mm_add_epi32(
            _mm_mullo_epi32(_mm_add_epi32(vrow_i, vtj), vnr), vk),
        2);
    const __m256d pc0 =
        _mm256_mask_i32gather_pd(zero, tab.pair, vb4, mpd, 8);
    const __m256d pc1 =
        _mm256_mask_i32gather_pd(zero, tab.pair + 1, vb4, mpd, 8);
    const __m256d pc2 =
        _mm256_mask_i32gather_pd(zero, tab.pair + 2, vb4, mpd, 8);
    const __m256d pc3 =
        _mm256_mask_i32gather_pd(zero, tab.pair + 3, vb4, mpd, 8);
    const __m256d vphi = _mm256_add_pd(pc0, _mm256_mul_pd(pc1, vfrac));
    __m256d pf = _mm256_add_pd(pc2, _mm256_mul_pd(pc3, vfrac));
    if (!pairwise_only) {
      const __m128i vbj2 = _mm_slli_epi32(
          _mm_add_epi32(_mm_mullo_epi32(vtj, vnr), vk), 1);
      const __m128i vbi2 =
          _mm_slli_epi32(_mm_add_epi32(vbase_i, vk), 1);
      const __m256d dj0 =
          _mm256_mask_i32gather_pd(zero, tab.rho_force, vbj2, mpd, 8);
      const __m256d dj1 =
          _mm256_mask_i32gather_pd(zero, tab.rho_force + 1, vbj2, mpd, 8);
      const __m256d di0 =
          _mm256_mask_i32gather_pd(zero, tab.rho_force, vbi2, mpd, 8);
      const __m256d di1 =
          _mm256_mask_i32gather_pd(zero, tab.rho_force + 1, vbi2, mpd, 8);
      const __m256d vfpj =
          _mm256_mask_i32gather_pd(zero, fprime, vj, mpd, 8);
      pf = _mm256_add_pd(
          pf, _mm256_mul_pd(vfp_i,
                            _mm256_add_pd(dj0, _mm256_mul_pd(dj1, vfrac))));
      pf = _mm256_add_pd(
          pf, _mm256_mul_pd(vfpj,
                            _mm256_add_pd(di0, _mm256_mul_pd(di1, vfrac))));
    }
    const __m256d vdx = _mm256_maskload_pd(dx + m0, m64);
    const __m256d vdy = _mm256_maskload_pd(dy + m0, m64);
    const __m256d vdz = _mm256_maskload_pd(dz + m0, m64);
    afx += hsum4(_mm256_mul_pd(vdx, pf));
    afy += hsum4(_mm256_mul_pd(vdy, pf));
    afz += hsum4(_mm256_mul_pd(vdz, pf));
    aphi += hsum4(vphi);
  }
  return {afx, afy, afz, aphi};
}

// --- FP32 -----------------------------------------------------------------

WSMD_AVX2 std::size_t sieve_f32_avx2(const float* px, const float* py,
                                     const float* pz, float xi, float yi,
                                     float zi, const std::uint32_t* idx,
                                     std::size_t count, const BoxF32& box,
                                     float rc2, std::uint32_t* out_idx,
                                     float* out_dx, float* out_dy,
                                     float* out_dz, float* out_r2) {
  const __m256 vxi = _mm256_set1_ps(xi);
  const __m256 vyi = _mm256_set1_ps(yi);
  const __m256 vzi = _mm256_set1_ps(zi);
  const __m256 vl0 = _mm256_set1_ps(box.len[0]);
  const __m256 vl1 = _mm256_set1_ps(box.len[1]);
  const __m256 vl2 = _mm256_set1_ps(box.len[2]);
  const __m256 vi0 = _mm256_set1_ps(box.inv_len[0]);
  const __m256 vi1 = _mm256_set1_ps(box.inv_len[1]);
  const __m256 vi2 = _mm256_set1_ps(box.inv_len[2]);
  const __m256 vrc2 = _mm256_set1_ps(rc2);
  const __m256 zero = _mm256_setzero_ps();
  std::size_t out_n = 0;
  for (std::size_t m0 = 0; m0 < count; m0 += kLanesF32) {
    const std::size_t valid =
        count - m0 < kLanesF32 ? count - m0 : kLanesF32;
    const __m256i m32 = tail_mask8(valid);
    const __m256 mps = _mm256_castsi256_ps(m32);
    const __m256i vj =
        _mm256_maskload_epi32(reinterpret_cast<const int*>(idx + m0), m32);
    __m256 dx =
        _mm256_sub_ps(_mm256_mask_i32gather_ps(zero, px, vj, mps, 4), vxi);
    __m256 dy =
        _mm256_sub_ps(_mm256_mask_i32gather_ps(zero, py, vj, mps, 4), vyi);
    __m256 dz =
        _mm256_sub_ps(_mm256_mask_i32gather_ps(zero, pz, vj, mps, 4), vzi);
    dx = _mm256_sub_ps(
        dx, _mm256_mul_ps(
                _mm256_round_ps(_mm256_mul_ps(dx, vi0), kRoundEven), vl0));
    dy = _mm256_sub_ps(
        dy, _mm256_mul_ps(
                _mm256_round_ps(_mm256_mul_ps(dy, vi1), kRoundEven), vl1));
    dz = _mm256_sub_ps(
        dz, _mm256_mul_ps(
                _mm256_round_ps(_mm256_mul_ps(dz, vi2), kRoundEven), vl2));
    const __m256 r2 = _mm256_add_ps(
        _mm256_add_ps(_mm256_mul_ps(dx, dx), _mm256_mul_ps(dy, dy)),
        _mm256_mul_ps(dz, dz));
    const __m256 accept =
        _mm256_and_ps(_mm256_cmp_ps(r2, vrc2, _CMP_LT_OQ), mps);
    const int mask = _mm256_movemask_ps(accept);
    const __m256i perm = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(kPack.perm8[mask]));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out_idx + out_n),
                        _mm256_permutevar8x32_epi32(vj, perm));
    _mm256_storeu_ps(out_dx + out_n, _mm256_permutevar8x32_ps(dx, perm));
    _mm256_storeu_ps(out_dy + out_n, _mm256_permutevar8x32_ps(dy, perm));
    _mm256_storeu_ps(out_dz + out_n, _mm256_permutevar8x32_ps(dz, perm));
    _mm256_storeu_ps(out_r2 + out_n, _mm256_permutevar8x32_ps(r2, perm));
    out_n += static_cast<std::size_t>(__builtin_popcount(
        static_cast<unsigned>(mask)));
  }
  return out_n;
}

WSMD_AVX2 float rho_row_f32_avx2(const eam::ProfileF32::Raw& tab,
                                 const int* types, const std::uint32_t* idx,
                                 const float* r2, std::size_t n) {
  const __m256 vinv = _mm256_set1_ps(tab.inv_dr2);
  const __m256i vnr = _mm256_set1_epi32(tab.nr);
  const __m256i vnr1 = _mm256_set1_epi32(tab.nr - 1);
  const __m256 zero = _mm256_setzero_ps();
  const __m256i zero32 = _mm256_setzero_si256();
  float acc = 0.0f;
  for (std::size_t m0 = 0; m0 < n; m0 += kLanesF32) {
    const std::size_t valid = n - m0 < kLanesF32 ? n - m0 : kLanesF32;
    const __m256i m32 = tail_mask8(valid);
    const __m256 mps = _mm256_castsi256_ps(m32);
    const __m256i vj =
        _mm256_maskload_epi32(reinterpret_cast<const int*>(idx + m0), m32);
    const __m256 vr2 = _mm256_maskload_ps(r2 + m0, m32);
    const __m256 vt = _mm256_mul_ps(vr2, vinv);
    const __m256i vk = _mm256_min_epi32(_mm256_cvttps_epi32(vt), vnr1);
    const __m256 vfrac = _mm256_sub_ps(vt, _mm256_cvtepi32_ps(vk));
    const __m256i vtj =
        _mm256_mask_i32gather_epi32(zero32, types, vj, m32, 4);
    const __m256i vb2 = _mm256_slli_epi32(
        _mm256_add_epi32(_mm256_mullo_epi32(vtj, vnr), vk), 1);
    const __m256 c0 = _mm256_mask_i32gather_ps(zero, tab.rho, vb2, mps, 4);
    const __m256 c1 =
        _mm256_mask_i32gather_ps(zero, tab.rho + 1, vb2, mps, 4);
    acc += hsum8(_mm256_add_ps(c0, _mm256_mul_ps(c1, vfrac)));
  }
  return acc;
}

WSMD_AVX2 PairAccumF32 force_row_f32_avx2(
    const eam::ProfileF32::Raw& tab, const int* types, const float* fprime,
    float fprime_i, int ti, const std::uint32_t* idx, const float* dx,
    const float* dy, const float* dz, const float* r2, std::size_t n,
    bool pairwise_only) {
  const __m256 vinv = _mm256_set1_ps(tab.inv_dr2);
  const __m256i vnr = _mm256_set1_epi32(tab.nr);
  const __m256i vnr1 = _mm256_set1_epi32(tab.nr - 1);
  const __m256i vrow_i = _mm256_set1_epi32(ti * tab.nt);
  const __m256i vbase_i = _mm256_set1_epi32(ti * tab.nr);
  const __m256 vfp_i = _mm256_set1_ps(fprime_i);
  const __m256 zero = _mm256_setzero_ps();
  const __m256i zero32 = _mm256_setzero_si256();
  float afx = 0.0f, afy = 0.0f, afz = 0.0f, aphi = 0.0f;
  for (std::size_t m0 = 0; m0 < n; m0 += kLanesF32) {
    const std::size_t valid = n - m0 < kLanesF32 ? n - m0 : kLanesF32;
    const __m256i m32 = tail_mask8(valid);
    const __m256 mps = _mm256_castsi256_ps(m32);
    const __m256i vj =
        _mm256_maskload_epi32(reinterpret_cast<const int*>(idx + m0), m32);
    const __m256 vr2 = _mm256_maskload_ps(r2 + m0, m32);
    const __m256 vt = _mm256_mul_ps(vr2, vinv);
    const __m256i vk = _mm256_min_epi32(_mm256_cvttps_epi32(vt), vnr1);
    const __m256 vfrac = _mm256_sub_ps(vt, _mm256_cvtepi32_ps(vk));
    const __m256i vtj =
        _mm256_mask_i32gather_epi32(zero32, types, vj, m32, 4);
    const __m256i vb4 = _mm256_slli_epi32(
        _mm256_add_epi32(
            _mm256_mullo_epi32(_mm256_add_epi32(vrow_i, vtj), vnr), vk),
        2);
    const __m256 pc0 = _mm256_mask_i32gather_ps(zero, tab.pair, vb4, mps, 4);
    const __m256 pc1 =
        _mm256_mask_i32gather_ps(zero, tab.pair + 1, vb4, mps, 4);
    const __m256 pc2 =
        _mm256_mask_i32gather_ps(zero, tab.pair + 2, vb4, mps, 4);
    const __m256 pc3 =
        _mm256_mask_i32gather_ps(zero, tab.pair + 3, vb4, mps, 4);
    const __m256 vphi = _mm256_add_ps(pc0, _mm256_mul_ps(pc1, vfrac));
    __m256 pf = _mm256_add_ps(pc2, _mm256_mul_ps(pc3, vfrac));
    if (!pairwise_only) {
      const __m256i vbj2 = _mm256_slli_epi32(
          _mm256_add_epi32(_mm256_mullo_epi32(vtj, vnr), vk), 1);
      const __m256i vbi2 =
          _mm256_slli_epi32(_mm256_add_epi32(vbase_i, vk), 1);
      const __m256 dj0 =
          _mm256_mask_i32gather_ps(zero, tab.rho_force, vbj2, mps, 4);
      const __m256 dj1 =
          _mm256_mask_i32gather_ps(zero, tab.rho_force + 1, vbj2, mps, 4);
      const __m256 di0 =
          _mm256_mask_i32gather_ps(zero, tab.rho_force, vbi2, mps, 4);
      const __m256 di1 =
          _mm256_mask_i32gather_ps(zero, tab.rho_force + 1, vbi2, mps, 4);
      const __m256 vfpj =
          _mm256_mask_i32gather_ps(zero, fprime, vj, mps, 4);
      pf = _mm256_add_ps(
          pf, _mm256_mul_ps(vfp_i,
                            _mm256_add_ps(dj0, _mm256_mul_ps(dj1, vfrac))));
      pf = _mm256_add_ps(
          pf, _mm256_mul_ps(vfpj,
                            _mm256_add_ps(di0, _mm256_mul_ps(di1, vfrac))));
    }
    const __m256 vdx = _mm256_maskload_ps(dx + m0, m32);
    const __m256 vdy = _mm256_maskload_ps(dy + m0, m32);
    const __m256 vdz = _mm256_maskload_ps(dz + m0, m32);
    afx += hsum8(_mm256_mul_ps(vdx, pf));
    afy += hsum8(_mm256_mul_ps(vdy, pf));
    afz += hsum8(_mm256_mul_ps(vdz, pf));
    aphi += hsum8(vphi);
  }
  return {afx, afy, afz, aphi};
}

#undef WSMD_AVX2

const KernelTable kAvx2Table = {
    sieve_f64_avx2, rho_row_f64_avx2, force_row_f64_avx2,
    sieve_f32_avx2, rho_row_f32_avx2, force_row_f32_avx2,
};

}  // namespace

namespace detail {
const KernelTable* avx2_table() { return &kAvx2Table; }
}  // namespace detail

}  // namespace wsmd::simd

#else  // scalar-only build (WSMD_SIMD=OFF or non-x86)

namespace wsmd::simd::detail {
const KernelTable* avx2_table() { return nullptr; }
}  // namespace wsmd::simd::detail

#endif
