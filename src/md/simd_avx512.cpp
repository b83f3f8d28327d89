/// \file simd_avx512.cpp
/// AVX-512 implementations of the batched kernels (simd.hpp).
///
/// Built like simd_avx2.cpp: compiled into every build, vector bodies gated
/// on WSMD_SIMD_ENABLED and x86-64, per-function target attributes so the
/// rest of the binary stays baseline, and `-ffp-contract=off` with no FMA
/// intrinsic, so every lane runs the scalar kernels' mul/add sequence.
///
/// One 512-bit block holds two of the scalar spec's lane blocks (8 FP64 =
/// 2 x 4, 16 FP32 = 2 x 8). The row kernels reduce the low 256-bit half,
/// then the high one, through the AVX2 tier's own trees (simd_x86.hpp) —
/// exactly the two block sums, in ascending order, the scalar loop adds —
/// and skip a half that lies wholly past the row end, which the scalar loop
/// never visits. Tails use zero-masked loads and gathers, so masked-off
/// lanes touch no memory and contribute +0.0.
///
/// The sieves compact accepted lanes in registers (`vcompress`) and store
/// only the popcount leading lanes with a masked store: they never write
/// past the returned count, so the kPad* capacity the AVX2 tier needs
/// covers this tier too.
///
/// As in the AVX2 tier, the row kernels are templates on kOneType, picked
/// once per call (by_type_count): on a single-type table they skip the
/// neighbour-type gather and reuse the j-side rho' bundle for the i-side
/// term. The FP64 force row fetches each lane's 32-byte pair bundle
/// with one load and transposes eight of them (pair_bundles) instead of
/// gathering the four coefficients one by one.

#include "md/simd.hpp"

#if defined(WSMD_SIMD_ENABLED) && defined(__x86_64__)

#include <immintrin.h>

#include "md/simd_x86.hpp"

namespace wsmd::simd {
namespace {

using x86::hsum4;
using x86::hsum8;
using x86::kRoundEven;

// The features named here are the ones simd.cpp's dispatch checks.
#define WSMD_AVX512 __attribute__((target("avx512f,avx512vl")))

/// A KernelTable row-kernel slot: `kOne` on a single-type table
/// (Raw::nt == 1, so every type index is 0), else `kAny`, the same kernel
/// template instantiated on kOneType. Built for this tier's target, so
/// both forms inline here and the pick is one compare per row.
template <auto kOne, auto kAny, typename Raw, typename... Args>
WSMD_AVX512 auto by_type_count(const Raw& tab, Args... args) {
  return tab.nt == 1 ? kOne(tab, args...) : kAny(tab, args...);
}

constexpr std::size_t kBlockF64 = 2 * kLanesF64;
constexpr std::size_t kBlockF32 = 2 * kLanesF32;

/// The `n` leading lanes (n <= 16).
inline unsigned lead_mask(std::size_t n) { return (1u << n) - 1u; }

/// The two 256-bit halves of a 512-bit block.
WSMD_AVX512 inline __m256d lo_half(__m512d v) {
  return _mm512_castpd512_pd256(v);
}
WSMD_AVX512 inline __m256d hi_half(__m512d v) {
  return _mm512_extractf64x4_pd(v, 1);
}
WSMD_AVX512 inline __m256 lo_half(__m512 v) {
  return _mm512_castps512_ps256(v);
}
WSMD_AVX512 inline __m256 hi_half(__m512 v) {
  return _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(v), 1));
}

/// Two 32-byte bundles in one register: `lo` in the low half, `hi` above.
WSMD_AVX512 inline __m512d two_bundles(const double* lo, const double* hi) {
  return _mm512_insertf64x4(_mm512_castpd256_pd512(_mm256_loadu_pd(lo)),
                            _mm256_loadu_pd(hi), 1);
}

/// The pair bundles {phi, dphi, phi'/r, dphi'/r} of eight lanes, lane l's
/// at `pair + vb4[l]`, as one register per coefficient (c[q] holds every
/// lane's q-th): eight 32-byte loads and an 8x4 transpose. Lanes outside
/// `k` read +0.0, as a zero-masked gather gives; their offsets must still
/// point into the table (the kernels' zeroed tail lanes index segment 0).
WSMD_AVX512 inline void pair_bundles(const double* pair, __m256i vb4,
                                     __mmask8 k, __m512d c[4]) {
  alignas(32) std::int32_t off[kBlockF64];
  _mm256_store_si256(reinterpret_cast<__m256i*>(off), vb4);
  // Register l holds bundles l and l + 4.
  const __m512d r04 = two_bundles(pair + off[0], pair + off[4]);
  const __m512d r15 = two_bundles(pair + off[1], pair + off[5]);
  const __m512d r26 = two_bundles(pair + off[2], pair + off[6]);
  const __m512d r37 = two_bundles(pair + off[3], pair + off[7]);
  // Per 128-bit lane, coefficients 0|2 (lo) and 1|3 (hi) of two bundles:
  // lo01 = [0.0 1.0 0.2 1.2 | 4.0 5.0 4.2 5.2], lane.coefficient.
  const __m512d lo01 = _mm512_unpacklo_pd(r04, r15);
  const __m512d hi01 = _mm512_unpackhi_pd(r04, r15);
  const __m512d lo23 = _mm512_unpacklo_pd(r26, r37);
  const __m512d hi23 = _mm512_unpackhi_pd(r26, r37);
  const __m512i first = _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13);
  const __m512i second = _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15);
  c[0] = _mm512_maskz_permutex2var_pd(k, lo01, first, lo23);
  c[1] = _mm512_maskz_permutex2var_pd(k, hi01, first, hi23);
  c[2] = _mm512_maskz_permutex2var_pd(k, lo01, second, lo23);
  c[3] = _mm512_maskz_permutex2var_pd(k, hi01, second, hi23);
}

// --- FP64 (8 lanes: two 4-lane blocks) -------------------------------------

WSMD_AVX512 std::size_t sieve_f64_avx512(
    const double* px, const double* py, const double* pz, double xi,
    double yi, double zi, const std::uint32_t* idx, std::size_t count,
    const BoxF64& box, double rc2, std::uint32_t* out_idx, double* out_dx,
    double* out_dy, double* out_dz, double* out_r2) {
  const __m512d vxi = _mm512_set1_pd(xi);
  const __m512d vyi = _mm512_set1_pd(yi);
  const __m512d vzi = _mm512_set1_pd(zi);
  const __m512d vl0 = _mm512_set1_pd(box.len[0]);
  const __m512d vl1 = _mm512_set1_pd(box.len[1]);
  const __m512d vl2 = _mm512_set1_pd(box.len[2]);
  const __m512d vi0 = _mm512_set1_pd(box.inv_len[0]);
  const __m512d vi1 = _mm512_set1_pd(box.inv_len[1]);
  const __m512d vi2 = _mm512_set1_pd(box.inv_len[2]);
  const __m512d vrc2 = _mm512_set1_pd(rc2);
  const __m512d zero = _mm512_setzero_pd();
  std::size_t out_n = 0;
  for (std::size_t m0 = 0; m0 < count; m0 += kBlockF64) {
    const std::size_t valid =
        count - m0 < kBlockF64 ? count - m0 : kBlockF64;
    const auto k = static_cast<__mmask8>(lead_mask(valid));
    const __m256i vj = _mm256_maskz_loadu_epi32(k, idx + m0);
    __m512d dx =
        _mm512_sub_pd(_mm512_mask_i32gather_pd(zero, k, vj, px, 8), vxi);
    __m512d dy =
        _mm512_sub_pd(_mm512_mask_i32gather_pd(zero, k, vj, py, 8), vyi);
    __m512d dz =
        _mm512_sub_pd(_mm512_mask_i32gather_pd(zero, k, vj, pz, 8), vzi);
    dx = _mm512_sub_pd(
        dx, _mm512_mul_pd(
                _mm512_roundscale_pd(_mm512_mul_pd(dx, vi0), kRoundEven),
                vl0));
    dy = _mm512_sub_pd(
        dy, _mm512_mul_pd(
                _mm512_roundscale_pd(_mm512_mul_pd(dy, vi1), kRoundEven),
                vl1));
    dz = _mm512_sub_pd(
        dz, _mm512_mul_pd(
                _mm512_roundscale_pd(_mm512_mul_pd(dz, vi2), kRoundEven),
                vl2));
    const __m512d r2 = _mm512_add_pd(
        _mm512_add_pd(_mm512_mul_pd(dx, dx), _mm512_mul_pd(dy, dy)),
        _mm512_mul_pd(dz, dz));
    const __mmask8 accept = _mm512_mask_cmp_pd_mask(k, r2, vrc2, _CMP_LT_OQ);
    const auto kept = static_cast<unsigned>(__builtin_popcount(accept));
    const auto lead = static_cast<__mmask8>(lead_mask(kept));
    _mm256_mask_storeu_epi32(out_idx + out_n, lead,
                             _mm256_maskz_compress_epi32(accept, vj));
    _mm512_mask_storeu_pd(out_dx + out_n, lead,
                          _mm512_maskz_compress_pd(accept, dx));
    _mm512_mask_storeu_pd(out_dy + out_n, lead,
                          _mm512_maskz_compress_pd(accept, dy));
    _mm512_mask_storeu_pd(out_dz + out_n, lead,
                          _mm512_maskz_compress_pd(accept, dz));
    _mm512_mask_storeu_pd(out_r2 + out_n, lead,
                          _mm512_maskz_compress_pd(accept, r2));
    out_n += kept;
  }
  return out_n;
}

template <bool kOneType>
WSMD_AVX512 double rho_row_f64_avx512(const eam::ProfileF64::Raw& tab,
                                      const int* types,
                                      const std::uint32_t* idx,
                                      const double* r2, std::size_t n) {
  const __m512d vinv = _mm512_set1_pd(tab.inv_dr2);
  const __m256i vnr = _mm256_set1_epi32(tab.nr);
  const __m256i vnr1 = _mm256_set1_epi32(tab.nr - 1);
  const __m512d zero = _mm512_setzero_pd();
  const __m256i zero32 = _mm256_setzero_si256();
  double acc = 0.0;
  for (std::size_t m0 = 0; m0 < n; m0 += kBlockF64) {
    const std::size_t valid = n - m0 < kBlockF64 ? n - m0 : kBlockF64;
    const auto k = static_cast<__mmask8>(lead_mask(valid));
    const __m256i vj = _mm256_maskz_loadu_epi32(k, idx + m0);
    const __m512d vr2 = _mm512_maskz_loadu_pd(k, r2 + m0);
    const __m512d vt = _mm512_mul_pd(vr2, vinv);
    const __m256i vk = _mm256_min_epi32(_mm512_cvttpd_epi32(vt), vnr1);
    const __m512d vfrac = _mm512_sub_pd(vt, _mm512_cvtepi32_pd(vk));
    const __m256i vtj =
        kOneType ? zero32
                 : _mm256_mmask_i32gather_epi32(zero32, k, vj, types, 4);
    const __m256i vb2 = _mm256_slli_epi32(
        _mm256_add_epi32(_mm256_mullo_epi32(vtj, vnr), vk), 1);
    const __m512d c0 = _mm512_mask_i32gather_pd(zero, k, vb2, tab.rho, 8);
    const __m512d c1 =
        _mm512_mask_i32gather_pd(zero, k, vb2, tab.rho + 1, 8);
    const __m512d v = _mm512_add_pd(c0, _mm512_mul_pd(c1, vfrac));
    acc += hsum4(lo_half(v));
    if (valid > kLanesF64) acc += hsum4(hi_half(v));
  }
  return acc;
}

template <bool kOneType>
WSMD_AVX512 PairAccumF64 force_row_f64_avx512(
    const eam::ProfileF64::Raw& tab, const int* types, const double* fprime,
    double fprime_i, int ti, const std::uint32_t* idx, const double* dx,
    const double* dy, const double* dz, const double* r2, std::size_t n,
    bool pairwise_only) {
  const __m512d vinv = _mm512_set1_pd(tab.inv_dr2);
  const __m256i vnr = _mm256_set1_epi32(tab.nr);
  const __m256i vnr1 = _mm256_set1_epi32(tab.nr - 1);
  const __m256i vrow_i = _mm256_set1_epi32(ti * tab.nt);
  const __m256i vbase_i = _mm256_set1_epi32(ti * tab.nr);
  const __m512d vfp_i = _mm512_set1_pd(fprime_i);
  const __m512d zero = _mm512_setzero_pd();
  const __m256i zero32 = _mm256_setzero_si256();
  double afx = 0.0, afy = 0.0, afz = 0.0, aphi = 0.0;
  for (std::size_t m0 = 0; m0 < n; m0 += kBlockF64) {
    const std::size_t valid = n - m0 < kBlockF64 ? n - m0 : kBlockF64;
    const auto k = static_cast<__mmask8>(lead_mask(valid));
    const __m256i vj = _mm256_maskz_loadu_epi32(k, idx + m0);
    const __m512d vr2 = _mm512_maskz_loadu_pd(k, r2 + m0);
    const __m512d vt = _mm512_mul_pd(vr2, vinv);
    const __m256i vk = _mm256_min_epi32(_mm512_cvttpd_epi32(vt), vnr1);
    const __m512d vfrac = _mm512_sub_pd(vt, _mm512_cvtepi32_pd(vk));
    const __m256i vtj =
        kOneType ? zero32
                 : _mm256_mmask_i32gather_epi32(zero32, k, vj, types, 4);
    const __m256i vb4 = _mm256_slli_epi32(
        _mm256_add_epi32(
            _mm256_mullo_epi32(_mm256_add_epi32(vrow_i, vtj), vnr), vk),
        2);
    __m512d pc[4];
    pair_bundles(tab.pair, vb4, k, pc);
    const __m512d vphi = _mm512_add_pd(pc[0], _mm512_mul_pd(pc[1], vfrac));
    __m512d pf = _mm512_add_pd(pc[2], _mm512_mul_pd(pc[3], vfrac));
    if (!pairwise_only) {
      const __m256i vbj2 = _mm256_slli_epi32(
          _mm256_add_epi32(_mm256_mullo_epi32(vtj, vnr), vk), 1);
      const __m256i vbi2 = _mm256_slli_epi32(_mm256_add_epi32(vbase_i, vk), 1);
      const __m512d dj0 =
          _mm512_mask_i32gather_pd(zero, k, vbj2, tab.rho_force, 8);
      const __m512d dj1 =
          _mm512_mask_i32gather_pd(zero, k, vbj2, tab.rho_force + 1, 8);
      // One type: ti = tj = 0, so the i-side bundle is the j-side one.
      const __m512d di0 =
          kOneType ? dj0
                   : _mm512_mask_i32gather_pd(zero, k, vbi2, tab.rho_force, 8);
      const __m512d di1 =
          kOneType
              ? dj1
              : _mm512_mask_i32gather_pd(zero, k, vbi2, tab.rho_force + 1, 8);
      const __m512d vfpj = _mm512_mask_i32gather_pd(zero, k, vj, fprime, 8);
      pf = _mm512_add_pd(
          pf, _mm512_mul_pd(vfp_i,
                            _mm512_add_pd(dj0, _mm512_mul_pd(dj1, vfrac))));
      pf = _mm512_add_pd(
          pf, _mm512_mul_pd(vfpj,
                            _mm512_add_pd(di0, _mm512_mul_pd(di1, vfrac))));
    }
    const __m512d vfx = _mm512_mul_pd(_mm512_maskz_loadu_pd(k, dx + m0), pf);
    const __m512d vfy = _mm512_mul_pd(_mm512_maskz_loadu_pd(k, dy + m0), pf);
    const __m512d vfz = _mm512_mul_pd(_mm512_maskz_loadu_pd(k, dz + m0), pf);
    afx += hsum4(lo_half(vfx));
    afy += hsum4(lo_half(vfy));
    afz += hsum4(lo_half(vfz));
    aphi += hsum4(lo_half(vphi));
    if (valid > kLanesF64) {
      afx += hsum4(hi_half(vfx));
      afy += hsum4(hi_half(vfy));
      afz += hsum4(hi_half(vfz));
      aphi += hsum4(hi_half(vphi));
    }
  }
  return {afx, afy, afz, aphi};
}

// --- FP32 (16 lanes: two 8-lane blocks) ------------------------------------

WSMD_AVX512 std::size_t sieve_f32_avx512(
    const float* px, const float* py, const float* pz, float xi, float yi,
    float zi, const std::uint32_t* idx, std::size_t count, const BoxF32& box,
    float rc2, std::uint32_t* out_idx, float* out_dx, float* out_dy,
    float* out_dz, float* out_r2) {
  const __m512 vxi = _mm512_set1_ps(xi);
  const __m512 vyi = _mm512_set1_ps(yi);
  const __m512 vzi = _mm512_set1_ps(zi);
  const __m512 vl0 = _mm512_set1_ps(box.len[0]);
  const __m512 vl1 = _mm512_set1_ps(box.len[1]);
  const __m512 vl2 = _mm512_set1_ps(box.len[2]);
  const __m512 vi0 = _mm512_set1_ps(box.inv_len[0]);
  const __m512 vi1 = _mm512_set1_ps(box.inv_len[1]);
  const __m512 vi2 = _mm512_set1_ps(box.inv_len[2]);
  const __m512 vrc2 = _mm512_set1_ps(rc2);
  const __m512 zero = _mm512_setzero_ps();
  std::size_t out_n = 0;
  for (std::size_t m0 = 0; m0 < count; m0 += kBlockF32) {
    const std::size_t valid =
        count - m0 < kBlockF32 ? count - m0 : kBlockF32;
    const auto k = static_cast<__mmask16>(lead_mask(valid));
    const __m512i vj = _mm512_maskz_loadu_epi32(k, idx + m0);
    __m512 dx =
        _mm512_sub_ps(_mm512_mask_i32gather_ps(zero, k, vj, px, 4), vxi);
    __m512 dy =
        _mm512_sub_ps(_mm512_mask_i32gather_ps(zero, k, vj, py, 4), vyi);
    __m512 dz =
        _mm512_sub_ps(_mm512_mask_i32gather_ps(zero, k, vj, pz, 4), vzi);
    dx = _mm512_sub_ps(
        dx, _mm512_mul_ps(
                _mm512_roundscale_ps(_mm512_mul_ps(dx, vi0), kRoundEven),
                vl0));
    dy = _mm512_sub_ps(
        dy, _mm512_mul_ps(
                _mm512_roundscale_ps(_mm512_mul_ps(dy, vi1), kRoundEven),
                vl1));
    dz = _mm512_sub_ps(
        dz, _mm512_mul_ps(
                _mm512_roundscale_ps(_mm512_mul_ps(dz, vi2), kRoundEven),
                vl2));
    const __m512 r2 = _mm512_add_ps(
        _mm512_add_ps(_mm512_mul_ps(dx, dx), _mm512_mul_ps(dy, dy)),
        _mm512_mul_ps(dz, dz));
    const __mmask16 accept =
        _mm512_mask_cmp_ps_mask(k, r2, vrc2, _CMP_LT_OQ);
    const auto kept = static_cast<unsigned>(__builtin_popcount(accept));
    const auto lead = static_cast<__mmask16>(lead_mask(kept));
    _mm512_mask_storeu_epi32(out_idx + out_n, lead,
                             _mm512_maskz_compress_epi32(accept, vj));
    _mm512_mask_storeu_ps(out_dx + out_n, lead,
                          _mm512_maskz_compress_ps(accept, dx));
    _mm512_mask_storeu_ps(out_dy + out_n, lead,
                          _mm512_maskz_compress_ps(accept, dy));
    _mm512_mask_storeu_ps(out_dz + out_n, lead,
                          _mm512_maskz_compress_ps(accept, dz));
    _mm512_mask_storeu_ps(out_r2 + out_n, lead,
                          _mm512_maskz_compress_ps(accept, r2));
    out_n += kept;
  }
  return out_n;
}

template <bool kOneType>
WSMD_AVX512 float rho_row_f32_avx512(const eam::ProfileF32::Raw& tab,
                                     const int* types,
                                     const std::uint32_t* idx,
                                     const float* r2, std::size_t n) {
  const __m512 vinv = _mm512_set1_ps(tab.inv_dr2);
  const __m512i vnr = _mm512_set1_epi32(tab.nr);
  const __m512i vnr1 = _mm512_set1_epi32(tab.nr - 1);
  const __m512 zero = _mm512_setzero_ps();
  const __m512i zero32 = _mm512_setzero_si512();
  float acc = 0.0f;
  for (std::size_t m0 = 0; m0 < n; m0 += kBlockF32) {
    const std::size_t valid = n - m0 < kBlockF32 ? n - m0 : kBlockF32;
    const auto k = static_cast<__mmask16>(lead_mask(valid));
    const __m512i vj = _mm512_maskz_loadu_epi32(k, idx + m0);
    const __m512 vr2 = _mm512_maskz_loadu_ps(k, r2 + m0);
    const __m512 vt = _mm512_mul_ps(vr2, vinv);
    const __m512i vk = _mm512_min_epi32(_mm512_cvttps_epi32(vt), vnr1);
    const __m512 vfrac = _mm512_sub_ps(vt, _mm512_cvtepi32_ps(vk));
    const __m512i vtj =
        kOneType ? zero32
                 : _mm512_mask_i32gather_epi32(zero32, k, vj, types, 4);
    const __m512i vb2 = _mm512_slli_epi32(
        _mm512_add_epi32(_mm512_mullo_epi32(vtj, vnr), vk), 1);
    const __m512 c0 = _mm512_mask_i32gather_ps(zero, k, vb2, tab.rho, 4);
    const __m512 c1 = _mm512_mask_i32gather_ps(zero, k, vb2, tab.rho + 1, 4);
    const __m512 v = _mm512_add_ps(c0, _mm512_mul_ps(c1, vfrac));
    acc += hsum8(lo_half(v));
    if (valid > kLanesF32) acc += hsum8(hi_half(v));
  }
  return acc;
}

template <bool kOneType>
WSMD_AVX512 PairAccumF32 force_row_f32_avx512(
    const eam::ProfileF32::Raw& tab, const int* types, const float* fprime,
    float fprime_i, int ti, const std::uint32_t* idx, const float* dx,
    const float* dy, const float* dz, const float* r2, std::size_t n,
    bool pairwise_only) {
  const __m512 vinv = _mm512_set1_ps(tab.inv_dr2);
  const __m512i vnr = _mm512_set1_epi32(tab.nr);
  const __m512i vnr1 = _mm512_set1_epi32(tab.nr - 1);
  const __m512i vrow_i = _mm512_set1_epi32(ti * tab.nt);
  const __m512i vbase_i = _mm512_set1_epi32(ti * tab.nr);
  const __m512 vfp_i = _mm512_set1_ps(fprime_i);
  const __m512 zero = _mm512_setzero_ps();
  const __m512i zero32 = _mm512_setzero_si512();
  float afx = 0.0f, afy = 0.0f, afz = 0.0f, aphi = 0.0f;
  for (std::size_t m0 = 0; m0 < n; m0 += kBlockF32) {
    const std::size_t valid = n - m0 < kBlockF32 ? n - m0 : kBlockF32;
    const auto k = static_cast<__mmask16>(lead_mask(valid));
    const __m512i vj = _mm512_maskz_loadu_epi32(k, idx + m0);
    const __m512 vr2 = _mm512_maskz_loadu_ps(k, r2 + m0);
    const __m512 vt = _mm512_mul_ps(vr2, vinv);
    const __m512i vk = _mm512_min_epi32(_mm512_cvttps_epi32(vt), vnr1);
    const __m512 vfrac = _mm512_sub_ps(vt, _mm512_cvtepi32_ps(vk));
    const __m512i vtj =
        kOneType ? zero32
                 : _mm512_mask_i32gather_epi32(zero32, k, vj, types, 4);
    const __m512i vb4 = _mm512_slli_epi32(
        _mm512_add_epi32(
            _mm512_mullo_epi32(_mm512_add_epi32(vrow_i, vtj), vnr), vk),
        2);
    const __m512 pc0 = _mm512_mask_i32gather_ps(zero, k, vb4, tab.pair, 4);
    const __m512 pc1 =
        _mm512_mask_i32gather_ps(zero, k, vb4, tab.pair + 1, 4);
    const __m512 pc2 =
        _mm512_mask_i32gather_ps(zero, k, vb4, tab.pair + 2, 4);
    const __m512 pc3 =
        _mm512_mask_i32gather_ps(zero, k, vb4, tab.pair + 3, 4);
    const __m512 vphi = _mm512_add_ps(pc0, _mm512_mul_ps(pc1, vfrac));
    __m512 pf = _mm512_add_ps(pc2, _mm512_mul_ps(pc3, vfrac));
    if (!pairwise_only) {
      const __m512i vbj2 = _mm512_slli_epi32(
          _mm512_add_epi32(_mm512_mullo_epi32(vtj, vnr), vk), 1);
      const __m512i vbi2 = _mm512_slli_epi32(_mm512_add_epi32(vbase_i, vk), 1);
      const __m512 dj0 =
          _mm512_mask_i32gather_ps(zero, k, vbj2, tab.rho_force, 4);
      const __m512 dj1 =
          _mm512_mask_i32gather_ps(zero, k, vbj2, tab.rho_force + 1, 4);
      // One type: ti = tj = 0, so the i-side bundle is the j-side one.
      const __m512 di0 =
          kOneType ? dj0
                   : _mm512_mask_i32gather_ps(zero, k, vbi2, tab.rho_force, 4);
      const __m512 di1 =
          kOneType
              ? dj1
              : _mm512_mask_i32gather_ps(zero, k, vbi2, tab.rho_force + 1, 4);
      const __m512 vfpj = _mm512_mask_i32gather_ps(zero, k, vj, fprime, 4);
      pf = _mm512_add_ps(
          pf, _mm512_mul_ps(vfp_i,
                            _mm512_add_ps(dj0, _mm512_mul_ps(dj1, vfrac))));
      pf = _mm512_add_ps(
          pf, _mm512_mul_ps(vfpj,
                            _mm512_add_ps(di0, _mm512_mul_ps(di1, vfrac))));
    }
    const __m512 vfx = _mm512_mul_ps(_mm512_maskz_loadu_ps(k, dx + m0), pf);
    const __m512 vfy = _mm512_mul_ps(_mm512_maskz_loadu_ps(k, dy + m0), pf);
    const __m512 vfz = _mm512_mul_ps(_mm512_maskz_loadu_ps(k, dz + m0), pf);
    afx += hsum8(lo_half(vfx));
    afy += hsum8(lo_half(vfy));
    afz += hsum8(lo_half(vfz));
    aphi += hsum8(lo_half(vphi));
    if (valid > kLanesF32) {
      afx += hsum8(hi_half(vfx));
      afy += hsum8(hi_half(vfy));
      afz += hsum8(hi_half(vfz));
      aphi += hsum8(hi_half(vphi));
    }
  }
  return {afx, afy, afz, aphi};
}

#undef WSMD_AVX512

const KernelTable kAvx512Table = {
    sieve_f64_avx512,
    by_type_count<rho_row_f64_avx512<true>, rho_row_f64_avx512<false>>,
    by_type_count<force_row_f64_avx512<true>, force_row_f64_avx512<false>>,
    sieve_f32_avx512,
    by_type_count<rho_row_f32_avx512<true>, rho_row_f32_avx512<false>>,
    by_type_count<force_row_f32_avx512<true>, force_row_f32_avx512<false>>,
};

}  // namespace

namespace detail {
const KernelTable* avx512_table() { return &kAvx512Table; }
}  // namespace detail

}  // namespace wsmd::simd

#else  // scalar-only build (WSMD_SIMD=OFF or non-x86)

namespace wsmd::simd::detail {
const KernelTable* avx512_table() { return nullptr; }
}  // namespace wsmd::simd::detail

#endif
