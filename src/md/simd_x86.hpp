#pragma once

/// \file simd_x86.hpp
/// x86 helpers shared by the vector kernel TUs (simd_avx2.cpp,
/// simd_avx512.cpp): the rounding mode of the minimum image and the
/// horizontal-sum trees the scalar kernels in simd.cpp spell out lane by
/// lane. Include only where WSMD_SIMD_ENABLED and __x86_64__ hold.
///
/// The AVX2 tier reduces every 256-bit block through these trees, and the
/// AVX-512 rows each 256-bit half of a 512-bit block, low half first; the
/// `target("avx2")` bodies inline into those AVX-512 callers, whose feature
/// set includes AVX2.

#include <immintrin.h>

namespace wsmd::simd::x86 {

/// Round half to even and raise no precision exception: the rounding
/// `std::nearbyint` does in the default FP environment.
inline constexpr int kRoundEven = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;

/// FP64 block sum, tree (l0+l2)+(l1+l3).
__attribute__((target("avx2"))) inline double hsum4(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d s = _mm_add_pd(lo, hi);  // [l0+l2, l1+l3]
  return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
}

/// FP32 block sum, tree ((l0+l4)+(l2+l6))+((l1+l5)+(l3+l7)).
__attribute__((target("avx2"))) inline float hsum8(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  const __m128 s = _mm_add_ps(lo, hi);  // [l0+l4, l1+l5, l2+l6, l3+l7]
  const __m128 s2 = _mm_add_ps(s, _mm_movehl_ps(s, s));
  return _mm_cvtss_f32(_mm_add_ss(s2, _mm_shuffle_ps(s2, s2, 0x55)));
}

}  // namespace wsmd::simd::x86
