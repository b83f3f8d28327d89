#pragma once

/// \file simd.hpp
/// Runtime-dispatched batched force kernels: the SoA hot path shared by the
/// FP64 reference engine (md/force_eam.cpp) and the FP32 wafer phase
/// kernels (core/wse_md.cpp).
///
/// One binary runs everywhere. Every kernel exists in a canonical scalar
/// form (simd.cpp) and, when the build enables it (WSMD_SIMD=ON on x86-64),
/// in two vector forms: AVX2 (simd_avx2.cpp, 256-bit registers) and
/// AVX-512 (simd_avx512.cpp, 512-bit registers). Dispatch picks the widest
/// tier the CPU supports (`__builtin_cpu_supports`). The three tiers are
/// **bitwise identical by construction**, not merely close:
///
///  * the scalar kernels process fixed-width lane blocks (4 FP64 / 8 FP32)
///    with the same per-lane expression order the vector code issues, and
///    all three TUs are compiled with `-ffp-contract=off`, so no FMA
///    contraction diverges from the explicit mul/add sequence;
///  * block sums use the exact tree the AVX2 horizontal reduction performs
///    — FP64: (l0+l2)+(l1+l3); FP32: ((l0+l4)+(l2+l6))+((l1+l5)+(l3+l7)) —
///    and blocks accumulate in ascending order. A 512-bit AVX-512 block
///    holds two scalar blocks (8 FP64, 16 FP32); it reduces its low 256-bit
///    half, then its high half, through the same trees, and skips a half
///    that lies wholly past the row end, as the scalar loop never visits it;
///  * remainder lanes contribute +0.0 (masked loads/gathers never touch
///    memory past the row, and +0.0 is an exact identity in every tier);
///  * minimum image is `d -= nearbyint(d * inv_len) * len` with inv_len = 0
///    on open axes, rounded half to even in every tier (`std::nearbyint`,
///    `_mm256_round_*` and `_mm512_roundscale_*` with
///    `_MM_FROUND_TO_NEAREST_INT`).
///
/// Because of this, the scalar fallback, both vector paths, and a
/// `-DWSMD_SIMD=OFF` build all reproduce the recorded goldens byte-for-byte
/// — CI pins that with kernel-parity tests, a scalar matrix leg and a
/// byte-compare of every deck across the tiers.
///
/// Type precondition: every `types[j]` a row reads, and `ti`, lie in
/// [0, tab.nt) (AtomSystem and WseMd reject any other type). The vector
/// tiers fetch only what can differ between lanes, which changes no bit:
///
///  * a single-type table (nt == 1; every deck names one element) has
///    every type 0, so its rows skip the neighbour-type gather, and the
///    force rows reuse the j-side rho' bundle for the i-side term (same
///    address). Each row kernel picks this case once per call; multi-type
///    tables gather both, as the scalar kernels index them;
///  * the AVX-512 FP64 force row loads each lane's 32-byte pair bundle
///    {phi, dphi, phi'/r, dphi'/r} whole and transposes eight of them into
///    one register per coefficient, where the other rows gather each
///    coefficient. Lanes past the row end read +0.0 either way.
///
/// Capacity contract: the AVX2 sieves compact accepted pairs with
/// full-width vector stores, so every sieve output array must have room for
/// `count + kPad*` entries; entries past the returned count are garbage.
/// (The AVX-512 sieves store only the accepted lanes.)

#include <cstddef>
#include <cstdint>

#include "eam/profile.hpp"

namespace wsmd::simd {

/// Dispatch tiers, ordered: higher value = wider path. kScalar is the
/// bitwise specification and runs anywhere; kAvx2 needs AVX2; kAvx512 needs
/// AVX2, AVX-512F and AVX-512VL (512-bit blocks, mask registers, vcompress).
/// Both vector tiers exist only in WSMD_SIMD=ON x86-64 builds.
enum class Tier : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

const char* tier_name(Tier t);

/// Highest tier compiled into this binary (kAvx512 iff WSMD_SIMD was ON and
/// the target is x86-64, else kScalar).
Tier compiled_tier();

/// What `t` lacks on this host, or nullptr when it is supported: "the
/// vector kernels (...)" when they are not compiled in, else the first CPU
/// feature it needs that the CPU does not report ("avx2", "avx512f",
/// "avx512vl").
const char* tier_missing(Tier t);

/// True when `t` is both compiled in and supported by the running CPU.
bool tier_supported(Tier t);

/// Best supported tier, before any override.
Tier runtime_tier();

/// The tier kernels() dispatches to: an explicit override if set, else the
/// WSMD_SIMD_TIER env var ("scalar" | "avx2" | "avx512", read once; a tier
/// the host lacks is an error), else runtime_tier().
Tier active_tier();

/// Force a tier (tests, benchmarks). Throws wsmd::Error naming what is
/// missing unless tier_supported(t).
void set_tier_override(Tier t);
void clear_tier_override();

/// Lane widths of the scalar spec's blocks (one AVX2 register; half an
/// AVX-512 one) and the sieve-output padding each precision requires.
inline constexpr std::size_t kLanesF64 = 4;
inline constexpr std::size_t kLanesF32 = 8;
inline constexpr std::size_t kPadF64 = kLanesF64;
inline constexpr std::size_t kPadF32 = kLanesF32;

/// Box geometry for the branch-free minimum image: inv_len must be 0 on
/// non-periodic axes (the correction term then vanishes exactly).
struct BoxF64 {
  double len[3];
  double inv_len[3];
};
struct BoxF32 {
  float len[3];
  float inv_len[3];
};

/// Per-row force-pass result: accumulated force on atom i and the summed
/// pair energy phi over the row (caller applies the half-counting factor).
struct PairAccumF64 {
  double fx, fy, fz, phi;
};
struct PairAccumF32 {
  float fx, fy, fz, phi;
};

/// One tier's kernel set. All row kernels assume the caller already built
/// the accepted-pair row with the matching sieve (same tier — the dispatch
/// never mixes tiers inside one force evaluation).
struct KernelTable {
  /// FP64 distance sieve over one neighbor row: for each candidate j in
  /// idx[0..count), compute the minimum-image displacement d = p[j] - p_i
  /// and keep pairs with |d|² < rc2. Accepted entries are compacted in
  /// input order into out_idx/out_dx/out_dy/out_dz/out_r2 (capacity
  /// >= count + kPadF64 each). Returns the accepted count.
  std::size_t (*sieve_f64)(const double* px, const double* py,
                           const double* pz, double xi, double yi, double zi,
                           const std::uint32_t* idx, std::size_t count,
                           const BoxF64& box, double rc2,
                           std::uint32_t* out_idx, double* out_dx,
                           double* out_dy, double* out_dz, double* out_r2);

  /// FP64 density pass over an accepted row: sum rho(type_j, r2) lookups.
  double (*rho_row_f64)(const eam::ProfileF64::Raw& tab, const int* types,
                        const std::uint32_t* idx, const double* r2,
                        std::size_t n);

  /// FP64 force pass over an accepted row: pair + embedding forces from
  /// the stored displacements. `pairwise_only` skips the embedding terms
  /// (LJ-style tables).
  PairAccumF64 (*force_row_f64)(const eam::ProfileF64::Raw& tab,
                                const int* types, const double* fprime,
                                double fprime_i, int ti,
                                const std::uint32_t* idx, const double* dx,
                                const double* dy, const double* dz,
                                const double* r2, std::size_t n,
                                bool pairwise_only);

  /// FP32 distance sieve, the shape of sieve_f64: accepted entries are
  /// compacted in input order into out_idx/out_dx/out_dy/out_dz/out_r2
  /// (capacity >= count + kPadF32 each). The wafer engine keeps only the
  /// candidate indices across steps and sieves each row into per-call
  /// scratch, so the displacements live only as long as one row.
  std::size_t (*sieve_f32)(const float* px, const float* py, const float* pz,
                           float xi, float yi, float zi,
                           const std::uint32_t* idx, std::size_t count,
                           const BoxF32& box, float rc2,
                           std::uint32_t* out_idx, float* out_dx,
                           float* out_dy, float* out_dz, float* out_r2);

  /// FP32 density pass over an accepted row.
  float (*rho_row_f32)(const eam::ProfileF32::Raw& tab, const int* types,
                       const std::uint32_t* idx, const float* r2,
                       std::size_t n);

  /// FP32 force pass over an accepted row, the shape of force_row_f64:
  /// pair + embedding forces from the displacements the sieve stored.
  PairAccumF32 (*force_row_f32)(const eam::ProfileF32::Raw& tab,
                                const int* types, const float* fprime,
                                float fprime_i, int ti,
                                const std::uint32_t* idx, const float* dx,
                                const float* dy, const float* dz,
                                const float* r2, std::size_t n,
                                bool pairwise_only);
};

/// Kernels for the active tier (cheap: one atomic-free lookup).
const KernelTable& kernels();

/// Kernels for an explicit tier — parity tests compare these directly.
/// Requires tier_supported(t).
const KernelTable& kernels_for(Tier t);

namespace detail {
/// Defined in simd_avx2.cpp / simd_avx512.cpp; return nullptr when the
/// vector tiers are not compiled in.
const KernelTable* avx2_table();
const KernelTable* avx512_table();
}  // namespace detail

}  // namespace wsmd::simd
