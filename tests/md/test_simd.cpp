/// \file test_simd.cpp
/// Dispatch-layer contract and scalar/AVX2 kernel parity.
///
/// The SIMD tiers promise *bitwise* agreement (md/simd.hpp): the scalar
/// kernels execute the same lane-blocked expression trees the vector code
/// does, so every test here compares with EXPECT_EQ on floats — no
/// tolerances. Row lengths sweep across block boundaries (0, partial, one
/// block, block+tail, many blocks) to pin the masked remainder handling.
///
/// CI sets WSMD_EXPECT_TIER to assert that each matrix leg actually runs
/// the tier it was built for (avx2 legs must not silently fall back).

#include "md/simd.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/wse_md.hpp"
#include "eam/profile.hpp"
#include "eam/zhou.hpp"
#include "lattice/lattice.hpp"
#include "md/simulation.hpp"
#include "util/random.hpp"
#include "util/soa.hpp"

namespace wsmd::md {
namespace {

/// Restore the default dispatch no matter how a test exits.
struct TierGuard {
  ~TierGuard() { simd::clear_tier_override(); }
};

TEST(SimdDispatch, ScalarTierAlwaysAvailable) {
  EXPECT_TRUE(simd::tier_supported(simd::Tier::kScalar));
  EXPECT_TRUE(simd::tier_supported(simd::active_tier()));
  const simd::KernelTable& k = simd::kernels_for(simd::Tier::kScalar);
  EXPECT_NE(k.sieve_f64, nullptr);
  EXPECT_NE(k.rho_row_f64, nullptr);
  EXPECT_NE(k.force_row_f64, nullptr);
  EXPECT_NE(k.sieve_f32, nullptr);
  EXPECT_NE(k.rho_row_f32, nullptr);
  EXPECT_NE(k.force_row_f32, nullptr);
}

TEST(SimdDispatch, CompiledTierBoundsRuntimeTier) {
  EXPECT_LE(static_cast<int>(simd::runtime_tier()),
            static_cast<int>(simd::compiled_tier()));
}

TEST(SimdDispatch, MatchesExpectedTierFromEnv) {
  // CI matrix legs export WSMD_EXPECT_TIER (avx2 for SIMD builds on x86-64
  // runners, scalar for -DWSMD_SIMD=OFF builds) so a silent fallback to the
  // scalar path fails the leg instead of quietly passing it.
  const char* expect = std::getenv("WSMD_EXPECT_TIER");
  if (expect == nullptr) {
    GTEST_SKIP() << "WSMD_EXPECT_TIER not set";
  }
  EXPECT_STREQ(simd::tier_name(simd::active_tier()), expect);
}

TEST(SimdDispatch, OverrideForcesTier) {
  TierGuard guard;
  simd::set_tier_override(simd::Tier::kScalar);
  EXPECT_EQ(simd::active_tier(), simd::Tier::kScalar);
  EXPECT_EQ(&simd::kernels(), &simd::kernels_for(simd::Tier::kScalar));
  simd::clear_tier_override();
}

/// Randomized SoA neighborhood shared by the parity sweeps: positions in a
/// box periodic on x/y and open on z (exercises the inv_len = 0 branch-free
/// minimum image on a real open axis).
struct ParityFixture {
  static constexpr std::size_t kAtoms = 97;  // not a lane multiple
  Vec3dPlanes pos64;
  Vec3fPlanes pos32;
  std::vector<int> types;
  std::vector<std::uint32_t> candidates;
  std::vector<double> fprime64;
  std::vector<float> fprime32;
  simd::BoxF64 box64{{14.0, 14.0, 14.0}, {1.0 / 14.0, 1.0 / 14.0, 0.0}};
  simd::BoxF32 box32{{14.0f, 14.0f, 14.0f},
                     {1.0f / 14.0f, 1.0f / 14.0f, 0.0f}};

  ParityFixture() {
    Rng rng(421);
    pos64.resize(kAtoms);
    pos32.resize(kAtoms);
    types.assign(kAtoms, 0);
    fprime64.resize(kAtoms);
    fprime32.resize(kAtoms);
    for (std::size_t i = 0; i < kAtoms; ++i) {
      // Dense enough that a realistic fraction of candidates pass rc.
      const Vec3d r{rng.uniform() * 14.0, rng.uniform() * 14.0,
                    rng.uniform() * 14.0};
      pos64.set(i, r);
      pos32.set(i, Vec3f(r));
      fprime64[i] = rng.uniform() * 2.0 - 1.0;
      fprime32[i] = static_cast<float>(fprime64[i]);
      if (i > 0) candidates.push_back(static_cast<std::uint32_t>(i));
    }
  }
};

TEST(SimdParity, F64KernelsMatchScalarBitwise) {
  if (!simd::tier_supported(simd::Tier::kAvx2)) {
    GTEST_SKIP() << "AVX2 tier not compiled in or not supported by this CPU";
  }
  ParityFixture f;
  const auto pot = std::make_shared<eam::ZhouEam>("Ta");
  const eam::ProfileF64 prof(*pot);
  const auto raw = prof.raw();
  const double rc2 = pot->cutoff() * pot->cutoff();
  const simd::KernelTable& sc = simd::kernels_for(simd::Tier::kScalar);
  const simd::KernelTable& vx = simd::kernels_for(simd::Tier::kAvx2);

  // Row lengths across every remainder class of the 4-lane FP64 blocks.
  for (std::size_t count :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
        std::size_t{4}, std::size_t{5}, std::size_t{7}, std::size_t{8},
        std::size_t{13}, std::size_t{32}, std::size_t{96}}) {
    ASSERT_LE(count, f.candidates.size());
    const std::size_t cap = count + simd::kPadF64;
    std::vector<std::uint32_t> idx_a(cap), idx_b(cap);
    std::vector<double> dx_a(cap), dy_a(cap), dz_a(cap), r2_a(cap);
    std::vector<double> dx_b(cap), dy_b(cap), dz_b(cap), r2_b(cap);
    const Vec3d ri = f.pos64.get(0);
    const std::size_t na = sc.sieve_f64(
        f.pos64.x(), f.pos64.y(), f.pos64.z(), ri.x, ri.y, ri.z,
        f.candidates.data(), count, f.box64, rc2, idx_a.data(), dx_a.data(),
        dy_a.data(), dz_a.data(), r2_a.data());
    const std::size_t nb = vx.sieve_f64(
        f.pos64.x(), f.pos64.y(), f.pos64.z(), ri.x, ri.y, ri.z,
        f.candidates.data(), count, f.box64, rc2, idx_b.data(), dx_b.data(),
        dy_b.data(), dz_b.data(), r2_b.data());
    ASSERT_EQ(na, nb) << "sieve count diverged at row length " << count;
    for (std::size_t k = 0; k < na; ++k) {
      ASSERT_EQ(idx_a[k], idx_b[k]) << "row " << count << " entry " << k;
      ASSERT_EQ(dx_a[k], dx_b[k]) << "row " << count << " entry " << k;
      ASSERT_EQ(dy_a[k], dy_b[k]) << "row " << count << " entry " << k;
      ASSERT_EQ(dz_a[k], dz_b[k]) << "row " << count << " entry " << k;
      ASSERT_EQ(r2_a[k], r2_b[k]) << "row " << count << " entry " << k;
    }

    const double rho_a = sc.rho_row_f64(raw, f.types.data(), idx_a.data(),
                                        r2_a.data(), na);
    const double rho_b = vx.rho_row_f64(raw, f.types.data(), idx_b.data(),
                                        r2_b.data(), nb);
    EXPECT_EQ(rho_a, rho_b) << "rho diverged at row length " << count;

    for (const bool pairwise_only : {false, true}) {
      const auto acc_a = sc.force_row_f64(
          raw, f.types.data(), f.fprime64.data(), f.fprime64[0], 0,
          idx_a.data(), dx_a.data(), dy_a.data(), dz_a.data(), r2_a.data(),
          na, pairwise_only);
      const auto acc_b = vx.force_row_f64(
          raw, f.types.data(), f.fprime64.data(), f.fprime64[0], 0,
          idx_b.data(), dx_b.data(), dy_b.data(), dz_b.data(), r2_b.data(),
          nb, pairwise_only);
      EXPECT_EQ(acc_a.fx, acc_b.fx) << "row " << count;
      EXPECT_EQ(acc_a.fy, acc_b.fy) << "row " << count;
      EXPECT_EQ(acc_a.fz, acc_b.fz) << "row " << count;
      EXPECT_EQ(acc_a.phi, acc_b.phi) << "row " << count;
    }
  }
}

TEST(SimdParity, F32KernelsMatchScalarBitwise) {
  if (!simd::tier_supported(simd::Tier::kAvx2)) {
    GTEST_SKIP() << "AVX2 tier not compiled in or not supported by this CPU";
  }
  ParityFixture f;
  const auto pot = std::make_shared<eam::ZhouEam>("Ta");
  const eam::ProfileF32 prof(*pot);
  const auto raw = prof.raw();
  const auto rc2 = static_cast<float>(pot->cutoff() * pot->cutoff());
  const simd::KernelTable& sc = simd::kernels_for(simd::Tier::kScalar);
  const simd::KernelTable& vx = simd::kernels_for(simd::Tier::kAvx2);

  // Row lengths across every remainder class of the 8-lane FP32 blocks.
  for (std::size_t count :
       {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{7},
        std::size_t{8}, std::size_t{9}, std::size_t{15}, std::size_t{16},
        std::size_t{17}, std::size_t{40}, std::size_t{96}}) {
    ASSERT_LE(count, f.candidates.size());
    const std::size_t cap = count + simd::kPadF32;
    std::vector<std::uint32_t> idx_a(cap), idx_b(cap);
    std::vector<float> dx_a(cap), dy_a(cap), dz_a(cap), r2_a(cap);
    std::vector<float> dx_b(cap), dy_b(cap), dz_b(cap), r2_b(cap);
    const Vec3f ri = f.pos32.get(0);
    const std::size_t na = sc.sieve_f32(
        f.pos32.x(), f.pos32.y(), f.pos32.z(), ri.x, ri.y, ri.z,
        f.candidates.data(), count, f.box32, rc2, idx_a.data(), dx_a.data(),
        dy_a.data(), dz_a.data(), r2_a.data());
    const std::size_t nb = vx.sieve_f32(
        f.pos32.x(), f.pos32.y(), f.pos32.z(), ri.x, ri.y, ri.z,
        f.candidates.data(), count, f.box32, rc2, idx_b.data(), dx_b.data(),
        dy_b.data(), dz_b.data(), r2_b.data());
    ASSERT_EQ(na, nb) << "sieve count diverged at row length " << count;
    for (std::size_t k = 0; k < na; ++k) {
      ASSERT_EQ(idx_a[k], idx_b[k]) << "row " << count << " entry " << k;
      ASSERT_EQ(dx_a[k], dx_b[k]) << "row " << count << " entry " << k;
      ASSERT_EQ(dy_a[k], dy_b[k]) << "row " << count << " entry " << k;
      ASSERT_EQ(dz_a[k], dz_b[k]) << "row " << count << " entry " << k;
      ASSERT_EQ(r2_a[k], r2_b[k]) << "row " << count << " entry " << k;
    }

    const float rho_a = sc.rho_row_f32(raw, f.types.data(), idx_a.data(),
                                       r2_a.data(), na);
    const float rho_b = vx.rho_row_f32(raw, f.types.data(), idx_b.data(),
                                       r2_b.data(), nb);
    EXPECT_EQ(rho_a, rho_b) << "rho diverged at row length " << count;

    // The force row over every prefix of the accepted row, so each
    // remainder class of its own 8-lane blocks is covered too.
    for (std::size_t n = 0; n <= na; ++n) {
      for (const bool pairwise_only : {false, true}) {
        const auto acc_a = sc.force_row_f32(
            raw, f.types.data(), f.fprime32.data(), f.fprime32[0], 0,
            idx_a.data(), dx_a.data(), dy_a.data(), dz_a.data(), r2_a.data(),
            n, pairwise_only);
        const auto acc_b = vx.force_row_f32(
            raw, f.types.data(), f.fprime32.data(), f.fprime32[0], 0,
            idx_b.data(), dx_b.data(), dy_b.data(), dz_b.data(), r2_b.data(),
            n, pairwise_only);
        EXPECT_EQ(acc_a.fx, acc_b.fx) << "row " << count << " prefix " << n;
        EXPECT_EQ(acc_a.fy, acc_b.fy) << "row " << count << " prefix " << n;
        EXPECT_EQ(acc_a.fz, acc_b.fz) << "row " << count << " prefix " << n;
        EXPECT_EQ(acc_a.phi, acc_b.phi) << "row " << count << " prefix " << n;
      }
    }
  }
}

lattice::Structure small_ta(unsigned seed) {
  const auto p = eam::zhou_parameters("Ta");
  auto s = lattice::replicate(
      lattice::UnitCell::of(p.structure, p.lattice_constant()), 4, 4, 4, 0,
      {true, true, true});
  Rng rng(seed);
  for (auto& r : s.positions) r += rng.gaussian_vec3(0.05);
  return s;
}

TEST(SimdParity, ReferenceForcesMatchAcrossTiersBitwise) {
  if (!simd::tier_supported(simd::Tier::kAvx2)) {
    GTEST_SKIP() << "AVX2 tier not compiled in or not supported by this CPU";
  }
  TierGuard guard;
  const auto s = small_ta(7);
  Simulation sim(AtomSystem(s, std::make_shared<eam::ZhouEam>("Ta")));

  simd::set_tier_override(simd::Tier::kScalar);
  const double pe_scalar = sim.compute_forces();
  const auto f_scalar = sim.system().forces().to_aos();

  simd::set_tier_override(simd::Tier::kAvx2);
  const double pe_avx2 = sim.compute_forces();
  const auto f_avx2 = sim.system().forces().to_aos();

  EXPECT_EQ(pe_scalar, pe_avx2);
  for (std::size_t i = 0; i < f_scalar.size(); ++i) {
    EXPECT_EQ(f_scalar[i].x, f_avx2[i].x) << "atom " << i;
    EXPECT_EQ(f_scalar[i].y, f_avx2[i].y) << "atom " << i;
    EXPECT_EQ(f_scalar[i].z, f_avx2[i].z) << "atom " << i;
  }
}

TEST(SimdParity, WaferTrajectoryMatchesAcrossTiersBitwise) {
  if (!simd::tier_supported(simd::Tier::kAvx2)) {
    GTEST_SKIP() << "AVX2 tier not compiled in or not supported by this CPU";
  }
  TierGuard guard;
  const auto p = eam::zhou_parameters("Ta");
  const auto s = lattice::replicate(
      lattice::UnitCell::of(p.structure, p.lattice_constant()), 5, 5, 3, 0,
      {false, false, false});
  core::WseMdConfig cfg;
  cfg.mapping.cell_size = p.lattice_constant();
  const auto pot =
      std::make_shared<eam::ZhouEam>("Ta", p.paper_cutoff());

  const auto run_under = [&](simd::Tier tier) {
    simd::set_tier_override(tier);
    core::WseMd eng(s, pot, cfg);
    Rng rng(11);
    eng.thermalize(120.0, rng);
    eng.run(5);
    return std::make_pair(eng.positions(), eng.potential_energy());
  };
  const auto [r_scalar, pe_scalar] = run_under(simd::Tier::kScalar);
  const auto [r_avx2, pe_avx2] = run_under(simd::Tier::kAvx2);

  EXPECT_EQ(pe_scalar, pe_avx2);
  ASSERT_EQ(r_scalar.size(), r_avx2.size());
  for (std::size_t i = 0; i < r_scalar.size(); ++i) {
    EXPECT_EQ(r_scalar[i].x, r_avx2[i].x) << "atom " << i;
    EXPECT_EQ(r_scalar[i].y, r_avx2[i].y) << "atom " << i;
    EXPECT_EQ(r_scalar[i].z, r_avx2[i].z) << "atom " << i;
  }
}

}  // namespace
}  // namespace wsmd::md
