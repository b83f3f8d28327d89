/// \file test_simd.cpp
/// Dispatch-layer contract and scalar/vector kernel parity.
///
/// The SIMD tiers promise *bitwise* agreement (md/simd.hpp): the scalar
/// kernels execute the same lane-blocked expression trees the vector code
/// does, so every test here compares with EXPECT_EQ on floats — no
/// tolerances. Each parity test runs once per vector tier (AVX2, AVX-512);
/// a tier the host lacks reports a skip naming what it lacks, never a pass.
/// Row lengths cover every remainder class of the 4/8-lane scalar blocks
/// and of the 8/16-lane AVX-512 blocks, to pin the masked remainder
/// handling and the order in which 512-bit halves are added.
///
/// CI sets WSMD_EXPECT_TIER to assert that each matrix leg actually runs
/// the tier it was built for (vector legs must not silently fall back).

#include "md/simd.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/wse_md.hpp"
#include "eam/profile.hpp"
#include "eam/zhou.hpp"
#include "lattice/lattice.hpp"
#include "md/simulation.hpp"
#include "util/error.hpp"
#include "util/random.hpp"
#include "util/soa.hpp"

namespace wsmd::md {
namespace {

constexpr simd::Tier kAllTiers[] = {simd::Tier::kScalar, simd::Tier::kAvx2,
                                    simd::Tier::kAvx512};
constexpr simd::Tier kVectorTiers[] = {simd::Tier::kAvx2,
                                       simd::Tier::kAvx512};

/// Restore the default dispatch no matter how a test exits.
struct TierGuard {
  ~TierGuard() { simd::clear_tier_override(); }
};

TEST(SimdDispatch, ScalarTierAlwaysAvailable) {
  EXPECT_TRUE(simd::tier_supported(simd::Tier::kScalar));
  EXPECT_EQ(simd::tier_missing(simd::Tier::kScalar), nullptr);
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

TEST(SimdDispatch, RuntimeTierIsWidestSupported) {
  simd::Tier widest = simd::Tier::kScalar;
  for (const simd::Tier t : kVectorTiers) {
    if (simd::tier_supported(t)) widest = t;
  }
  EXPECT_EQ(simd::runtime_tier(), widest);
  // A wider tier's CPU features include the narrower one's.
  if (simd::tier_supported(simd::Tier::kAvx512)) {
    EXPECT_TRUE(simd::tier_supported(simd::Tier::kAvx2));
  }
}

TEST(SimdDispatch, MatchesExpectedTierFromEnv) {
  // CI matrix legs export WSMD_EXPECT_TIER (for SIMD builds: avx512 where
  // the runner's /proc/cpuinfo lists every feature the dispatcher checks,
  // else avx2; scalar for -DWSMD_SIMD=OFF builds) so a silent fallback to a
  // narrower path fails the leg instead of quietly passing it.
  const char* expect = std::getenv("WSMD_EXPECT_TIER");
  if (expect == nullptr) {
    GTEST_SKIP() << "WSMD_EXPECT_TIER not set";
  }
  EXPECT_STREQ(simd::tier_name(simd::active_tier()), expect);
}

TEST(SimdDispatch, OverrideForcesEachSupportedTier) {
  TierGuard guard;
  for (const simd::Tier t : kAllTiers) {
    if (!simd::tier_supported(t)) continue;
    simd::set_tier_override(t);
    EXPECT_EQ(simd::active_tier(), t);
    EXPECT_EQ(&simd::kernels(), &simd::kernels_for(t));
  }
  simd::clear_tier_override();
}

TEST(SimdDispatch, UnsupportedOverrideIsTypedError) {
  TierGuard guard;
  int checked = 0;
  for (const simd::Tier t : kVectorTiers) {
    const char* missing = simd::tier_missing(t);
    if (missing == nullptr) continue;
    const simd::Tier before = simd::active_tier();
    try {
      simd::set_tier_override(t);
      ADD_FAILURE() << "forcing " << simd::tier_name(t) << " did not throw";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(missing), std::string::npos)
          << e.what();
    }
    EXPECT_THROW(simd::kernels_for(t), Error);
    EXPECT_EQ(simd::active_tier(), before);
    ++checked;
  }
  if (checked == 0) {
    GTEST_SKIP() << "every vector tier is supported here; the typed error "
                    "runs in WSMD_SIMD=OFF builds and on CPUs without "
                    "AVX-512";
  }
}

/// One instance per vector tier. A tier the host lacks skips with what it
/// lacks (a missing CPU feature or a WSMD_SIMD=OFF build).
class SimdTierTest : public ::testing::TestWithParam<simd::Tier> {
 protected:
  void SetUp() override {
    if (const char* missing = simd::tier_missing(GetParam())) {
      GTEST_SKIP() << simd::tier_name(GetParam())
                   << " tier unavailable: this host lacks " << missing;
    }
  }
};

std::string tier_param_name(
    const ::testing::TestParamInfo<simd::Tier>& info) {
  return simd::tier_name(info.param);
}

/// Row lengths: every remainder class of the 4- and 8-lane FP64 blocks and
/// of the 8- and 16-lane FP32 blocks (0-17), rows that end one lane short
/// of, on, and one past two 16-lane blocks (31-33), and a long row (96).
std::vector<std::size_t> row_lengths() {
  std::vector<std::size_t> out;
  for (std::size_t n = 0; n <= 17; ++n) out.push_back(n);
  for (const std::size_t n : {31, 32, 33, 96}) out.push_back(n);
  return out;
}

/// Randomized SoA neighborhood shared by the parity sweeps: positions in a
/// box periodic on x/y and open on z (exercises the inv_len = 0 branch-free
/// minimum image on a real open axis). The candidate list visits the 96
/// other atoms eight times, so the accepted row is long enough for every
/// row length.
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
    }
    for (int pass = 0; pass < 8; ++pass) {
      for (std::size_t i = 1; i < kAtoms; ++i) {
        candidates.push_back(static_cast<std::uint32_t>(i));
      }
    }
  }
};

/// The FP64 and FP32 halves of the kernel table and the fixture.
struct F64 {
  using Real = double;
  using Profile = eam::ProfileF64;
  static constexpr std::size_t kPad = simd::kPadF64;
  static constexpr auto kSieve = &simd::KernelTable::sieve_f64;
  static constexpr auto kRho = &simd::KernelTable::rho_row_f64;
  static constexpr auto kForce = &simd::KernelTable::force_row_f64;
  static const Vec3dPlanes& pos(const ParityFixture& f) { return f.pos64; }
  static const simd::BoxF64& box(const ParityFixture& f) { return f.box64; }
  static const std::vector<double>& fprime(const ParityFixture& f) {
    return f.fprime64;
  }
};
struct F32 {
  using Real = float;
  using Profile = eam::ProfileF32;
  static constexpr std::size_t kPad = simd::kPadF32;
  static constexpr auto kSieve = &simd::KernelTable::sieve_f32;
  static constexpr auto kRho = &simd::KernelTable::rho_row_f32;
  static constexpr auto kForce = &simd::KernelTable::force_row_f32;
  static const Vec3fPlanes& pos(const ParityFixture& f) { return f.pos32; }
  static const simd::BoxF32& box(const ParityFixture& f) { return f.box32; }
  static const std::vector<float>& fprime(const ParityFixture& f) {
    return f.fprime32;
  }
};

/// A sieve's compacted output, sized with the kPad* capacity contract.
template <typename P>
struct SieveOut {
  using Real = typename P::Real;
  std::vector<std::uint32_t> idx;
  std::vector<Real> dx, dy, dz, r2;
  std::size_t n = 0;

  SieveOut(const simd::KernelTable& k, const ParityFixture& f, Real rc2,
           std::size_t count)
      : idx(count + P::kPad),
        dx(count + P::kPad),
        dy(count + P::kPad),
        dz(count + P::kPad),
        r2(count + P::kPad) {
    const auto& pos = P::pos(f);
    const auto ri = pos.get(0);
    n = (k.*P::kSieve)(pos.x(), pos.y(), pos.z(), ri.x, ri.y, ri.z,
                       f.candidates.data(), count, P::box(f), rc2,
                       idx.data(), dx.data(), dy.data(), dz.data(),
                       r2.data());
  }
};

/// Sieve, density row and force row (both pairwise_only modes) of `tier`
/// against the scalar kernels, bitwise, at every row length.
template <typename P>
void expect_kernels_match_scalar(simd::Tier tier) {
  using Real = typename P::Real;
  ParityFixture f;
  const auto pot = std::make_shared<eam::ZhouEam>("Ta");
  const typename P::Profile prof(*pot);
  const auto raw = prof.raw();
  const auto rc2 = static_cast<Real>(pot->cutoff() * pot->cutoff());
  const simd::KernelTable& sc = simd::kernels_for(simd::Tier::kScalar);
  const simd::KernelTable& vx = simd::kernels_for(tier);

  // Sieve: the first `count` candidates.
  for (const std::size_t count : row_lengths()) {
    const SieveOut<P> a(sc, f, rc2, count);
    const SieveOut<P> b(vx, f, rc2, count);
    ASSERT_EQ(a.n, b.n) << "sieve count diverged at row length " << count;
    for (std::size_t k = 0; k < a.n; ++k) {
      ASSERT_EQ(a.idx[k], b.idx[k]) << "row " << count << " entry " << k;
      ASSERT_EQ(a.dx[k], b.dx[k]) << "row " << count << " entry " << k;
      ASSERT_EQ(a.dy[k], b.dy[k]) << "row " << count << " entry " << k;
      ASSERT_EQ(a.dz[k], b.dz[k]) << "row " << count << " entry " << k;
      ASSERT_EQ(a.r2[k], b.r2[k]) << "row " << count << " entry " << k;
    }
  }

  // Density and force rows: the first `n` entries of one long accepted row,
  // the same input for both tiers, followed by a NaN-filled pad that a lane
  // past the row end would carry into every sum it touched.
  const SieveOut<P> full(sc, f, rc2, f.candidates.size());
  const std::vector<std::size_t> lengths = row_lengths();
  ASSERT_GE(full.n, lengths.back()) << "accepted row too short";
  const std::vector<Real>& fp = P::fprime(f);
  const auto nan = std::numeric_limits<Real>::quiet_NaN();
  for (const std::size_t n : lengths) {
    const auto prefix = [&](const std::vector<Real>& v) {
      std::vector<Real> out(v.begin(), v.begin() + static_cast<long>(n));
      out.resize(n + P::kPad, nan);
      return out;
    };
    std::vector<std::uint32_t> idx(full.idx.begin(),
                                   full.idx.begin() + static_cast<long>(n));
    idx.resize(n + P::kPad, 0);
    const std::vector<Real> dx = prefix(full.dx), dy = prefix(full.dy),
                            dz = prefix(full.dz), r2 = prefix(full.r2);
    const Real rho_a =
        (sc.*P::kRho)(raw, f.types.data(), idx.data(), r2.data(), n);
    const Real rho_b =
        (vx.*P::kRho)(raw, f.types.data(), idx.data(), r2.data(), n);
    EXPECT_EQ(rho_a, rho_b) << "rho diverged at row length " << n;
    for (const bool pairwise_only : {false, true}) {
      const auto acc_a = (sc.*P::kForce)(
          raw, f.types.data(), fp.data(), fp[0], 0, idx.data(), dx.data(),
          dy.data(), dz.data(), r2.data(), n, pairwise_only);
      const auto acc_b = (vx.*P::kForce)(
          raw, f.types.data(), fp.data(), fp[0], 0, idx.data(), dx.data(),
          dy.data(), dz.data(), r2.data(), n, pairwise_only);
      EXPECT_EQ(acc_a.fx, acc_b.fx) << "row " << n << " pairwise "
                                    << pairwise_only;
      EXPECT_EQ(acc_a.fy, acc_b.fy) << "row " << n << " pairwise "
                                    << pairwise_only;
      EXPECT_EQ(acc_a.fz, acc_b.fz) << "row " << n << " pairwise "
                                    << pairwise_only;
      EXPECT_EQ(acc_a.phi, acc_b.phi) << "row " << n << " pairwise "
                                      << pairwise_only;
    }
  }
}

TEST_P(SimdTierTest, F64KernelsMatchScalarBitwise) {
  expect_kernels_match_scalar<F64>(GetParam());
}

TEST_P(SimdTierTest, F32KernelsMatchScalarBitwise) {
  expect_kernels_match_scalar<F32>(GetParam());
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

TEST_P(SimdTierTest, ReferenceForcesMatchScalarBitwise) {
  TierGuard guard;
  const auto s = small_ta(7);
  Simulation sim(AtomSystem(s, std::make_shared<eam::ZhouEam>("Ta")));

  simd::set_tier_override(simd::Tier::kScalar);
  const double pe_scalar = sim.compute_forces();
  const auto f_scalar = sim.system().forces().to_aos();

  simd::set_tier_override(GetParam());
  const double pe_vec = sim.compute_forces();
  const auto f_vec = sim.system().forces().to_aos();

  EXPECT_EQ(pe_scalar, pe_vec);
  for (std::size_t i = 0; i < f_scalar.size(); ++i) {
    EXPECT_EQ(f_scalar[i].x, f_vec[i].x) << "atom " << i;
    EXPECT_EQ(f_scalar[i].y, f_vec[i].y) << "atom " << i;
    EXPECT_EQ(f_scalar[i].z, f_vec[i].z) << "atom " << i;
  }
}

TEST_P(SimdTierTest, WaferTrajectoryMatchesScalarBitwise) {
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
  const auto [r_vec, pe_vec] = run_under(GetParam());

  EXPECT_EQ(pe_scalar, pe_vec);
  ASSERT_EQ(r_scalar.size(), r_vec.size());
  for (std::size_t i = 0; i < r_scalar.size(); ++i) {
    EXPECT_EQ(r_scalar[i].x, r_vec[i].x) << "atom " << i;
    EXPECT_EQ(r_scalar[i].y, r_vec[i].y) << "atom " << i;
    EXPECT_EQ(r_scalar[i].z, r_vec[i].z) << "atom " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(VectorTiers, SimdTierTest,
                         ::testing::ValuesIn(kVectorTiers), tier_param_name);

}  // namespace
}  // namespace wsmd::md
