/// \file test_obs_probes.cpp
/// Physics of the streaming observables (src/obs), pinned on analytically
/// known configurations:
///   - RDF first-peak positions of perfect FCC / BCC lattices,
///   - MSD == 0 for a frozen crystal, exact ballistic growth for an
///     ideal gas (including unwrapping across periodic boundaries),
///   - VACF for constant and sign-flipped velocity fields,
///   - CSP defect count of a known vacancy structure (an FCC vacancy
///     exposes exactly its 12 nearest neighbors).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "io/series.hpp"
#include "lattice/lattice.hpp"
#include "obs/defects.hpp"
#include "obs/factory.hpp"
#include "obs/msd.hpp"
#include "obs/probe.hpp"
#include "obs/rdf.hpp"
#include "obs/vacf.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace wsmd::obs {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "wsmd_obs_" + name;
}

Frame frame_of(long step, double time_ps, const Box& box,
               const std::vector<Vec3d>& pos,
               const std::vector<Vec3d>* vel = nullptr) {
  Frame f;
  f.step = step;
  f.time_ps = time_ps;
  f.box = &box;
  f.positions = &pos;
  f.velocities = vel;
  return f;
}

double rdf_peak_position(const lattice::Structure& s, double rcut, int bins) {
  RdfProbe::Config c;
  c.rcut = rcut;
  c.bins = bins;
  c.path = tmp_path("rdf.csv");
  RdfProbe probe(c);
  probe.sample(frame_of(0, 0.0, s.box, s.positions));
  probe.finish();
  const auto series = io::read_series_csv_file(c.path);
  std::remove(c.path.c_str());
  const auto r_col = series.column_index("r_A");
  const auto g_col = series.column_index("g");
  double best_r = 0.0, best_g = -1.0;
  for (const auto& row : series.rows) {
    if (row[g_col] > best_g) {
      best_g = row[g_col];
      best_r = row[r_col];
    }
  }
  EXPECT_GT(best_g, 1.0) << "no structure in g(r)?";
  return best_r;
}

TEST(Rdf, FirstPeakOfPerfectFccIsNearestNeighborDistance) {
  const double a = 3.615;  // Cu
  const auto s = lattice::replicate(lattice::UnitCell::fcc(a), 5, 5, 5, 0,
                                    {true, true, true});
  const int bins = 400;
  const double rcut = 1.8 * a;
  const double peak = rdf_peak_position(s, rcut, bins);
  EXPECT_NEAR(peak, a / std::sqrt(2.0), rcut / bins);
}

TEST(Rdf, FirstPeakOfPerfectBccIsNearestNeighborDistance) {
  const double a = 3.165;  // W
  const auto s = lattice::replicate(lattice::UnitCell::bcc(a), 6, 6, 6, 0,
                                    {true, true, true});
  const int bins = 400;
  const double rcut = 1.8 * a;
  const double peak = rdf_peak_position(s, rcut, bins);
  EXPECT_NEAR(peak, a * std::sqrt(3.0) / 2.0, rcut / bins);
}

TEST(Rdf, HistogramEqualsAllPairsCount) {
  // The cell-list pair walk must bin exactly the pairs an O(N^2) loop over
  // Box::minimum_image finds: same pairs, same r2 bits, same bins.
  const double a = 3.615;
  Rng rng(17);
  for (const bool periodic : {false, true}) {
    auto s = lattice::replicate(lattice::UnitCell::fcc(a), 5, 5, 5, 0,
                                {periodic, periodic, periodic});
    for (auto& r : s.positions) {
      r += Vec3d{rng.gaussian(0.0, 0.1), rng.gaussian(0.0, 0.1),
                 rng.gaussian(0.0, 0.1)};
    }
    RdfProbe::Config c;
    c.rcut = 1.8 * a;
    c.bins = 300;
    c.path = tmp_path("rdf_pairs.csv");
    RdfProbe probe(c);
    probe.sample(frame_of(0, 0.0, s.box, s.positions));
    probe.sample(frame_of(1, 0.002, s.box, s.positions));

    std::vector<double> expect(static_cast<std::size_t>(c.bins), 0.0);
    const double inv_width = c.bins / c.rcut;
    for (std::size_t i = 0; i < s.size(); ++i) {
      for (std::size_t j = i + 1; j < s.size(); ++j) {
        const double r2 =
            norm2(s.box.minimum_image(s.positions[i], s.positions[j]));
        if (r2 >= c.rcut * c.rcut) continue;
        const auto bin = static_cast<std::size_t>(std::sqrt(r2) * inv_width);
        if (bin < expect.size()) expect[bin] += 2.0;  // two samples
      }
    }
    EXPECT_EQ(probe.histogram(), expect) << "periodic " << periodic;
    probe.finish();
    std::remove(c.path.c_str());
  }
}

TEST(Rdf, RejectsRcutBeyondMinimumImageRange) {
  const double a = 3.615;
  const auto s = lattice::replicate(lattice::UnitCell::fcc(a), 3, 3, 3, 0,
                                    {true, true, true});
  RdfProbe::Config c;
  c.rcut = 2.0 * a;  // needs box >= 4a, box is 3a
  c.bins = 100;
  c.path = tmp_path("rdf_bad.csv");
  RdfProbe probe(c);
  EXPECT_THROW(probe.sample(frame_of(0, 0.0, s.box, s.positions)), Error);
  std::remove(c.path.c_str());
}

TEST(Msd, FrozenCrystalStaysZero) {
  const auto s = lattice::replicate(lattice::UnitCell::fcc(4.0), 3, 3, 3, 0,
                                    {true, true, true});
  MsdProbe probe({tmp_path("msd_frozen.csv"), io::ThermoFormat::kCsv});
  for (long k = 0; k <= 4; ++k) {
    probe.sample(frame_of(k, 0.01 * k, s.box, s.positions));
    EXPECT_DOUBLE_EQ(probe.current_msd(), 0.0);
  }
  probe.finish();
  std::remove(probe.output_path().c_str());
}

TEST(Msd, BallisticGasGrowsQuadraticallyAcrossPeriodicWrap) {
  // Ideal-gas integrator: constant velocities, positions wrapped into the
  // box each sample. MSD(t) must equal <|v|^2> t^2 exactly — which only
  // happens if the probe unwraps boundary crossings correctly (an atom
  // with v = 1.3 A/ps crosses the 10 A box several times here).
  const Box box({0, 0, 0}, {10, 10, 10}, {true, true, true});
  const std::vector<Vec3d> r0 = {{0.5, 5.0, 9.5}, {2.0, 0.1, 4.0},
                                 {9.9, 9.9, 0.2}, {5.0, 5.0, 5.0}};
  const std::vector<Vec3d> v = {{1.3, -0.7, 0.4}, {-1.1, 0.9, -1.2},
                                {0.8, 1.4, -0.3}, {0.0, 0.0, 0.0}};
  MsdProbe probe({tmp_path("msd_gas.csv"), io::ThermoFormat::kCsv});
  const double dt_sample = 1.0;  // ps between samples; |v| dt < L/2
  for (long k = 0; k <= 12; ++k) {
    const double t = dt_sample * static_cast<double>(k);
    std::vector<Vec3d> pos(r0.size());
    for (std::size_t i = 0; i < r0.size(); ++i) {
      pos[i] = box.wrap(r0[i] + t * v[i]);
    }
    probe.sample(frame_of(k, t, box, pos));
    double expect = 0.0;
    for (const auto& vi : v) expect += norm2(vi) * t * t;
    expect /= static_cast<double>(v.size());
    EXPECT_NEAR(probe.current_msd(), expect, 1e-9 + 1e-12 * expect)
        << "at t=" << t;
  }
  probe.finish();
  // The ballistic fit should report a positive, finite pseudo-diffusion.
  JsonObject meta;
  probe.summarize(meta);
  std::remove(probe.output_path().c_str());
}

TEST(Msd, FlagsPerSampleDisplacementsThatRiskAliasing) {
  // Minimum-image unwrapping is only provably correct below half a box
  // edge of true motion per sample; the probe flags apparent steps beyond
  // a quarter edge (and warns once on stderr) instead of silently
  // corrupting the MSD — the failure mode of a too-sparse observe.every
  // or a sparse-xyz_every offline replay.
  const Box box({0, 0, 0}, {10, 10, 10}, {true, true, true});
  MsdProbe probe({tmp_path("msd_alias.csv"), io::ThermoFormat::kCsv});
  std::vector<Vec3d> pos = {{1.0, 5.0, 5.0}};
  probe.sample(frame_of(0, 0.0, box, pos));
  pos[0].x += 2.0;  // 0.2 L: fine
  probe.sample(frame_of(10, 0.1, box, pos));
  EXPECT_EQ(probe.suspect_samples(), 0u);
  pos[0].x = box.wrap(Vec3d{pos[0].x + 3.0, 5.0, 5.0}).x;  // 0.3 L: suspect
  probe.sample(frame_of(20, 0.2, box, pos));
  EXPECT_EQ(probe.suspect_samples(), 1u);
  // Open boxes can never alias — the same jump on a non-periodic axis
  // stays clean.
  const Box open_box({0, 0, 0}, {10, 10, 10});
  MsdProbe open_probe({tmp_path("msd_open.csv"), io::ThermoFormat::kCsv});
  std::vector<Vec3d> r = {{1.0, 5.0, 5.0}};
  open_probe.sample(frame_of(0, 0.0, open_box, r));
  r[0].x += 4.5;
  open_probe.sample(frame_of(10, 0.1, open_box, r));
  EXPECT_EQ(open_probe.suspect_samples(), 0u);
  probe.finish();
  open_probe.finish();
  // The summary carries the flag so offline consumers see it too.
  JsonObject meta;
  probe.summarize(meta);
  std::remove(probe.output_path().c_str());
  std::remove(open_probe.output_path().c_str());
}

TEST(Vacf, ConstantVelocitiesStayPerfectlyCorrelated) {
  const Box box({0, 0, 0}, {10, 10, 10});
  const std::vector<Vec3d> pos = {{1, 1, 1}, {2, 2, 2}, {3, 3, 3}};
  const std::vector<Vec3d> v = {{1, 0, 0}, {0, -2, 0}, {0.5, 0.5, 0.5}};
  VacfProbe probe({tmp_path("vacf_const.csv"), io::ThermoFormat::kCsv});
  for (long k = 0; k <= 3; ++k) {
    probe.sample(frame_of(k, 0.01 * k, box, pos, &v));
    EXPECT_NEAR(probe.current_vacf(), 1.0, 1e-12);
  }
  probe.finish();
  std::remove(probe.output_path().c_str());
}

TEST(Vacf, SignFlipGivesMinusOneAndOriginSkipsRestFrames) {
  const Box box({0, 0, 0}, {10, 10, 10});
  const std::vector<Vec3d> pos = {{1, 1, 1}, {2, 2, 2}};
  const std::vector<Vec3d> rest = {{0, 0, 0}, {0, 0, 0}};
  const std::vector<Vec3d> v = {{1, 2, 3}, {-1, 0, 1}};
  std::vector<Vec3d> flipped = v;
  for (auto& vi : flipped) vi = -1.0 * vi;
  VacfProbe probe({tmp_path("vacf_flip.csv"), io::ThermoFormat::kCsv});
  // A rest frame before motion starts must not become the time origin
  // (scenario schedules begin from a lattice at rest).
  probe.sample(frame_of(0, 0.0, box, pos, &rest));
  EXPECT_DOUBLE_EQ(probe.current_vacf(), 0.0);
  probe.sample(frame_of(1, 0.01, box, pos, &v));
  EXPECT_NEAR(probe.current_vacf(), 1.0, 1e-12);
  probe.sample(frame_of(2, 0.02, box, pos, &flipped));
  EXPECT_NEAR(probe.current_vacf(), -1.0, 1e-12);
  probe.finish();
  // The rest frame's placeholder 0 must not pollute the reported minimum.
  JsonObject meta;
  probe.summarize(meta);
  EXPECT_NE(meta.encode().find("\"obs_vacf_min\": -1"), std::string::npos)
      << meta.encode();
  std::remove(probe.output_path().c_str());
}

TEST(Vacf, RequiresVelocities) {
  const Box box({0, 0, 0}, {10, 10, 10});
  const std::vector<Vec3d> pos = {{1, 1, 1}};
  VacfProbe probe({tmp_path("vacf_novel.csv"), io::ThermoFormat::kCsv});
  EXPECT_THROW(probe.sample(frame_of(0, 0.0, box, pos, nullptr)), Error);
  probe.finish();
  std::remove(probe.output_path().c_str());
}

TEST(Defects, FccVacancyExposesItsTwelveNearestNeighbors) {
  // Remove one atom from a perfect periodic FCC crystal: exactly the 12
  // first-shell neighbors lose their centrosymmetry (CSP >= a^2/2, far
  // above thermal thresholds); every other atom keeps a full shell.
  const double a = 3.615;
  auto s = lattice::replicate(lattice::UnitCell::fcc(a), 4, 4, 4, 0,
                              {true, true, true});
  const std::size_t removed = 42;
  s.positions.erase(s.positions.begin() + removed);
  s.types.erase(s.types.begin() + removed);

  DefectProbe::Config c;
  c.csp_rcut = 1.2 * a;
  c.csp_neighbors = 12;
  c.csp_threshold = 1.0;
  c.path = tmp_path("defects_vacancy.csv");
  DefectProbe probe(c);
  probe.sample(frame_of(0, 0.0, s.box, s.positions));
  EXPECT_EQ(probe.current_defect_count(), 12);
  probe.finish();
  const auto series = io::read_series_csv_file(c.path);
  EXPECT_DOUBLE_EQ(series.rows.at(0).at(series.column_index("defect_count")),
                   12.0);
  EXPECT_NEAR(series.rows.at(0).at(series.column_index("defect_fraction")),
              12.0 / static_cast<double>(s.size()), 1e-12);
  std::remove(c.path.c_str());
}

TEST(Defects, PerfectCrystalHasNoDefects) {
  const double a = 3.165;
  const auto s = lattice::replicate(lattice::UnitCell::bcc(a), 4, 4, 4, 0,
                                    {true, true, true});
  DefectProbe::Config c;
  c.csp_rcut = 1.2 * a;
  c.csp_neighbors = 8;
  c.csp_threshold = 0.5;
  c.path = tmp_path("defects_perfect.csv");
  DefectProbe probe(c);
  probe.sample(frame_of(0, 0.0, s.box, s.positions));
  EXPECT_EQ(probe.current_defect_count(), 0);
  probe.finish();
  std::remove(c.path.c_str());
}

TEST(ObserverBus, DispatchesPerProbeCadenceAndFinalState) {
  ProbeSetConfig config;
  config.probes = {"msd", "defects"};
  config.every = 4;
  config.defects_every = 6;
  config.prefix = tmp_path("bus");
  const Material cu{3.615, 12};
  auto bus = make_observer_bus(config, cu);
  ASSERT_EQ(bus->size(), 2u);
  EXPECT_EQ(bus->cadence(0), 4);
  EXPECT_EQ(bus->cadence(1), 6);

  const auto s = lattice::replicate(lattice::UnitCell::fcc(3.615), 3, 3, 3,
                                    0, {true, true, true});
  for (long step = 0; step <= 13; ++step) {
    if (!bus->due(step)) continue;
    const auto f = frame_of(step, 0.002 * step, s.box, s.positions);
    bus->observe(f);
  }
  // 13 is on neither cadence: the final-state hook must top both off.
  const auto final_frame = frame_of(13, 0.026, s.box, s.positions);
  bus->observe_all(final_frame);
  EXPECT_EQ(bus->probe(0).samples_taken(), 5u);  // 0 4 8 12 + 13
  EXPECT_EQ(bus->probe(1).samples_taken(), 4u);  // 0 6 12 + 13
  // observe_all must not double-sample a probe that already saw the step.
  bus->observe_all(final_frame);
  EXPECT_EQ(bus->probe(0).samples_taken(), 5u);
  bus->finish();
  JsonObject meta;
  bus->summarize(meta);
  std::remove((config.prefix + ".msd.csv").c_str());
  std::remove((config.prefix + ".defects.csv").c_str());
}

TEST(ObserverBus, ReportsVelocityNeedPerStep) {
  ProbeSetConfig config;
  config.probes = {"msd", "vacf"};
  config.every = 1;
  config.vacf_every = 4;
  config.prefix = tmp_path("vel_need");
  auto bus = make_observer_bus(config, Material{3.615, 12});
  // Only steps where the vacf probe fires need the O(N) velocity copy.
  EXPECT_TRUE(bus->needs_velocities_at(0, false));
  EXPECT_FALSE(bus->needs_velocities_at(1, false));
  EXPECT_FALSE(bus->needs_velocities_at(3, false));
  EXPECT_TRUE(bus->needs_velocities_at(4, false));
  // Final-state top-off: vacf has not sampled step 5, so it will fire.
  EXPECT_TRUE(bus->needs_velocities_at(5, true));
  // Position-only buses never need velocities.
  ProbeSetConfig pos_only;
  pos_only.probes = {"msd", "defects"};
  pos_only.prefix = tmp_path("vel_need2");
  auto bus2 = make_observer_bus(pos_only, Material{3.615, 12});
  EXPECT_FALSE(bus2->needs_velocities_at(0, false));
  EXPECT_FALSE(bus2->needs_velocities_at(0, true));
  bus->finish();
  bus2->finish();
  for (const char* p :
       {"vel_need.msd.csv", "vel_need.vacf.csv", "vel_need2.msd.csv",
        "vel_need2.defects.csv"}) {
    std::remove((::testing::TempDir() + "wsmd_obs_" + p).c_str());
  }
}

TEST(Factory, SkipsVelocityProbesOnlyWhenReplaying) {
  ProbeSetConfig config;
  config.probes = {"vacf", "msd"};
  config.prefix = tmp_path("skip");
  const Material cu{3.615, 12};
  std::vector<std::string> skipped;
  auto bus = make_observer_bus(config, cu, /*with_velocities=*/false,
                               &skipped);
  ASSERT_EQ(skipped, std::vector<std::string>{"vacf"});
  EXPECT_EQ(bus->size(), 1u);
  bus->finish();
  std::remove((config.prefix + ".msd.csv").c_str());

  // Nothing left to observe -> loud failure, not a silent no-op run.
  ProbeSetConfig only_vacf;
  only_vacf.probes = {"vacf"};
  only_vacf.prefix = tmp_path("skip2");
  EXPECT_THROW(
      make_observer_bus(only_vacf, cu, /*with_velocities=*/false, &skipped),
      Error);
}

TEST(Factory, EffectiveDefaultsDeriveFromTheMaterial) {
  const Material cu{3.615, 12};
  ProbeSetConfig config;
  EXPECT_NEAR(effective_rdf_rcut(config, cu), 1.8 * 3.615, 1e-12);
  config.rdf_rcut = 5.0;
  EXPECT_DOUBLE_EQ(effective_rdf_rcut(config, cu), 5.0);
  EXPECT_NEAR(effective_csp_rcut(cu), 1.2 * 3.615, 1e-12);
}

}  // namespace
}  // namespace wsmd::obs
