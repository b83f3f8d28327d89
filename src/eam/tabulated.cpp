#include "eam/tabulated.hpp"

#include <cmath>

#include "util/error.hpp"

namespace wsmd::eam {

TabulatedEam::TabulatedEam(std::vector<std::string> names,
                           std::vector<double> masses, double rc,
                           std::vector<CubicSplineTable> rho_tables,
                           std::vector<CubicSplineTable> embed_tables,
                           std::vector<CubicSplineTable> pair_tables)
    : names_(std::move(names)),
      masses_(std::move(masses)),
      rc_(rc),
      rho_(std::move(rho_tables)),
      embed_(std::move(embed_tables)),
      pair_(std::move(pair_tables)) {
  const std::size_t nt = names_.size();
  WSMD_REQUIRE(nt > 0, "TabulatedEam needs at least one type");
  WSMD_REQUIRE(masses_.size() == nt, "mass count mismatch");
  WSMD_REQUIRE(rho_.size() == nt, "density table count mismatch");
  WSMD_REQUIRE(embed_.size() == nt, "embedding table count mismatch");
  WSMD_REQUIRE(pair_.size() == nt * (nt + 1) / 2, "pair table count mismatch");
  WSMD_REQUIRE(rc_ > 0.0, "cutoff must be positive");
}

TabulatedEam TabulatedEam::from_potential(const EamPotential& src, int nr,
                                          int nrho, double rho_max) {
  WSMD_REQUIRE(nr >= 16 && nrho >= 16, "table resolution too small");
  const int nt = src.num_types();
  const double rc = src.cutoff();

  std::vector<std::string> names;
  std::vector<double> masses;
  std::vector<CubicSplineTable> rho_tables, embed_tables, pair_tables;

  // The radial grid starts slightly above zero: EAM pair functions diverge
  // at r=0 and no physical configuration probes r < ~0.5 A.
  const double r_min = 1e-2;

  double peak_density = 0.0;
  for (int t = 0; t < nt; ++t) {
    names.push_back(src.type_name(t));
    masses.push_back(src.mass(t));
    rho_tables.push_back(CubicSplineTable::sample(
        [&](double r) { return src.density(t, r); }, r_min, rc,
        static_cast<std::size_t>(nr)));
    peak_density = std::max(peak_density, src.density(t, 0.8 * r_min + 0.5));
  }

  if (rho_max <= 0.0) {
    // Bound the host density by ~80 neighbors at close approach; generous
    // for any crystal the library generates.
    double densest = 0.0;
    for (int t = 0; t < nt; ++t) {
      densest = std::max(densest, src.density(t, 0.6 * rc));
    }
    rho_max = std::max(1.0, 80.0 * densest);
  }
  for (int t = 0; t < nt; ++t) {
    embed_tables.push_back(CubicSplineTable::sample(
        [&](double rho) { return src.embed(t, rho); }, 0.0, rho_max,
        static_cast<std::size_t>(nrho)));
  }
  for (int a = 0; a < nt; ++a) {
    for (int b = a; b < nt; ++b) {
      pair_tables.push_back(CubicSplineTable::sample(
          [&](double r) { return src.pair(a, b, r); }, r_min, rc,
          static_cast<std::size_t>(nr)));
    }
  }
  return TabulatedEam(std::move(names), std::move(masses), rc,
                      std::move(rho_tables), std::move(embed_tables),
                      std::move(pair_tables));
}

int TabulatedEam::num_types() const { return static_cast<int>(names_.size()); }

std::string TabulatedEam::type_name(int type) const {
  WSMD_REQUIRE(type >= 0 && type < num_types(), "type out of range");
  return names_[static_cast<std::size_t>(type)];
}

double TabulatedEam::mass(int type) const {
  WSMD_REQUIRE(type >= 0 && type < num_types(), "type out of range");
  return masses_[static_cast<std::size_t>(type)];
}

std::size_t TabulatedEam::pair_index(int ti, int tj) const {
  WSMD_REQUIRE(ti >= 0 && ti < num_types() && tj >= 0 && tj < num_types(),
               "pair type out of range");
  if (ti > tj) std::swap(ti, tj);
  // Row-major upper triangle: index = ti*nt - ti(ti-1)/2 + (tj - ti).
  const auto t = static_cast<std::size_t>(ti);
  const auto nt = static_cast<std::size_t>(num_types());
  return t * nt - t * (t - 1) / 2 + static_cast<std::size_t>(tj - ti);
}

double TabulatedEam::density(int type, double r) const {
  if (r >= rc_) return 0.0;
  return rho_[static_cast<std::size_t>(type)].value(r);
}

double TabulatedEam::density_deriv(int type, double r) const {
  if (r >= rc_) return 0.0;
  return rho_[static_cast<std::size_t>(type)].derivative(r);
}

double TabulatedEam::pair(int ti, int tj, double r) const {
  if (r >= rc_) return 0.0;
  return pair_[pair_index(ti, tj)].value(r);
}

double TabulatedEam::pair_deriv(int ti, int tj, double r) const {
  if (r >= rc_) return 0.0;
  return pair_[pair_index(ti, tj)].derivative(r);
}

double TabulatedEam::embed(int type, double rho) const {
  return embed_[static_cast<std::size_t>(type)].value(rho);
}

double TabulatedEam::embed_deriv(int type, double rho) const {
  return embed_[static_cast<std::size_t>(type)].derivative(rho);
}

std::size_t TabulatedEam::table_bytes_fp32() const {
  std::size_t samples = 0;
  for (const auto& t : rho_) samples += t.n();
  for (const auto& t : embed_) samples += t.n();
  for (const auto& t : pair_) samples += t.n();
  return samples * sizeof(float);
}

}  // namespace wsmd::eam
