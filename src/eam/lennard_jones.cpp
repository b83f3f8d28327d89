#include "eam/lennard_jones.hpp"

#include <cmath>

#include "util/error.hpp"

namespace wsmd::eam {

LennardJones::LennardJones(Species species, double cutoff)
    : LennardJones(std::vector<Species>{std::move(species)},
                   cutoff > 0.0 ? cutoff : 0.0) {}

LennardJones::LennardJones(std::vector<Species> species, double cutoff)
    : species_(std::move(species)) {
  WSMD_REQUIRE(!species_.empty(), "LennardJones needs at least one species");
  for (const auto& s : species_) {
    WSMD_REQUIRE(s.epsilon > 0.0 && s.sigma > 0.0 && s.mass > 0.0,
                 "invalid LJ species '" << s.name << "'");
  }
  rc_ = cutoff;
  if (rc_ <= 0.0) {
    for (const auto& s : species_) rc_ = std::max(rc_, 2.5 * s.sigma);
  }
  const int nt = num_types();
  phi_rc_.resize(static_cast<std::size_t>(nt) * nt);
  dphi_rc_.resize(static_cast<std::size_t>(nt) * nt);
  for (int a = 0; a < nt; ++a) {
    for (int b = 0; b < nt; ++b) {
      phi_rc_[static_cast<std::size_t>(a) * nt + b] = raw_pair(a, b, rc_);
      dphi_rc_[static_cast<std::size_t>(a) * nt + b] = raw_pair_deriv(a, b, rc_);
    }
  }
}

LennardJones LennardJones::copper_like() {
  return LennardJones({"Cu", 63.546, 0.4093, 2.338});
}

namespace {

/// Classic noble-gas LJ parameters (epsilon/kB in K converted at
/// kB = 8.617333e-5 eV/K; sigma in A). Sources: Bernardes 1958 / standard
/// textbook values — good enough for the melt/diversity scenarios; nothing
/// here calibrates against experiment.
const LjMaterial kLjTable[] = {
    {"Ne", 20.180, 0.0030675, 2.749, "fcc"},
    {"Ar", 39.948, 0.0103235, 3.405, "fcc"},
    {"Kr", 83.798, 0.0141325, 3.650, "fcc"},
    {"Xe", 131.293, 0.0196137, 3.980, "fcc"},
};

}  // namespace

double LjMaterial::lattice_constant() const {
  // Full-lattice-sum FCC minimum: r_nn/sigma = (2*A12/A6)^(1/6) with the
  // fcc lattice sums A12 = 12.13188, A6 = 14.45392; a0 = sqrt(2) r_nn.
  const double rnn = std::pow(2.0 * 12.13188 / 14.45392, 1.0 / 6.0) * sigma;
  return std::sqrt(2.0) * rnn;
}

double LjMaterial::default_cutoff() const { return 2.5 * sigma; }

std::vector<std::string> lj_available_elements() {
  std::vector<std::string> names;
  for (const auto& m : kLjTable) names.push_back(m.name);
  return names;
}

LjMaterial lj_parameters(const std::string& element) {
  for (const auto& m : kLjTable) {
    if (m.name == element) return m;
  }
  // A bad element is user input: a plain message the deck parser prefixes
  // with the deck line.
  throw Error("no built-in LJ parameters for element '" + element +
              "' (pair_style=lj knows Ne, Ar, Kr, Xe)");
}

LennardJones LennardJones::for_element(const std::string& element) {
  const auto m = lj_parameters(element);
  return LennardJones({m.name, m.mass, m.epsilon, m.sigma},
                      m.default_cutoff());
}

int LennardJones::num_types() const { return static_cast<int>(species_.size()); }

std::string LennardJones::type_name(int type) const {
  WSMD_REQUIRE(type >= 0 && type < num_types(), "type out of range");
  return species_[static_cast<std::size_t>(type)].name;
}

double LennardJones::mass(int type) const {
  WSMD_REQUIRE(type >= 0 && type < num_types(), "type out of range");
  return species_[static_cast<std::size_t>(type)].mass;
}

void LennardJones::mix(int ti, int tj, double& eps, double& sig) const {
  const auto& a = species_[static_cast<std::size_t>(ti)];
  const auto& b = species_[static_cast<std::size_t>(tj)];
  eps = std::sqrt(a.epsilon * b.epsilon);  // Berthelot
  sig = 0.5 * (a.sigma + b.sigma);         // Lorentz
}

double LennardJones::raw_pair(int ti, int tj, double r) const {
  double eps, sig;
  mix(ti, tj, eps, sig);
  const double sr2 = sig * sig / (r * r);
  const double sr6 = sr2 * sr2 * sr2;
  return 4.0 * eps * (sr6 * sr6 - sr6);
}

double LennardJones::raw_pair_deriv(int ti, int tj, double r) const {
  double eps, sig;
  mix(ti, tj, eps, sig);
  const double sr2 = sig * sig / (r * r);
  const double sr6 = sr2 * sr2 * sr2;
  return 4.0 * eps * (-12.0 * sr6 * sr6 + 6.0 * sr6) / r;
}

double LennardJones::pair(int ti, int tj, double r) const {
  if (r >= rc_) return 0.0;
  const std::size_t idx =
      static_cast<std::size_t>(ti) * static_cast<std::size_t>(num_types()) +
      static_cast<std::size_t>(tj);
  return raw_pair(ti, tj, r) - phi_rc_[idx] - dphi_rc_[idx] * (r - rc_);
}

double LennardJones::pair_deriv(int ti, int tj, double r) const {
  if (r >= rc_) return 0.0;
  const std::size_t idx =
      static_cast<std::size_t>(ti) * static_cast<std::size_t>(num_types()) +
      static_cast<std::size_t>(tj);
  return raw_pair_deriv(ti, tj, r) - dphi_rc_[idx];
}

}  // namespace wsmd::eam
