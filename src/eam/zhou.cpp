#include "eam/zhou.hpp"

#include <cmath>

#include "util/error.hpp"

namespace wsmd::eam {

namespace {

/// Parameter table transcribed from Zhou, Johnson & Wadley, PRB 69, 144113
/// (2004), Table III (and the companion EAM database distributed with it).
/// Digits are as published; the validation tests check the derived physics
/// (lattice constant at the energy minimum, cohesive energy, stability)
/// rather than trusting any single digit.
const ZhouParams kZhouTable[] = {
    // name  mass      re        fe        rhoe       rhos       alpha     beta      A         B         kappa     lambda    Fn0        Fn1        Fn2       Fn3        F0     F1  F2        F3         eta        Fe         structure
    {"Cu", 63.546, 2.556162, 1.554485, 21.175871, 21.175395, 8.127620,
     4.334731, 0.396620, 0.548085, 0.308782, 0.756515,
     {-2.170269, -0.263788, 1.088878, -0.817603},
     {-2.19, 0.0, 0.561830, -2.100595}, 0.310490, -2.186568, "fcc"},
    {"Ag", 107.8682, 2.891814, 1.106232, 14.604100, 14.604144, 9.132010,
     4.870405, 0.277758, 0.419611, 0.339710, 0.750758,
     {-1.729364, -0.255882, 0.912050, -0.561432},
     {-1.75, 0.0, 0.744561, -1.150650}, 0.783924, -1.748423, "fcc"},
    {"Au", 196.96657, 2.885034, 1.529021, 19.991632, 19.991509, 9.516052,
     5.075228, 0.229762, 0.356666, 0.356570, 0.748798,
     {-2.937772, -0.500288, 1.601954, -0.835530},
     {-2.98, 0.0, 1.706587, -1.134778}, 1.021095, -2.978815, "fcc"},
    {"Ni", 58.6934, 2.488746, 2.007018, 27.562015, 27.930410, 8.383453,
     4.471175, 0.429046, 0.633531, 0.443599, 0.820658,
     {-2.693513, -0.076445, 0.241442, -2.375626},
     {-2.70, 0.0, 0.265390, -0.152856}, 0.469000, -2.699486, "fcc"},
    {"Al", 26.981539, 2.863924, 1.403115, 20.418205, 23.195740, 6.613165,
     3.527021, 0.314873, 0.365551, 0.379846, 0.759692,
     {-2.807602, -0.301435, 1.258562, -1.247604},
     {-2.83, 0.0, 0.622245, -2.488244}, 0.785902, -2.824528, "fcc"},
    {"Fe", 55.845, 2.481987, 1.885957, 20.041463, 20.041463, 9.818270,
     5.236411, 0.392811, 0.646243, 0.170306, 0.340613,
     {-2.534992, -0.059605, 0.193065, -2.282322},
     {-2.54, 0.0, 0.200269, -0.148770}, 0.391750, -2.539945, "bcc"},
    {"Mo", 95.95, 2.728100, 2.723710, 29.354065, 29.354065, 8.393531,
     4.476550, 0.708787, 1.120373, 0.137640, 0.275280,
     {-3.692913, -0.178812, 0.380450, -3.133650},
     {-3.71, 0.0, 0.875874, 0.776222}, 0.790879, -3.712093, "bcc"},
    {"Ta", 180.94788, 2.860082, 3.086341, 33.787168, 33.787168, 8.489528,
     4.527748, 0.611679, 1.032101, 0.176977, 0.353954,
     {-5.103845, -0.405524, 1.112997, -3.585325},
     {-5.14, 0.0, 1.640098, 0.221375}, 0.848843, -5.141526, "bcc"},
    {"W", 183.84, 2.740840, 3.487340, 37.234847, 37.234847, 8.900114,
     4.746728, 0.882435, 1.394592, 0.139209, 0.278417,
     {-4.946281, -0.148818, 0.365057, -4.432406},
     {-4.96, 0.0, 0.661935, 0.348147}, -0.582714, -4.961306, "bcc"},
};

/// Physics cutoff factors (rcut = factor * re): wide enough that the Zhou
/// radial functions have decayed to near zero, so shift-force truncation
/// perturbs cohesion negligibly. FCC: through the 4th shell boundary; BCC:
/// through the 5th shell.
double physics_cutoff_factor(const std::string& structure) {
  return structure == "bcc" ? 2.02 : 1.94;
}

/// Paper workload cutoff factors (paper Table VI, rcut / r_nn): properties
/// of the potentials the paper benchmarked (Adams-Cu, Zhou-W, Li-Ta). These
/// reproduce the Table I interaction counts (Cu 42, W ~59, Ta 14) that the
/// wafer-scale performance depends on. For Ta this is *shorter* than the
/// Zhou-Ta physics cutoff — the Li-Ta potential is short-ranged by design —
/// so benchmarks construct ZhouEam("Ta", paper_cutoff()) when reproducing
/// the paper's workload, accepting slightly softer Ta physics (see
/// DESIGN.md, substitutions).
double paper_cutoff_factor(const std::string& name,
                           const std::string& structure) {
  if (name == "Cu") return 1.94;
  if (name == "W") return 2.02;
  if (name == "Ta") return 1.39;
  return physics_cutoff_factor(structure);
}

}  // namespace

double ZhouParams::lattice_constant() const {
  if (structure == "fcc") return re * std::sqrt(2.0);
  if (structure == "bcc") return 2.0 * re / std::sqrt(3.0);
  WSMD_REQUIRE(false, "unknown structure '" << structure << "'");
  return 0.0;
}

double ZhouParams::default_cutoff() const {
  return physics_cutoff_factor(structure) * re;
}

double ZhouParams::paper_cutoff() const {
  return paper_cutoff_factor(name, structure) * re;
}

std::vector<std::string> zhou_available_elements() {
  std::vector<std::string> names;
  for (const auto& p : kZhouTable) names.push_back(p.name);
  return names;
}

ZhouParams zhou_parameters(const std::string& element) {
  for (const auto& p : kZhouTable) {
    if (p.name == element) return p;
  }
  // A bad element is user input: a plain message the deck parser prefixes
  // with the deck line.
  throw Error("no Zhou EAM parameters for element '" + element + "'");
}

ZhouEam::ZhouEam(const std::string& element)
    : ZhouEam({zhou_parameters(element)}, 0.0) {}

ZhouEam::ZhouEam(const std::string& element, double cutoff)
    : ZhouEam({zhou_parameters(element)}, cutoff) {}

ZhouEam::ZhouEam(std::vector<ZhouParams> params, double cutoff)
    : p_(std::move(params)) {
  WSMD_REQUIRE(!p_.empty(), "ZhouEam needs at least one parameter set");
  rc_ = cutoff;
  if (rc_ <= 0.0) {
    for (const auto& p : p_) rc_ = std::max(rc_, p.default_cutoff());
  }

  const int nt = num_types();
  rho_rc_.resize(nt);
  drho_rc_.resize(nt);
  for (int t = 0; t < nt; ++t) {
    rho_rc_[t] = raw_density(t, rc_);
    drho_rc_[t] = raw_density_deriv(t, rc_);
  }
  phi_rc_.resize(static_cast<std::size_t>(nt) * nt);
  dphi_rc_.resize(static_cast<std::size_t>(nt) * nt);
  for (int a = 0; a < nt; ++a) {
    for (int b = 0; b < nt; ++b) {
      phi_rc_[static_cast<std::size_t>(a) * nt + b] = raw_pair(a, b, rc_);
      dphi_rc_[static_cast<std::size_t>(a) * nt + b] = raw_pair_deriv(a, b, rc_);
    }
  }
}

int ZhouEam::num_types() const { return static_cast<int>(p_.size()); }

std::string ZhouEam::type_name(int type) const { return params(type).name; }

double ZhouEam::mass(int type) const { return params(type).mass; }

const ZhouParams& ZhouEam::params(int type) const {
  WSMD_REQUIRE(type >= 0 && type < num_types(), "type " << type << " out of range");
  return p_[static_cast<std::size_t>(type)];
}

namespace {

/// Zhou radial building block: amp * exp(-expo*(x-1)) / (1 + (x-off)^20)
/// with x = r/re, plus its derivative with respect to r.
struct RadialTerm {
  double value;
  double deriv;
};

RadialTerm zhou_radial(double r, double re, double amp, double expo,
                       double off) {
  const double x = r / re;
  const double e = amp * std::exp(-expo * (x - 1.0));
  const double t = x - off;
  double t19 = 1.0;
  for (int i = 0; i < 19; ++i) t19 *= t;  // t^19; exponent 20 is fixed by form
  const double t20 = t19 * t;
  const double denom = 1.0 + t20;
  const double value = e / denom;
  // d/dx [e/denom] = (-expo*e*denom - e*20 t^19) / denom^2
  const double dvalue_dx = (-expo * e) / denom - e * 20.0 * t19 / (denom * denom);
  return {value, dvalue_dx / re};
}

}  // namespace

double ZhouEam::raw_density(int type, double r) const {
  const auto& p = params(type);
  return zhou_radial(r, p.re, p.fe, p.beta, p.lambda).value;
}

double ZhouEam::raw_density_deriv(int type, double r) const {
  const auto& p = params(type);
  return zhou_radial(r, p.re, p.fe, p.beta, p.lambda).deriv;
}

double ZhouEam::raw_pair_same(int type, double r) const {
  const auto& p = params(type);
  return zhou_radial(r, p.re, p.A, p.alpha, p.kappa).value -
         zhou_radial(r, p.re, p.B, p.beta, p.lambda).value;
}

double ZhouEam::raw_pair_same_deriv(int type, double r) const {
  const auto& p = params(type);
  return zhou_radial(r, p.re, p.A, p.alpha, p.kappa).deriv -
         zhou_radial(r, p.re, p.B, p.beta, p.lambda).deriv;
}

double ZhouEam::raw_pair(int ti, int tj, double r) const {
  if (ti == tj) return raw_pair_same(ti, r);
  // Johnson alloy mixing (density-weighted average of the elemental pairs).
  const double fa = raw_density(ti, r);
  const double fb = raw_density(tj, r);
  const double paa = raw_pair_same(ti, r);
  const double pbb = raw_pair_same(tj, r);
  WSMD_REQUIRE(fa > 0.0 && fb > 0.0,
               "alloy mixing undefined where elemental densities vanish");
  return 0.5 * (fb / fa * paa + fa / fb * pbb);
}

double ZhouEam::raw_pair_deriv(int ti, int tj, double r) const {
  if (ti == tj) return raw_pair_same_deriv(ti, r);
  const double fa = raw_density(ti, r);
  const double fb = raw_density(tj, r);
  const double dfa = raw_density_deriv(ti, r);
  const double dfb = raw_density_deriv(tj, r);
  const double paa = raw_pair_same(ti, r);
  const double pbb = raw_pair_same(tj, r);
  const double dpaa = raw_pair_same_deriv(ti, r);
  const double dpbb = raw_pair_same_deriv(tj, r);
  WSMD_REQUIRE(fa > 0.0 && fb > 0.0,
               "alloy mixing undefined where elemental densities vanish");
  const double term_a =
      (dfb * fa - fb * dfa) / (fa * fa) * paa + fb / fa * dpaa;
  const double term_b =
      (dfa * fb - fa * dfb) / (fb * fb) * pbb + fa / fb * dpbb;
  return 0.5 * (term_a + term_b);
}

double ZhouEam::density(int type, double r) const {
  if (r >= rc_) return 0.0;
  return raw_density(type, r) - rho_rc_[static_cast<std::size_t>(type)] -
         drho_rc_[static_cast<std::size_t>(type)] * (r - rc_);
}

double ZhouEam::density_deriv(int type, double r) const {
  if (r >= rc_) return 0.0;
  return raw_density_deriv(type, r) - drho_rc_[static_cast<std::size_t>(type)];
}

double ZhouEam::pair(int ti, int tj, double r) const {
  if (r >= rc_) return 0.0;
  const std::size_t idx =
      static_cast<std::size_t>(ti) * static_cast<std::size_t>(num_types()) +
      static_cast<std::size_t>(tj);
  return raw_pair(ti, tj, r) - phi_rc_[idx] - dphi_rc_[idx] * (r - rc_);
}

double ZhouEam::pair_deriv(int ti, int tj, double r) const {
  if (r >= rc_) return 0.0;
  const std::size_t idx =
      static_cast<std::size_t>(ti) * static_cast<std::size_t>(num_types()) +
      static_cast<std::size_t>(tj);
  return raw_pair_deriv(ti, tj, r) - dphi_rc_[idx];
}

double ZhouEam::embed(int type, double rho) const {
  const auto& p = params(type);
  const double rho_n = 0.85 * p.rhoe;
  const double rho_0 = 1.15 * p.rhoe;
  if (rho < rho_n) {
    const double t = rho / rho_n - 1.0;
    return ((p.Fn[3] * t + p.Fn[2]) * t + p.Fn[1]) * t + p.Fn[0];
  }
  if (rho < rho_0) {
    const double t = rho / p.rhoe - 1.0;
    return ((p.F[3] * t + p.F[2]) * t + p.F[1]) * t + p.F[0];
  }
  const double u = rho / p.rhos;
  const double lnu = std::log(u);
  return p.Fe * (1.0 - p.eta * lnu) * std::pow(u, p.eta);
}

double ZhouEam::embed_deriv(int type, double rho) const {
  const auto& p = params(type);
  const double rho_n = 0.85 * p.rhoe;
  const double rho_0 = 1.15 * p.rhoe;
  if (rho < rho_n) {
    const double t = rho / rho_n - 1.0;
    return ((3.0 * p.Fn[3] * t + 2.0 * p.Fn[2]) * t + p.Fn[1]) / rho_n;
  }
  if (rho < rho_0) {
    const double t = rho / p.rhoe - 1.0;
    return ((3.0 * p.F[3] * t + 2.0 * p.F[2]) * t + p.F[1]) / p.rhoe;
  }
  const double u = rho / p.rhos;
  const double lnu = std::log(u);
  // d/drho [ Fe (1 - eta ln u) u^eta ] = -Fe eta^2 u^(eta-1) ln(u) / rhos.
  return -p.Fe * p.eta * p.eta * std::pow(u, p.eta - 1.0) * lnu / p.rhos;
}

}  // namespace wsmd::eam
