#pragma once

/// \file tabulated.hpp
/// Spline-tabulated EAM potential.
///
/// The paper's per-core kernels evaluate rho, F, and phi from local
/// interpolation tables ("It also stores local copies of interpolation
/// tables for rho_i, F_i, and phi_ij", Sec. III-A). TabulatedEam is that
/// representation: uniform-grid tables for every type / type-pair,
/// constructed either from an analytic potential or from a DYNAMO `setfl`
/// file. It implements the same EamPotential interface so engines cannot
/// tell tabulated and analytic potentials apart.

#include <string>
#include <vector>

#include "eam/potential.hpp"
#include "util/spline.hpp"

namespace wsmd::eam {

/// EAM potential backed by cubic-spline tables on uniform grids.
class TabulatedEam final : public EamPotential {
 public:
  /// Tabulate an arbitrary potential with `nr` radial and `nrho` density
  /// samples. `rho_max` bounds the embedding table; when zero it is sized
  /// from the densest plausible environment (~2x the bulk density implied
  /// by the radial table).
  static TabulatedEam from_potential(const EamPotential& src, int nr = 2000,
                                     int nrho = 2000, double rho_max = 0.0);

  int num_types() const override;
  std::string type_name(int type) const override;
  double mass(int type) const override;
  double cutoff() const override { return rc_; }

  double density(int type, double r) const override;
  double density_deriv(int type, double r) const override;
  double pair(int ti, int tj, double r) const override;
  double pair_deriv(int ti, int tj, double r) const override;
  double embed(int type, double rho) const override;
  double embed_deriv(int type, double rho) const override;

  /// Total bytes of FP32 table data a single worker core must hold for one
  /// atom of each listed type (paper Sec. III-A worker state).
  std::size_t table_bytes_fp32() const;

  /// Construct directly from tables (used by the setfl reader).
  TabulatedEam(std::vector<std::string> names, std::vector<double> masses,
               double rc, std::vector<CubicSplineTable> rho_tables,
               std::vector<CubicSplineTable> embed_tables,
               std::vector<CubicSplineTable> pair_tables);

 private:
  std::size_t pair_index(int ti, int tj) const;

  std::vector<std::string> names_;
  std::vector<double> masses_;
  double rc_ = 0.0;
  std::vector<CubicSplineTable> rho_;    // per type
  std::vector<CubicSplineTable> embed_;  // per type
  std::vector<CubicSplineTable> pair_;   // upper-triangular pair matrix
};

}  // namespace wsmd::eam
