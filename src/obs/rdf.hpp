#pragma once

/// \file rdf.hpp
/// Radial distribution function g(r), cell-list binned.
///
/// Each sample accumulates a pair-distance histogram in O(N) via the shared
/// md::CellList (never the O(N^2) all-pairs loop): its half-span pair walk
/// computes each unordered pair's distance once, and the histogram equals
/// an all-pairs count over Box::minimum_image bin for bin. The sample
/// builds its own cell list at the RDF range: the CSP probe's radius is
/// two thirds of it, and RDF-sized cells would give CSP ~3.4x the
/// candidates for a build that costs a few hundredths of a millisecond.
/// The histogram is normalized at finish() against the ideal-gas pair density
///
///     g(r_k) = 2 V H_k / (S N (N-1) Vshell_k)
///
/// with H_k the accumulated unordered-pair count, S the number of samples,
/// and V the nominal box volume. For open-boundary slabs V includes the box
/// padding, so absolute g values carry a constant scale factor; peak
/// *positions* — the lattice fingerprint the tests pin (FCC a/sqrt(2), BCC
/// a*sqrt(3)/2) — are unaffected.

#include <string>
#include <vector>

#include "io/series.hpp"
#include "obs/probe.hpp"

namespace wsmd::obs {

class RdfProbe final : public Probe {
 public:
  struct Config {
    double rcut = 0.0;   ///< histogram range (A), > 0
    int bins = 200;      ///< histogram bins, >= 2
    std::string path;    ///< output table path
    io::ThermoFormat format = io::ThermoFormat::kCsv;
  };

  explicit RdfProbe(const Config& config);

  const char* kind() const override { return "rdf"; }
  const std::string& output_path() const override { return config_.path; }
  void sample(const Frame& frame) override;
  void finish() override;
  bool output_ok() const override { return writer_.ok(); }
  void summarize(JsonObject& meta) const override;
  void save_state(io::BinaryWriter& w) const override;
  void restore_state(io::BinaryReader& r) override;

  /// Accumulated histogram (unordered pair counts), for direct API users.
  const std::vector<double>& histogram() const { return histogram_; }
  double bin_width() const { return config_.rcut / config_.bins; }

 private:
  Config config_;
  io::SeriesWriter writer_;  ///< opened at construction: bad paths fail
                             ///< before the run starts, not after it
  std::vector<double> histogram_;
  std::size_t atoms_ = 0;
  double volume_ = 0.0;
  // Finish-time results.
  double first_peak_r_ = 0.0;
  double first_peak_g_ = 0.0;
  std::size_t rows_written_ = 0;
};

}  // namespace wsmd::obs
