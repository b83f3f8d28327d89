#pragma once

/// \file thermo_log.hpp
/// Streaming thermodynamic log: one sample per (selected) timestep, written
/// as CSV or JSON-lines.
///
/// This is the quantity the golden-run regression harness pins down: a
/// scenario replayed on any backend must reproduce the recorded thermo
/// stream within tolerance. The writer validates every sample (NaN/inf are
/// rejected — a non-finite energy is always a bug upstream, and letting it
/// reach a golden file would poison every later comparison), and the CSV
/// reader round-trips what the writer emits.

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "util/thermo.hpp"

namespace wsmd::io {

/// Output encoding for ThermoLogger.
enum class ThermoFormat {
  kCsv,       ///< header + comma-separated rows
  kJsonLines  ///< one compact JSON object per line
};

ThermoFormat thermo_format_from_name(const std::string& name);

/// Streaming writer. The CSV header is written on construction; every
/// sample is validated (finite values, monotonically non-decreasing step).
/// Rows are buffered: call finish() at the end of a run to flush them and
/// learn whether they reached the file (the destructor flushes too, but
/// cannot report a failure).
class ThermoLogger {
 public:
  /// Write to an external stream (not owned).
  ThermoLogger(std::ostream& os, ThermoFormat format);
  /// Open `path` for writing (truncates).
  ThermoLogger(const std::string& path, ThermoFormat format);
  ~ThermoLogger();

  ThermoLogger(const ThermoLogger&) = delete;
  ThermoLogger& operator=(const ThermoLogger&) = delete;

  void write(const Thermo& sample);

  /// Flush every buffered row; throws WriteError naming the file when the
  /// stream failed (a full disk).
  void finish();

  std::size_t samples_written() const { return written_; }
  ThermoFormat format() const { return format_; }

 private:
  std::unique_ptr<std::ostream> owned_;
  std::ostream* os_ = nullptr;
  std::string name_;  ///< the file path, or "thermo stream" when not owned
  ThermoFormat format_;
  std::size_t written_ = 0;
  long last_step_ = 0;
};

/// Parse a CSV thermo log (as emitted by ThermoLogger); validates the
/// header and that every value is finite.
std::vector<Thermo> read_thermo_csv(std::istream& is);
std::vector<Thermo> read_thermo_csv_file(const std::string& path);

}  // namespace wsmd::io
