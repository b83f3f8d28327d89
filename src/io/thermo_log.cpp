#include "io/thermo_log.hpp"

#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>

#include "util/bench_json.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace wsmd::io {

namespace {

constexpr const char* kCsvHeader =
    "step,potential_eV,kinetic_eV,total_eV,temperature_K";

void require_finite(const Thermo& s) {
  WSMD_REQUIRE(std::isfinite(s.potential_energy) &&
                   std::isfinite(s.kinetic_energy) &&
                   std::isfinite(s.total_energy) &&
                   std::isfinite(s.temperature),
               "non-finite thermo sample at step " << s.step
                   << " (pe=" << s.potential_energy
                   << " ke=" << s.kinetic_energy << " T=" << s.temperature
                   << ")");
}

}  // namespace

ThermoFormat thermo_format_from_name(const std::string& name) {
  if (name == "csv") return ThermoFormat::kCsv;
  if (name == "jsonl" || name == "json") return ThermoFormat::kJsonLines;
  WSMD_REQUIRE(false, "unknown thermo format '" << name
                                                << "' (want csv|jsonl)");
  return ThermoFormat::kCsv;  // unreachable
}

ThermoLogger::ThermoLogger(std::ostream& os, ThermoFormat format)
    : os_(&os), name_("thermo stream"), format_(format) {
  if (format_ == ThermoFormat::kCsv) *os_ << kCsvHeader << '\n';
}

ThermoLogger::ThermoLogger(const std::string& path, ThermoFormat format)
    : owned_(std::make_unique<std::ofstream>(path)),
      name_(path),
      format_(format) {
  os_ = owned_.get();
  WSMD_REQUIRE(os_->good(), "cannot open '" << path << "' for writing");
  if (format_ == ThermoFormat::kCsv) *os_ << kCsvHeader << '\n';
}

ThermoLogger::~ThermoLogger() = default;

void ThermoLogger::write(const Thermo& s) {
  require_finite(s);
  WSMD_REQUIRE(written_ == 0 || s.step >= last_step_,
               "thermo step went backwards: " << last_step_ << " -> "
                                              << s.step);
  if (format_ == ThermoFormat::kCsv) {
    std::ostringstream row;
    row.precision(17);
    row << s.step << ',' << s.potential_energy << ',' << s.kinetic_energy
        << ',' << s.total_energy << ',' << s.temperature;
    *os_ << row.str() << '\n';
  } else {
    JsonObject obj;
    obj.set("step", static_cast<long long>(s.step))
        .set("potential_eV", s.potential_energy)
        .set("kinetic_eV", s.kinetic_energy)
        .set("total_eV", s.total_energy)
        .set("temperature_K", s.temperature);
    *os_ << obj.encode() << '\n';
  }
  if (!os_->good()) {
    throw WriteError(name_, wsmd::format("thermo row at step %ld", s.step));
  }
  last_step_ = s.step;
  ++written_;
}

void ThermoLogger::finish() {
  os_->flush();
  if (!os_->good()) {
    throw WriteError(name_,
                     wsmd::format("flushing %zu thermo row(s)", written_));
  }
}

std::vector<Thermo> read_thermo_csv(std::istream& is) {
  std::string line;
  WSMD_REQUIRE(static_cast<bool>(std::getline(is, line)),
               "empty thermo CSV (no header)");
  WSMD_REQUIRE(trim(line) == kCsvHeader,
               "unexpected thermo CSV header '" << line << "'");
  std::vector<Thermo> out;
  while (std::getline(is, line)) {
    if (trim(line).empty()) continue;
    const auto fields = split(line, ',');
    WSMD_REQUIRE(fields.size() == 5, "thermo CSV row with " << fields.size()
                                         << " fields: '" << line << "'");
    Thermo s;
    // Full-consumption parsing: trailing garbage in a field (e.g. a bad
    // merge) must fail loudly, not silently truncate a golden value.
    const bool clean = parse_long_strict(fields[0], s.step) &&
                       parse_double_strict(fields[1], s.potential_energy) &&
                       parse_double_strict(fields[2], s.kinetic_energy) &&
                       parse_double_strict(fields[3], s.total_energy) &&
                       parse_double_strict(fields[4], s.temperature);
    WSMD_REQUIRE(clean, "malformed thermo CSV row '" << line << "'");
    require_finite(s);
    out.push_back(s);
  }
  return out;
}

std::vector<Thermo> read_thermo_csv_file(const std::string& path) {
  std::ifstream is(path);
  WSMD_REQUIRE(is.good(), "cannot open thermo CSV '" << path << "'");
  return read_thermo_csv(is);
}

}  // namespace wsmd::io
