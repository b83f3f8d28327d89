#include "scenario/scenario.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <sstream>
#include <utility>

#include "dist/distributed_engine.hpp"
#include "eam/lennard_jones.hpp"
#include "eam/zhou.hpp"
#include "lattice/grain_boundary.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace wsmd::scenario {

namespace {

[[noreturn]] void bad_entry(const Deck& deck, const DeckEntry& e,
                            const std::string& why) {
  // The message leads with the deck location: the user's input is wrong,
  // not a C++ precondition. line == 0 marks an appended CLI override —
  // pointing at the deck file would send the user grepping for a key that
  // is not in it.
  std::ostringstream os;
  if (e.line > 0) {
    os << deck.source << ':' << e.line;
  } else {
    os << "<cli override>";
  }
  os << ": key '" << e.key << "' = '" << e.value << "': " << why;
  throw Error(os.str());
}

double parse_double_token(const Deck& deck, const DeckEntry& e,
                          const std::string& token) {
  double v = 0.0;
  if (!parse_double_strict(token, v)) bad_entry(deck, e, "not a number");
  return v;
}

long parse_long_token(const Deck& deck, const DeckEntry& e,
                      const std::string& token) {
  long v = 0;
  if (!parse_long_strict(token, v)) bad_entry(deck, e, "not an integer");
  return v;
}

/// Split the value and require exactly `n` whitespace-separated tokens.
std::vector<std::string> tokens_n(const Deck& deck, const DeckEntry& e,
                                  std::size_t n) {
  auto t = split_whitespace(e.value);
  if (t.size() != n) {
    bad_entry(deck, e,
              "expected " + std::to_string(n) + " value(s), got " +
                  std::to_string(t.size()));
  }
  return t;
}

double one_double(const Deck& deck, const DeckEntry& e) {
  return parse_double_token(deck, e, tokens_n(deck, e, 1)[0]);
}

long one_long(const Deck& deck, const DeckEntry& e) {
  return parse_long_token(deck, e, tokens_n(deck, e, 1)[0]);
}

long nonneg_steps(const Deck& deck, const DeckEntry& e, long v) {
  if (v < 0) bad_entry(deck, e, "step count must be >= 0");
  return v;
}

double nonneg_temp(const Deck& deck, const DeckEntry& e, double t) {
  if (t < 0.0) bad_entry(deck, e, "temperature must be >= 0 K");
  return t;
}

}  // namespace

const char* Stage::name() const {
  switch (kind) {
    case Kind::kThermalize: return "thermalize";
    case Kind::kEquilibrate: return "equilibrate";
    case Kind::kRamp: return "ramp";
    case Kind::kQuench: return "quench";
    case Kind::kRun: return "run";
  }
  return "?";
}

BackendSpec parse_backend(const std::string& spec) {
  BackendSpec bs;
  if (spec == "reference" || starts_with(spec, "reference:")) {
    bs.backend = engine::Backend::kReference;
    if (starts_with(spec, "reference:")) {
      const std::string n = spec.substr(10);
      char* end = nullptr;
      const long threads = std::strtol(n.c_str(), &end, 10);
      WSMD_REQUIRE(end && *end == '\0' && threads > 0,
                   "bad reference thread count '" << n << "'");
      bs.threads = static_cast<int>(threads);
    }
    return bs;
  }
  // The one-shard wafer engine, kept as a name so old decks and
  // checkpoints still resume: exactly sharded:1.
  if (spec == "wafer") return parse_backend("sharded:1");
  if (spec == "sharded" || starts_with(spec, "sharded:")) {
    bs.backend = engine::Backend::kShardedWafer;
    bs.threads = 0;  // auto
    if (starts_with(spec, "sharded:")) {
      const std::string n = spec.substr(8);
      char* end = nullptr;
      const long threads = std::strtol(n.c_str(), &end, 10);
      WSMD_REQUIRE(end && *end == '\0' && threads > 0,
                   "bad sharded thread count '" << n << "'");
      bs.threads = static_cast<int>(threads);
    }
    return bs;
  }
  if (spec == "ranks" || starts_with(spec, "ranks:")) {
    // ranks:M forks M rank processes; ranks:MxN additionally runs N shard
    // threads inside each rank. Plain "ranks" means ranks:2.
    bs.backend = engine::Backend::kRanks;
    bs.threads = 1;
    if (starts_with(spec, "ranks:")) {
      const std::string n = spec.substr(6);
      char* end = nullptr;
      const long ranks = std::strtol(n.c_str(), &end, 10);
      WSMD_REQUIRE(end != nullptr && end != n.c_str() && ranks >= 1 &&
                       ranks <= dist::kMaxRanks,
                   "bad rank count '" << n << "' (want 1.."
                                      << dist::kMaxRanks
                                      << ", e.g. ranks:4 or ranks:4x2)");
      bs.ranks = static_cast<int>(ranks);
      if (*end == 'x') {
        const char* t = end + 1;
        const long threads = std::strtol(t, &end, 10);
        WSMD_REQUIRE(end != nullptr && end != t && *end == '\0' &&
                         threads > 0,
                     "bad per-rank thread count '" << n
                                                   << "' (want ranks:MxN)");
        bs.threads = static_cast<int>(threads);
      } else {
        WSMD_REQUIRE(*end == '\0', "bad rank spec '"
                                       << n
                                       << "' (want ranks:M or ranks:MxN)");
      }
    }
    return bs;
  }
  WSMD_REQUIRE(false,
               "unknown backend '"
                   << spec
                   << "' (want reference|reference:N|wafer|sharded|"
                      "sharded:N|ranks:M|ranks:MxN)");
  return bs;  // unreachable
}

long Scenario::total_steps() const {
  long total = 0;
  for (const auto& st : schedule) total += st.steps;
  return total;
}

bool is_schedule_key(const std::string& key) {
  return key == "thermalize" || key == "equilibrate" || key == "ramp" ||
         key == "quench" || key == "run" || key == "nve";
}

Scenario scenario_from_deck(const Deck& deck) {
  Scenario sc;
  // observe.* entries are remembered so cross-key validation below can
  // point at the offending deck line, not just the file.
  std::map<std::string, const DeckEntry*> observe_seen;
  // health.* entries likewise, so band-without-detector errors blame the
  // right line; snapshot/metrics interplay needs the same treatment.
  std::map<std::string, const DeckEntry*> health_seen;
  // dist.* entries: they only mean anything on a ranks: backend, and the
  // kill drill keys come in pairs — blame the offending line.
  std::map<std::string, const DeckEntry*> dist_seen;
  const DeckEntry* snapshot_entry = nullptr;
  bool metrics_off = false;  ///< telemetry.metrics explicitly disabled
  const DeckEntry* checkpoint_path_entry = nullptr;
  // Schedule keys accumulate stages in deck order, so plain last-wins
  // cannot apply to them. Instead, whole-schedule replacement: if any
  // schedule key arrives as an override (line == 0, appended by the CLI),
  // the overrides define the entire schedule and the file's stages are
  // dropped — `wsmd deck run=50` means "run 50 NVE steps", not "append
  // another 50 to whatever the deck did".
  const bool overrides_define_schedule = [&deck] {
    for (const auto& e : deck.entries) {
      if (e.line == 0 && is_schedule_key(e.key)) return true;
    }
    return false;
  }();
  for (const auto& e : deck.entries) {
    if (overrides_define_schedule && e.line > 0 && is_schedule_key(e.key)) {
      continue;
    }
    if (e.key == "name") {
      sc.name = e.value;
    } else if (e.key == "element") {
      sc.element = e.value;
    } else if (e.key == "pair_style") {
      if (e.value != "eam" && e.value != "lj") {
        bad_entry(deck, e, "want eam|lj");
      }
      sc.pair_style = e.value;
    } else if (e.key == "potential") {
      // Legacy key, still accepted because every checkpoint written before
      // its removal embeds it; both engines evaluate the profile tables
      // only, so the one value left selects nothing.
      if (e.value == "analytic") {
        bad_entry(deck, e,
                  "the analytic evaluation path was removed; engines "
                  "evaluate the profile tables only (drop the key or set "
                  "tabulated)");
      }
      if (e.value != "tabulated") bad_entry(deck, e, "want tabulated");
    } else if (e.key == "geometry") {
      if (e.value != "slab" && e.value != "bulk" &&
          e.value != "grain_boundary") {
        bad_entry(deck, e, "want slab|bulk|grain_boundary");
      }
      sc.geometry = e.value;
    } else if (e.key == "scale") {
      const long v = one_long(deck, e);
      if (v < 1) bad_entry(deck, e, "scale must be >= 1");
      sc.scale = static_cast<int>(v);
    } else if (e.key == "replicate") {
      const auto t = tokens_n(deck, e, 3);
      for (std::size_t a = 0; a < 3; ++a) {
        const long v = parse_long_token(deck, e, t[a]);
        if (v < 1) bad_entry(deck, e, "replication counts must be >= 1");
        sc.replicate[a] = static_cast<int>(v);
      }
    } else if (e.key == "vacancy_fraction") {
      const double v = one_double(deck, e);
      if (v < 0.0 || v >= 1.0) bad_entry(deck, e, "want [0, 1)");
      sc.vacancy_fraction = v;
    } else if (e.key == "tilt_angle_deg") {
      sc.tilt_angle_deg = one_double(deck, e);
    } else if (e.key == "gb_atoms") {
      const long v = one_long(deck, e);
      if (v < 16) bad_entry(deck, e, "gb_atoms must be >= 16");
      sc.gb_target_atoms = static_cast<std::size_t>(v);
    } else if (e.key == "backend") {
      parse_backend(e.value);  // validate eagerly
      sc.backend = e.value;
    } else if (e.key == "dt") {
      const double v = one_double(deck, e);
      if (v <= 0.0) bad_entry(deck, e, "dt must be > 0");
      sc.dt = v;
    } else if (e.key == "swap_interval") {
      const long v = one_long(deck, e);
      if (v < 0) bad_entry(deck, e, "swap_interval must be >= 0");
      sc.swap_interval = static_cast<int>(v);
    } else if (e.key == "rescale_interval") {
      const long v = one_long(deck, e);
      if (v < 1) bad_entry(deck, e, "rescale_interval must be >= 1");
      sc.rescale_interval = static_cast<int>(v);
    } else if (e.key == "seed") {
      const long v = one_long(deck, e);
      if (v < 0) bad_entry(deck, e, "seed must be >= 0");
      sc.seed = static_cast<std::uint64_t>(v);
    } else if (e.key == "thermalize") {
      Stage st;
      st.kind = Stage::Kind::kThermalize;
      st.t0 = nonneg_temp(deck, e, one_double(deck, e));
      sc.schedule.push_back(st);
    } else if (e.key == "equilibrate" || e.key == "quench") {
      const auto t = tokens_n(deck, e, 2);
      Stage st;
      st.kind = e.key == "equilibrate" ? Stage::Kind::kEquilibrate
                                       : Stage::Kind::kQuench;
      st.t0 = st.t1 = nonneg_temp(deck, e, parse_double_token(deck, e, t[0]));
      st.steps = nonneg_steps(deck, e, parse_long_token(deck, e, t[1]));
      sc.schedule.push_back(st);
    } else if (e.key == "ramp") {
      const auto t = tokens_n(deck, e, 3);
      Stage st;
      st.kind = Stage::Kind::kRamp;
      st.t0 = nonneg_temp(deck, e, parse_double_token(deck, e, t[0]));
      st.t1 = nonneg_temp(deck, e, parse_double_token(deck, e, t[1]));
      st.steps = nonneg_steps(deck, e, parse_long_token(deck, e, t[2]));
      sc.schedule.push_back(st);
    } else if (e.key == "run" || e.key == "nve") {
      Stage st;
      st.kind = Stage::Kind::kRun;
      st.steps = nonneg_steps(deck, e, one_long(deck, e));
      sc.schedule.push_back(st);
    } else if (e.key == "xyz") {
      sc.xyz_path = e.value;
    } else if (e.key == "xyz_every") {
      const long v = one_long(deck, e);
      if (v < 1) bad_entry(deck, e, "xyz_every must be >= 1");
      sc.xyz_every = v;
    } else if (e.key == "thermo") {
      sc.thermo_path = e.value;
    } else if (e.key == "thermo_every") {
      const long v = one_long(deck, e);
      if (v < 1) bad_entry(deck, e, "thermo_every must be >= 1");
      sc.thermo_every = v;
    } else if (e.key == "thermo_format") {
      if (e.value != "csv" && e.value != "jsonl") {
        bad_entry(deck, e, "want csv|jsonl");
      }
      sc.thermo_format = e.value;
    } else if (e.key == "summary") {
      sc.summary_path = e.value;
    } else if (e.key == "observe.probes") {
      const auto t = split_whitespace(e.value);
      if (t.empty()) {
        bad_entry(deck, e, "expected at least one of rdf|msd|vacf|defects");
      }
      std::vector<std::string> probes;
      for (const auto& kind : t) {
        if (!obs::is_probe_kind(kind)) {
          bad_entry(deck, e,
                    "unknown probe '" + kind + "' (want rdf|msd|vacf|defects)");
        }
        if (std::find(probes.begin(), probes.end(), kind) != probes.end()) {
          bad_entry(deck, e, "duplicate probe '" + kind + "'");
        }
        probes.push_back(kind);
      }
      sc.observe.probes = std::move(probes);
      observe_seen[e.key] = &e;
    } else if (e.key == "observe.every" || e.key == "observe.rdf_every" ||
               e.key == "observe.msd_every" ||
               e.key == "observe.vacf_every" ||
               e.key == "observe.defects_every") {
      const long v = one_long(deck, e);
      if (v < 1) bad_entry(deck, e, "sampling cadence must be >= 1");
      if (e.key == "observe.every") sc.observe.every = v;
      else if (e.key == "observe.rdf_every") sc.observe.rdf_every = v;
      else if (e.key == "observe.msd_every") sc.observe.msd_every = v;
      else if (e.key == "observe.vacf_every") sc.observe.vacf_every = v;
      else sc.observe.defects_every = v;
      observe_seen[e.key] = &e;
    } else if (e.key == "observe.format") {
      if (e.value != "csv" && e.value != "jsonl") {
        bad_entry(deck, e, "want csv|jsonl");
      }
      sc.observe.format = e.value;
      observe_seen[e.key] = &e;
    } else if (e.key == "observe.prefix") {
      if (e.value.empty()) bad_entry(deck, e, "prefix must not be empty");
      sc.observe.prefix = e.value;
      observe_seen[e.key] = &e;
    } else if (e.key == "observe.rdf_rcut") {
      const double v = one_double(deck, e);
      if (v <= 0.0) bad_entry(deck, e, "rdf rcut must be > 0 A");
      sc.observe.rdf_rcut = v;
      observe_seen[e.key] = &e;
    } else if (e.key == "observe.rdf_bins") {
      const long v = one_long(deck, e);
      if (v < 2 || v > 100000) bad_entry(deck, e, "want 2..100000 bins");
      sc.observe.rdf_bins = static_cast<int>(v);
      observe_seen[e.key] = &e;
    } else if (e.key == "observe.csp_threshold") {
      const double v = one_double(deck, e);
      if (v <= 0.0) bad_entry(deck, e, "csp threshold must be > 0 A^2");
      sc.observe.csp_threshold = v;
      observe_seen[e.key] = &e;
    } else if (e.key == "observe.gb_axis") {
      if (e.value != "x" && e.value != "y" && e.value != "z") {
        bad_entry(deck, e, "want x|y|z");
      }
      sc.observe.gb_axis = e.value == "x" ? 0 : (e.value == "y" ? 1 : 2);
      observe_seen[e.key] = &e;
    } else if (e.key == "checkpoint.every") {
      const long v = one_long(deck, e);
      if (v < 0) bad_entry(deck, e, "checkpoint cadence must be >= 0 (0 = off)");
      sc.checkpoint_every = v;
    } else if (e.key == "checkpoint.path") {
      if (e.value.empty()) {
        bad_entry(deck, e, "checkpoint path must not be empty");
      }
      checkpoint_path_entry = &e;
      sc.checkpoint_path = e.value;
    } else if (e.key == "telemetry.trace" || e.key == "telemetry.metrics") {
      // `auto` resolves to a name-derived default after the loop (the name
      // key may appear later in the deck); `off` is the explicit disable
      // for resume-time overrides.
      if (e.value.empty()) bad_entry(deck, e, "want PATH|auto|off");
      std::string& path = e.key == "telemetry.trace"
                              ? sc.telemetry_trace_path
                              : sc.telemetry_metrics_path;
      path = e.value == "off" ? "" : e.value;
      if (e.key == "telemetry.metrics") metrics_off = e.value == "off";
    } else if (e.key == "telemetry.snapshot") {
      if (e.value == "off") {
        sc.telemetry_snapshot_s = 0.0;
        snapshot_entry = nullptr;
      } else {
        const double v = one_double(deck, e);
        if (v <= 0.0) {
          bad_entry(deck, e, "snapshot cadence must be > 0 seconds (or off)");
        }
        sc.telemetry_snapshot_s = v;
        snapshot_entry = &e;
      }
    } else if (e.key == "dist.timeout") {
      const double v = one_double(deck, e);
      if (v <= 0.0) bad_entry(deck, e, "timeout must be > 0 seconds");
      sc.dist_timeout_s = v;
      dist_seen[e.key] = &e;
    } else if (e.key == "dist.kill_rank") {
      const long v = one_long(deck, e);
      if (v < 0) bad_entry(deck, e, "kill rank must be >= 0");
      sc.dist_kill_rank = static_cast<int>(v);
      dist_seen[e.key] = &e;
    } else if (e.key == "dist.kill_step") {
      const long v = one_long(deck, e);
      if (v < 1) bad_entry(deck, e, "kill step must be >= 1 (1-based)");
      sc.dist_kill_step = v;
      dist_seen[e.key] = &e;
    } else if (e.key == "dist.transport") {
      // Legacy key, still accepted because older decks and checkpoints
      // embed it; it selects nothing (halos always ride the shm rings).
      if (e.value != "shm" && e.value != "socket") {
        bad_entry(deck, e, "want shm|socket");
      }
      dist_seen[e.key] = &e;
    } else if (e.key == "health.nan" || e.key == "health.energy_drift" ||
               e.key == "health.temperature" || e.key == "health.stall") {
      telemetry::HealthAction action = telemetry::HealthAction::kOff;
      if (!telemetry::parse_health_action(e.value, &action)) {
        bad_entry(deck, e, "want off|warn|abort");
      }
      if (e.key == "health.nan") sc.health.nan = action;
      else if (e.key == "health.energy_drift") sc.health.energy_drift = action;
      else if (e.key == "health.temperature") sc.health.temperature = action;
      else sc.health.stall = action;
    } else if (e.key == "health.energy_band") {
      const double v = one_double(deck, e);
      if (v <= 0.0) bad_entry(deck, e, "energy band must be > 0 (relative)");
      sc.health.energy_band = v;
      health_seen[e.key] = &e;
    } else if (e.key == "health.temperature_band") {
      const double v = one_double(deck, e);
      if (v <= 0.0) bad_entry(deck, e, "temperature band must be > 0 K");
      sc.health.temperature_band_K = v;
      health_seen[e.key] = &e;
    } else if (e.key == "health.stall_timeout") {
      const double v = one_double(deck, e);
      if (v <= 0.0) bad_entry(deck, e, "stall timeout must be > 0 seconds");
      sc.health.stall_timeout_s = v;
      health_seen[e.key] = &e;
    } else if (e.key == "health.thermo_tail") {
      const long v = one_long(deck, e);
      if (v < 1 || v > 100000) bad_entry(deck, e, "want 1..100000 rows");
      sc.health.thermo_tail = v;
    } else if (e.key == "health.bundle") {
      if (e.value.empty()) bad_entry(deck, e, "bundle path must not be empty");
      sc.health.bundle_dir = e.value;
    } else if (e.key == "health.inject_nan") {
      const long v = one_long(deck, e);
      if (v < 0) bad_entry(deck, e, "inject step must be >= 0 (0 = off)");
      sc.health.inject_nan_step = v;
      health_seen[e.key] = &e;
    } else {
      bad_entry(deck, e, "unknown key");
    }
  }
  // Fail on an unknown element now, not steps into a run; the lookup table
  // depends on the pair style.
  if (sc.pair_style == "lj") {
    eam::lj_parameters(sc.element);
    // The bicrystal generator and the paper slabs are Zhou-EAM metal
    // geometries; LJ scenarios size their crystal explicitly.
    WSMD_REQUIRE(sc.geometry != "grain_boundary",
                 deck.source << ": pair_style=lj does not support "
                                "geometry=grain_boundary (the bicrystal "
                                "builder is EAM-metal only)");
    WSMD_REQUIRE(sc.replicate[0] > 0,
                 deck.source << ": pair_style=lj needs an explicit "
                                "'replicate' (the paper slabs are EAM "
                                "workloads)");
  } else {
    eam::zhou_parameters(sc.element);
  }

  // Geometry/key cross-validation: a key the chosen geometry ignores must
  // reject, not silently simulate something else. Vacancies on a fused
  // bicrystal would corrupt the seam; replicate/scale do not apply to the
  // bicrystal solver, and the bicrystal controls do not apply elsewhere.
  if (sc.geometry == "grain_boundary") {
    WSMD_REQUIRE(sc.vacancy_fraction == 0.0,
                 deck.source << ": vacancy_fraction is not supported with "
                                "geometry=grain_boundary");
    WSMD_REQUIRE(!deck.has("replicate") && !deck.has("scale"),
                 deck.source << ": replicate/scale do not apply to "
                                "geometry=grain_boundary (size it with "
                                "gb_atoms)");
  } else {
    WSMD_REQUIRE(!deck.has("tilt_angle_deg") && !deck.has("gb_atoms"),
                 deck.source << ": tilt_angle_deg/gb_atoms require "
                                "geometry=grain_boundary");
  }

  // Velocity rescaling cannot heat a motionless system (scaling zero stays
  // zero), so a thermostat stage before any source of kinetic energy would
  // silently run at 0 K. Thermalize provides KE directly; any stepped
  // stage may convert potential energy (e.g. an unrelaxed grain boundary)
  // and is given the benefit of the doubt.
  bool may_have_ke = false;
  for (const auto& st : sc.schedule) {
    const bool thermostats = st.kind == Stage::Kind::kEquilibrate ||
                             st.kind == Stage::Kind::kRamp ||
                             st.kind == Stage::Kind::kQuench;
    WSMD_REQUIRE(!(thermostats && std::max(st.t0, st.t1) > 0.0 &&
                   !may_have_ke),
                 deck.source << ": stage '" << st.name()
                             << "' thermostats a 0 K system — add a "
                                "'thermalize' stage before it");
    if ((st.kind == Stage::Kind::kThermalize && st.t0 > 0.0) ||
        st.steps > 0) {
      may_have_ke = true;
    }
  }

  // Checkpointing cross-validation: a path with no cadence at all would
  // silently never checkpoint. An explicit `checkpoint.every = 0` is the
  // documented off-switch (e.g. a resume override), so only the entirely
  // absent key is an error.
  if (checkpoint_path_entry != nullptr && sc.checkpoint_every == 0 &&
      !deck.has("checkpoint.every")) {
    bad_entry(deck, *checkpoint_path_entry,
              "checkpoint.path needs checkpoint.every");
  }
  if (sc.checkpoint_every > 0 && sc.checkpoint_path.empty()) {
    sc.checkpoint_path = sc.name + ".ckpt";
  }
  if (sc.telemetry_trace_path == "auto") {
    sc.telemetry_trace_path = sc.name + ".trace.json";
  }
  if (sc.telemetry_metrics_path == "auto") {
    sc.telemetry_metrics_path = sc.name + ".metrics.jsonl";
  }
  // Snapshots stream into the metrics file: a cadence with metrics
  // explicitly off is a contradiction, and with metrics merely absent the
  // metrics file is implied (same auto default as telemetry.metrics=auto).
  if (sc.telemetry_snapshot_s > 0.0) {
    if (metrics_off) {
      bad_entry(deck, *snapshot_entry,
                "telemetry.snapshot streams into the metrics file, but "
                "telemetry.metrics is off");
    }
    if (sc.telemetry_metrics_path.empty()) {
      sc.telemetry_metrics_path = sc.name + ".metrics.jsonl";
    }
  }
  // health.* cross-key validation: a band/timeout for a disabled detector
  // is dead configuration — reject it like the observe.* rules do.
  const auto requires_detector = [&](const char* key,
                                     telemetry::HealthAction action,
                                     const char* detector_key) {
    const auto it = health_seen.find(key);
    if (it != health_seen.end() && action == telemetry::HealthAction::kOff) {
      bad_entry(deck, *it->second,
                std::string("requires ") + detector_key + " = warn|abort");
    }
  };
  requires_detector("health.energy_band", sc.health.energy_drift,
                    "health.energy_drift");
  requires_detector("health.temperature_band", sc.health.temperature,
                    "health.temperature");
  requires_detector("health.stall_timeout", sc.health.stall, "health.stall");
  if (sc.health.inject_nan_step > 0 &&
      sc.health.nan == telemetry::HealthAction::kOff) {
    bad_entry(deck, *health_seen.at("health.inject_nan"),
              "the NaN fault drill needs health.nan = warn|abort");
  }

  // dist.* cross-key validation, eager like everything above: the keys
  // are dead configuration off a ranks: backend, and the kill drill is a
  // (rank, step) pair — half of it would silently never fire.
  if (!dist_seen.empty()) {
    const BackendSpec bs = parse_backend(sc.backend);
    if (bs.backend != engine::Backend::kRanks) {
      bad_entry(deck, *dist_seen.begin()->second,
                "dist.* keys need backend = ranks:M (got '" + sc.backend +
                    "')");
    }
    if (sc.dist_kill_rank >= 0 && sc.dist_kill_step == 0) {
      bad_entry(deck, *dist_seen.at("dist.kill_rank"),
                "dist.kill_rank needs dist.kill_step");
    }
    if (sc.dist_kill_step > 0 && sc.dist_kill_rank < 0) {
      bad_entry(deck, *dist_seen.at("dist.kill_step"),
                "dist.kill_step needs dist.kill_rank");
    }
    if (sc.dist_kill_rank >= bs.ranks) {
      bad_entry(deck, *dist_seen.at("dist.kill_rank"),
                format("kill rank %d is outside backend %s (ranks 0..%d)",
                       sc.dist_kill_rank, sc.backend.c_str(), bs.ranks - 1));
    }
  }

  // observe.* cross-key validation. Each rule blames the deck line that
  // introduced the inconsistent key, so the fix is one hop away.
  if (!observe_seen.empty() && sc.observe.probes.empty()) {
    bad_entry(deck, *observe_seen.begin()->second,
              "observe.* keys need observe.probes");
  }
  const auto requires_probe = [&](const char* key, const char* probe) {
    const auto it = observe_seen.find(key);
    if (it != observe_seen.end() && !sc.observe.has(probe)) {
      bad_entry(deck, *it->second,
                std::string("requires the ") + probe + " probe");
    }
  };
  requires_probe("observe.rdf_every", "rdf");
  requires_probe("observe.rdf_rcut", "rdf");
  requires_probe("observe.rdf_bins", "rdf");
  requires_probe("observe.msd_every", "msd");
  requires_probe("observe.vacf_every", "vacf");
  requires_probe("observe.defects_every", "defects");
  requires_probe("observe.csp_threshold", "defects");
  requires_probe("observe.gb_axis", "defects");
  if (const auto it = observe_seen.find("observe.gb_axis");
      it != observe_seen.end() && sc.geometry != "grain_boundary") {
    bad_entry(deck, *it->second,
              "grain-boundary tracking requires geometry=grain_boundary");
  }
  // Default: a defect probe on a bicrystal tracks the boundary plane along
  // the generator's GB normal (y) unless the deck says otherwise.
  if (sc.observe.has("defects") && sc.geometry == "grain_boundary" &&
      sc.observe.gb_axis < 0) {
    sc.observe.gb_axis = 1;
  }
  // Probe-geometry mismatch, caught eagerly where the box is knowable at
  // parse time: minimum-image probes need every periodic box length >=
  // 2 * their search radius, and only geometry=bulk is periodic.
  if (sc.observe.enabled() && sc.geometry == "bulk" && sc.replicate[0] > 0) {
    const double a0 = material_facts(sc).lattice_constant;
    // `blame_key` is the deck line at fault (nullptr / absent falls back
    // to the observe.probes line); `fix_hint` must only name knobs that
    // actually control the radius.
    const auto require_box_fits = [&](const char* probe,
                                      const char* blame_key, double rcut,
                                      const char* fix_hint) {
      const DeckEntry* entry = observe_seen.at("observe.probes");
      if (blame_key != nullptr) {
        if (const auto it = observe_seen.find(blame_key);
            it != observe_seen.end()) {
          entry = it->second;
        }
      }
      for (std::size_t a = 0; a < 3; ++a) {
        const double len = sc.replicate[a] * a0;
        if (len < 2.0 * rcut) {
          bad_entry(deck, *entry,
                    format("%s search radius %.4g A needs periodic box "
                           ">= %.4g A, but axis %zu is %.4g A — %s",
                           probe, rcut, 2.0 * rcut, a, len, fix_hint));
        }
      }
    };
    const obs::Material mat{a0, 0};
    if (sc.observe.has("rdf")) {
      require_box_fits("rdf", "observe.rdf_rcut",
                       obs::effective_rdf_rcut(sc.observe, mat),
                       "enlarge 'replicate' or shrink observe.rdf_rcut");
    }
    if (sc.observe.has("defects")) {
      // The CSP radius is fixed at 1.2 a0 (no deck knob): only the box
      // can give.
      require_box_fits("defects (csp)", nullptr,
                       obs::effective_csp_rcut(mat), "enlarge 'replicate'");
    }
  }
  return sc;
}

Deck deck_from_scenario(const Scenario& sc) {
  // Collected as raw pairs and numbered by deck_from_entries — the single
  // authority for file-style line numbering, so overrides appended later
  // (line 0) get the usual whole-schedule-replacement semantics.
  std::vector<std::pair<std::string, std::string>> entries;
  const auto add = [&entries](const std::string& key,
                              const std::string& value) {
    entries.emplace_back(key, value);
  };
  // %.17g round-trips FP64 exactly through the strict parser.
  const auto num = [](double v) { return format("%.17g", v); };

  add("name", sc.name);
  add("element", sc.element);
  // Emitted unconditionally (default included): the checkpoint's embedded
  // deck must pin the interaction family.
  add("pair_style", sc.pair_style);
  add("geometry", sc.geometry);
  if (sc.geometry == "grain_boundary") {
    add("tilt_angle_deg", num(sc.tilt_angle_deg));
    add("gb_atoms", std::to_string(sc.gb_target_atoms));
  } else if (sc.replicate[0] > 0) {
    add("replicate", format("%d %d %d", sc.replicate[0], sc.replicate[1],
                            sc.replicate[2]));
  } else {
    add("scale", std::to_string(sc.scale));
  }
  if (sc.vacancy_fraction > 0.0) {
    add("vacancy_fraction", num(sc.vacancy_fraction));
  }
  add("backend", sc.backend);
  add("dt", num(sc.dt));
  add("swap_interval", std::to_string(sc.swap_interval));
  add("rescale_interval", std::to_string(sc.rescale_interval));
  add("seed", std::to_string(sc.seed));
  // dist.* keys only under a ranks: backend (the parser rejects them
  // elsewhere) and only off their defaults, so round-trips of non-ranks
  // scenarios are byte-identical to before the keys existed. A checkpoint
  // resumed with --backend=ranks:4 re-ranks: the slab partition is derived
  // from the rank count at restore, never stored.
  if (parse_backend(sc.backend).backend == engine::Backend::kRanks) {
    if (sc.dist_timeout_s != 300.0) add("dist.timeout", num(sc.dist_timeout_s));
    if (sc.dist_kill_rank >= 0) {
      add("dist.kill_rank", std::to_string(sc.dist_kill_rank));
      add("dist.kill_step", std::to_string(sc.dist_kill_step));
    }
  }
  for (const auto& st : sc.schedule) {
    switch (st.kind) {
      case Stage::Kind::kThermalize:
        add("thermalize", num(st.t0));
        break;
      case Stage::Kind::kEquilibrate:
      case Stage::Kind::kQuench:
        add(st.name(), num(st.t0) + " " + std::to_string(st.steps));
        break;
      case Stage::Kind::kRamp:
        add("ramp", num(st.t0) + " " + num(st.t1) + " " +
                        std::to_string(st.steps));
        break;
      case Stage::Kind::kRun:
        add("run", std::to_string(st.steps));
        break;
    }
  }
  if (!sc.xyz_path.empty()) {
    add("xyz", sc.xyz_path);
    add("xyz_every", std::to_string(sc.xyz_every));
  }
  if (!sc.thermo_path.empty()) {
    add("thermo", sc.thermo_path);
    add("thermo_every", std::to_string(sc.thermo_every));
    add("thermo_format", sc.thermo_format);
  }
  if (!sc.summary_path.empty()) add("summary", sc.summary_path);
  if (sc.observe.enabled()) {
    std::string probes;
    for (const auto& kind : sc.observe.probes) {
      probes += (probes.empty() ? "" : " ") + kind;
    }
    add("observe.probes", probes);
    add("observe.every", std::to_string(sc.observe.every));
    const auto add_cadence = [&](const char* key, long every) {
      if (every > 0) add(key, std::to_string(every));
    };
    add_cadence("observe.rdf_every", sc.observe.rdf_every);
    add_cadence("observe.msd_every", sc.observe.msd_every);
    add_cadence("observe.vacf_every", sc.observe.vacf_every);
    add_cadence("observe.defects_every", sc.observe.defects_every);
    add("observe.format", sc.observe.format);
    if (!sc.observe.prefix.empty()) add("observe.prefix", sc.observe.prefix);
    if (sc.observe.has("rdf")) {
      if (sc.observe.rdf_rcut > 0.0) {
        add("observe.rdf_rcut", num(sc.observe.rdf_rcut));
      }
      add("observe.rdf_bins", std::to_string(sc.observe.rdf_bins));
    }
    if (sc.observe.has("defects")) {
      add("observe.csp_threshold", num(sc.observe.csp_threshold));
      if (sc.observe.gb_axis >= 0) {
        add("observe.gb_axis",
            std::string(1, "xyz"[static_cast<std::size_t>(
                                sc.observe.gb_axis)]));
      }
    }
  }
  if (sc.checkpoint_every > 0) {
    add("checkpoint.every", std::to_string(sc.checkpoint_every));
    add("checkpoint.path", sc.checkpoint_path);
  }
  if (!sc.telemetry_trace_path.empty()) {
    add("telemetry.trace", sc.telemetry_trace_path);
  }
  if (!sc.telemetry_metrics_path.empty()) {
    add("telemetry.metrics", sc.telemetry_metrics_path);
  }
  if (sc.telemetry_snapshot_s > 0.0) {
    add("telemetry.snapshot", num(sc.telemetry_snapshot_s));
  }
  // health.* keys: only non-default settings are emitted, and dependent
  // band/timeout keys only when their detector is enabled (the parser
  // rejects them otherwise, and round-tripping must stay clean).
  {
    const telemetry::HealthConfig def;
    const auto act = [](telemetry::HealthAction a) {
      return std::string(telemetry::health_action_name(a));
    };
    if (sc.health.nan != def.nan) add("health.nan", act(sc.health.nan));
    if (sc.health.energy_drift != def.energy_drift) {
      add("health.energy_drift", act(sc.health.energy_drift));
    }
    if (sc.health.energy_drift != telemetry::HealthAction::kOff &&
        sc.health.energy_band != def.energy_band) {
      add("health.energy_band", num(sc.health.energy_band));
    }
    if (sc.health.temperature != def.temperature) {
      add("health.temperature", act(sc.health.temperature));
    }
    if (sc.health.temperature != telemetry::HealthAction::kOff &&
        sc.health.temperature_band_K != def.temperature_band_K) {
      add("health.temperature_band", num(sc.health.temperature_band_K));
    }
    if (sc.health.stall != def.stall) add("health.stall", act(sc.health.stall));
    if (sc.health.stall != telemetry::HealthAction::kOff &&
        sc.health.stall_timeout_s != def.stall_timeout_s) {
      add("health.stall_timeout", num(sc.health.stall_timeout_s));
    }
    if (sc.health.thermo_tail != def.thermo_tail) {
      add("health.thermo_tail", std::to_string(sc.health.thermo_tail));
    }
    if (!sc.health.bundle_dir.empty()) {
      add("health.bundle", sc.health.bundle_dir);
    }
    if (sc.health.inject_nan_step > 0 &&
        sc.health.nan != telemetry::HealthAction::kOff) {
      add("health.inject_nan", std::to_string(sc.health.inject_nan_step));
    }
  }
  return deck_from_entries(entries, "<scenario>");
}

MaterialFacts material_facts(const Scenario& sc) {
  if (sc.pair_style == "lj") {
    const auto m = eam::lj_parameters(sc.element);
    return MaterialFacts{m.structure, m.lattice_constant()};
  }
  const auto params = eam::zhou_parameters(sc.element);
  return MaterialFacts{params.structure, params.lattice_constant()};
}

obs::Material material_for(const Scenario& sc) {
  const auto facts = material_facts(sc);
  return obs::Material{facts.lattice_constant,
                       facts.structure == "fcc" ? 12 : 8};
}

lattice::Structure build_structure(const Scenario& sc, StructureInfo* info) {
  const auto facts = material_facts(sc);
  StructureInfo local;
  lattice::Structure s;
  if (sc.geometry == "grain_boundary") {
    lattice::GrainBoundaryParams gb;
    gb.element = sc.element;
    gb.tilt_angle_deg = sc.tilt_angle_deg;
    auto built = lattice::make_grain_boundary_with_atom_count(
        gb, sc.gb_target_atoms);
    local.gb_fused_atoms = built.fused_atoms;
    s = std::move(built.structure);
  } else {
    const bool bulk = sc.geometry == "bulk";
    const std::array<bool, 3> periodic = bulk
                                             ? std::array<bool, 3>{true, true, true}
                                             : std::array<bool, 3>{false, false, false};
    if (sc.replicate[0] > 0) {
      const auto cell =
          lattice::UnitCell::of(facts.structure, facts.lattice_constant);
      s = lattice::replicate(cell, sc.replicate[0], sc.replicate[1],
                             sc.replicate[2], /*type=*/0, periodic);
    } else {
      WSMD_REQUIRE(!bulk,
                   "geometry=bulk needs an explicit 'replicate' (the paper "
                   "slabs are open-boundary)");
      s = lattice::paper_slab(sc.element, sc.scale);
    }
  }
  if (sc.vacancy_fraction > 0.0) {
    // Defect stream is derived from — but independent of — the thermal
    // seed, so changing vacancy_fraction never perturbs the velocities.
    Rng vac_rng(sc.seed ^ 0xD1CEB00CULL);
    local.vacancies_removed =
        lattice::apply_vacancies(s, sc.vacancy_fraction, vac_rng);
  }
  local.atoms = s.size();
  if (info) *info = local;
  return s;
}

std::unique_ptr<engine::Engine> build_engine(
    const Scenario& sc, const lattice::Structure& s,
    const std::string& backend_override, const std::string& scratch_dir) {
  const BackendSpec bs = parse_backend(
      backend_override.empty() ? sc.backend : backend_override);
  eam::EamPotentialPtr potential;
  if (sc.pair_style == "lj") {
    potential = std::make_shared<eam::LennardJones>(
        eam::LennardJones::for_element(sc.element));
  } else {
    const auto params = eam::zhou_parameters(sc.element);
    potential =
        std::make_shared<eam::ZhouEam>(sc.element, params.paper_cutoff());
  }

  engine::EngineConfig config;
  config.reference.dt = sc.dt;
  // `reference:N` spins up the deterministic threaded force sweep; the
  // trajectory is bitwise-identical at any N (see md/force_eam.hpp).
  config.reference.threads = bs.threads;
  config.wafer.dt = sc.dt;
  config.wafer.swap_interval = sc.swap_interval;
  config.wafer.mapping.cell_size = material_facts(sc).lattice_constant;
  config.threads = bs.threads;
  config.ranks = bs.ranks;
  config.rank_threads = bs.threads;
  config.dist_timeout_ms = static_cast<int>(sc.dist_timeout_s * 1000.0);
  config.dist_kill_rank = sc.dist_kill_rank;
  config.dist_kill_step = sc.dist_kill_step;
  config.dist_scratch = scratch_dir;
  return engine::make_engine(bs.backend, s, std::move(potential), config);
}

}  // namespace wsmd::scenario
