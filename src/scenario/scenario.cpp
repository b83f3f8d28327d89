#include "scenario/scenario.hpp"

#include <algorithm>
#include <climits>
#include <cstdlib>
#include <initializer_list>
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

/// One scenario_from_deck call: the scenario being filled, plus the last
/// entry of every key the deck sets, so the cross-key rules after the key
/// loop can blame the deck line at fault.
struct Parser {
  explicit Parser(const Deck& d) : deck(d) {}

  const Deck& deck;
  Scenario sc;
  std::map<std::string, const DeckEntry*> seen;
  std::vector<const DeckEntry*> stage_entries;  ///< one per sc.schedule stage

  [[noreturn]] void bad(const DeckEntry& e, const std::string& why) const {
    // The message leads with the deck location: the user's input is wrong,
    // not a C++ precondition. line == 0 marks an appended CLI override —
    // pointing at the deck file would send the user grepping for a key
    // that is not in it.
    std::ostringstream os;
    if (e.line > 0) {
      os << deck.source << ':' << e.line;
    } else {
      os << "<cli override>";
    }
    os << ": key '" << e.key << "' = '" << e.value << "': " << why;
    throw Error(os.str());
  }

  /// The last entry of `key`, or nullptr when the deck does not set it.
  const DeckEntry* at(const std::string& key) const {
    const auto it = seen.find(key);
    return it != seen.end() ? it->second : nullptr;
  }

  /// The alphabetically first key under `prefix` the deck sets, or nullptr.
  const DeckEntry* first_under(const std::string& prefix) const {
    const auto it = seen.lower_bound(prefix);
    return it != seen.end() && starts_with(it->first, prefix) ? it->second
                                                              : nullptr;
  }

  /// Blame the first of `keys` the deck sets, else the deck as a whole.
  [[noreturn]] void blame(std::initializer_list<const char*> keys,
                          const std::string& why) const {
    for (const char* key : keys) {
      if (const DeckEntry* e = at(key)) bad(*e, why);
    }
    throw Error(format("%s: %s", deck.source.c_str(), why.c_str()));
  }

  /// Split the value and require exactly `n` whitespace-separated tokens.
  std::vector<std::string> tokens(const DeckEntry& e, std::size_t n) const {
    auto t = split_whitespace(e.value);
    if (t.size() != n) {
      bad(e, format("expected %zu value(s), got %zu", n, t.size()));
    }
    return t;
  }
  double real(const DeckEntry& e, const std::string& token) const {
    double v = 0.0;
    if (!parse_double_strict(token, v)) bad(e, "not a number");
    return v;
  }
  long integer(const DeckEntry& e, const std::string& token) const {
    long v = 0;
    if (!parse_long_strict(token, v)) bad(e, "not an integer");
    return v;
  }
  double real(const DeckEntry& e) const { return real(e, tokens(e, 1)[0]); }
  /// One integer in [lo, hi]; `why` names the range.
  long integer(const DeckEntry& e, long lo, const char* why,
               long hi = LONG_MAX) const {
    const long v = integer(e, tokens(e, 1)[0]);
    if (v < lo || v > hi) bad(e, why);
    return v;
  }
  /// One integer >= lo (`why` otherwise) for an int field, which it must
  /// fit: a wrapped value would pass the bound and then divide by zero.
  int int_at_least(const DeckEntry& e, long lo, const char* why) const {
    const long v = integer(e, lo, why);
    if (v > INT_MAX) bad(e, format("must be <= %d", INT_MAX));
    return static_cast<int>(v);
  }
  /// One number > 0; `why` names the bound.
  double positive(const DeckEntry& e, const char* why) const {
    const double v = real(e);
    if (v <= 0.0) bad(e, why);
    return v;
  }
  /// The value, which must be one of `choices`.
  const std::string& one_of(const DeckEntry& e,
                            std::initializer_list<const char*> choices) const {
    std::string want;
    for (const char* c : choices) {
      if (e.value == c) return e.value;
      want += want.empty() ? "want " : "|";
      want += c;
    }
    bad(e, want);
  }
  const std::string& nonempty(const DeckEntry& e, const char* why) const {
    if (e.value.empty()) bad(e, why);
    return e.value;
  }
  /// PATH|auto|off: `off` (the resume-time disable) is the empty path;
  /// `auto` resolves after the key loop, since `name` may come later.
  std::string export_path(const DeckEntry& e) const {
    return nonempty(e, "want PATH|auto|off") == "off" ? "" : e.value;
  }
  telemetry::HealthAction action(const DeckEntry& e) const {
    telemetry::HealthAction a = telemetry::HealthAction::kOff;
    if (!telemetry::parse_health_action(e.value, &a)) {
      bad(e, "want off|warn|abort");
    }
    return a;
  }

  double kelvin(const DeckEntry& e, const std::string& token) const {
    const double t = real(e, token);
    if (t < 0.0) bad(e, "temperature must be >= 0 K");
    return t;
  }
  long steps(const DeckEntry& e, const std::string& token) const {
    const long n = integer(e, token);
    if (n < 0) bad(e, "step count must be >= 0");
    return n;
  }
  void stage(const DeckEntry& e, const Stage& st) {
    sc.schedule.push_back(st);
    stage_entries.push_back(&e);
  }
  /// `T STEPS`: a stage that holds its target T.
  void hold(const DeckEntry& e, Stage::Kind kind) {
    const auto t = tokens(e, 2);
    const double k = kelvin(e, t[0]);
    stage(e, {kind, k, k, steps(e, t[1])});
  }
};

/// %.17g round-trips FP64 exactly through the strict parser.
std::string num(double v) { return format("%.17g", v); }

/// When deck_from_scenario writes a row's key (and its `only_if` holds).
enum class Emit {
  kAlways,
  kNonDefault,  ///< the value differs from a default Scenario's
  kNonEmpty,    ///< the value is not empty
  kStages,      ///< schedule keys: every stage, in order, at the first row
  kNever,       ///< legacy keys, parsed so older decks still load
};

// Short names for the table rows below.
using P = Parser;
using E = DeckEntry;
using Sc = Scenario;

/// One accepted deck key. The rows are in canonical-deck order.
struct KeyRow {
  const char* name;
  const char* doc;  ///< one line, shown by `wsmd --help`
  void (*parse)(P&, const E&);  ///< typed, validated; errors blame the line
  Emit emit = Emit::kNever;
  std::string (*value)(const Sc&) = nullptr;  ///< the canonical value text
  bool (*only_if)(const Sc&) = nullptr;       ///< nullptr = no condition
};

bool is_gb(const Sc& sc) { return sc.geometry == "grain_boundary"; }
bool on_ranks(const Sc& sc) {
  return parse_backend(sc.backend).backend == engine::Backend::kRanks;
}
bool drill(const Sc& sc) { return on_ranks(sc) && sc.dist_kill_rank >= 0; }
bool writes_xyz(const Sc& sc) { return !sc.xyz_path.empty(); }
bool writes_thermo(const Sc& sc) { return !sc.thermo_path.empty(); }
bool observing(const Sc& sc) { return sc.observe.enabled(); }
bool has_rdf(const Sc& sc) { return sc.observe.has("rdf"); }
bool has_defects(const Sc& sc) { return sc.observe.has("defects"); }
bool checkpointing(const Sc& sc) { return sc.checkpoint_every > 0; }
std::string act(telemetry::HealthAction a) {
  return telemetry::health_action_name(a);
}
constexpr auto kOff = telemetry::HealthAction::kOff;
void run_stage(P& p, const E& e) {
  p.stage(e, {Stage::Kind::kRun, 0.0, 0.0, p.steps(e, p.tokens(e, 1)[0])});
}

const KeyRow kKeys[] = {
    {"name", "scenario name, the stem of every default output path",
     [](P& p, const E& e) { p.sc.name = e.value; }, Emit::kAlways,
     [](const Sc& sc) { return sc.name; }},
    {"element", "element in the pair style's table (--list-elements)",
     [](P& p, const E& e) { p.sc.element = e.value; }, Emit::kAlways,
     [](const Sc& sc) { return sc.element; }},
    // Written with its default too: a checkpoint pins the interaction family.
    {"pair_style", "eam|lj: Zhou EAM metal (default) or noble-gas LJ",
     [](P& p, const E& e) { p.sc.pair_style = p.one_of(e, {"eam", "lj"}); },
     Emit::kAlways, [](const Sc& sc) { return sc.pair_style; }},
    // Legacy: every checkpoint written before the analytic path's removal
    // embeds it; both engines evaluate the profile tables only.
    {"potential", "legacy: tabulated parses and selects nothing",
     [](P& p, const E& e) {
       if (e.value == "analytic") {
         p.bad(e, "the analytic evaluation path was removed; engines "
                  "evaluate the profile tables only (drop the key or set "
                  "tabulated)");
       }
       p.one_of(e, {"tabulated"});
     }},
    {"geometry", "slab|bulk|grain_boundary; bulk needs replicate",
     [](P& p, const E& e) {
       p.sc.geometry = p.one_of(e, {"slab", "bulk", "grain_boundary"});
     },
     Emit::kAlways, [](const Sc& sc) { return sc.geometry; }},
    {"tilt_angle_deg", "D: bicrystal tilt angle in degrees (grain_boundary)",
     [](P& p, const E& e) { p.sc.tilt_angle_deg = p.real(e); }, Emit::kAlways,
     [](const Sc& sc) { return num(sc.tilt_angle_deg); }, is_gb},
    {"gb_atoms", "N >= 16: bicrystal target atom count (grain_boundary)",
     [](P& p, const E& e) {
       p.sc.gb_target_atoms = static_cast<std::size_t>(
           p.integer(e, 16, "gb_atoms must be >= 16"));
     },
     Emit::kAlways,
     [](const Sc& sc) { return std::to_string(sc.gb_target_atoms); }, is_gb},
    {"replicate", "NX NY NZ: explicit unit-cell replication (slab, bulk)",
     [](P& p, const E& e) {
       const auto t = p.tokens(e, 3);
       for (std::size_t a = 0; a < 3; ++a) {
         const long v = p.integer(e, t[a]);
         if (v < 1) p.bad(e, "replication counts must be >= 1");
         if (v > INT_MAX) p.bad(e, format("must be <= %d", INT_MAX));
         p.sc.replicate[a] = static_cast<int>(v);
       }
     },
     Emit::kAlways,
     [](const Sc& sc) {
       return format("%d %d %d", sc.replicate[0], sc.replicate[1],
                     sc.replicate[2]);
     },
     [](const Sc& sc) { return !is_gb(sc) && sc.replicate[0] > 0; }},
    {"scale", "N >= 1: paper-slab divisor, when replicate is absent",
     [](P& p, const E& e) {
       p.sc.scale = p.int_at_least(e, 1, "scale must be >= 1");
     },
     Emit::kAlways, [](const Sc& sc) { return std::to_string(sc.scale); },
     [](const Sc& sc) { return !is_gb(sc) && sc.replicate[0] <= 0; }},
    {"vacancy_fraction", "F in [0, 1): random vacancies (slab, bulk)",
     [](P& p, const E& e) {
       const double v = p.real(e);
       if (v < 0.0 || v >= 1.0) p.bad(e, "want [0, 1)");
       p.sc.vacancy_fraction = v;
     },
     Emit::kAlways, [](const Sc& sc) { return num(sc.vacancy_fraction); },
     [](const Sc& sc) { return sc.vacancy_fraction > 0.0; }},
    {"backend", "reference[:N]|wafer|sharded[:N]|ranks:M[xN]",
     [](P& p, const E& e) {
       try {
         parse_backend(e.value);
       } catch (const Error& ex) {
         p.bad(e, ex.what());
       }
       p.sc.backend = e.value;
     },
     Emit::kAlways, [](const Sc& sc) { return sc.backend; }},
    {"dt", "timestep in ps, > 0",
     [](P& p, const E& e) { p.sc.dt = p.positive(e, "dt must be > 0"); },
     Emit::kAlways, [](const Sc& sc) { return num(sc.dt); }},
    {"swap_interval", "N >= 0: wafer atom-swap cadence in steps (0 = off)",
     [](P& p, const E& e) {
       p.sc.swap_interval =
           p.int_at_least(e, 0, "swap_interval must be >= 0");
     },
     Emit::kAlways,
     [](const Sc& sc) { return std::to_string(sc.swap_interval); }},
    {"rescale_interval", "N >= 1: steps between thermostat rescales",
     [](P& p, const E& e) {
       p.sc.rescale_interval =
           p.int_at_least(e, 1, "rescale_interval must be >= 1");
     },
     Emit::kAlways,
     [](const Sc& sc) { return std::to_string(sc.rescale_interval); }},
    {"seed", "N >= 0: seed of the velocity and vacancy streams",
     [](P& p, const E& e) {
       p.sc.seed =
           static_cast<std::uint64_t>(p.integer(e, 0, "seed must be >= 0"));
     },
     Emit::kAlways, [](const Sc& sc) { return std::to_string(sc.seed); }},
    // dist.* keys are written only under a ranks: backend (the parser
    // rejects them elsewhere) and only off their defaults. A checkpoint
    // resumed with --backend=ranks:4 re-ranks: the slab partition is
    // derived from the rank count at restore, never stored.
    {"dist.timeout", "S > 0: ranks: per-message deadline in s (default 300)",
     [](P& p, const E& e) {
       const double s = p.positive(e, "timeout must be > 0 seconds");
       // The engine takes the deadline in int milliseconds.
       if (s > INT_MAX / 1000) {
         p.bad(e, format("timeout must be <= %d seconds", INT_MAX / 1000));
       }
       p.sc.dist_timeout_s = s;
     },
     Emit::kNonDefault, [](const Sc& sc) { return num(sc.dist_timeout_s); },
     on_ranks},
    {"dist.kill_rank", "R: ranks: fault drill, rank R exits hard (+ kill_step)",
     [](P& p, const E& e) {
       p.sc.dist_kill_rank = p.int_at_least(e, 0, "kill rank must be >= 0");
     },
     Emit::kAlways,
     [](const Sc& sc) { return std::to_string(sc.dist_kill_rank); }, drill},
    {"dist.kill_step", "K >= 1: ranks: fault drill, dies before step K",
     [](P& p, const E& e) {
       p.sc.dist_kill_step =
           p.integer(e, 1, "kill step must be >= 1 (1-based)");
     },
     Emit::kAlways,
     [](const Sc& sc) { return std::to_string(sc.dist_kill_step); }, drill},
    // Legacy: older decks and checkpoints embed it; halos always ride the
    // shm rings.
    {"dist.transport", "legacy (ranks: only): shm|socket, selects nothing",
     [](P& p, const E& e) { p.one_of(e, {"shm", "socket"}); }},
    // Schedule keys append stages in deck order.
    {"thermalize", "T: stage, one-shot Maxwell-Boltzmann velocities at T K",
     [](P& p, const E& e) {
       p.stage(e, {Stage::Kind::kThermalize, p.kelvin(e, p.tokens(e, 1)[0])});
     },
     Emit::kStages},
    {"equilibrate", "T STEPS: stage, velocity rescaling toward T",
     [](P& p, const E& e) { p.hold(e, Stage::Kind::kEquilibrate); },
     Emit::kStages},
    {"ramp", "T0 T1 STEPS: stage, rescaling toward T0 sliding to T1",
     [](P& p, const E& e) {
       const auto t = p.tokens(e, 3);
       p.stage(e, {Stage::Kind::kRamp, p.kelvin(e, t[0]), p.kelvin(e, t[1]),
                   p.steps(e, t[2])});
     },
     Emit::kStages},
    {"quench", "T STEPS: stage, rescaling toward a cold T",
     [](P& p, const E& e) { p.hold(e, Stage::Kind::kQuench); },
     Emit::kStages},
    {"run", "STEPS: stage, free NVE", run_stage, Emit::kStages},
    // Parse-only in effect: its stages are written as `run`.
    {"nve", "STEPS: alias of run", run_stage, Emit::kStages},
    {"xyz", "PATH: XYZ trajectory",
     [](P& p, const E& e) { p.sc.xyz_path = e.value; }, Emit::kNonEmpty,
     [](const Sc& sc) { return sc.xyz_path; }},
    {"xyz_every", "N >= 1: steps between trajectory frames",
     [](P& p, const E& e) {
       p.sc.xyz_every = p.integer(e, 1, "xyz_every must be >= 1");
     },
     Emit::kAlways, [](const Sc& sc) { return std::to_string(sc.xyz_every); },
     writes_xyz},
    {"thermo", "PATH: thermo log",
     [](P& p, const E& e) { p.sc.thermo_path = e.value; }, Emit::kNonEmpty,
     [](const Sc& sc) { return sc.thermo_path; }},
    {"thermo_every", "N >= 1: steps between thermo rows",
     [](P& p, const E& e) {
       p.sc.thermo_every = p.integer(e, 1, "thermo_every must be >= 1");
     },
     Emit::kAlways,
     [](const Sc& sc) { return std::to_string(sc.thermo_every); },
     writes_thermo},
    {"thermo_format", "csv|jsonl: thermo log format",
     [](P& p, const E& e) { p.sc.thermo_format = p.one_of(e, {"csv", "jsonl"}); },
     Emit::kAlways, [](const Sc& sc) { return sc.thermo_format; },
     writes_thermo},
    {"summary", "PATH: machine-readable run summary (JSON)",
     [](P& p, const E& e) { p.sc.summary_path = e.value; }, Emit::kNonEmpty,
     [](const Sc& sc) { return sc.summary_path; }},
    {"observe.probes", "P...: streaming probes, any of rdf msd vacf defects",
     [](P& p, const E& e) {
       const auto t = split_whitespace(e.value);
       if (t.empty()) {
         p.bad(e, "expected at least one of rdf|msd|vacf|defects");
       }
       std::vector<std::string> probes;
       for (const auto& kind : t) {
         if (!obs::is_probe_kind(kind)) {
           p.bad(e, format("unknown probe '%s' (want rdf|msd|vacf|defects)",
                           kind.c_str()));
         }
         if (std::find(probes.begin(), probes.end(), kind) != probes.end()) {
           p.bad(e, format("duplicate probe '%s'", kind.c_str()));
         }
         probes.push_back(kind);
       }
       p.sc.observe.probes = std::move(probes);
     },
     Emit::kAlways,
     [](const Sc& sc) {
       std::string probes;
       for (const auto& kind : sc.observe.probes) {
         if (!probes.empty()) probes += ' ';
         probes += kind;
       }
       return probes;
     },
     observing},
    {"observe.every", "N >= 1: probe sampling cadence in steps",
     [](P& p, const E& e) {
       p.sc.observe.every = p.integer(e, 1, "sampling cadence must be >= 1");
     },
     Emit::kAlways,
     [](const Sc& sc) { return std::to_string(sc.observe.every); }, observing},
    {"observe.rdf_every", "N >= 1: rdf cadence (default observe.every)",
     [](P& p, const E& e) {
       p.sc.observe.rdf_every =
           p.integer(e, 1, "sampling cadence must be >= 1");
     },
     Emit::kAlways,
     [](const Sc& sc) { return std::to_string(sc.observe.rdf_every); },
     [](const Sc& sc) { return observing(sc) && sc.observe.rdf_every > 0; }},
    {"observe.msd_every", "N >= 1: msd cadence (default observe.every)",
     [](P& p, const E& e) {
       p.sc.observe.msd_every =
           p.integer(e, 1, "sampling cadence must be >= 1");
     },
     Emit::kAlways,
     [](const Sc& sc) { return std::to_string(sc.observe.msd_every); },
     [](const Sc& sc) { return observing(sc) && sc.observe.msd_every > 0; }},
    {"observe.vacf_every", "N >= 1: vacf cadence (default observe.every)",
     [](P& p, const E& e) {
       p.sc.observe.vacf_every =
           p.integer(e, 1, "sampling cadence must be >= 1");
     },
     Emit::kAlways,
     [](const Sc& sc) { return std::to_string(sc.observe.vacf_every); },
     [](const Sc& sc) { return observing(sc) && sc.observe.vacf_every > 0; }},
    {"observe.defects_every", "N >= 1: defects cadence (default observe.every)",
     [](P& p, const E& e) {
       p.sc.observe.defects_every =
           p.integer(e, 1, "sampling cadence must be >= 1");
     },
     Emit::kAlways,
     [](const Sc& sc) { return std::to_string(sc.observe.defects_every); },
     [](const Sc& sc) {
       return observing(sc) && sc.observe.defects_every > 0;
     }},
    {"observe.format", "csv|jsonl: probe output format",
     [](P& p, const E& e) {
       p.sc.observe.format = p.one_of(e, {"csv", "jsonl"});
     },
     Emit::kAlways, [](const Sc& sc) { return sc.observe.format; },
     observing},
    {"observe.prefix", "PREFIX: probes write PREFIX.<probe>.csv (default name)",
     [](P& p, const E& e) {
       p.sc.observe.prefix = p.nonempty(e, "prefix must not be empty");
     },
     Emit::kNonEmpty, [](const Sc& sc) { return sc.observe.prefix; },
     observing},
    {"observe.rdf_rcut", "R > 0: g(r) range in A (default 1.8 a0)",
     [](P& p, const E& e) {
       p.sc.observe.rdf_rcut = p.positive(e, "rdf rcut must be > 0 A");
     },
     Emit::kAlways, [](const Sc& sc) { return num(sc.observe.rdf_rcut); },
     [](const Sc& sc) { return has_rdf(sc) && sc.observe.rdf_rcut > 0.0; }},
    {"observe.rdf_bins", "N in 2..100000: g(r) histogram bins (default 200)",
     [](P& p, const E& e) {
       p.sc.observe.rdf_bins =
           static_cast<int>(p.integer(e, 2, "want 2..100000 bins", 100000));
     },
     Emit::kAlways,
     [](const Sc& sc) { return std::to_string(sc.observe.rdf_bins); },
     has_rdf},
    {"observe.csp_threshold", "X > 0: defect CSP threshold in A^2 (default 1)",
     [](P& p, const E& e) {
       p.sc.observe.csp_threshold =
           p.positive(e, "csp threshold must be > 0 A^2");
     },
     Emit::kAlways, [](const Sc& sc) { return num(sc.observe.csp_threshold); },
     has_defects},
    {"observe.gb_axis", "x|y|z: grain-boundary tracking axis (default y)",
     [](P& p, const E& e) {
       p.sc.observe.gb_axis = p.one_of(e, {"x", "y", "z"})[0] - 'x';
     },
     Emit::kAlways,
     [](const Sc& sc) {
       return std::string(1, "xyz"[static_cast<std::size_t>(sc.observe.gb_axis)]);
     },
     [](const Sc& sc) { return has_defects(sc) && sc.observe.gb_axis >= 0; }},
    {"checkpoint.every", "N >= 0: restart checkpoint cadence in steps (0 = off)",
     [](P& p, const E& e) {
       p.sc.checkpoint_every =
           p.integer(e, 0, "checkpoint cadence must be >= 0 (0 = off)");
     },
     Emit::kAlways,
     [](const Sc& sc) { return std::to_string(sc.checkpoint_every); },
     checkpointing},
    {"checkpoint.path", "PATH: checkpoint file (default <name>.ckpt; * = step)",
     [](P& p, const E& e) {
       p.sc.checkpoint_path =
           p.nonempty(e, "checkpoint path must not be empty");
     },
     Emit::kAlways, [](const Sc& sc) { return sc.checkpoint_path; },
     checkpointing},
    {"telemetry.trace", "PATH|auto|off: chrome://tracing timeline",
     [](P& p, const E& e) { p.sc.telemetry_trace_path = p.export_path(e); },
     Emit::kNonEmpty, [](const Sc& sc) { return sc.telemetry_trace_path; }},
    {"telemetry.metrics", "PATH|auto|off: span/counter aggregates (JSONL)",
     [](P& p, const E& e) { p.sc.telemetry_metrics_path = p.export_path(e); },
     Emit::kNonEmpty, [](const Sc& sc) { return sc.telemetry_metrics_path; }},
    {"telemetry.snapshot", "S|off: every S s, a throughput row in the metrics file",
     [](P& p, const E& e) {
       p.sc.telemetry_snapshot_s =
           e.value == "off"
               ? 0.0
               : p.positive(e, "snapshot cadence must be > 0 seconds (or off)");
     },
     Emit::kAlways, [](const Sc& sc) { return num(sc.telemetry_snapshot_s); },
     [](const Sc& sc) { return sc.telemetry_snapshot_s > 0.0; }},
    // health.* keys are written off their defaults only, and a band or
    // timeout only while its detector is on (the parser rejects it
    // otherwise).
    {"health.nan", "off|warn|abort: non-finite thermo (default warn)",
     [](P& p, const E& e) { p.sc.health.nan = p.action(e); },
     Emit::kNonDefault, [](const Sc& sc) { return act(sc.health.nan); }},
    {"health.energy_drift", "off|warn|abort: |E - E0| detector in run stages",
     [](P& p, const E& e) { p.sc.health.energy_drift = p.action(e); },
     Emit::kNonDefault, [](const Sc& sc) { return act(sc.health.energy_drift); }},
    {"health.energy_band", "F > 0: relative energy band (default 0.02)",
     [](P& p, const E& e) {
       p.sc.health.energy_band =
           p.positive(e, "energy band must be > 0 (relative)");
     },
     Emit::kNonDefault, [](const Sc& sc) { return num(sc.health.energy_band); },
     [](const Sc& sc) { return sc.health.energy_drift != kOff; }},
    {"health.temperature", "off|warn|abort: |T - target| in thermostatted stages",
     [](P& p, const E& e) { p.sc.health.temperature = p.action(e); },
     Emit::kNonDefault, [](const Sc& sc) { return act(sc.health.temperature); }},
    {"health.temperature_band", "K > 0: temperature band in K (default 250)",
     [](P& p, const E& e) {
       p.sc.health.temperature_band_K =
           p.positive(e, "temperature band must be > 0 K");
     },
     Emit::kNonDefault,
     [](const Sc& sc) { return num(sc.health.temperature_band_K); },
     [](const Sc& sc) { return sc.health.temperature != kOff; }},
    {"health.stall", "off|warn|abort: no completed step within stall_timeout",
     [](P& p, const E& e) { p.sc.health.stall = p.action(e); },
     Emit::kNonDefault, [](const Sc& sc) { return act(sc.health.stall); }},
    {"health.stall_timeout", "S > 0: stall timeout in seconds (default 120)",
     [](P& p, const E& e) {
       p.sc.health.stall_timeout_s =
           p.positive(e, "stall timeout must be > 0 seconds");
     },
     Emit::kNonDefault,
     [](const Sc& sc) { return num(sc.health.stall_timeout_s); },
     [](const Sc& sc) { return sc.health.stall != kOff; }},
    {"health.thermo_tail", "K in 1..100000: thermo rows in a bundle (default 64)",
     [](P& p, const E& e) {
       p.sc.health.thermo_tail = p.integer(e, 1, "want 1..100000 rows", 100000);
     },
     Emit::kNonDefault,
     [](const Sc& sc) { return std::to_string(sc.health.thermo_tail); }},
    {"health.bundle", "DIR: abort bundle directory (default <name>.health)",
     [](P& p, const E& e) {
       p.sc.health.bundle_dir = p.nonempty(e, "bundle path must not be empty");
     },
     Emit::kNonEmpty, [](const Sc& sc) { return sc.health.bundle_dir; }},
    {"health.inject_nan", "STEP: fault drill, a NaN velocity before this step",
     [](P& p, const E& e) {
       p.sc.health.inject_nan_step =
           p.integer(e, 0, "inject step must be >= 0 (0 = off)");
     },
     Emit::kAlways,
     [](const Sc& sc) { return std::to_string(sc.health.inject_nan_step); },
     [](const Sc& sc) {
       return sc.health.inject_nan_step > 0 && sc.health.nan != kOff;
     }},
};

const KeyRow* find_key(const std::string& name) {
  for (const KeyRow& k : kKeys) {
    if (name == k.name) return &k;
  }
  return nullptr;
}

std::string stage_value(const Stage& st) {
  switch (st.kind) {
    case Stage::Kind::kThermalize:
      return num(st.t0);
    case Stage::Kind::kEquilibrate:
    case Stage::Kind::kQuench:
      return format("%s %ld", num(st.t0).c_str(), st.steps);
    case Stage::Kind::kRamp:
      return format("%s %s %ld", num(st.t0).c_str(), num(st.t1).c_str(),
                    st.steps);
    case Stage::Kind::kRun:
      return std::to_string(st.steps);
  }
  return "";
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
  // A bad spec is user input: plain messages, which scenario_from_deck
  // prefixes with the deck line that holds the spec.
  BackendSpec bs;
  if (spec == "reference" || starts_with(spec, "reference:")) {
    bs.backend = engine::Backend::kReference;
    if (starts_with(spec, "reference:")) {
      const std::string n = spec.substr(10);
      char* end = nullptr;
      const long threads = std::strtol(n.c_str(), &end, 10);
      if (!(end && *end == '\0' && threads > 0 && threads <= INT_MAX)) {
        throw Error(format("bad reference thread count '%s'", n.c_str()));
      }
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
      if (!(end && *end == '\0' && threads > 0 && threads <= INT_MAX)) {
        throw Error(format("bad sharded thread count '%s'", n.c_str()));
      }
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
      if (!(end != nullptr && end != n.c_str() && ranks >= 1 &&
            ranks <= dist::kMaxRanks)) {
        throw Error(format("bad rank count '%s' (want 1..%d, e.g. ranks:4 "
                           "or ranks:4x2)",
                           n.c_str(), dist::kMaxRanks));
      }
      bs.ranks = static_cast<int>(ranks);
      if (*end == 'x') {
        const char* t = end + 1;
        const long threads = std::strtol(t, &end, 10);
        if (!(end != nullptr && end != t && *end == '\0' && threads > 0 &&
              threads <= INT_MAX)) {
          throw Error(format("bad per-rank thread count '%s' (want ranks:MxN)",
                             n.c_str()));
        }
        bs.threads = static_cast<int>(threads);
      } else if (*end != '\0') {
        throw Error(format("bad rank spec '%s' (want ranks:M or ranks:MxN)",
                           n.c_str()));
      }
    }
    return bs;
  }
  throw Error(format("unknown backend '%s' (want reference|reference:N|wafer|"
                     "sharded|sharded:N|ranks:M|ranks:MxN)",
                     spec.c_str()));
}

long Scenario::total_steps() const {
  long total = 0;
  for (const auto& st : schedule) total += st.steps;
  return total;
}

std::vector<DeckKey> deck_keys() {
  std::vector<DeckKey> keys;
  for (const KeyRow& k : kKeys) keys.push_back({k.name, k.doc});
  return keys;
}

Scenario scenario_from_deck(const Deck& deck) {
  Parser p(deck);
  Scenario& sc = p.sc;
  // Schedule keys accumulate stages in deck order, so plain last-wins
  // cannot apply to them. Instead, whole-schedule replacement: if any
  // schedule key arrives as an override (line == 0, appended by the CLI),
  // the overrides define the entire schedule and the file's stages are
  // dropped — `wsmd deck run=50` means "run 50 NVE steps", not "append
  // another 50 to whatever the deck did".
  const bool cli_schedule = std::any_of(
      deck.entries.begin(), deck.entries.end(), [](const DeckEntry& e) {
        const KeyRow* k = find_key(e.key);
        return e.line == 0 && k != nullptr && k->emit == Emit::kStages;
      });
  for (const auto& e : deck.entries) {
    const KeyRow* k = find_key(e.key);
    if (k == nullptr) p.bad(e, "unknown key");
    if (cli_schedule && e.line > 0 && k->emit == Emit::kStages) continue;
    k->parse(p, e);
    p.seen[e.key] = &e;
  }

  // Fail on an unknown element now, not steps into a run; the lookup table
  // depends on the pair style.
  try {
    material_facts(sc);
  } catch (const Error& ex) {
    p.blame({"element", "pair_style"}, ex.what());
  }
  if (sc.pair_style == "lj") {
    // The bicrystal generator and the paper slabs are Zhou-EAM metal
    // geometries; LJ scenarios size their crystal explicitly.
    if (is_gb(sc)) {
      p.blame({"geometry"}, "pair_style=lj does not support "
                            "geometry=grain_boundary (the bicrystal builder "
                            "is EAM-metal only)");
    }
    if (sc.replicate[0] <= 0) {
      p.blame({"pair_style"}, "pair_style=lj needs an explicit 'replicate' "
                              "(the paper slabs are EAM workloads)");
    }
  }

  // Geometry/key cross-validation: a key the chosen geometry ignores must
  // reject, not silently simulate something else. Vacancies on a fused
  // bicrystal would corrupt the seam; replicate/scale do not apply to the
  // bicrystal solver, and the bicrystal controls do not apply elsewhere.
  if (is_gb(sc)) {
    if (sc.vacancy_fraction != 0.0) {
      p.blame({"vacancy_fraction"},
              "vacancy_fraction is not supported with "
              "geometry=grain_boundary");
    }
    if (p.at("replicate") != nullptr || p.at("scale") != nullptr) {
      p.blame({"replicate", "scale"},
              "replicate/scale do not apply to geometry=grain_boundary "
              "(size it with gb_atoms)");
    }
  } else {
    if (p.at("tilt_angle_deg") != nullptr || p.at("gb_atoms") != nullptr) {
      p.blame({"tilt_angle_deg", "gb_atoms"},
              "tilt_angle_deg/gb_atoms require geometry=grain_boundary");
    }
    // build_structure keeps its own check for a Scenario built in C++.
    if (sc.geometry == "bulk" && sc.replicate[0] <= 0) {
      p.blame({"geometry"}, "geometry=bulk needs an explicit 'replicate' "
                            "(the paper slabs are open-boundary)");
    }
  }

  // Velocity rescaling cannot heat a motionless system (scaling zero stays
  // zero), so a thermostat stage before any source of kinetic energy would
  // silently run at 0 K. Thermalize provides KE directly; any stepped
  // stage may convert potential energy (e.g. an unrelaxed grain boundary)
  // and is given the benefit of the doubt.
  bool may_have_ke = false;
  for (std::size_t i = 0; i < sc.schedule.size(); ++i) {
    const Stage& st = sc.schedule[i];
    const bool thermostats = st.kind == Stage::Kind::kEquilibrate ||
                             st.kind == Stage::Kind::kRamp ||
                             st.kind == Stage::Kind::kQuench;
    if (thermostats && std::max(st.t0, st.t1) > 0.0 && !may_have_ke) {
      p.bad(*p.stage_entries[i],
            format("stage '%s' thermostats a 0 K system — add a "
                   "'thermalize' stage before it",
                   st.name()));
    }
    if ((st.kind == Stage::Kind::kThermalize && st.t0 > 0.0) ||
        st.steps > 0) {
      may_have_ke = true;
    }
  }

  // Checkpointing cross-validation: a path with no cadence at all would
  // silently never checkpoint. An explicit `checkpoint.every = 0` is the
  // documented off-switch (e.g. a resume override), so only the entirely
  // absent key is an error.
  if (const DeckEntry* path = p.at("checkpoint.path");
      path != nullptr && p.at("checkpoint.every") == nullptr) {
    p.bad(*path, "checkpoint.path needs checkpoint.every");
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
    if (const DeckEntry* metrics = p.at("telemetry.metrics");
        metrics != nullptr && metrics->value == "off") {
      p.bad(*p.at("telemetry.snapshot"),
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
    if (const DeckEntry* e = p.at(key); e != nullptr && action == kOff) {
      p.bad(*e, format("requires %s = warn|abort", detector_key));
    }
  };
  requires_detector("health.energy_band", sc.health.energy_drift,
                    "health.energy_drift");
  requires_detector("health.temperature_band", sc.health.temperature,
                    "health.temperature");
  requires_detector("health.stall_timeout", sc.health.stall, "health.stall");
  if (sc.health.inject_nan_step > 0 && sc.health.nan == kOff) {
    p.bad(*p.at("health.inject_nan"),
          "the NaN fault drill needs health.nan = warn|abort");
  }

  // dist.* cross-key validation, eager like everything above: the keys
  // are dead configuration off a ranks: backend, and the kill drill is a
  // (rank, step) pair — half of it would silently never fire.
  if (const DeckEntry* dist = p.first_under("dist.")) {
    const BackendSpec bs = parse_backend(sc.backend);
    if (bs.backend != engine::Backend::kRanks) {
      p.bad(*dist, format("dist.* keys need backend = ranks:M (got '%s')",
                          sc.backend.c_str()));
    }
    if (sc.dist_kill_rank >= 0 && sc.dist_kill_step == 0) {
      p.bad(*p.at("dist.kill_rank"), "dist.kill_rank needs dist.kill_step");
    }
    if (sc.dist_kill_step > 0 && sc.dist_kill_rank < 0) {
      p.bad(*p.at("dist.kill_step"), "dist.kill_step needs dist.kill_rank");
    }
    if (sc.dist_kill_rank >= bs.ranks) {
      p.bad(*p.at("dist.kill_rank"),
            format("kill rank %d is outside backend %s (ranks 0..%d)",
                   sc.dist_kill_rank, sc.backend.c_str(), bs.ranks - 1));
    }
  }

  // observe.* cross-key validation. Each rule blames the deck line that
  // introduced the inconsistent key, so the fix is one hop away.
  if (const DeckEntry* observe = p.first_under("observe.");
      observe != nullptr && sc.observe.probes.empty()) {
    p.bad(*observe, "observe.* keys need observe.probes");
  }
  const auto requires_probe = [&](const char* key, const char* probe) {
    if (const DeckEntry* e = p.at(key);
        e != nullptr && !sc.observe.has(probe)) {
      p.bad(*e, format("requires the %s probe", probe));
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
  if (const DeckEntry* axis = p.at("observe.gb_axis");
      axis != nullptr && !is_gb(sc)) {
    p.bad(*axis, "grain-boundary tracking requires geometry=grain_boundary");
  }
  // Default: a defect probe on a bicrystal tracks the boundary plane along
  // the generator's GB normal (y) unless the deck says otherwise.
  if (has_defects(sc) && is_gb(sc) && sc.observe.gb_axis < 0) {
    sc.observe.gb_axis = 1;
  }
  // Probe-geometry mismatch, caught eagerly where the box is knowable at
  // parse time: minimum-image probes need every periodic box length >=
  // 2 * their search radius, and only geometry=bulk (always replicated,
  // see above) is periodic.
  if (observing(sc) && sc.geometry == "bulk") {
    const double a0 = material_facts(sc).lattice_constant;
    // `at_fault` lists the deck lines to blame, most specific first;
    // `fix_hint` must only name knobs that actually control the radius.
    const auto require_box_fits =
        [&](const char* probe, double rcut, const char* fix_hint,
            std::initializer_list<const char*> at_fault) {
          for (std::size_t a = 0; a < 3; ++a) {
            const double len = sc.replicate[a] * a0;
            if (len < 2.0 * rcut) {
              p.blame(at_fault,
                      format("%s search radius %.4g A needs periodic box "
                             ">= %.4g A, but axis %zu is %.4g A — %s",
                             probe, rcut, 2.0 * rcut, a, len, fix_hint));
            }
          }
        };
    const obs::Material mat{a0, 0};
    if (has_rdf(sc)) {
      require_box_fits("rdf", obs::effective_rdf_rcut(sc.observe, mat),
                       "enlarge 'replicate' or shrink observe.rdf_rcut",
                       {"observe.rdf_rcut", "observe.probes"});
    }
    if (has_defects(sc)) {
      // The CSP radius is fixed at 1.2 a0 (no deck knob): only the box
      // can give.
      require_box_fits("defects (csp)", obs::effective_csp_rcut(mat),
                       "enlarge 'replicate'", {"observe.probes"});
    }
  }
  return std::move(sc);
}

Deck deck_from_scenario(const Scenario& sc) {
  static const Scenario defaults;
  // Collected as raw pairs and numbered by deck_from_entries — the single
  // authority for file-style line numbering, so overrides appended later
  // (line 0) get the usual whole-schedule-replacement semantics.
  std::vector<std::pair<std::string, std::string>> entries;
  bool stages_written = false;
  for (const KeyRow& k : kKeys) {
    if (k.emit == Emit::kNever || (k.only_if && !k.only_if(sc))) continue;
    if (k.emit == Emit::kStages) {
      if (!std::exchange(stages_written, true)) {
        for (const Stage& st : sc.schedule) {
          entries.emplace_back(st.name(), stage_value(st));
        }
      }
      continue;
    }
    std::string value = k.value(sc);
    if ((k.emit == Emit::kNonEmpty && value.empty()) ||
        (k.emit == Emit::kNonDefault && value == k.value(defaults))) {
      continue;
    }
    entries.emplace_back(k.name, std::move(value));
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
