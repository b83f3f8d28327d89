#include "core/wse_md.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace wsmd::core {

namespace {

/// One sieved row (FP32 sieve output: accepted indices, displacements and
/// r2), sized to the shortlist stride. Each phase call owns one, so
/// concurrent shards never share it.
struct SievedRow {
  explicit SievedRow(std::size_t capacity)
      : idx(capacity), dx(capacity), dy(capacity), dz(capacity),
        r2(capacity) {}

  /// Sieve `count` candidates of the atom at `ri` against rc2 into this
  /// row; returns the accepted count.
  std::size_t sieve(const simd::KernelTable& kern, const Vec3fPlanes& p,
                    const Vec3f& ri, const std::uint32_t* cand,
                    std::size_t count, const simd::BoxF32& box, float rc2) {
    return kern.sieve_f32(p.x(), p.y(), p.z(), ri.x, ri.y, ri.z, cand, count,
                          box, rc2, idx.data(), dx.data(), dy.data(),
                          dz.data(), r2.data());
  }

  std::vector<std::uint32_t> idx;
  std::vector<float> dx, dy, dz, r2;
};

const eam::EamPotential& require_potential(
    const eam::EamPotentialPtr& potential) {
  WSMD_REQUIRE(potential != nullptr, "WseMd needs a potential");
  return *potential;
}

}  // namespace

WseMd::WseMd(const lattice::Structure& s, eam::EamPotentialPtr potential,
             WseMdConfig config)
    : config_(config),
      potential_(std::move(potential)),
      profile_(require_potential(potential_)),
      box_(s.box),
      mapping_(AtomMapping::for_structure(s, config.mapping)) {
  rcut_ = potential_->cutoff();
  box_len_f_ = Vec3f(box_.lengths());
  for (std::size_t a = 0; a < 3; ++a) {
    box_periodic_[a] = box_.periodic[a];
    box_inv_len_f_[a] = 1.0f / box_len_f_[a];
    sbox_.len[a] = box_len_f_[a];
    sbox_.inv_len[a] = box_periodic_[a] ? box_inv_len_f_[a] : 0.0f;
  }

  positions_.resize(s.size());
  velocities_.assign(s.size(), Vec3f{0, 0, 0});
  types_ = s.types;
  const int num_types = potential_->num_types();
  for (const int t : types_) {
    WSMD_REQUIRE(t >= 0 && t < num_types,
                 "atom type " << t << " outside the potential's "
                              << num_types << " type(s)");
  }
  inv_mass_.resize(static_cast<std::size_t>(num_types));
  for (int t = 0; t < num_types; ++t) {
    inv_mass_[static_cast<std::size_t>(t)] =
        static_cast<float>(1.0 / potential_->mass(t) * units::kForceToAccel);
  }
  fprime_.assign(s.size(), 0.0f);
  initial_positions_.resize(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    positions_.set(i, Vec3f(s.positions[i]));
    // Displacement diagnostics are measured against the FP32-rounded
    // state the workers actually hold.
    initial_positions_[i] = Vec3d(positions_.get(i));
  }

  if (config_.b_override > 0) {
    b_ = config_.b_override;
  } else {
    // One extra hop of slack over the initial configuration's exact
    // requirement absorbs thermal motion between swaps.
    b_ = mapping_.required_b(s.positions, rcut_) + 1;
  }
  WSMD_REQUIRE(b_ >= 1, "neighborhood radius must be at least 1");

  // Shortlist exactness: if no atom moved more than half the skin from its
  // anchor, a pair outside the rcut + skin shortlist is still beyond rcut.
  // The margin absorbs the FP32 rounding of both sieves and of the
  // displacement check — a few ulps of the largest coordinate, so it
  // scales with the box (a box too large for any skin rebuilds every step).
  double extent = rcut_ + kShortlistSkin;
  for (std::size_t a = 0; a < 3; ++a) {
    extent = std::max(extent, static_cast<double>(box_len_f_[a]));
  }
  const double margin =
      1e-3 + 64.0 * std::numeric_limits<float>::epsilon() * extent;
  const double limit = std::max(0.0, 0.5 * kShortlistSkin - margin);
  shortlist_limit2_ = static_cast<float>(limit * limit);
}

ShardRect row_strip(const ShardRect& region, int k, int count) {
  ShardRect strip = region;
  const int rows = region.y1 - region.y0;
  strip.y0 = region.y0 + rows * k / count;
  strip.y1 = region.y0 + rows * (k + 1) / count;
  return strip;
}

double WseMd::potential_energy() const {
  if (!pe_current_) {
    // Evaluate the initial configuration's energy on demand so thermo
    // snapshots are valid from construction on (the Engine contract)
    // without charging every construction a full force sweep: the
    // schedule's force half on the current positions, committing nothing.
    // The const_cast only enables calling the non-const kernels —
    // everything they mutate (ws_, fprime_, pe_, pe_current_) is declared
    // mutable, so this is well-defined even on a const object. Like every
    // WseMd method, not safe to race from multiple threads.
    const RegionEnergy e =
        const_cast<WseMd*>(this)->region_energy(full_grid(), {});
    pe_ = e.pair + e.embed;
    pe_current_ = true;
  }
  return pe_;
}

std::vector<Vec3d> WseMd::positions() const {
  std::vector<Vec3d> out(positions_.size());
  for (std::size_t i = 0; i < positions_.size(); ++i) {
    out[i] = Vec3d(positions_.get(i));
  }
  return out;
}

std::vector<Vec3d> WseMd::velocities() const {
  std::vector<Vec3d> out(velocities_.size());
  for (std::size_t i = 0; i < velocities_.size(); ++i) {
    out[i] = Vec3d(velocities_.get(i));
  }
  return out;
}

void WseMd::set_velocities(const std::vector<Vec3d>& v) {
  WSMD_REQUIRE(v.size() == velocities_.size(), "velocity count mismatch");
  for (std::size_t i = 0; i < v.size(); ++i) velocities_.set(i, Vec3f(v[i]));
}

void WseMd::set_positions(const std::vector<Vec3d>& r) {
  WSMD_REQUIRE(r.size() == positions_.size(), "position count mismatch");
  for (std::size_t i = 0; i < r.size(); ++i) positions_.set(i, Vec3f(r[i]));
  pe_current_ = false;
  // A bare position overwrite (cross-backend transfer, tests) may exceed
  // what the constructed mapping planned for; never shrink b, only widen.
  std::vector<Vec3d> wide(positions_.size());
  for (std::size_t i = 0; i < wide.size(); ++i) {
    wide[i] = Vec3d(positions_.get(i));
  }
  b_ = std::max(b_, mapping_.required_b(wide, rcut_) + 1);
}

WseMd::SavedState WseMd::save_state() const {
  SavedState st;
  st.step = step_count_;
  st.elapsed_seconds = elapsed_seconds_;
  st.potential_energy = potential_energy();  // forces the lazy evaluation
  st.positions = positions();
  st.velocities = velocities();
  st.grid_width = mapping_.grid_width();
  st.grid_height = mapping_.grid_height();
  st.b = b_;
  st.core_atoms = mapping_.core_atoms();
  st.initial_positions = initial_positions_;
  return st;
}

void WseMd::restore_state(const SavedState& state) {
  WSMD_REQUIRE(state.positions.size() == positions_.size() &&
                   state.velocities.size() == positions_.size(),
               "restore_state: atom count mismatch ("
                   << state.positions.size() << " vs " << positions_.size()
                   << ")");
  WSMD_REQUIRE(state.grid_width == mapping_.grid_width() &&
                   state.grid_height == mapping_.grid_height(),
               "restore_state: core grid mismatch ("
                   << state.grid_width << "x" << state.grid_height << " vs "
                   << mapping_.grid_width() << "x" << mapping_.grid_height()
                   << ") — was the checkpoint taken from this structure?");
  WSMD_REQUIRE(state.step >= 0, "restore_state: negative step counter");
  const int max_b = std::max(mapping_.grid_width(), mapping_.grid_height());
  WSMD_REQUIRE(state.b >= 1 && state.b <= max_b,
               "restore_state: neighborhood radius "
                   << state.b << " outside [1, " << max_b << "]");
  WSMD_REQUIRE(state.initial_positions.size() == positions_.size(),
               "restore_state: displacement baseline size mismatch");
  mapping_.restore_assignment(state.core_atoms);
  for (std::size_t i = 0; i < positions_.size(); ++i) {
    positions_.set(i, Vec3f(state.positions[i]));
    velocities_.set(i, Vec3f(state.velocities[i]));
  }
  initial_positions_ = state.initial_positions;
  b_ = state.b;
  step_count_ = state.step;
  elapsed_seconds_ = state.elapsed_seconds;
  // The committed PE carries the wafer thermo convention (energy of the
  // configuration the last step integrated *from*); adopting it keeps the
  // first post-restore thermo row bitwise on the uninterrupted run.
  pe_ = state.potential_energy;
  pe_current_ = true;
}

void WseMd::transfer_state(long step, const std::vector<Vec3d>& positions,
                           const std::vector<Vec3d>& velocities) {
  WSMD_REQUIRE(positions.size() == positions_.size() &&
                   velocities.size() == positions_.size(),
               "restore: atom count mismatch (" << positions.size() << " vs "
                                                << positions_.size() << ")");
  WSMD_REQUIRE(step >= 0, "restore_state: negative step counter");
  set_positions(positions);
  set_velocities(velocities);
  step_count_ = step;
  elapsed_seconds_ = 0.0;
}

void WseMd::thermalize(double temperature_K, Rng& rng) {
  WSMD_REQUIRE(temperature_K >= 0.0, "temperature must be non-negative");
  Vec3d p_total{0, 0, 0};
  double mass_total = 0.0;
  std::vector<Vec3d> v(velocities_.size());
  for (std::size_t i = 0; i < velocities_.size(); ++i) {
    const double m = potential_->mass(types_[i]);
    const double sigma = std::sqrt(units::kBoltzmann * temperature_K / m *
                                   units::kForceToAccel);
    v[i] = rng.gaussian_vec3(sigma);
    p_total += v[i] * m;
    mass_total += m;
  }
  const Vec3d v_cm = p_total / mass_total;
  for (auto& vi : v) vi -= v_cm;
  set_velocities(v);
}

std::size_t WseMd::gather_neighborhood(int cx, int cy,
                                       std::uint32_t* out) const {
  const int w = mapping_.grid_width();
  const int h = mapping_.grid_height();
  const long* cores = mapping_.core_atoms().data();
  const long self = cores[static_cast<std::size_t>(cy) * w + cx];
  // Deterministic candidate order: row-major sweep of the clipped square,
  // mirroring the fixed arrival order of the marching multicast. Every
  // cell is stored; the count advances past occupied cores other than the
  // center's (each atom sits on one core), so the loop has no branch.
  std::size_t n = 0;
  const int x0 = std::max(0, cx - b_), x1 = std::min(w - 1, cx + b_);
  for (int y = std::max(0, cy - b_); y <= std::min(h - 1, cy + b_); ++y) {
    const long* line = cores + static_cast<std::size_t>(y) * w;
    for (int x = x0; x <= x1; ++x) {
      const long a = line[x];
      out[n] = static_cast<std::uint32_t>(a);
      n += (a >= 0 && a != self) ? 1 : 0;
    }
  }
  return n;
}

WseStepStats WseMd::run(int n) {
  WSMD_REQUIRE(n >= 0, "negative step count");
  WseStepStats last;
  for (int k = 0; k < n; ++k) last = step();
  return last;
}

template <typename Phase>
void WseMd::sweep(const StepSchedule& schedule, const ShardRect& rows,
                  Phase&& phase) {
  if (rows.empty()) return;
  const auto task = [&](int k) {
    phase(row_strip(rows, k, schedule.workers));
  };
  if (schedule.parallel_for) {
    schedule.parallel_for(task);
  } else {
    for (int k = 0; k < schedule.workers; ++k) task(k);
  }
}

void WseMd::force_half(const ShardRect& region, const StepSchedule& s) {
  begin_step_region(region, ws_);
  // With peers, the rows within b of an internal strip edge feed the F'
  // halo (density first, then publish) and read ghost F' (force last,
  // after consume); the interior between them computes while the halo is
  // in flight. Without peers the interior is the whole region.
  ShardRect inner = region;
  if (s.publish) {
    if (region.y0 > 0) inner.y0 = std::min(region.y0 + b_, region.y1);
    if (region.y1 < mapping_.grid_height()) {
      inner.y1 = std::max(region.y1 - b_, inner.y0);
    }
  }
  const ShardRect top{region.x0, region.y0, region.x1, inner.y0};
  const ShardRect bottom{region.x0, inner.y1, region.x1, region.y1};
  const auto density = [&](const ShardRect& r) { density_phase(r, ws_); };
  const auto force = [&](const ShardRect& r) { force_phase(r, ws_); };
  sweep(s, top, density);
  sweep(s, bottom, density);
  if (s.publish) s.publish(Halo::kFprime);
  sweep(s, inner, density);
  sweep(s, inner, force);
  if (s.consume) s.consume(Halo::kFprime);
  sweep(s, top, force);
  sweep(s, bottom, force);
}

WseMd::RegionReport WseMd::run_schedule(const ShardRect& region,
                                        const StepSchedule& s,
                                        bool whole_grid) {
  force_half(region, s);
  RegionReport r;
  if (whole_grid) {
    r.swapped = commit_step(ws_);
  } else {
    r.swapped = commit_region(region, ws_, r.pe);
    // Fresh committed state to every halo before the swap phase reads
    // boundary positions. The reductions read only the region's own data,
    // so they hide behind the halo's flight; they run before any swap
    // perturbs the region's atom set (the workspace slots of an atom
    // migrating in belong to its previous owner). The kinetic partial
    // hides there too; a swap step re-sums it below.
    if (s.publish) s.publish(Halo::kState);
    r.acc = reduce_region_raw(region, ws_);
    r.kinetic = kinetic_energy_region(region);
    if (s.consume) s.consume(Halo::kState);
  }
  if (r.swapped) {
    sweep(s, region,
          [&](const ShardRect& rows) { swap_select(rows, ws_.partner); });
    if (s.merge_partners) s.merge_partners(ws_.partner);
    r.swaps_applied = swap_commit(ws_.partner);
    // A swap re-partitions the region's atoms (never a velocity; the state
    // halo carried the ghosts' in). Sum the partial over the new
    // assignment, the one a checkpoint stores and a restore sums.
    if (!whole_grid) r.kinetic = kinetic_energy_region(region);
  }
  return r;
}

WseStepStats WseMd::step(const StepSchedule& schedule) {
  const RegionReport r = run_schedule(full_grid(), schedule, true);
  return finish_step(ws_, r.swaps_applied, r.swapped);
}

WseMd::RegionReport WseMd::step_region(const ShardRect& region,
                                       const StepSchedule& schedule) {
  return run_schedule(region, schedule, false);
}

WseMd::RegionEnergy WseMd::region_energy(const ShardRect& region,
                                         const StepSchedule& schedule) {
  force_half(region, schedule);
  return reduce_region_energy(region, ws_);
}

ShardRect WseMd::full_grid() const {
  return ShardRect{0, 0, mapping_.grid_width(), mapping_.grid_height()};
}

void WseMd::plan_shortlist(const ShardRect& anchored, StepWorkspace& ws) const {
  const std::size_t n = positions_.size();
  // Row capacity: every cell in the (2b+1)² neighborhood square except the
  // center can hold an atom, plus the sieve's vector-store overshoot pad.
  const std::size_t span_cells = 2 * static_cast<std::size_t>(b_) + 1;
  const std::size_t stride = span_cells * span_cells - 1 + simd::kPadF32;
  // The anchored rows' atoms: a contiguous run of the row-major core table.
  const auto w = static_cast<std::size_t>(mapping_.grid_width());
  const long* cores = mapping_.core_atoms().data();
  const long* first = cores + static_cast<std::size_t>(anchored.y0) * w;
  const long* last = cores + static_cast<std::size_t>(anchored.y1) * w;
  ws.rebuild = ws.shortlist_stride != stride ||
               ws.mapping_version != mapping_.version() ||
               ws.anchored != anchored;
  for (const long* c = first; !ws.rebuild && c != last; ++c) {
    if (*c < 0) continue;
    const auto i = static_cast<std::size_t>(*c);
    const Vec3f d = minimum_image_f(ws.anchor.get(i), positions_.get(i));
    // Negated so a non-finite displacement rebuilds too.
    ws.rebuild = !(dot(d, d) <= shortlist_limit2_);
  }
  if (!ws.rebuild) return;
  telemetry::count("wse.shortlist_rebuilds");
  ws.shortlist_stride = stride;
  ws.mapping_version = mapping_.version();
  ws.anchored = anchored;
  ws.shortlist_idx.resize(n * stride);
  ws.shortlist_count.resize(n);
  ws.candidates.resize(n);
  ws.anchor.resize(n);
  for (const long* c = first; c != last; ++c) {
    if (*c >= 0) {
      const auto i = static_cast<std::size_t>(*c);
      ws.anchor.set(i, positions_.get(i));
    }
  }
}

void WseMd::begin_step(StepWorkspace& ws) const {
  begin_step_region(full_grid(), ws);
}

void WseMd::density_phase(const ShardRect& shard, StepWorkspace& ws) {
  telemetry::ScopedSpan span("wse.density");
  const auto rc2 = static_cast<float>(rcut_ * rcut_);
  const auto keep2 = static_cast<float>((rcut_ + kShortlistSkin) *
                                        (rcut_ + kShortlistSkin));
  const bool pairwise_only = potential_->is_pairwise_only();
  const simd::KernelTable& kern = simd::kernels();
  const eam::ProfileF32::Raw raw = profile_.raw();
  const float* px = positions_.x();
  const float* py = positions_.y();
  const float* pz = positions_.z();
  const long* cores = mapping_.core_atoms().data();
  const auto w = static_cast<std::size_t>(mapping_.grid_width());
  // Function-local scratch (one per phase call) keeps sharded workers from
  // racing: a sieved row is only needed between its sieve and its table
  // sweep — persisting it per atom would not fit at paper scale. The
  // density row reads indices and r2 only; the displacements the sieve
  // also stores land in the scratch unread.
  std::vector<std::uint32_t> gathered(ws.rebuild ? ws.shortlist_stride : 0);
  SievedRow sieved(ws.shortlist_stride);
  std::vector<float> r2_kept(ws.rebuild ? ws.shortlist_stride : 0);
  for (int cy = shard.y0; cy < shard.y1; ++cy) {
    for (int cx = shard.x0; cx < shard.x1; ++cx) {
      const long ai = cores[static_cast<std::size_t>(cy) * w + cx];
      if (ai < 0) continue;
      const auto i = static_cast<std::size_t>(ai);
      std::uint32_t* row = ws.shortlist_idx.data() + i * ws.shortlist_stride;
      const Vec3f ri = positions_.get(i);
      // Batched sieve: 8-wide accept test compacting the accepted entries;
      // then one 8-wide table sweep over the survivors. A rebuild sieves
      // the gathered window at rcut + skin into the shortlist and derives
      // the rcut row from the r2 it computed.
      std::uint32_t m = 0;
      if (ws.rebuild) {
        const std::size_t gathered_n =
            gather_neighborhood(cx, cy, gathered.data());
        ws.candidates[i] = static_cast<std::uint32_t>(gathered_n);
        const std::size_t kept = kern.sieve_f32(
            px, py, pz, ri.x, ri.y, ri.z, gathered.data(), gathered_n, sbox_,
            keep2, row, sieved.dx.data(), sieved.dy.data(), sieved.dz.data(),
            r2_kept.data());
        ws.shortlist_count[i] = static_cast<std::uint32_t>(kept);
        for (std::size_t k = 0; k < kept; ++k) {
          sieved.idx[m] = row[k];
          sieved.r2[m] = r2_kept[k];
          m += r2_kept[k] < rc2 ? 1 : 0;
        }
      } else {
        m = static_cast<std::uint32_t>(sieved.sieve(
            kern, positions_, ri, row, ws.shortlist_count[i], sbox_, rc2));
      }
      ws.neighbor_count[i] = m;
      if (pairwise_only) {  // phase 3 skipped for pair styles
        ws.pe_embed[i] = 0.0;
        fprime_[i] = 0.0f;
        continue;
      }
      const float rho = kern.rho_row_f32(raw, types_.data(), sieved.idx.data(),
                                         sieved.r2.data(), m);
      float f, fp;
      profile_.embed(types_[i], rho, f, fp);
      ws.pe_embed[i] = f;
      fprime_[i] = fp;
    }
  }
}

void WseMd::force_phase(const ShardRect& shard, StepWorkspace& ws) const {
  telemetry::ScopedSpan span("wse.force");
  // F' of every neighborhood is available now, as after the embedding
  // exchange on the real machine.
  const auto dt = static_cast<float>(config_.dt);
  const auto rc2 = static_cast<float>(rcut_ * rcut_);
  const bool pairwise_only = potential_->is_pairwise_only();
  const simd::KernelTable& kern = simd::kernels();
  const eam::ProfileF32::Raw raw = profile_.raw();
  const long* cores = mapping_.core_atoms().data();
  const auto w = static_cast<std::size_t>(mapping_.grid_width());
  // Per-call scratch for the rcut row sieved from the shortlist.
  SievedRow sieved(ws.shortlist_stride);
  for (int cy = shard.y0; cy < shard.y1; ++cy) {
    for (int cx = shard.x0; cx < shard.x1; ++cx) {
      const long ai = cores[static_cast<std::size_t>(cy) * w + cx];
      if (ai < 0) continue;
      const auto i = static_cast<std::size_t>(ai);
      const Vec3f ri = positions_.get(i);
      const int ti = types_[i];
      const std::uint32_t* row =
          ws.shortlist_idx.data() + i * ws.shortlist_stride;
      // Batched force row: one sieve of the shortlist hands each accepted
      // pair's displacement and r2 straight to the 8-wide table sweeps.
      const auto m = static_cast<std::uint32_t>(sieved.sieve(
          kern, positions_, ri, row, ws.shortlist_count[i], sbox_, rc2));
      const simd::PairAccumF32 acc = kern.force_row_f32(
          raw, types_.data(), fprime_.data(), fprime_[i], ti,
          sieved.idx.data(), sieved.dx.data(), sieved.dy.data(),
          sieved.dz.data(), sieved.r2.data(), m, pairwise_only);
      ws.pair_half[i] = acc.phi;

      const Vec3f force{acc.fx, acc.fy, acc.fz};
      const Vec3f a = force * inv_mass_[static_cast<std::size_t>(ti)];
      const Vec3f v_new = velocities_.get(i) + a * dt;
      ws.new_velocities.set(i, v_new);
      ws.new_positions.set(i, Vec3f(box_.wrap(Vec3d(ri + v_new * dt))));

      // Cycle accounting for this worker's timestep.
      ws.cycles[i] = config_.cost_model.timestep_cycles(
          static_cast<double>(ws.candidates[i]), static_cast<double>(m));
    }
  }
}

bool WseMd::commit_step(StepWorkspace& ws) {
  telemetry::ScopedSpan span("wse.commit");
  positions_.swap(ws.new_positions);
  velocities_.swap(ws.new_velocities);

  // Serial row-major reduction of the energy contributions: the summation
  // order (and thus the FP64 result) is independent of how the phases were
  // sharded.
  const RegionEnergy e = reduce_region_energy(full_grid(), ws);
  pe_ = e.pair + e.embed;
  pe_current_ = true;
  ++step_count_;

  // Reduce the accounting now, before a phase-5 swap reorders the row-major
  // sweep, so stats match the serial engine's historical reduction order.
  ws.reduced = reduce_region(full_grid(), ws);

  return config_.swap_interval > 0 && step_count_ % config_.swap_interval == 0;
}

void WseMd::swap_select(const ShardRect& shard,
                        std::vector<int>& partner) const {
  telemetry::ScopedSpan span("wse.swap_select");
  // Paper Sec. III-D, first exchange: workers see neighbors' atom state and
  // score the best greedy swap. Empty tiles participate ("atoms at
  // infinity"). Reads only committed positions and the mapping; writes only
  // the region's partner slots, so disjoint shards are thread-safe.
  WSMD_REQUIRE(partner.size() == mapping_.core_count(),
               "partner array must cover every core");
  if (shard.empty()) return;
  const int w = mapping_.grid_width();
  const int h = mapping_.grid_height();
  const long* cores = mapping_.core_atoms().data();
  const double pitch_x = mapping_.pitch_x();
  const double pitch_y = mapping_.pitch_y();

  // In-plane displacement of an atom at logical (lx, ly) from core (x, y)'s
  // nominal position (AtomMapping::nominal_position, written out).
  const auto disp = [&](double lx, double ly, int x, int y) {
    return std::max(std::fabs(lx - (x + 0.5) * pitch_x),
                    std::fabs(ly - (y + 0.5) * pitch_y));
  };

  // Greedy swaps pair immediate neighbors, so a score reads the cores of
  // the shard's rows and columns ±1 (on a ranks: process the ghost rows
  // sit inside its b + 1 state halo). Fold each of their atoms and take
  // its own-core displacement once; an empty core scores 0.
  struct Slot {
    long atom = -1;
    double lx = 0.0, ly = 0.0;
    double own = 0.0;
  };
  const int tx0 = std::max(0, shard.x0 - 1), tx1 = std::min(w, shard.x1 + 1);
  const int ty0 = std::max(0, shard.y0 - 1), ty1 = std::min(h, shard.y1 + 1);
  const int tw = tx1 - tx0;
  std::vector<Slot> table(static_cast<std::size_t>(tw) * (ty1 - ty0));
  const auto slot = [&](int x, int y) -> Slot& {
    return table[static_cast<std::size_t>(y - ty0) * tw + (x - tx0)];
  };
  for (int y = ty0; y < ty1; ++y) {
    for (int x = tx0; x < tx1; ++x) {
      Slot& s = slot(x, y);
      s.atom = cores[static_cast<std::size_t>(y) * w + x];
      if (s.atom < 0) continue;
      const Vec3d lg = mapping_.logical_xy(
          Vec3d(positions_.get(static_cast<std::size_t>(s.atom))));
      s.lx = lg.x;
      s.ly = lg.y;
      s.own = disp(lg.x, lg.y, x, y);
    }
  }
  // An atom's displacement from another core (0 for an empty core). The
  // empty-core test stays out of disp: folded into it, the scoring loop
  // measured ~1.5x slower.
  const auto moved = [&](const Slot& s, int x, int y) {
    return s.atom < 0 ? 0.0 : disp(s.lx, s.ly, x, y);
  };

  for (int cy = shard.y0; cy < shard.y1; ++cy) {
    for (int cx = shard.x0; cx < shard.x1; ++cx) {
      const Slot& me = slot(cx, cy);
      double best_gain = 1e-9;
      int best = -1;
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          if (dx == 0 && dy == 0) continue;
          const int nx = cx + dx, ny = cy + dy;
          if (nx < 0 || nx >= w || ny < 0 || ny >= h) continue;
          const Slot& other = slot(nx, ny);
          if (me.atom < 0 && other.atom < 0) continue;
          const double before = std::max(me.own, other.own);
          const double after =
              std::max(moved(me, nx, ny), moved(other, cx, cy));
          const double gain = before - after;
          if (gain > best_gain) {
            best_gain = gain;
            best = ny * w + nx;
          }
        }
      }
      partner[static_cast<std::size_t>(cy) * w + cx] = best;
    }
  }
}

std::size_t WseMd::swap_commit(const std::vector<int>& partner) {
  telemetry::ScopedSpan span("wse.swap_commit");
  // Second exchange: chosen partner ids cross the fabric; mutual agreement
  // commits the swap. Serial — it mutates the mapping.
  WSMD_REQUIRE(partner.size() == mapping_.core_count(),
               "partner array must cover every core");
  const int w = mapping_.grid_width();
  const int h = mapping_.grid_height();
  std::size_t applied = 0;
  for (int cy = 0; cy < h; ++cy) {
    for (int cx = 0; cx < w; ++cx) {
      const int me = cy * w + cx;
      const int p = partner[static_cast<std::size_t>(me)];
      if (p < 0 || p <= me) continue;  // each pair handled once
      if (partner[static_cast<std::size_t>(p)] != me) continue;
      const CoreCoord ca{cx, cy};
      const CoreCoord cb{p % w, p / w};
      mapping_.swap_atoms(ca, cb);
      ++applied;
    }
  }
  return applied;
}

WseStepStats WseMd::reduce_region(const ShardRect& shard,
                                  const StepWorkspace& ws) const {
  WseStepStats stats;
  RunningStats cycles;
  double cand_total = 0.0, inter_total = 0.0;
  std::size_t occupied = 0;
  for (int cy = shard.y0; cy < shard.y1; ++cy) {
    for (int cx = shard.x0; cx < shard.x1; ++cx) {
      const long ai = mapping_.atom_at(cx, cy);
      if (ai < 0) continue;
      const auto i = static_cast<std::size_t>(ai);
      cycles.add(ws.cycles[i]);
      cand_total += static_cast<double>(ws.candidates[i]);
      inter_total += static_cast<double>(ws.neighbor_count[i]);
      ++occupied;
    }
  }
  if (occupied > 0) {
    const auto n = static_cast<double>(occupied);
    stats.mean_candidates = cand_total / n;
    stats.mean_interactions = inter_total / n;
  }
  stats.max_cycles = cycles.max();
  stats.mean_cycles = cycles.mean();
  stats.stddev_cycles = cycles.stddev();
  return stats;
}

void WseMd::begin_step_region(const ShardRect& region,
                              StepWorkspace& ws) const {
  telemetry::ScopedSpan span("wse.begin");
  const std::size_t n = positions_.size();
  // The region's kernels gather from its rows ± b; the decision reads only
  // those atoms.
  ShardRect gatherable = full_grid();
  gatherable.y0 = std::max(0, region.y0 - b_);
  gatherable.y1 = std::min(gatherable.y1, region.y1 + b_);
  plan_shortlist(gatherable, ws);
  // resize (not assign): slots outside the region keep stale values nobody
  // reads; slots inside are written by the phases before any read (every
  // atom sits on exactly one core). This keeps a rank's begin cost
  // O(region), not O(N).
  ws.neighbor_count.resize(n);
  ws.pe_embed.resize(n);
  ws.pair_half.resize(n);
  ws.cycles.resize(n);
  ws.new_positions.resize(n);
  ws.new_velocities.resize(n);
  ws.partner.resize(mapping_.core_count());
}

WseMd::RegionEnergy WseMd::reduce_region_energy(const ShardRect& shard,
                                                const StepWorkspace& ws) const {
  RegionEnergy pe;
  for (int cy = shard.y0; cy < shard.y1; ++cy) {
    for (int cx = shard.x0; cx < shard.x1; ++cx) {
      const long ai = mapping_.atom_at(cx, cy);
      if (ai < 0) continue;
      pe.embed += ws.pe_embed[static_cast<std::size_t>(ai)];
    }
  }
  for (int cy = shard.y0; cy < shard.y1; ++cy) {
    for (int cx = shard.x0; cx < shard.x1; ++cx) {
      const long ai = mapping_.atom_at(cx, cy);
      if (ai < 0) continue;
      pe.pair +=
          0.5 * static_cast<double>(ws.pair_half[static_cast<std::size_t>(ai)]);
    }
  }
  return pe;
}

WseMd::RegionAccounting WseMd::reduce_region_raw(const ShardRect& shard,
                                                 const StepWorkspace& ws) const {
  RegionAccounting acc;
  for (int cy = shard.y0; cy < shard.y1; ++cy) {
    for (int cx = shard.x0; cx < shard.x1; ++cx) {
      const long ai = mapping_.atom_at(cx, cy);
      if (ai < 0) continue;
      const auto i = static_cast<std::size_t>(ai);
      acc.candidate_total += static_cast<double>(ws.candidates[i]);
      acc.interaction_total += static_cast<double>(ws.neighbor_count[i]);
      acc.cycles_sum += ws.cycles[i];
      acc.cycles_sq_sum += ws.cycles[i] * ws.cycles[i];
      acc.cycles_max = std::max(acc.cycles_max, ws.cycles[i]);
      ++acc.occupied;
    }
  }
  return acc;
}

bool WseMd::commit_region(const ShardRect& shard, StepWorkspace& ws,
                          RegionEnergy& pe) {
  telemetry::ScopedSpan span("wse.commit");
  for (int cy = shard.y0; cy < shard.y1; ++cy) {
    for (int cx = shard.x0; cx < shard.x1; ++cx) {
      const long ai = mapping_.atom_at(cx, cy);
      if (ai < 0) continue;
      const auto i = static_cast<std::size_t>(ai);
      positions_.set(i, ws.new_positions.get(i));
      velocities_.set(i, ws.new_velocities.get(i));
    }
  }
  pe = reduce_region_energy(shard, ws);
  ++step_count_;
  return config_.swap_interval > 0 && step_count_ % config_.swap_interval == 0;
}

double WseMd::kinetic_energy_region(const ShardRect& shard) const {
  double mv2 = 0.0;
  for (int cy = shard.y0; cy < shard.y1; ++cy) {
    for (int cx = shard.x0; cx < shard.x1; ++cx) {
      const long ai = mapping_.atom_at(cx, cy);
      if (ai < 0) continue;
      const auto i = static_cast<std::size_t>(ai);
      mv2 += potential_->mass(types_[i]) * norm2(Vec3d(velocities_.get(i)));
    }
  }
  return 0.5 * mv2 * units::kMv2ToEnergy;
}

WseStepStats WseMd::finish_step(const StepWorkspace& ws,
                                std::size_t swaps_applied, bool swapped) {
  WseStepStats stats = ws.reduced;
  stats.swaps_applied = swaps_applied;
  stats.swapped = swapped;
  return account_step(stats);
}

WseStepStats WseMd::finish_region_step(double potential_energy,
                                       WseStepStats reduced) {
  adopt_potential_energy(potential_energy);
  ++step_count_;
  return account_step(reduced);
}

void WseMd::adopt_potential_energy(double pe) {
  pe_ = pe;
  pe_current_ = true;
}

WseStepStats WseMd::account_step(WseStepStats stats) {
  stats.step = step_count_;
  // Workers synchronize through the neighborhood exchanges, so the slowest
  // worker sets the array step time (paper Sec. V-B).
  stats.wall_seconds =
      stats.max_cycles / (config_.cost_model.clock_ghz() * 1e9);
  if (stats.swapped) {
    // A swap costs roughly one timestep (paper Sec. V-E).
    stats.wall_seconds *= 2.0;
  }
  elapsed_seconds_ += stats.wall_seconds;
  cum_.candidate_step_sum += stats.mean_candidates;
  cum_.interaction_step_sum += stats.mean_interactions;
  if (stats.swapped) {
    ++cum_.swap_steps;
    telemetry::count("wse.swap_steps");
    telemetry::count("wse.swaps_applied", stats.swaps_applied);
  }
  telemetry::count("wse.steps");
  if (telemetry::enabled()) {
    // Totals across all occupied cores (the reductions report per-core
    // means): the counters the snapshot stream differentiates into
    // pairs/sec and candidates/sec throughput series.
    const double n = static_cast<double>(atom_count());
    telemetry::count("wse.interactions", static_cast<std::uint64_t>(
                                             stats.mean_interactions * n + 0.5));
    telemetry::count("wse.candidates", static_cast<std::uint64_t>(
                                           stats.mean_candidates * n + 0.5));
  }
  return stats;
}

double WseMd::kinetic_energy() const {
  double mv2 = 0.0;
  for (std::size_t i = 0; i < velocities_.size(); ++i) {
    mv2 += potential_->mass(types_[i]) * norm2(Vec3d(velocities_.get(i)));
  }
  return 0.5 * mv2 * units::kMv2ToEnergy;
}

void WseMd::scramble_mapping(Rng& rng, int count) {
  const int w = mapping_.grid_width();
  const int h = mapping_.grid_height();
  for (int k = 0; k < count; ++k) {
    const int x1 = static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(w)));
    const int y1 = static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(h)));
    const int x2 = std::min(w - 1, x1 + static_cast<int>(rng.uniform_index(3)));
    const int y2 = std::min(h - 1, y1 + static_cast<int>(rng.uniform_index(3)));
    mapping_.swap_atoms({x1, y1}, {x2, y2});
  }
}

double WseMd::assignment_cost() const {
  double worst = 0.0;
  for (std::size_t i = 0; i < positions_.size(); ++i) {
    worst =
        std::max(worst, mapping_.displacement(i, Vec3d(positions_.get(i))));
  }
  return worst;
}

double WseMd::max_inplane_displacement() const {
  double worst = 0.0;
  for (std::size_t i = 0; i < positions_.size(); ++i) {
    const Vec3d d = Vec3d(positions_.get(i)) - initial_positions_[i];
    worst = std::max(worst, std::max(std::fabs(d.x), std::fabs(d.y)));
  }
  return worst;
}

}  // namespace wsmd::core
