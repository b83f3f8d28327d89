#pragma once

/// \file protocol.hpp
/// Message bodies of the coordinator <-> rank control plane (see
/// transport.hpp for framing and tags). Everything here is either a
/// trivially-copyable POD sent as one frame, or packed/unpacked with
/// Packer/Unpacker in declaration order.

#include <cstdint>

#include "dist/transport.hpp"
#include "util/random.hpp"

namespace wsmd::dist {

/// Per-step report from one rank: its region's reduction partials plus
/// cumulative wall-clock accounting since fork. The coordinator combines
/// the partials in fixed rank order — the determinism contract: repeated
/// runs at the same rank count reduce in the same order, bitwise.
struct StepRecord {
  std::int64_t step = 0;  ///< rank-local step counter after the commit
  // Region partials (row-major within the strip).
  double pe_embed = 0.0;
  double pe_pair = 0.0;
  double kinetic = 0.0;
  double candidate_total = 0.0;
  double interaction_total = 0.0;
  double cycles_sum = 0.0;
  double cycles_sq_sum = 0.0;
  double cycles_max = 0.0;
  std::uint64_t occupied = 0;
  std::uint64_t swaps_applied = 0;
  std::uint32_t swapped = 0;
  std::uint32_t pad = 0;
  // Cumulative seconds since fork (coordinator takes deltas): time inside
  // the phase kernels; halo pack / wire / unpack; waiting for coordinator
  // commands (the rank-level barrier).
  double busy_seconds = 0.0;
  double halo_pack_seconds = 0.0;
  double halo_exchange_seconds = 0.0;
  double halo_unpack_seconds = 0.0;
  double barrier_seconds = 0.0;
  /// Portion of busy_seconds spent on interior tiles and reductions while
  /// halo messages were in flight — the compute the overlap pipeline hides
  /// behind communication (also counted in busy_seconds).
  double overlap_compute_seconds = 0.0;
};
static_assert(std::is_trivially_copyable_v<StepRecord>);

/// kThermalize body: every rank runs the identical full-grid Maxwell-
/// Boltzmann draw from this Rng state (the zero-net-momentum subtraction
/// is a global reduction, consistent because everyone computes it over the
/// same full velocity set).
struct ThermalizeCmd {
  double temperature_K = 0.0;
  RngState rng;
};
static_assert(std::is_trivially_copyable_v<ThermalizeCmd>);

/// kOk / kBye body.
struct Ack {
  std::int64_t step = 0;
};
static_assert(std::is_trivially_copyable_v<Ack>);

/// kPePartial / kKePartial bodies.
struct EnergyPartial {
  double embed = 0.0;
  double pair = 0.0;
};
static_assert(std::is_trivially_copyable_v<EnergyPartial>);
struct KineticPartial {
  double kinetic = 0.0;
};
static_assert(std::is_trivially_copyable_v<KineticPartial>);

}  // namespace wsmd::dist
