#include "md/force_eam.hpp"

#include "engine/shard_pool.hpp"
#include "md/simd.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"

namespace wsmd::md {

namespace {

/// Fixed tile width for the threaded sweep. A constant (never derived from
/// the worker count) so the per-tile FP accumulation — and therefore every
/// force and energy — is bitwise identical at any thread count.
constexpr std::size_t kForceTile = 256;

/// Run tile_fn(t) for every tile, round-robin across the pool's workers
/// (inline when the pool is absent or single-worker). Returns only when all
/// tiles finished — callers rely on that barrier between passes.
template <typename TileFn>
void for_tiles(engine::ShardPool* pool, std::size_t ntiles,
               const TileFn& tile_fn) {
  if (pool == nullptr || pool->size() <= 1) {
    for (std::size_t t = 0; t < ntiles; ++t) tile_fn(t);
    return;
  }
  const std::size_t workers = static_cast<std::size_t>(pool->size());
  pool->run([&](int w) {
    for (std::size_t t = static_cast<std::size_t>(w); t < ntiles;
         t += workers) {
      tile_fn(t);
    }
  });
}

simd::BoxF64 make_simd_box(const Box& box) {
  // inv_len = 0 on open axes: the branch-free minimum image
  // `d -= nearbyint(d * inv_len) * len` then subtracts an exact zero.
  simd::BoxF64 out;
  const Vec3d len = box.lengths();
  for (std::size_t a = 0; a < 3; ++a) {
    out.len[a] = len[a];
    out.inv_len[a] = box.periodic[a] ? 1.0 / len[a] : 0.0;
  }
  return out;
}

}  // namespace

double EamForceKernel::compute(AtomSystem& system,
                               const NeighborList& neighbors,
                               const eam::ProfileF64& prof,
                               engine::ShardPool* pool) {
  WSMD_REQUIRE(neighbors.atom_count() == system.size(),
               "neighbor list built for a different atom count");
  const auto& types = system.types();
  const std::size_t n = system.size();

  const double rc2 = prof.cutoff_sq();
  const bool pairwise_only = prof.pairwise_only();
  const eam::ProfileF64::Raw raw = prof.raw();
  const simd::KernelTable& kern = simd::kernels();
  const simd::BoxF64 sbox = make_simd_box(system.box());

  const double* px = system.positions().x();
  const double* py = system.positions().y();
  const double* pz = system.positions().z();

  auto& forces = system.forces();
  forces.resize(n);

  // Padded per-row scratch for the compacted sieve output: row i owns
  // [acc_off_[i], acc_off_[i+1]) with kPadF64 slack so the compaction's
  // full-width stores stay in bounds.
  acc_off_.resize(n + 1);
  for (std::size_t i = 0; i <= n; ++i) {
    acc_off_[i] = neighbors.row_offset(i) + simd::kPadF64 * i;
  }
  const std::size_t cap = acc_off_[n];
  // Grow a quarter past the need: a thermalising system lists a few % more
  // entries at later rebuilds than at the first, and regrowing the scratch
  // at each new maximum copies it and strands the old blocks in the heap.
  const auto fit = [cap](auto& v) {
    if (v.capacity() < cap) v.reserve(cap + cap / 4);
    v.resize(cap);
  };
  fit(acc_idx_);
  fit(acc_dx_);
  fit(acc_dy_);
  fit(acc_dz_);
  fit(acc_r2_);
  acc_n_.resize(n);

  rho_.assign(n, 0.0);
  fprime_.assign(n, 0.0);

  const std::size_t ntiles = (n + kForceTile - 1) / kForceTile;
  tile_embed_.assign(ntiles, 0.0);
  tile_pair_.assign(ntiles, 0.0);

  // Pass 1: sieve every row once (kept for pass 2), then batched density
  // lookups and the embedding term.
  {
    telemetry::ScopedSpan span("md.force.density");
    for_tiles(pool, ntiles, [&](std::size_t t) {
      const std::size_t i0 = t * kForceTile;
      const std::size_t i1 = i0 + kForceTile < n ? i0 + kForceTile : n;
      double embed_acc = 0.0;
      for (std::size_t i = i0; i < i1; ++i) {
        const auto row = neighbors.neighbors(i);
        const std::size_t off = acc_off_[i];
        const std::size_t m = kern.sieve_f64(
            px, py, pz, px[i], py[i], pz[i], row.begin(), row.size(), sbox,
            rc2, acc_idx_.data() + off, acc_dx_.data() + off,
            acc_dy_.data() + off, acc_dz_.data() + off, acc_r2_.data() + off);
        acc_n_[i] = static_cast<std::uint32_t>(m);
        if (pairwise_only) continue;
        const double rho = kern.rho_row_f64(raw, types.data(),
                                            acc_idx_.data() + off,
                                            acc_r2_.data() + off, m);
        rho_[i] = rho;
        double f, fp;
        prof.embed(types[i], rho, f, fp);
        embed_acc += f;
        fprime_[i] = fp;
      }
      tile_embed_[t] = embed_acc;
    });
  }
  // for_tiles barrier: every fprime_[j] is published before pass 2 reads it.

  // Pass 2: batched pair + embedding forces over the stored rows.
  {
    telemetry::ScopedSpan span("md.force.pair");
    for_tiles(pool, ntiles, [&](std::size_t t) {
      const std::size_t i0 = t * kForceTile;
      const std::size_t i1 = i0 + kForceTile < n ? i0 + kForceTile : n;
      double pair_acc = 0.0;
      for (std::size_t i = i0; i < i1; ++i) {
        const std::size_t off = acc_off_[i];
        const simd::PairAccumF64 acc = kern.force_row_f64(
            raw, types.data(), fprime_.data(), fprime_[i], types[i],
            acc_idx_.data() + off, acc_dx_.data() + off, acc_dy_.data() + off,
            acc_dz_.data() + off, acc_r2_.data() + off, acc_n_[i],
            pairwise_only);
        forces.set(i, Vec3d{acc.fx, acc.fy, acc.fz});
        pair_acc += acc.phi;
      }
      tile_pair_[t] = pair_acc;
    });
  }

  e_embed_ = 0.0;
  for (double e : tile_embed_) e_embed_ += e;
  double pair_sum = 0.0;
  for (double e : tile_pair_) pair_sum += e;
  e_pair_ = 0.5 * pair_sum;  // full list counts each pair twice
  return e_pair_ + e_embed_;
}

}  // namespace wsmd::md
