#include "engine/engine.hpp"

#include "dist/distributed_engine.hpp"
#include "engine/reference_engine.hpp"
#include "engine/wafer_engine.hpp"
#include "util/error.hpp"

namespace wsmd::engine {

Thermo Engine::run(long n, const StepCallback& callback) {
  WSMD_REQUIRE(n >= 0, "negative step count");
  Thermo t = thermo();
  for (long k = 0; k < n; ++k) {
    t = step();
    if (callback) callback(t);
  }
  return t;
}

std::unique_ptr<Engine> make_engine(Backend backend,
                                    const lattice::Structure& s,
                                    eam::EamPotentialPtr potential,
                                    const EngineConfig& config) {
  switch (backend) {
    case Backend::kReference:
      return std::make_unique<ReferenceEngine>(s, std::move(potential),
                                               config.reference);
    case Backend::kShardedWafer:
      return std::make_unique<WaferEngine>(s, std::move(potential),
                                           config.wafer, config.threads);
    case Backend::kRanks: {
      dist::DistributedConfig dc;
      dc.wse = config.wafer;
      dc.ranks = config.ranks;
      dc.threads = config.rank_threads;
      dc.step_timeout_ms = config.dist_timeout_ms;
      dc.kill_rank = config.dist_kill_rank;
      dc.kill_step = config.dist_kill_step;
      dc.scratch_parent = config.dist_scratch;
      return std::make_unique<dist::DistributedEngine>(s, std::move(potential),
                                                       std::move(dc));
    }
  }
  WSMD_REQUIRE(false, "unknown engine backend");
  return nullptr;  // unreachable
}

}  // namespace wsmd::engine
