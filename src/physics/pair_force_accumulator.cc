#include "physics/pair_force_accumulator.h"

#include <cstring>

#include "core/agent.h"
#include "env/environment.h"
#include "obs/metrics.h"
#include "physics/interaction_force.h"
#include "sched/numa_thread_pool.h"

namespace bdm {

namespace {

struct PairMetrics {
  int static_pair_skips =
      MetricsRegistry::Get().RegisterCounter("forces.static_pair_skips");
};

const PairMetrics& Metrics() {
  static const PairMetrics metrics;
  return metrics;
}

}  // namespace

void PairForceAccumulator::Accumulate(const Environment& env,
                                      const InteractionForce& force,
                                      real_t squared_radius, bool skip_static,
                                      NumaThreadPool* pool) {
  const uint64_t total = env.DenseAgentCount();
  size_ = total;
  // Reserve-without-touching: the zeroing pass below (run by the owning
  // worker) first-touches fresh pages on the owner's NUMA domain.
  shards_.Ensure(pool->NumThreads(), total);
  if (total == 0) {
    return;
  }
  // Clear every SLOT's shard (the traversal below scatters into the shard
  // of the pair's slab index, which under a partial op-DAG team is not
  // necessarily an executing worker's id -- RunSlots covers all slots
  // regardless of team size). No barrier against the traversal is needed
  // because no thread writes a shard another thread is clearing.
  pool->RunSlots(pool->NumThreads(), [&](int tid) {
    SoaStore::ForceShard& shard = shards_.shard(tid);
    std::memset(shard.fx.data(), 0, total * sizeof(real_t));
    std::memset(shard.fy.data(), 0, total * sizeof(real_t));
    std::memset(shard.fz.data(), 0, total * sizeof(real_t));
    std::memset(shard.non_zero.data(), 0, total * sizeof(uint32_t));
  });
  env.ForEachNeighborPair(
      squared_radius, pool,
      [&](const Environment::NeighborPair& pair, int tid) {
        if (skip_static && pair.a->IsStatic() && pair.b->IsStatic()) {
          // Both endpoints provably static (O6): the pair force is known
          // unchanged and neither side will move. Self-resolving Add: tid
          // is a slab index, not necessarily the executing thread.
          if (MetricsRegistry::Enabled()) {
            MetricsRegistry::Get().Add(Metrics().static_pair_skips, 1);
          }
          return;
        }
        const Real3 f =
            force.Calculate(pair.a, pair.a_position, pair.a_diameter, pair.b,
                            pair.b_position, pair.b_diameter);
        if (f.SquaredNorm() == 0) {
          return;
        }
        SoaStore::ForceShard& shard = shards_.shard(tid);
        shard.fx[pair.a_index] += f.x;
        shard.fy[pair.a_index] += f.y;
        shard.fz[pair.a_index] += f.z;
        ++shard.non_zero[pair.a_index];
        shard.fx[pair.b_index] -= f.x;
        shard.fy[pair.b_index] -= f.y;
        shard.fz[pair.b_index] -= f.z;
        ++shard.non_zero[pair.b_index];
      });
}

void PairForceAccumulator::Flush(NumaThreadPool* pool, FlushFn fn) const {
  if (size_ == 0) {
    return;
  }
  const auto slabs = pool->MakeSlabPartition(0, static_cast<int64_t>(size_));
  pool->RunSlabs(slabs, [&](int64_t lo, int64_t hi, int tid) {
    for (int64_t i = lo; i < hi; ++i) {
      Real3 sum;
      const uint32_t non_zero = shards_.Fold(static_cast<uint64_t>(i), &sum);
      if (non_zero == 0) {
        continue;  // untouched agent: no force, no wake condition
      }
      fn(static_cast<uint32_t>(i), sum, static_cast<int>(non_zero), tid);
    }
  });
}

}  // namespace bdm
