#include "physics/mechanics_fused_op.h"

#include <algorithm>
#include <cstring>
#include <typeinfo>

#include "core/agent.h"
#include "core/default_ops.h"
#include "core/resource_manager.h"
#include "core/scheduler.h"
#include "core/simulation.h"
#include "core/soa_store.h"
#include "core/timing.h"
#include "env/uniform_grid.h"
#include "obs/metrics.h"
#include "physics/force_kernel.h"
#include "physics/interaction_force.h"
#include "physics/pair_force_accumulator.h"
#include "sched/numa_thread_pool.h"

namespace bdm {

namespace {

struct FusedMetrics {
  // Same names as the per-agent engine and PairForceAccumulator
  // (MetricsRegistry dedupes by name): every path feeds the same counters,
  // so runs compare directly.
  int static_pair_skips =
      MetricsRegistry::Get().RegisterCounter("forces.static_pair_skips");
  int static_agent_skips =
      MetricsRegistry::Get().RegisterCounter("forces.static_agent_skips");
  /// Width of the widest slab of the last pass: how much contiguous
  /// dense-index work one worker owns (load-balance telemetry).
  int slab_span = MetricsRegistry::Get().RegisterGauge("fused/slab_span");
};

const FusedMetrics& Metrics() {
  static const FusedMetrics metrics;
  return metrics;
}

/// Fast pair source: fused zero + half-stencil traverse + inlined sphere
/// kernel + scatter, indexed by SLOT (shard == slab index), not by executing
/// worker: EVERY slot's shard must be zeroed -- a slot whose slab is empty
/// still receives scatter writes from pairs owned by other slabs -- and
/// under the op DAG this op may run on a partial worker team, whose members
/// each cover a chunk of slots. With the full team RunSlots degenerates to
/// slot == tid.
void ScatterSphereForces(const UniformGridEnvironment& grid,
                         const SoaStore& store, const InteractionForce& force,
                         real_t squared_radius, bool skip_static,
                         const NumaThreadPool::SlabPartition& slabs,
                         SoaStore::ForceShards& shards, NumaThreadPool* pool) {
  const uint64_t total = grid.DenseAgentCount();
  shards.Ensure(pool->NumThreads(), total);
  const real_t* px = store.pos_x();
  const real_t* py = store.pos_y();
  const real_t* pz = store.pos_z();
  const real_t* dia = store.diameter();
  const uint8_t* is_static = store.is_static();
  const real_t repulsion = force.repulsion();
  const real_t attraction = force.attraction();
  const real_t attraction_range = force.attraction_range();
  pool->RunSlots(pool->NumThreads(), [&](int tid) {
    SoaStore::ForceShard& shard = shards.shard(tid);
    std::memset(shard.fx.data(), 0, total * sizeof(real_t));
    std::memset(shard.fy.data(), 0, total * sizeof(real_t));
    std::memset(shard.fz.data(), 0, total * sizeof(real_t));
    std::memset(shard.non_zero.data(), 0, total * sizeof(uint32_t));
    const int64_t lo = slabs.bounds[tid];
    const int64_t hi = slabs.bounds[tid + 1];
    if (lo >= hi) {
      return;
    }
    real_t* fx = shard.fx.data();
    real_t* fy = shard.fy.data();
    real_t* fz = shard.fz.data();
    uint32_t* non_zero = shard.non_zero.data();
    uint64_t pair_skips = 0;
    grid.ForEachNeighborPairInSlab(
        squared_radius, lo, hi, [&](uint32_t i, uint32_t j, real_t d2) {
          if (skip_static && is_static[i] != 0 && is_static[j] != 0) {
            ++pair_skips;  // both endpoints provably static (O6)
            return;
          }
          // i-j order matches the generic source's pair.a - pair.b; the
          // kernel header documents every grouping the bitwise contract
          // relies on.
          const real_t dx = px[i] - px[j];
          const real_t dy = py[i] - py[j];
          const real_t dz = pz[i] - pz[j];
          const real_t sum_radii =
              dia[i] * real_t{0.5} + dia[j] * real_t{0.5};
          const Real3 f =
              detail::SphereForceKernel(dx, dy, dz, d2, sum_radii, repulsion,
                                        attraction, attraction_range);
          if (f.SquaredNorm() == 0) {
            return;
          }
          fx[i] += f.x;
          fy[i] += f.y;
          fz[i] += f.z;
          ++non_zero[i];
          fx[j] -= f.x;
          fy[j] -= f.y;
          fz[j] -= f.z;
          ++non_zero[j];
        });
    if (pair_skips != 0 && MetricsRegistry::Enabled()) {
      MetricsRegistry::Get().Add(Metrics().static_pair_skips, pair_skips);
    }
  });
}

/// The one fold + O6 ladder for both pair sources: fold the shards, then
/// static skip -> wake -> threshold -> clamp -> displace. `kStoreIndexed`:
/// the environment's dense index is the store's, so staticness is read from
/// and the displaced position written back to the store arrays as well.
template <bool kStoreIndexed>
void FoldAndDisplace(Agent* const* agents, SoaStore& store,
                     const SoaStore::ForceShards& shards, const Param& param,
                     const NumaThreadPool::SlabPartition& slabs,
                     NumaThreadPool* pool) {
  const bool skip_static = param.detect_static_agents;
  const uint8_t* is_static = store.is_static();
  const real_t dt_over_viscosity = param.dt / param.viscosity;
  pool->RunSlabs(slabs, [&](int64_t lo, int64_t hi, int) {
    uint64_t agent_skips = 0;
    for (int64_t i = lo; i < hi; ++i) {
      Real3 sum;
      const uint32_t non_zero = shards.Fold(static_cast<uint64_t>(i), &sum);
      if (non_zero == 0) {
        continue;  // untouched agent: no force, no wake condition
      }
      Agent* agent = agents[i];
      if (agent->IsGhost()) {
        // Halo copy owned by another shard: it exerted forces on local
        // agents above, but only its owner integrates its displacement.
        continue;
      }
      if (skip_static &&
          (kStoreIndexed ? is_static[i] != 0 : agent->IsStatic())) {
        // Same skip as the per-agent path: a static agent is neither woken
        // nor displaced. (Its pairs with awake partners were still computed
        // -- the awake side needs the force.)
        ++agent_skips;
        continue;
      }
      if (non_zero > 1) {
        agent->WakeUp();
      }
      if (sum.SquaredNorm() < param.force_threshold_squared) {
        continue;
      }
      Real3 displacement = sum * dt_over_viscosity;
      const real_t norm = displacement.Norm();
      if (norm > param.max_displacement) {
        displacement *= param.max_displacement / norm;
      }
      if (displacement.SquaredNorm() > 0) {
        if constexpr (kStoreIndexed) {
          const Real3 p = agent->GetPosition() + displacement;
          agent->CommitEnginePosition(p);
          store.WriteBackPosition(static_cast<uint64_t>(i), p);
        } else {
          agent->ApplyDisplacement(displacement, param);
        }
      }
    }
    if (agent_skips != 0 && MetricsRegistry::Enabled()) {
      // Self-resolving Add: tid is a slab index, not necessarily the
      // executing thread.
      MetricsRegistry::Get().Add(Metrics().static_agent_skips, agent_skips);
    }
  });
}

}  // namespace

void MechanicsFusedOp::Run(Simulation* sim) {
  auto* rm = sim->GetResourceManager();
  auto* env = sim->GetEnvironment();
  if (rm->GetNumCustomMechanicsAgents() > 0 || env->DenseAgents() == nullptr) {
    // Custom-mechanics agents (neurite springs with kin exclusion) make the
    // "total force = sum of symmetric pair forces" premise false, so the
    // whole iteration runs the per-agent path.
    rm->ForEachAgentParallel([&](Agent* agent, AgentHandle, int) {
      RunPerAgentMechanics(agent, sim);
    });
    return;
  }
  const uint64_t total = env->DenseAgentCount();
  if (total == 0) {
    return;
  }
  auto* grid = dynamic_cast<UniformGridEnvironment*>(env);
  const Param& param = sim->GetParam();
  const InteractionForce* force = sim->GetInteractionForce();
  SoaStore& store = rm->GetSoaStore();
  const real_t radius = env->GetInteractionRadius();
  const real_t squared_radius = radius * radius;
  // The uniform grid indexes the store's arrays (UniformGridEnvironment::
  // Update); kd-tree and octree keep dense indices of their own.
  const bool store_indexed = grid != nullptr && store.IsLive();
  // The fast source inlines the BASE sphere force and covers radii up to
  // one box length; anything else takes the generic source.
  const bool fast_source =
      store_indexed && typeid(*force) == typeid(InteractionForce) &&
      squared_radius <=
          grid->GetBoxLength() * grid->GetBoxLength() * (1 + real_t{1e-6});
  TraceSpan span("mechanics_fused",
                 sim->GetScheduler()->GetSimulatedIterations());
  NumaThreadPool* pool = sim->GetThreadPool();
  SoaStore::ForceShards& shards = store.force_shards();
  const auto slabs = pool->MakeSlabPartition(0, static_cast<int64_t>(total));
  if (MetricsRegistry::Enabled()) {
    int64_t span_max = 0;
    for (size_t t = 0; t + 1 < slabs.bounds.size(); ++t) {
      span_max = std::max(span_max, slabs.bounds[t + 1] - slabs.bounds[t]);
    }
    MetricsRegistry::Get().SetGauge(Metrics().slab_span,
                                    static_cast<double>(span_max));
  }
  if (fast_source) {
    ScatterSphereForces(*grid, store, *force, squared_radius,
                        param.detect_static_agents, slabs, shards, pool);
  } else {
    PairForceAccumulator accumulator(shards);
    accumulator.Accumulate(*env, *force, squared_radius,
                           param.detect_static_agents, pool);
  }
  if (store_indexed) {
    FoldAndDisplace<true>(env->DenseAgents(), store, shards, param, slabs,
                          pool);
  } else {
    FoldAndDisplace<false>(env->DenseAgents(), store, shards, param, slabs,
                           pool);
  }
}

}  // namespace bdm
