// Generic pair source of the mechanics engine (physics/mechanics_fused_op.h).
//
// The interaction force is pairwise, radial, and Newton's-third-law
// symmetric (physics/interaction_force.h), so the engine computes every
// pairwise force ONCE -- via the environment's pair traversal -- and
// scatters +F into one endpoint and -F into the other. Because both
// endpoints of a pair can be owned by different traversal slabs, the
// scatter targets per-thread SoA buffers indexed by the environment's dense
// agent index; a slab-partitioned reduction (the diffusion engine's
// thread-local-deposit pattern) then folds the per-thread partials into one
// total force and one non-zero-force count per agent. The count rebuilds
// the `non_zero_forces > 1` wake condition of static-agent detection
// (Section 5 condition iv) per endpoint.
//
// This class is the source for what the fused fast path does not cover: any
// environment (Environment::ForEachNeighborPair -- kd-tree, octree, or the
// uniform grid with a radius beyond its box length) and any force (the
// virtual InteractionForce::Calculate, e.g. type-dependent adhesion). It
// scatters into a caller-owned shard set: the engine passes the store's
// SoaStore::force_shards(), so both pair sources share one set of buffers;
// tests and benches pass their own.
#ifndef BDM_PHYSICS_PAIR_FORCE_ACCUMULATOR_H_
#define BDM_PHYSICS_PAIR_FORCE_ACCUMULATOR_H_

#include <cstdint>

#include "core/function_ref.h"
#include "core/soa_store.h"
#include "math/real3.h"

namespace bdm {

class Environment;
class InteractionForce;
class NumaThreadPool;

class PairForceAccumulator {
 public:
  /// `shards` is the scatter target; it must outlive this accumulator.
  explicit PairForceAccumulator(SoaStore::ForceShards& shards)
      : shards_(shards) {}

  /// Walks every interacting pair once (Environment::ForEachNeighborPair)
  /// and accumulates the pair force into both endpoints' slots of the
  /// traversal slab's shard. With `skip_static`, pairs whose endpoints are
  /// BOTH static are skipped -- their force is provably unchanged and
  /// neither endpoint will be displaced (Section 5); a pair with one awake
  /// endpoint is still computed because the awake side needs the force.
  void Accumulate(const Environment& env, const InteractionForce& force,
                  real_t squared_radius, bool skip_static,
                  NumaThreadPool* pool);

  /// Reduction callback: dense agent index, total force over all thread
  /// buffers, number of non-zero pair forces on this agent, worker id.
  using FlushFn = FunctionRef<void(uint32_t, const Real3&, int, int)>;

  /// Slab-partitioned parallel reduction over the dense index space of the
  /// last Accumulate: each worker folds the per-thread partials of its own
  /// contiguous slab (NUMA-aligned with the traversal slabs) and invokes
  /// `fn` for every agent that received at least one non-zero force.
  void Flush(NumaThreadPool* pool, FlushFn fn) const;

 private:
  SoaStore::ForceShards& shards_;
  uint64_t size_ = 0;
};

}  // namespace bdm

#endif  // BDM_PHYSICS_PAIR_FORCE_ACCUMULATOR_H_
