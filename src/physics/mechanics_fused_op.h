// The pair-symmetric mechanics engine: every interacting pair's force is
// computed ONCE and scattered +F/-F into per-thread force shards (the
// store's SoaStore::force_shards()), then one slab-partitioned pass folds
// the shards and integrates the displacement. On the persistent SoA store
// this is the gather->kernel->scatter structure of BioDynaMo's GPU port
// (Hesam et al., arXiv 2105.00039), run on the CPU pool.
//
// One of two pair sources fills the shards:
//
//   Fast source (uniform grid over the live store, base InteractionForce,
//     radius within one box): one pool->RunSlots in which each worker zeroes
//     its own shard and then traverses its slab of the dense index space
//     (UniformGridEnvironment::ForEachNeighborPairInSlab), evaluating the
//     inlined branch-free sphere kernel (physics/force_kernel.h) straight
//     off the store's position/diameter arrays. Fusing the zeroing into the
//     traversal dispatch removes one barrier and keeps the shard pages hot
//     in the worker's cache when the scatter begins.
//   Generic source (everything else: kd-tree/octree, a subclassed force
//     such as type-dependent adhesion, a radius beyond the box length):
//     PairForceAccumulator over Environment::ForEachNeighborPair with the
//     virtual InteractionForce::Calculate.
//
// Both sources then share one fold + O6 ladder (one RunSlabs): fold the
// shards, then static skip -> wake -> threshold -> clamp -> displace. When
// the environment indexes the store, the displaced position is written to
// BOTH the AoS Agent (CommitEnginePosition) and the store arrays
// (WriteBackPosition) -- the write-back point that keeps the store current
// without a next-iteration refresh pass; over any other index it goes
// through Agent::ApplyDisplacement.
//
// Bitwise contract: with a single worker thread the two sources produce
// bitwise-identical trajectories on the uniform grid (same pair order, same
// kernel grouping -- InteractionForce::Calculate calls the same kernel
// header -- same shard fold order, same ladder). With multiple workers the
// CAS insert order of the grid build makes pair order -- and thus fold
// summation order -- timing-dependent, so equality is only up to FP
// associativity there.
//
// While any agent carries custom mechanics (Agent::HasCustomMechanics --
// neurite springs and kin exclusions are not symmetric pair forces), or the
// environment exposes no dense index, the whole iteration runs the
// per-agent path (RunPerAgentMechanics) instead.
#ifndef BDM_PHYSICS_MECHANICS_FUSED_OP_H_
#define BDM_PHYSICS_MECHANICS_FUSED_OP_H_

#include "core/operation.h"

namespace bdm {

class MechanicsFusedOp : public StandaloneOperation {
 public:
  /// Shares the per-agent engine's op name so pipeline surgery such as
  /// RemoveOp("mechanical_forces") works against either engine.
  MechanicsFusedOp() : StandaloneOperation("mechanical_forces", 1) {
    DeclareResources(kResGrid | kResAgentsGeometry,
                     kResAgentsGeometry | kResForces);
  }
  void Run(Simulation* sim) override;
};

}  // namespace bdm

#endif  // BDM_PHYSICS_MECHANICS_FUSED_OP_H_
