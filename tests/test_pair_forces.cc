// Pair-symmetric mechanics engine tests: momentum conservation of the
// +F/-F scatter, exact agreement of the non-zero-force counts with the
// per-agent reference path, full-simulation equivalence of the two engines
// across all three environments and the static-detection toggle, a
// concurrency check over the per-thread accumulators (ctest label `tsan`),
// and the default mechanics op on small scenes (isolated pair, symmetric
// pair update, relaxation against the per-agent op, the per-agent fallback
// for custom-mechanics agents, empty simulation).
#include "physics/pair_force_accumulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "core/cell.h"
#include "core/resource_manager.h"
#include "core/scheduler.h"
#include "core/simulation.h"
#include "env/kd_tree.h"
#include "env/octree.h"
#include "env/uniform_grid.h"
#include "math/random.h"
#include "models/neuroscience.h"
#include "physics/interaction_force.h"

namespace bdm {
namespace {

// A dense random cluster: diameter-10 cells at ~4 interacting neighbors
// each, so repulsion and adhesion branches are both exercised.
class PairForceTest : public ::testing::Test {
 protected:
  void Build(int threads, int domains, uint64_t n, real_t space) {
    param_.num_threads = threads;
    param_.num_numa_domains = domains;
    pool_ = std::make_unique<NumaThreadPool>(Topology(threads, domains));
    rm_ = std::make_unique<ResourceManager>(param_, pool_.get(), &gen_);
    Random random(7);
    for (uint64_t i = 0; i < n; ++i) {
      rm_->AddAgent(new Cell(random.UniformPoint(0, space), 10));
    }
  }

  struct PerAgentResult {
    std::vector<Real3> displacement;
    std::vector<int> non_zero;
  };

  // The per-agent reference: every dense agent runs CalculateDisplacement.
  PerAgentResult RunPerAgent(Environment* env) {
    PerAgentResult result;
    const uint64_t count = env->DenseAgentCount();
    Agent* const* dense = env->DenseAgents();
    result.displacement.resize(count);
    result.non_zero.resize(count, 0);
    for (uint64_t i = 0; i < count; ++i) {
      result.displacement[i] = dense[i]->CalculateDisplacement(
          &force_, env, param_, &result.non_zero[i]);
    }
    return result;
  }

  struct PairResult {
    std::vector<Real3> displacement;
    std::vector<int> non_zero;
    Real3 net_force;
    double force_scale = 0;
  };

  // The pair engine: accumulate once per pair, flush, and rebuild the
  // displacement with the same threshold/clamp formula as the reference.
  PairResult RunPair(const Environment& env, bool skip_static = false) {
    const real_t radius = env.GetInteractionRadius();
    accumulator_.Accumulate(env, force_, radius * radius, skip_static,
                            pool_.get());
    PairResult result;
    const uint64_t count = env.DenseAgentCount();
    result.displacement.resize(count);
    result.non_zero.resize(count, 0);
    std::vector<Real3> partial(pool_->NumThreads());
    accumulator_.Flush(pool_.get(), [&](uint32_t i, const Real3& total,
                                        int non_zero, int tid) {
      partial[tid] += total;
      result.non_zero[i] = non_zero;
      if (total.SquaredNorm() < param_.force_threshold_squared) {
        return;
      }
      Real3 displacement = total * (param_.dt / param_.viscosity);
      const real_t norm = displacement.Norm();
      if (norm > param_.max_displacement) {
        displacement *= param_.max_displacement / norm;
      }
      result.displacement[i] = displacement;
    });
    for (const Real3& p : partial) {
      result.net_force += p;
      result.force_scale += p.Norm();
    }
    return result;
  }

  static void ExpectSameResults(const PerAgentResult& a, const PairResult& b) {
    ASSERT_EQ(a.non_zero.size(), b.non_zero.size());
    for (size_t i = 0; i < a.non_zero.size(); ++i) {
      // The force is exactly antisymmetric, so the counts must match to the
      // integer even though the pair path evaluates each force only once.
      ASSERT_EQ(a.non_zero[i], b.non_zero[i]) << "agent " << i;
      for (int c = 0; c < 3; ++c) {
        ASSERT_NEAR(a.displacement[i][c], b.displacement[i][c],
                    1e-9 + 1e-9 * std::abs(a.displacement[i][c]))
            << "agent " << i << " component " << c;
      }
    }
  }

  Param param_;
  AgentUidGenerator gen_;
  InteractionForce force_;
  std::unique_ptr<NumaThreadPool> pool_;
  std::unique_ptr<ResourceManager> rm_;
  SoaStore::ForceShards shards_;
  PairForceAccumulator accumulator_{shards_};
};

TEST_F(PairForceTest, MomentumIsConserved) {
  Build(4, 2, 2000, 160);
  UniformGridEnvironment grid(param_);
  grid.Update(*rm_, pool_.get());
  const PairResult pair = RunPair(grid);
  // +F/-F scatter: the forces cancel pair by pair, so the total over all
  // agents is zero up to summation rounding.
  EXPECT_LT(pair.net_force.Norm(), 1e-10 * std::max(1.0, pair.force_scale));
  EXPECT_GT(pair.force_scale, 0);  // the scene actually produced forces
}

TEST_F(PairForceTest, HalfStencilMatchesPerAgentReference) {
  Build(4, 2, 2000, 160);
  UniformGridEnvironment grid(param_);
  grid.Update(*rm_, pool_.get());
  ExpectSameResults(RunPerAgent(&grid), RunPair(grid));
}

TEST_F(PairForceTest, GenericTraversalMatchesPerAgentReference) {
  // kd-tree and octree have no half stencil; the Environment base class
  // walks ForEachNeighbor and keeps pairs with j > i.
  Build(4, 2, 500, 100);
  KdTreeEnvironment kd(param_);
  kd.Update(*rm_, pool_.get());
  ExpectSameResults(RunPerAgent(&kd), RunPair(kd));

  OctreeEnvironment octree(param_);
  octree.Update(*rm_, pool_.get());
  ExpectSameResults(RunPerAgent(&octree), RunPair(octree));
}

TEST_F(PairForceTest, StaticPairsAreSkippedAwakeAgentsUnchanged) {
  Build(2, 1, 1000, 130);
  UniformGridEnvironment grid(param_);
  grid.Update(*rm_, pool_.get());
  // Make every third agent static (two promotions: next -> current).
  rm_->ForEachAgent([&](Agent* agent, AgentHandle handle) {
    if (handle.index % 3 == 0) {
      agent->UpdateStaticness();
      agent->UpdateStaticness();
      ASSERT_TRUE(agent->IsStatic());
    }
  });
  param_.detect_static_agents = true;
  const PerAgentResult reference = RunPerAgent(&grid);
  const PairResult pair = RunPair(grid, /*skip_static=*/true);
  const uint64_t count = grid.DenseAgentCount();
  Agent* const* dense = grid.DenseAgents();
  uint64_t awake = 0;
  for (uint64_t i = 0; i < count; ++i) {
    if (dense[i]->IsStatic()) {
      continue;  // the engine skips static agents at flush time
    }
    ++awake;
    // Awake agents must see every force -- including those against static
    // partners, which the both-static skip must not have dropped.
    ASSERT_EQ(reference.non_zero[i], pair.non_zero[i]) << "agent " << i;
    for (int c = 0; c < 3; ++c) {
      ASSERT_NEAR(reference.displacement[i][c], pair.displacement[i][c],
                  1e-9 + 1e-9 * std::abs(reference.displacement[i][c]))
          << "agent " << i;
    }
  }
  EXPECT_GT(awake, 0u);
}

TEST_F(PairForceTest, ConcurrentAccumulationMatchesSerial) {
  // Concurrency check (tsan label): many threads scatter into their own
  // buffers over shared dense indices; the reduction must agree with a
  // one-thread run up to summation order.
  Build(8, 2, 3000, 180);
  UniformGridEnvironment grid(param_);
  grid.Update(*rm_, pool_.get());
  const PairResult parallel = RunPair(grid);

  auto serial_pool = std::make_unique<NumaThreadPool>(Topology(1, 1));
  UniformGridEnvironment serial_grid(param_);
  serial_grid.Update(*rm_, serial_pool.get());
  SoaStore::ForceShards serial_shards;
  PairForceAccumulator serial_acc(serial_shards);
  const real_t radius = serial_grid.GetInteractionRadius();
  serial_acc.Accumulate(serial_grid, force_, radius * radius, false,
                        serial_pool.get());
  std::vector<Real3> serial_total(serial_grid.DenseAgentCount());
  std::vector<int> serial_non_zero(serial_grid.DenseAgentCount(), 0);
  serial_acc.Flush(serial_pool.get(), [&](uint32_t i, const Real3& total,
                                          int non_zero, int) {
    serial_total[i] = total;
    serial_non_zero[i] = non_zero;
  });
  // Dense order is NUMA-flatten order of the same ResourceManager in both
  // runs, so indices are comparable.
  ASSERT_EQ(serial_total.size(), parallel.non_zero.size());
  std::vector<int> parallel_non_zero = parallel.non_zero;
  for (size_t i = 0; i < serial_total.size(); ++i) {
    ASSERT_EQ(serial_non_zero[i], parallel_non_zero[i]) << i;
  }
}

// --- full-simulation equivalence ---------------------------------------------

std::map<AgentUid, Real3> Snapshot(Simulation* sim) {
  std::map<AgentUid, Real3> result;
  sim->GetResourceManager()->ForEachAgent([&](Agent* agent, AgentHandle) {
    result[agent->GetUid()] = agent->GetPosition();
  });
  return result;
}

std::map<AgentUid, Real3> RunRelaxation(Param param, bool pair_engine,
                                        int iterations) {
  param.num_threads = 1;
  param.num_numa_domains = 1;
  param.agent_sort_frequency = 0;
  param.use_bdm_memory_manager = false;
  param.pair_symmetric_forces = pair_engine;
  Simulation sim("pair_equivalence", param);
  Random random(11);
  for (int i = 0; i < 300; ++i) {
    sim.GetResourceManager()->AddAgent(
        new Cell(random.UniformPoint(0, 90), 10));
  }
  sim.Simulate(iterations);
  return Snapshot(&sim);
}

void ExpectNearTrajectories(const std::map<AgentUid, Real3>& a,
                            const std::map<AgentUid, Real3>& b,
                            real_t tolerance) {
  ASSERT_EQ(a.size(), b.size());
  auto it = b.begin();
  for (const auto& [uid, pos] : a) {
    ASSERT_EQ(uid, it->first);
    EXPECT_NEAR(pos.x, it->second.x, tolerance) << uid;
    EXPECT_NEAR(pos.y, it->second.y, tolerance) << uid;
    EXPECT_NEAR(pos.z, it->second.z, tolerance) << uid;
    ++it;
  }
}

// On the uniform grid the per-agent path reads neighbors from the SoA
// mirror (a pre-iteration snapshot) exactly like the pair engine, so the
// two engines' trajectories agree up to force summation order. (For
// kd-tree/octree this comparison is ill-posed: ForEachNeighborData serves
// live neighbor positions there, making the per-agent engine Gauss-Seidel
// -- later agents see earlier agents' same-iteration moves -- while the
// pair engine evaluates the whole iteration from the snapshot. Those
// environments are covered by the kernel-level exact check above and the
// cross-environment trajectory check below.)
class PairEngineEquivalence : public ::testing::TestWithParam<bool> {};

TEST_P(PairEngineEquivalence, SameTrajectoriesAsPerAgentEngine) {
  Param param;
  param.environment = EnvironmentType::kUniformGrid;
  param.detect_static_agents = GetParam();
  const auto per_agent = RunRelaxation(param, false, 20);
  const auto pair = RunRelaxation(param, true, 20);
  ExpectNearTrajectories(per_agent, pair, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(StaticDetection, PairEngineEquivalence,
                         ::testing::Bool());

// The pair engine must integrate the same trajectory no matter which
// environment enumerates the pairs: half-stencil traversal (uniform grid)
// vs the generic j > i filter over radius searches (kd-tree, octree). All
// three use the same interaction radius (the largest diameter), so only
// pair enumeration order -- i.e. force summation order -- may differ.
struct CrossEnvCase {
  EnvironmentType environment;
  bool detect_static;
};

class PairEngineCrossEnvironment
    : public ::testing::TestWithParam<CrossEnvCase> {};

TEST_P(PairEngineCrossEnvironment, MatchesUniformGridTrajectories) {
  Param grid_param;
  grid_param.environment = EnvironmentType::kUniformGrid;
  grid_param.detect_static_agents = GetParam().detect_static;
  Param tree_param = grid_param;
  tree_param.environment = GetParam().environment;
  const auto on_grid = RunRelaxation(grid_param, true, 20);
  const auto on_tree = RunRelaxation(tree_param, true, 20);
  ExpectNearTrajectories(on_grid, on_tree, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, PairEngineCrossEnvironment,
    ::testing::Values(CrossEnvCase{EnvironmentType::kKdTree, false},
                      CrossEnvCase{EnvironmentType::kKdTree, true},
                      CrossEnvCase{EnvironmentType::kOctree, false},
                      CrossEnvCase{EnvironmentType::kOctree, true}));

TEST(PairEngineScheduling, PairOpAnswersToMechanicalForcesName) {
  Param param;
  param.num_threads = 1;
  param.num_numa_domains = 1;
  param.pair_symmetric_forces = true;
  Simulation sim("pair_naming", param);
  // Pipeline surgery (tests, ablation benches) addresses the mechanics stage
  // by name regardless of which engine is scheduled.
  EXPECT_NE(sim.GetScheduler()->GetOp("mechanical_forces"), nullptr);
  EXPECT_TRUE(sim.GetScheduler()->RemoveOp("mechanical_forces"));
  EXPECT_EQ(sim.GetScheduler()->GetOp("mechanical_forces"), nullptr);
}

// --- the default mechanics op on tiny scenes ---------------------------------

Param TwoThreadParam() {
  Param param;
  param.num_threads = 2;
  param.num_numa_domains = 1;
  param.agent_sort_frequency = 0;
  param.use_bdm_memory_manager = false;
  return param;
}

TEST(MechanicsOpTest, IsolatedPairMovesByInteractionForce) {
  // One step on an isolated overlapping pair: the displacement must be
  // exactly the scalar InteractionForce times dt / viscosity.
  Simulation sim("mechanics_pair", TwoThreadParam());
  auto* a = new Cell({0, 0, 0}, 10);
  auto* b = new Cell({8, 0, 0}, 10);
  sim.GetResourceManager()->AddAgent(a);
  sim.GetResourceManager()->AddAgent(b);
  const Real3 expected_force =
      sim.GetInteractionForce()->Calculate(a, b);  // before anything moves
  ASSERT_GT(expected_force.SquaredNorm(), 0);
  const Param& param = sim.GetParam();
  const Real3 expected_displacement =
      expected_force * (param.dt / param.viscosity);
  const Real3 a_before = a->GetPosition();
  sim.Simulate(1);
  const Real3 moved = a->GetPosition() - a_before;
  EXPECT_NEAR(moved.x, expected_displacement.x, 1e-12);
  EXPECT_NEAR(moved.y, expected_displacement.y, 1e-12);
  EXPECT_NEAR(moved.z, expected_displacement.z, 1e-12);
}

TEST(MechanicsOpTest, PairUpdateIsSymmetric) {
  // Every force of an iteration is computed from the same snapshot (a
  // Jacobi update), so a symmetric pair moves symmetrically.
  Simulation sim("mechanics_pair", TwoThreadParam());
  auto* a = new Cell({0, 0, 0}, 10);
  auto* b = new Cell({8, 0, 0}, 10);
  sim.GetResourceManager()->AddAgent(a);
  sim.GetResourceManager()->AddAgent(b);
  sim.Simulate(1);
  EXPECT_LT(a->GetPosition().x, 0);  // the overlapping pair separated
  EXPECT_NEAR(a->GetPosition().x + b->GetPosition().x, 8.0, 1e-12);
}

TEST(MechanicsOpTest, OverlappingPairSeparates) {
  Simulation sim("mechanics_pair", TwoThreadParam());
  auto* a = new Cell({0, 0, 0}, 10);
  auto* b = new Cell({6, 0, 0}, 10);
  sim.GetResourceManager()->AddAgent(a);
  sim.GetResourceManager()->AddAgent(b);
  const real_t gap_before = a->GetPosition().Distance(b->GetPosition());
  sim.Simulate(20);
  const real_t gap_after = a->GetPosition().Distance(b->GetPosition());
  EXPECT_GT(gap_after, gap_before);
}

TEST(MechanicsOpTest, RelaxationMatchesPerAgentOpQualitatively) {
  // The pair engine (Jacobi) and the per-agent MechanicalForcesOp
  // (Gauss-Seidel) must reach the same equilibrium structure: comparable
  // residual overlap after enough iterations.
  auto run = [](bool pair_symmetric) {
    Param param = TwoThreadParam();
    param.pair_symmetric_forces = pair_symmetric;
    Simulation sim("mechanics_relax", param);
    Random init(5);
    auto* rm = sim.GetResourceManager();
    for (int i = 0; i < 100; ++i) {
      rm->AddAgent(new Cell(init.UniformPoint(0, 60), 10));
    }
    sim.Simulate(300);
    real_t worst = 0;
    rm->ForEachAgent([&](Agent* x, AgentHandle) {
      rm->ForEachAgent([&](Agent* y, AgentHandle) {
        if (x == y) {
          return;
        }
        const real_t d = x->GetPosition().Distance(y->GetPosition());
        worst = std::max(worst, (x->GetDiameter() + y->GetDiameter()) / 2 - d);
      });
    });
    return worst;
  };
  const real_t per_agent_overlap = run(false);
  const real_t pair_overlap = run(true);
  EXPECT_NEAR(pair_overlap, per_agent_overlap, 2.0);
}

TEST(MechanicsOpTest, CustomMechanicsPopulationFallsBack) {
  // A neuroscience population contains neurite elements with custom
  // mechanics; the default op must take the per-agent path for them and
  // still advance the simulation.
  Simulation sim("mechanics_neurons", TwoThreadParam());
  models::neuroscience::Config config;
  config.num_neurons = 4;
  config.with_substance = false;
  models::neuroscience::Build(&sim, config);
  const auto before = models::neuroscience::ComputeTreeStats(&sim);
  sim.Simulate(40);
  const auto after = models::neuroscience::ComputeTreeStats(&sim);
  EXPECT_GT(sim.GetResourceManager()->GetNumCustomMechanicsAgents(), 0);
  EXPECT_GT(after.elements, before.elements);
}

TEST(MechanicsOpTest, EmptySimulationIsSafe) {
  Simulation sim("mechanics_empty", TwoThreadParam());
  sim.Simulate(3);
  EXPECT_EQ(sim.GetResourceManager()->GetNumAgents(), 0u);
}

}  // namespace
}  // namespace bdm
