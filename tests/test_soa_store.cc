// SoaStore correctness (ISSUE 6): incremental-update equivalence under
// add/remove churn (the commit-mirror protocol must track what a fresh
// gather would produce, WITHOUT full rebuilds), bitwise trajectory and O6
// counter equality of the mechanics engine's fast and generic pair sources
// (and of the generic source under a force subclass on kd-tree/octree),
// store-vs-grid audit violations being loud, and a
// multi-threaded pipeline run for the tsan build (this file is listed in
// BDM_TSAN_TESTS).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/behavior.h"
#include "core/cell.h"
#include "core/consistency_audit.h"
#include "core/resource_manager.h"
#include "core/scheduler.h"
#include "core/simulation.h"
#include "core/soa_dirty.h"
#include "env/uniform_grid.h"
#include "math/random.h"
#include "obs/metrics.h"
#include "physics/interaction_force.h"

namespace bdm {
namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Deterministic per-(uid, iteration) draw in [0, 1); keyed on the uid so
/// the decision stream is independent of agent storage order.
double Draw(const AgentUid& uid, uint64_t iteration) {
  const uint64_t key = (static_cast<uint64_t>(uid.index()) << 32) ^
                       uid.reused() ^ (iteration * 0xD1B54A32D192ED03ull);
  return static_cast<double>(SplitMix64(key) >> 11) * 0x1.0p-53;
}

uint64_t Counter(const std::string& name) {
  MetricsRegistry::Get().FlushShards();
  return MetricsRegistry::Get().CounterTotal(name);
}

class SoaStoreChurnTest : public ::testing::Test {
 protected:
  void Init(int threads, int domains, bool parallel_commit) {
    param_.num_threads = threads;
    param_.num_numa_domains = domains;
    param_.parallel_commit = parallel_commit;
    pool_ = std::make_unique<NumaThreadPool>(Topology(threads, domains));
    gen_ = std::make_unique<AgentUidGenerator>();
    rm_ = std::make_unique<ResourceManager>(param_, pool_.get(), gen_.get());
    contexts_.clear();
    context_ptrs_.clear();
    for (int slot = 0; slot < threads + 1; ++slot) {
      const int domain =
          slot == 0 ? 0 : pool_->topology().DomainOfThread(slot - 1);
      contexts_.push_back(
          std::make_unique<ExecutionContext>(domain, slot + 1, gen_.get()));
      context_ptrs_.push_back(contexts_.back().get());
    }
  }

  /// The store must mirror exactly what a fresh gather would produce:
  /// layout, slot-for-slot agent pointers, and (after EnsureCurrent cleared
  /// the behavior-dirty flag) bitwise geometry. CheckSoaStore re-derives
  /// all of it.
  void ExpectStoreMatchesGather(const std::string& context) {
    SoaStore& store = rm_->GetSoaStore();
    store.EnsureCurrent(*rm_, pool_.get());
    const auto violations = ConsistencyAudit::CheckSoaStore(*rm_, nullptr);
    ASSERT_TRUE(violations.empty())
        << context << ": " << violations.size()
        << " violation(s), first: " << violations.front();
    // Arithmetic dense<->handle maps agree in both directions.
    uint64_t dense = 0;
    for (int d = 0; d < store.NumDomains(); ++d) {
      const uint64_t count = rm_->GetNumAgents(d);
      for (uint64_t i = 0; i < count; ++i, ++dense) {
        const AgentHandle handle{static_cast<uint16_t>(d), i};
        ASSERT_EQ(store.DenseIndex(handle), dense);
        const AgentHandle back = store.HandleFromDense(dense);
        ASSERT_EQ(back.numa_domain, handle.numa_domain);
        ASSERT_EQ(back.index, handle.index);
      }
    }
    ASSERT_EQ(dense, store.TotalAgents());
  }

  /// Hash-driven add/remove churn (the test_commit_churn scenario) with the
  /// store's incremental protocol engaged from the start.
  void RunChurn(uint64_t initial, uint64_t iterations, double churn_rate) {
    for (uint64_t i = 0; i < initial; ++i) {
      rm_->AddAgent(new Cell({static_cast<real_t>(i % 17),
                              static_cast<real_t>(i % 13),
                              static_cast<real_t>(i % 11)},
                             10));
    }
    SoaStore& store = rm_->GetSoaStore();
    store.EnsureCurrent(*rm_, pool_.get());  // initial full build
    const uint64_t rebuilds_before = Counter("soa/full_rebuilds");
    uint64_t incremental_commits = 0;
    ExecutionContext* ctx = context_ptrs_[0];
    for (uint64_t iter = 0; iter < iterations; ++iter) {
      std::vector<AgentUid> uids;
      rm_->ForEachAgent(
          [&](Agent* agent, AgentHandle) { uids.push_back(agent->GetUid()); });
      std::sort(uids.begin(), uids.end());
      for (const AgentUid& uid : uids) {
        const double draw = Draw(uid, iter);
        if (draw < churn_rate) {
          ctx->RemoveAgent(uid);
        } else if (draw > 1.0 - churn_rate) {
          ctx->AddAgent(new Cell({1, 2, 3}, 10));
        }
      }
      rm_->Commit(context_ptrs_);
      if (!store.IsStructureDirty()) {
        ++incremental_commits;
      }
      ExpectStoreMatchesGather("after iteration " + std::to_string(iter));
    }
    // The whole run must have been tracked by the commit mirror: every
    // commit incremental, zero full rebuilds after the initial one. (A
    // capacity-overflow rebuild inside FinishCommit would show up here.)
    EXPECT_EQ(incremental_commits, iterations);
    EXPECT_EQ(Counter("soa/full_rebuilds"), rebuilds_before);
  }

  Param param_;
  std::unique_ptr<AgentUidGenerator> gen_;
  std::unique_ptr<NumaThreadPool> pool_;
  std::unique_ptr<ResourceManager> rm_;
  std::vector<std::unique_ptr<ExecutionContext>> contexts_;
  std::vector<ExecutionContext*> context_ptrs_;
};

TEST_F(SoaStoreChurnTest, SerialCommitKeepsStoreEquivalent) {
  Init(1, 1, /*parallel_commit=*/false);
  RunChurn(2000, 10, 0.2);
}

TEST_F(SoaStoreChurnTest, ParallelCommitKeepsStoreEquivalent) {
  // 25% deaths drives the batched removal path past its serial-fallback
  // threshold, exercising the parallel OnRemoveSwap hooks under tsan.
  Init(4, 2, /*parallel_commit=*/true);
  RunChurn(4000, 10, 0.25);
}

TEST_F(SoaStoreChurnTest, MultiDomainRepackKeepsStoreEquivalent) {
  // Low churn keeps commits small (serial removal path) while domain-size
  // changes in domain 0 force the repack branch of FinishCommit.
  Init(4, 4, /*parallel_commit=*/false);
  RunChurn(3000, 10, 0.05);
}

TEST_F(SoaStoreChurnTest, DirectAddForcesRebuildThenRecovers) {
  Init(2, 1, false);
  for (int i = 0; i < 100; ++i) {
    rm_->AddAgent(new Cell({static_cast<real_t>(i), 0, 0}, 10));
  }
  SoaStore& store = rm_->GetSoaStore();
  store.EnsureCurrent(*rm_, pool_.get());
  EXPECT_FALSE(store.IsStructureDirty());
  // Direct AddAgent is outside the commit protocol: it must raise the
  // structure-dirty flag, and the next EnsureCurrent must recover.
  rm_->AddAgent(new Cell({5, 5, 5}, 10));
  EXPECT_TRUE(store.IsStructureDirty());
  ExpectStoreMatchesGather("after direct AddAgent");
  EXPECT_EQ(store.TotalAgents(), 101u);
}

// --- audit loudness ----------------------------------------------------------

TEST(SoaStoreAudit, GeometryCorruptionIsDetectedAndCounted) {
  Param param;
  param.num_threads = 1;
  param.num_numa_domains = 1;
  NumaThreadPool pool(Topology(1, 1));
  AgentUidGenerator gen;
  ResourceManager rm(param, &pool, &gen);
  for (int i = 0; i < 50; ++i) {
    rm.AddAgent(new Cell({static_cast<real_t>(3 * i), 0, 0}, 10));
  }
  SoaStore& store = rm.GetSoaStore();
  store.EnsureCurrent(rm, &pool);
  ASSERT_TRUE(ConsistencyAudit::CheckSoaStore(rm, nullptr).empty());
  const uint64_t mismatches_before = Counter("audit.store_mismatches");
  // An engine write-back that deviates from the AoS agent is exactly the
  // corruption the audit exists for.
  store.WriteBackPosition(7, {999, 999, 999});
  const auto violations = ConsistencyAudit::CheckSoaStore(rm, nullptr);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().find("geometry diverged"), std::string::npos);
  EXPECT_GT(Counter("audit.store_mismatches"), mismatches_before);
}

TEST(SoaStoreAudit, StoreGridCountDisagreementIsLoud) {
  Param param;
  param.num_threads = 1;
  param.num_numa_domains = 1;
  NumaThreadPool pool(Topology(1, 1));
  AgentUidGenerator gen;
  ResourceManager rm(param, &pool, &gen);
  for (int i = 0; i < 64; ++i) {
    rm.AddAgent(new Cell({static_cast<real_t>(2 * i), 0, 0}, 10));
  }
  UniformGridEnvironment grid(param);
  grid.Update(rm, &pool);  // binds the grid's dense index to the store
  SoaStore& store = rm.GetSoaStore();
  ASSERT_EQ(grid.DenseAgents(), store.agents());
  ASSERT_TRUE(ConsistencyAudit::CheckSoaStore(rm, &grid).empty());
  // Advance the store without updating the grid (1.5x headroom keeps the
  // array pointers stable, so the grid still serves the store's arrays but
  // with a stale count): the audit must flag the disagreement loudly.
  rm.AddAgent(new Cell({1, 1, 1}, 10));
  store.EnsureCurrent(rm, &pool);
  const uint64_t mismatches_before = Counter("audit.store_mismatches");
  const auto violations = ConsistencyAudit::CheckSoaStore(rm, &grid);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().find("environment dense index"),
            std::string::npos);
  EXPECT_GT(Counter("audit.store_mismatches"), mismatches_before);
}

// --- fast vs generic pair source ---------------------------------------------

std::map<AgentUid, Real3> Snapshot(Simulation* sim) {
  std::map<AgentUid, Real3> result;
  sim->GetResourceManager()->ForEachAgent([&](Agent* agent, AgentHandle) {
    result[agent->GetUid()] = agent->GetPosition();
  });
  return result;
}

/// Pass-through subclass with the base force's physics: its typeid routes
/// MechanicsFusedOp to the generic pair source (PairForceAccumulator over
/// Environment::ForEachNeighborPair with the virtual Calculate) on the
/// uniform grid, where the base force takes the fast source.
struct PlainForce : InteractionForce {};

/// Weakly touching dimers and trimers beside the random cluster: their
/// overlap force is non-zero but below the force threshold, so they never
/// move and O6 marks them static. Dimers then exercise the both-static pair
/// skip; trimer ends (their middle agent stays awake -- two non-zero
/// forces) exercise the static agent skip.
void AddStaticIslands(ResourceManager* rm) {
  const real_t spacing = 10 - 1e-7;  // overlap 1e-7: |F| = 2e-7
  for (int k = 0; k < 8; ++k) {
    const Real3 origin{200, real_t{30} * k, 0};
    for (int m = 0; m < 2 + k % 2; ++m) {
      rm->AddAgent(new Cell(origin + Real3{spacing * m, 0, 0}, 10));
    }
  }
}

struct RelaxationRun {
  std::map<AgentUid, Real3> positions;
  uint64_t static_agent_skips = 0;
  uint64_t static_pair_skips = 0;
};

/// One relaxation run. Single-threaded on purpose: with one worker the
/// grid's CAS insert order -- and with it every pair-enumeration and
/// force-summation order -- is deterministic, which is what makes the
/// fast-vs-generic comparison BITWISE instead of tolerance-based.
/// `generic_source` installs PlainForce, which takes the generic source on
/// every environment.
RelaxationRun RunRelaxation(EnvironmentType environment, bool generic_source,
                            bool detect_static, int iterations) {
  Param param;
  param.environment = environment;
  param.num_threads = 1;
  param.num_numa_domains = 1;
  param.agent_sort_frequency = 0;
  param.use_bdm_memory_manager = false;
  param.pair_symmetric_forces = true;
  param.detect_static_agents = detect_static;
  Simulation sim(generic_source ? "pair_generic" : "pair_fast", param);
  if (generic_source) {
    sim.SetInteractionForce(std::make_unique<PlainForce>());
  }
  Random random(23);
  for (int i = 0; i < 300; ++i) {
    sim.GetResourceManager()->AddAgent(
        new Cell(random.UniformPoint(0, 90), 10));
  }
  AddStaticIslands(sim.GetResourceManager());
  const uint64_t agent_skips = Counter("forces.static_agent_skips");
  const uint64_t pair_skips = Counter("forces.static_pair_skips");
  sim.Simulate(iterations);
  RelaxationRun run;
  run.positions = Snapshot(&sim);
  run.static_agent_skips = Counter("forces.static_agent_skips") - agent_skips;
  run.static_pair_skips = Counter("forces.static_pair_skips") - pair_skips;
  return run;
}

void ExpectBitwiseTrajectories(const std::map<AgentUid, Real3>& a,
                               const std::map<AgentUid, Real3>& b) {
  ASSERT_EQ(a.size(), b.size());
  auto it = b.begin();
  bool moved = false;
  for (const auto& [uid, pos] : a) {
    ASSERT_EQ(uid, it->first);
    // Exact comparison -- the two sources' contract is bitwise equality,
    // not closeness (physics/force_kernel.h documents every grouping).
    EXPECT_EQ(pos.x, it->second.x) << uid;
    EXPECT_EQ(pos.y, it->second.y) << uid;
    EXPECT_EQ(pos.z, it->second.z) << uid;
    moved |= pos.x != 0 || pos.y != 0 || pos.z != 0;
    ++it;
  }
  EXPECT_TRUE(moved);  // the scene actually relaxed
}

class PairSourceBitwise : public ::testing::TestWithParam<bool> {};

TEST_P(PairSourceBitwise, FastSourceMatchesGenericSource) {
  const bool detect_static = GetParam();
  const RelaxationRun generic =
      RunRelaxation(EnvironmentType::kUniformGrid, /*generic_source=*/true,
                    detect_static, 20);
  const RelaxationRun fast =
      RunRelaxation(EnvironmentType::kUniformGrid, /*generic_source=*/false,
                    detect_static, 20);
  ExpectBitwiseTrajectories(generic.positions, fast.positions);
  // Both sources feed the same O6 counters through the one ladder.
  EXPECT_EQ(generic.static_agent_skips, fast.static_agent_skips);
  EXPECT_EQ(generic.static_pair_skips, fast.static_pair_skips);
  if (detect_static && MetricsRegistry::Enabled()) {
    // O6 actually engaged on both skip paths.
    EXPECT_GT(fast.static_agent_skips, 0u);
    EXPECT_GT(fast.static_pair_skips, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(StaticDetection, PairSourceBitwise,
                         ::testing::Bool());

// kd-tree and octree keep no store index, so the fast source never applies:
// the base force and PlainForce both take the generic source and must agree
// bitwise, and O6 must engage on both skip paths there too.
class GenericSourceOffGrid
    : public ::testing::TestWithParam<EnvironmentType> {};

TEST_P(GenericSourceOffGrid, ForceSubclassChangesNothing) {
  const RelaxationRun base = RunRelaxation(
      GetParam(), /*generic_source=*/false, /*detect_static=*/true, 20);
  const RelaxationRun plain = RunRelaxation(
      GetParam(), /*generic_source=*/true, /*detect_static=*/true, 20);
  ExpectBitwiseTrajectories(base.positions, plain.positions);
  EXPECT_EQ(base.static_agent_skips, plain.static_agent_skips);
  EXPECT_EQ(base.static_pair_skips, plain.static_pair_skips);
  if (MetricsRegistry::Enabled()) {
    EXPECT_GT(base.static_agent_skips, 0u);
    EXPECT_GT(base.static_pair_skips, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Environments, GenericSourceOffGrid,
    ::testing::Values(EnvironmentType::kKdTree, EnvironmentType::kOctree),
    [](const ::testing::TestParamInfo<EnvironmentType>& info) {
      return info.param == EnvironmentType::kKdTree ? "KdTree" : "Octree";
    });

// --- concurrent pipeline (tsan) ----------------------------------------------

/// Behavior mix for the threaded run: movement (AoS-dirty refresh path),
/// growth (diameter refresh), proliferation and death (commit mirror under
/// parallel contexts).
class ChurnBehavior : public Behavior {
 public:
  Behavior* NewCopy() const override { return new ChurnBehavior(*this); }
  void Run(Agent* agent, ExecutionContext* ctx) override {
    auto* cell = dynamic_cast<Cell*>(agent);
    const double draw = Draw(agent->GetUid(), iteration_);
    if (draw < 0.05) {
      ctx->RemoveAgent(agent->GetUid());
    } else if (draw > 0.95) {
      ctx->AddAgent(new Cell(agent->GetPosition() + Real3{1, 0, 0}, 9));
    } else if (draw > 0.5) {
      cell->SetDiameter(cell->GetDiameter() + 0.01);
    } else {
      agent->SetPosition(agent->GetPosition() + Real3{0.1, -0.1, 0.05});
    }
    ++iteration_;
  }

 private:
  uint64_t iteration_ = 0;
};

TEST(SoaStoreConcurrency, ThreadedPipelineStaysAuditClean) {
  Param param;
  param.environment = EnvironmentType::kUniformGrid;
  param.num_threads = 4;
  param.num_numa_domains = 2;
  param.parallel_commit = true;
  param.use_bdm_memory_manager = false;
  param.detect_static_agents = true;
  param.audit_interval = 1;  // store <-> uid-map <-> grid agreement per step
  Simulation sim("soa_threaded", param);
  Random random(31);
  auto* rm = sim.GetResourceManager();
  for (int i = 0; i < 1500; ++i) {
    auto* cell = new Cell(random.UniformPoint(0, 120), 10);
    cell->AddBehavior(new ChurnBehavior());
    rm->AddAgent(cell);
  }
  // Concurrently: behaviors mutate geometry and churn the population while
  // the fused engine scatters into shared shards and writes positions back
  // through the store. The per-iteration audit throws on any divergence.
  ASSERT_NO_THROW(sim.Simulate(8));
  EXPECT_GT(rm->GetNumAgents(), 0u);
}

}  // namespace
}  // namespace bdm
