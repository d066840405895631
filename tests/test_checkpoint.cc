#include "io/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>

#include "continuum/diffusion_grid.h"
#include "core/cell.h"
#include "core/resource_manager.h"
#include "core/scheduler.h"
#include "core/simulation.h"
#include "models/cell_proliferation.h"
#include "models/registry.h"
#include "models/neuroscience.h"
#include "neuro/neurite_element.h"
#include "neuro/neuron_soma.h"
#include "temp_path.h"

namespace bdm {
namespace {

Param SmallParam() {
  Param param;
  param.num_threads = 2;
  param.num_numa_domains = 1;
  param.agent_sort_frequency = 0;
  param.use_bdm_memory_manager = false;
  return param;
}

class CheckpointTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_ = TempPath(".bin");
};

TEST_F(CheckpointTest, CellPopulationRoundTrip) {
  std::map<AgentUid, std::pair<Real3, real_t>> expected;
  {
    Simulation sim("save", SmallParam());
    models::proliferation::Config config;
    config.num_cells = 64;
    models::proliferation::Build(&sim, config);
    sim.Simulate(10);
    sim.GetResourceManager()->ForEachAgent([&](Agent* agent, AgentHandle) {
      expected[agent->GetUid()] = {agent->GetPosition(), agent->GetDiameter()};
    });
    io::Checkpoint::Save(&sim, path_);
  }
  {
    Simulation sim("load", SmallParam());
    io::Checkpoint::Load(&sim, path_);
    auto* rm = sim.GetResourceManager();
    EXPECT_EQ(rm->GetNumAgents(), expected.size());
    rm->ForEachAgent([&](Agent* agent, AgentHandle) {
      auto it = expected.find(agent->GetUid());
      ASSERT_NE(it, expected.end()) << agent->GetUid();
      EXPECT_EQ(agent->GetPosition(), it->second.first);
      EXPECT_EQ(agent->GetDiameter(), it->second.second);
      // Behaviors restored (GrowDivide).
      EXPECT_EQ(agent->GetAllBehaviors().size(), 1u);
    });
  }
}

TEST_F(CheckpointTest, RestoredSimulationContinuesRunning) {
  uint64_t agents_at_save = 0;
  {
    Simulation sim("save", SmallParam());
    models::proliferation::Config config;
    config.num_cells = 27;
    models::proliferation::Build(&sim, config);
    sim.Simulate(30);
    agents_at_save = sim.GetResourceManager()->GetNumAgents();
    io::Checkpoint::Save(&sim, path_);
  }
  {
    Simulation sim("load", SmallParam());
    io::Checkpoint::Load(&sim, path_);
    sim.Simulate(40);  // growth continues: population must keep growing
    EXPECT_GT(sim.GetResourceManager()->GetNumAgents(), agents_at_save);
  }
}

TEST_F(CheckpointTest, NeuriteTreeLinksSurvive) {
  {
    Param param = SmallParam();
    param.detect_static_agents = true;
    Simulation sim("save", param);
    models::neuroscience::Config config;
    config.num_neurons = 4;
    config.with_substance = false;
    models::neuroscience::Build(&sim, config);
    sim.Simulate(50);
    io::Checkpoint::Save(&sim, path_);
  }
  {
    Param param = SmallParam();
    param.detect_static_agents = true;
    Simulation sim("load", param);
    io::Checkpoint::Load(&sim, path_);
    uint64_t neurites = 0;
    sim.GetResourceManager()->ForEachAgent([&](Agent* agent, AgentHandle) {
      auto* neurite = dynamic_cast<neuro::NeuriteElement*>(agent);
      if (neurite == nullptr) {
        return;
      }
      ++neurites;
      // Every mother link must resolve in the restored simulation.
      EXPECT_NE(neurite->GetMother().Get(), nullptr);
      if (!neurite->IsTerminal()) {
        EXPECT_NE(neurite->GetDaughterLeft().Get(), nullptr);
      }
    });
    EXPECT_GT(neurites, 8u);
    // And the trees keep growing after the restore.
    const auto before = models::neuroscience::ComputeTreeStats(&sim);
    sim.Simulate(30);
    const auto after = models::neuroscience::ComputeTreeStats(&sim);
    EXPECT_GT(after.elements, before.elements);
  }
}

TEST_F(CheckpointTest, UidGenerationAfterRestoreDoesNotCollide) {
  {
    Simulation sim("save", SmallParam());
    for (int i = 0; i < 10; ++i) {
      sim.GetResourceManager()->AddAgent(
          new Cell({static_cast<real_t>(i), 0, 0}, 8));
    }
    io::Checkpoint::Save(&sim, path_);
  }
  {
    Simulation sim("load", SmallParam());
    io::Checkpoint::Load(&sim, path_);
    auto* fresh = new Cell({99, 0, 0}, 8);
    sim.GetResourceManager()->AddAgent(fresh);
    EXPECT_GE(fresh->GetUid().index(), 10u);
    EXPECT_EQ(sim.GetResourceManager()->GetAgent(fresh->GetUid()), fresh);
  }
}

TEST_F(CheckpointTest, LoadIntoNonEmptySimulationAppendsWithFreshUids) {
  {
    Simulation sim("save", SmallParam());
    sim.GetResourceManager()->AddAgent(new Cell({1, 2, 3}, 8));
    sim.GetResourceManager()->AddAgent(new Cell({4, 5, 6}, 9));
    io::Checkpoint::Save(&sim, path_);
  }
  {
    Simulation sim("load", SmallParam());
    auto* resident = new Cell({7, 8, 9}, 10);
    sim.GetResourceManager()->AddAgent(resident);
    const AgentUid resident_uid = resident->GetUid();
    io::Checkpoint::Load(&sim, path_);
    auto* rm = sim.GetResourceManager();
    // Appended, not replaced; the resident agent survives untouched.
    EXPECT_EQ(rm->GetNumAgents(), 3u);
    EXPECT_EQ(rm->GetAgent(resident_uid), resident);
    // Every uid is unique: the loaded agents were remapped onto fresh uids
    // even though their serialized uids collide with the resident's.
    std::map<AgentUid, int> seen;
    rm->ForEachAgent(
        [&](Agent* agent, AgentHandle) { ++seen[agent->GetUid()]; });
    EXPECT_EQ(seen.size(), 3u);
    for (const auto& [uid, count] : seen) {
      EXPECT_EQ(count, 1) << uid;
    }
  }
}

TEST_F(CheckpointTest, MissingFileThrows) {
  Simulation sim("load", SmallParam());
  EXPECT_THROW(io::Checkpoint::Load(&sim, TempPath(".bdmckpt")),
               std::runtime_error);
}

TEST_F(CheckpointTest, CorruptMagicThrows) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "definitely not a checkpoint";
  }
  Simulation sim("load", SmallParam());
  EXPECT_THROW(io::Checkpoint::Load(&sim, path_), std::runtime_error);
}

class EveryModelCheckpoint : public ::testing::TestWithParam<const char*> {};

TEST_P(EveryModelCheckpoint, SaveLoadContinue) {
  const std::string path = TempPath(std::string("_") + GetParam() + ".bin");
  const auto* info = models::FindModel(GetParam());
  ASSERT_NE(info, nullptr);
  Param param = SmallParam();
  if (info->configure != nullptr) {
    info->configure(&param);
  }
  uint64_t saved_agents = 0;
  {
    Simulation sim("save", param);
    info->build(&sim, 300);
    sim.Simulate(10);
    saved_agents = sim.GetResourceManager()->GetNumAgents();
    io::Checkpoint::Save(&sim, path);
  }
  {
    Simulation sim("load", param);
    // Models with substances need their grids before loading (documented
    // requirement): rebuild the environment-side resources by building an
    // empty-scale model first... the registry builders create agents too,
    // so instead register the substances the clustering/neuroscience
    // models use.
    if (std::string(GetParam()) == "clustering") {
      sim.AddDiffusionGrid(std::make_unique<DiffusionGrid>("substance_0", 100,
                                                           1.0, 16),
                           {0, 0, 0}, {200, 200, 200});
      sim.AddDiffusionGrid(std::make_unique<DiffusionGrid>("substance_1", 100,
                                                           1.0, 16),
                           {0, 0, 0}, {200, 200, 200});
    }
    io::Checkpoint::Load(&sim, path);
    EXPECT_EQ(sim.GetResourceManager()->GetNumAgents(), saved_agents);
    sim.Simulate(5);  // restored behaviors keep working
    EXPECT_GT(sim.GetResourceManager()->GetNumAgents(), 0u);
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Models, EveryModelCheckpoint,
                         ::testing::Values("proliferation", "clustering",
                                           "epidemiology", "oncology",
                                           "cell_sorting"));

class UnregisteredAgent : public Cell {
 public:
  using Cell::Cell;
  Agent* NewCopy() const override { return new UnregisteredAgent(*this); }
};

TEST_F(CheckpointTest, UnregisteredTypeFailsAtSaveTime) {
  Simulation sim("save", SmallParam());
  sim.GetResourceManager()->AddAgent(new UnregisteredAgent());
  EXPECT_THROW(io::Checkpoint::Save(&sim, path_), std::runtime_error);
}

}  // namespace
}  // namespace bdm
