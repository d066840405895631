// Pipeline-level A/B for the mechanics engine's two pair sources (DESIGN.md
// "Pair-symmetric mechanics engine"): the same relaxation workload once
// through the generic source (PairForceAccumulator over the environment's
// pair traversal with the virtual InteractionForce::Calculate -- selected by
// installing a pass-through InteractionForce subclass) and once through the
// fast source (fused zero/traverse/scatter with the inlined sphere kernel
// over the persistent SoA store). Both share the fold/integrate/write-back
// pass. Unlike bench_forces -- which times the force kernels in isolation
// on a frozen grid -- this drives the whole scheduler pipeline: environment
// update, staticness passes, mechanics, commit.
//
// Correctness gate: both sources run single-threaded at small scale first,
// with and without static-agent detection (O6); their trajectories must
// agree BITWISE and their forces.static_agent_skips / static_pair_skips
// counters must be equal (same pair order, same kernel grouping, same
// ladder; one worker removes the only nondeterminism, grid insert order).
// A mismatch fails the process.
//
// Emits BENCH_fused.json; the checked-in smoke baseline under
// bench/baselines/smoke/ feeds regress.py (presence gate in --smoke CI,
// timing gate with per-record tol locally).
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>

#include "core/agent.h"
#include "core/cell.h"
#include "core/resource_manager.h"
#include "core/simulation.h"
#include "harness.h"
#include "math/random.h"
#include "obs/metrics.h"
#include "physics/interaction_force.h"

namespace bdm::bench {
namespace {

/// Pass-through subclass with the base force's physics: its typeid routes
/// the mechanics op to the generic pair source.
struct PlainForce : InteractionForce {};

void BuildCells(Simulation* sim, uint64_t n, real_t space, uint64_t seed) {
  Random random(seed);
  auto* rm = sim->GetResourceManager();
  for (uint64_t i = 0; i < n; ++i) {
    rm->AddAgent(new Cell(random.UniformPoint(0, space), 10));
  }
}

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

uint64_t Counter(const char* name) {
  MetricsRegistry::Get().FlushShards();
  return MetricsRegistry::Get().CounterTotal(name);
}

struct Trajectory {
  std::map<AgentUid, Real3> positions;
  uint64_t static_agent_skips = 0;
  uint64_t static_pair_skips = 0;
};

/// Single-threaded relaxation trajectory through one pair source.
Trajectory RunTrajectory(bool generic_source, bool detect_static) {
  Param param;
  param.num_threads = 1;
  param.num_numa_domains = 1;
  param.detect_static_agents = detect_static;
  Simulation sim(generic_source ? "fused_traj_generic" : "fused_traj_fast",
                 param);
  if (generic_source) {
    sim.SetInteractionForce(std::make_unique<PlainForce>());
  }
  BuildCells(&sim, 300, 90, 11);
  AddStaticIslands(sim.GetResourceManager());
  const uint64_t agent_skips = Counter("forces.static_agent_skips");
  const uint64_t pair_skips = Counter("forces.static_pair_skips");
  sim.Simulate(20);
  Trajectory result;
  sim.GetResourceManager()->ForEachAgent([&](Agent* agent, AgentHandle) {
    result.positions[agent->GetUid()] = agent->GetPosition();
  });
  result.static_agent_skips = Counter("forces.static_agent_skips") - agent_skips;
  result.static_pair_skips = Counter("forces.static_pair_skips") - pair_skips;
  return result;
}

/// Fast-vs-generic gate for one O6 setting; prints the reason and returns
/// false on any difference.
bool SourcesAgree(bool detect_static) {
  const Trajectory generic = RunTrajectory(/*generic_source=*/true, detect_static);
  const Trajectory fast = RunTrajectory(/*generic_source=*/false, detect_static);
  if (generic.positions.size() != fast.positions.size()) {
    std::fprintf(stderr, "trajectory agent-count mismatch: %zu vs %zu\n",
                 generic.positions.size(), fast.positions.size());
    return false;
  }
  uint64_t drifted = 0;
  auto it = fast.positions.begin();
  for (const auto& [uid, pos] : generic.positions) {
    if (uid != it->first || pos.x != it->second.x || pos.y != it->second.y ||
        pos.z != it->second.z) {
      ++drifted;
    }
    ++it;
  }
  if (drifted != 0) {
    std::fprintf(stderr,
                 "fast source drifted from the generic source on %llu agents "
                 "(detect_static=%d)\n",
                 static_cast<unsigned long long>(drifted), detect_static);
    return false;
  }
  if (generic.static_agent_skips != fast.static_agent_skips ||
      generic.static_pair_skips != fast.static_pair_skips) {
    std::fprintf(stderr,
                 "O6 counters differ between sources: agent skips %llu vs "
                 "%llu, pair skips %llu vs %llu\n",
                 static_cast<unsigned long long>(generic.static_agent_skips),
                 static_cast<unsigned long long>(fast.static_agent_skips),
                 static_cast<unsigned long long>(generic.static_pair_skips),
                 static_cast<unsigned long long>(fast.static_pair_skips));
    return false;
  }
  if (detect_static && MetricsRegistry::Enabled() &&
      (fast.static_agent_skips == 0 || fast.static_pair_skips == 0)) {
    std::fprintf(stderr, "O6 gate is vacuous: no static skips counted\n");
    return false;
  }
  return true;
}

/// Full-pipeline wall time per agent-iteration through one pair source.
double RunPipelineNs(bool generic_source, uint64_t n, real_t space,
                     uint64_t iterations) {
  Param param;
  param.num_threads = 4;
  param.num_numa_domains = 2;
  Simulation sim(generic_source ? "fused_pipeline_generic"
                                : "fused_pipeline_fast",
                 param);
  if (generic_source) {
    sim.SetInteractionForce(std::make_unique<PlainForce>());
  }
  BuildCells(&sim, n, space, 42);
  const auto start = std::chrono::steady_clock::now();
  sim.Simulate(iterations);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::nano>(elapsed).count() /
         (static_cast<double>(n) * static_cast<double>(iterations));
}

int Run() {
  // Fixed smoke sizes (not Scaled): the checked-in smoke baseline matches
  // records by (workload, agents), so the smoke run must always land on the
  // same agent count regardless of BDM_BENCH_SCALE_FACTOR.
  const uint64_t n = SmokeMode() ? 2'000 : Scaled(200'000);
  const uint64_t iterations = SmokeMode() ? 5 : 50;
  const real_t space = 1000 * std::cbrt(static_cast<double>(n) / 1'000'000.0);

  // Gate first: a fast source that drifts from the generic one is a bug,
  // not a speedup.
  if (!SourcesAgree(/*detect_static=*/false) ||
      !SourcesAgree(/*detect_static=*/true)) {
    return 1;
  }

  const double ns_generic =
      RunPipelineNs(/*generic_source=*/true, n, space, iterations);
  const double ns_fast =
      RunPipelineNs(/*generic_source=*/false, n, space, iterations);
  const double speedup = ns_generic / ns_fast;

  PrintHeader("Full pipeline: generic vs fast pair source of the mechanics op");
  std::printf("agents %llu, %llu iterations, threads 4\n",
              static_cast<unsigned long long>(n),
              static_cast<unsigned long long>(iterations));
  std::printf("  generic source (virtual force) : %8.1f ns/agent-iter\n",
              ns_generic);
  std::printf(
      "  fast source (inlined kernel)   : %8.1f ns/agent-iter  (%.2fx)\n",
      ns_fast, speedup);
  std::printf(
      "  single-thread trajectories and O6 counters identical, with and "
      "without O6\n");

  WriteBenchJson("BENCH_fused.json",
                 {{"pipeline_generic_reference", n, ns_generic,
                   {{"iterations", static_cast<double>(iterations)}}},
                  {"pipeline_soa_fused", n, ns_fast,
                   {{"iterations", static_cast<double>(iterations)},
                    {"speedup_vs_reference", speedup},
                    {"bitwise_trajectory_agreement", 1.0}}}});
  return 0;
}

}  // namespace
}  // namespace bdm::bench

int main() { return bdm::bench::Run(); }
