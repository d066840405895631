// perfbench driver: one round of one workload of the end-to-end benchmark,
// in a fresh process, written as one JSON document.
//
// A round builds a fresh engine (set-up is timed), steps a fixed number of
// iterations (each timed on its own, in wall and in CPU time), then
// evaluates the workload's fixed list of correctness checks, so every round
// attempts the same operations.
// run.py starts rounds until its time is up and turns them into the
// end-to-end metrics (untraced rounds) or the per-layer metrics (--trace 1,
// where untraced and traced rounds alternate so the trace overhead is
// measured on the same inputs).
//
// Everything per-layer is read from outside the engine: the public timing
// buckets (Simulation::GetTiming), the MetricsRegistry counters and gauges,
// and the BDM_TRACE span file that run.py parses. The only timers added
// here wrap the public calls this file makes itself (engine construction,
// population build, diffusion-grid set-up).
//
//   perfbench_driver --workload oncology --seed 1 --out round.json
//                    [--trace-file spans.json] [--shards S]
//   perfbench_driver --stream --workload cells_shard4 --out stream.json
//   perfbench_driver --selftest [--workload W]
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "continuum/diffusion_grid.h"
#include "core/agent.h"
#include "core/cell.h"
#include "core/resource_manager.h"
#include "core/simulation.h"
#include "env/environment.h"
#include "math/random.h"
#include "models/cell_clustering.h"
#include "models/common_behaviors.h"
#include "models/registry.h"
#include "obs/metrics.h"
#include "shard/sharded_simulation.h"

namespace bdm::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU time of all threads of this process, in seconds.
double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// ---------------------------------------------------------------------------
// Workload definitions. Sizes are fixed; only the seed varies between runs.
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  uint64_t agents = 0;      // initial population (scale for registry models)
  uint64_t iterations = 0;  // timed iterations per round
  int threads = 0;          // Param::num_threads
  int resolution = 0;       // lattice points per axis (clustering, shards)
  int shards = 0;           // cells_shard4 only
};

// Two workers where a layer needs them: clustering's op DAG runs diffusion
// beside mechanics and cells_shard4's shards step side by side only when
// the pool has more than one worker to split into lanes.
Workload GetWorkload(const std::string& name) {
  if (name == "oncology") {
    return {name, 40'000, 40, 1, 0};
  }
  if (name == "neuroscience") {
    return {name, 262'144, 80, 1, 0};
  }
  if (name == "clustering") {
    return {name, 50'000, 40, 2, 128};
  }
  if (name == "cells_shard4") {
    return {name, 50'000, 25, 2, 32, 4};
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// cells_shard4: bench_shard's secreting population (slightly overlapping
// random packing, closed zero-decay field, uniform neighbour radius).
constexpr real_t kSecretionRate = 10;
constexpr real_t kShardCellDiameter = 8;

real_t ShardSpace(uint64_t n) {
  return static_cast<real_t>(8.2 * std::cbrt(static_cast<double>(n)));
}

Param ShardParam(int threads) {
  Param param;
  param.num_threads = threads;
  param.fixed_box_length = 10;
  param.force_threshold_squared = 0;
  param.max_displacement = 1e9;
  param.parallel_shards = true;
  return param;
}

std::unique_ptr<DiffusionGrid> ShardGrid(int resolution) {
  auto grid = std::make_unique<DiffusionGrid>(
      "oxygen", /*diffusion_coefficient=*/40, /*decay=*/0, resolution);
  grid->SetBoundaryCondition(DiffusionGrid::BoundaryCondition::kClosed);
  return grid;
}

void SeedShardField(DiffusionGrid* grid, real_t space) {
  const real_t mid = space / 2;
  grid->SetInitialValue([mid](const Real3& p) {
    return 1 + (p - Real3{mid, mid, mid}).Norm() * real_t{0.01};
  });
}

// ---------------------------------------------------------------------------
// Correctness checks. Each is a pure function of observed data and an
// expectation, so the self-test can feed it a deliberately wrong one.
// ---------------------------------------------------------------------------

struct CensusEntry {
  AgentUid uid;
  Real3 position;
  real_t diameter = 0;
  int type = 0;
};

struct NeighbourSample {
  size_t census_index = 0;            // the query agent
  std::vector<Real3> environment;     // what the engine's index returned
  std::vector<Real3> brute_sure;      // brute force, clearly inside
  std::vector<Real3> brute_possible;  // brute force, inside or on the rim
};

struct CheckInputs {
  std::vector<CensusEntry> census;  // owned agents after the last iteration
  std::vector<AgentUid> uids_start;
  std::vector<uint64_t> counts;  // agents before each iteration, then final
  std::vector<NeighbourSample> samples;
  uint64_t expected_count = 0;
  uint64_t removals = 0;  // commit.agents_removed over the round
  uint64_t static_skips = 0;
  double fraction_start = 0;
  double fraction_end = 0;
  Real3 initial_position_sum;
  double mass = 0;
  double expected_mass = 0;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

bool Finite(const Real3& p) {
  return std::isfinite(p.x) && std::isfinite(p.y) && std::isfinite(p.z);
}

Check CheckFinite(const CheckInputs& in) {
  for (const CensusEntry& e : in.census) {
    if (!Finite(e.position) || !std::isfinite(e.diameter)) {
      std::ostringstream os;
      os << "agent " << e.uid << " has a non-finite position or diameter";
      return {"finite_geometry", false, os.str()};
    }
  }
  return {"finite_geometry", true, ""};
}

Check CheckUidsUnique(const CheckInputs& in) {
  std::vector<AgentUid> uids;
  uids.reserve(in.census.size());
  for (const CensusEntry& e : in.census) {
    uids.push_back(e.uid);
  }
  std::sort(uids.begin(), uids.end());
  const auto dup = std::adjacent_find(uids.begin(), uids.end());
  if (dup != uids.end()) {
    std::ostringstream os;
    os << "uid " << *dup << " is held by two agents";
    return {"unique_uids", false, os.str()};
  }
  return {"unique_uids", true, ""};
}

// Positions compare as multisets of exact bit patterns.
bool PositionLess(const Real3& a, const Real3& b) {
  if (a.x != b.x) return a.x < b.x;
  if (a.y != b.y) return a.y < b.y;
  return a.z < b.z;
}

std::vector<Real3> Sorted(std::vector<Real3> v) {
  std::sort(v.begin(), v.end(), PositionLess);
  return v;
}

bool Includes(const std::vector<Real3>& outer,
              const std::vector<Real3>& inner) {
  return std::includes(outer.begin(), outer.end(), inner.begin(), inner.end(),
                       PositionLess);
}

/// Fills brute_sure / brute_possible of every sample by scanning all census
/// positions. Pairs whose squared distance lies within a relative 1e-9 of
/// the squared radius may be reported either way by the engine (its
/// distance arithmetic may round differently), so they are "possible" only.
void BruteForceNeighbours(const std::vector<Real3>& positions, real_t radius,
                          std::vector<NeighbourSample>* samples) {
  const double r2 = static_cast<double>(radius) * radius;
  const double lo = r2 * (1 - 1e-9);
  const double hi = r2 * (1 + 1e-9);
  for (NeighbourSample& s : *samples) {
    const Real3& q = positions[s.census_index];
    s.brute_sure.clear();
    s.brute_possible.clear();
    for (size_t j = 0; j < positions.size(); ++j) {
      if (j == s.census_index) {
        continue;
      }
      const Real3 d = positions[j] - q;
      const double d2 = static_cast<double>(d.x) * d.x +
                        static_cast<double>(d.y) * d.y +
                        static_cast<double>(d.z) * d.z;
      if (d2 <= hi) {
        s.brute_possible.push_back(positions[j]);
        if (d2 < lo) {
          s.brute_sure.push_back(positions[j]);
        }
      }
    }
    s.brute_sure = Sorted(std::move(s.brute_sure));
    s.brute_possible = Sorted(std::move(s.brute_possible));
    s.environment = Sorted(std::move(s.environment));
  }
}

Check CheckNeighbours(const CheckInputs& in) {
  if (in.samples.empty()) {
    return {"neighbour_sets", false, "no agent was sampled"};
  }
  uint64_t total = 0;
  for (const NeighbourSample& s : in.samples) {
    total += s.environment.size();
    if (!Includes(s.environment, s.brute_sure) ||
        !Includes(s.brute_possible, s.environment)) {
      std::ostringstream os;
      os << "agent " << in.census[s.census_index].uid << ": environment "
         << s.environment.size() << " neighbours, brute force "
         << s.brute_sure.size() << ".." << s.brute_possible.size();
      return {"neighbour_sets", false, os.str()};
    }
  }
  if (total == 0) {
    return {"neighbour_sets", false, "no sampled agent had a neighbour"};
  }
  return {"neighbour_sets", true, ""};
}

std::vector<AgentUid> SortedUids(const std::vector<CensusEntry>& census) {
  std::vector<AgentUid> uids;
  uids.reserve(census.size());
  for (const CensusEntry& e : census) {
    uids.push_back(e.uid);
  }
  std::sort(uids.begin(), uids.end());
  return uids;
}

Check CheckBirthsAndDeaths(const CheckInputs& in) {
  const std::vector<AgentUid> end = SortedUids(in.census);
  std::vector<AgentUid> died;
  std::vector<AgentUid> born;
  std::set_difference(in.uids_start.begin(), in.uids_start.end(), end.begin(),
                      end.end(), std::back_inserter(died));
  std::set_difference(end.begin(), end.end(), in.uids_start.begin(),
                      in.uids_start.end(), std::back_inserter(born));
  std::ostringstream os;
  os << born.size() << " born, " << died.size() << " died";
  return {"births_and_deaths", !born.empty() && !died.empty(), os.str()};
}

Check CheckNoRemovals(const CheckInputs& in) {
  const std::vector<AgentUid> end = SortedUids(in.census);
  const bool kept = std::includes(end.begin(), end.end(), in.uids_start.begin(),
                                  in.uids_start.end());
  std::ostringstream os;
  os << in.removals << " removals committed";
  return {"no_removals", kept && in.removals == 0, os.str()};
}

Check CheckCountNeverDecreases(const CheckInputs& in) {
  for (size_t i = 1; i < in.counts.size(); ++i) {
    if (in.counts[i] < in.counts[i - 1]) {
      std::ostringstream os;
      os << "count fell from " << in.counts[i - 1] << " to " << in.counts[i]
         << " at iteration " << i;
      return {"count_never_decreases", false, os.str()};
    }
  }
  return {"count_never_decreases", !in.counts.empty(), ""};
}

Check CheckStaticSkips(const CheckInputs& in) {
  return {"static_skips", in.static_skips > 0,
          std::to_string(in.static_skips) + " static agent skips"};
}

Check CheckCountConstant(const CheckInputs& in) {
  for (uint64_t c : in.counts) {
    if (c != in.expected_count) {
      return {"count_constant", false,
              std::to_string(c) + " agents, expected " +
                  std::to_string(in.expected_count)};
    }
  }
  if (in.census.size() != in.expected_count) {
    return {"count_constant", false,
            "census holds " + std::to_string(in.census.size()) +
                " agents, expected " + std::to_string(in.expected_count)};
  }
  return {"count_constant", true, ""};
}

/// Clustering must clearly raise the same-type neighbour fraction.
constexpr double kMinFractionRise = 0.05;

Check CheckFractionRises(const CheckInputs& in) {
  std::ostringstream os;
  os << "same-type fraction " << in.fraction_start << " -> "
     << in.fraction_end;
  return {"same_type_fraction_rises",
          in.fraction_end >= in.fraction_start + kMinFractionRise, os.str()};
}

Check CheckOwnedCount(const CheckInputs& in) {
  return {"owned_count", in.census.size() == in.expected_count,
          std::to_string(in.census.size()) + " owned, expected " +
              std::to_string(in.expected_count)};
}

Check CheckMomentum(const CheckInputs& in) {
  Real3 sum;
  for (const CensusEntry& e : in.census) {
    sum += e.position;
  }
  const Real3 drift = sum - in.initial_position_sum;
  const double per_agent =
      std::max({std::fabs(drift.x), std::fabs(drift.y), std::fabs(drift.z)}) /
      static_cast<double>(std::max<size_t>(in.census.size(), 1));
  std::ostringstream os;
  os << "summed displacement " << per_agent << " per agent";
  return {"momentum", per_agent <= 1e-9, os.str()};
}

Check CheckMass(const CheckInputs& in) {
  const double rel =
      std::fabs(in.mass - in.expected_mass) / std::fabs(in.expected_mass);
  std::ostringstream os;
  os << "field mass relative error " << rel;
  return {"field_mass", rel <= 1e-9, os.str()};
}

using CheckFn = Check (*)(const CheckInputs&);

std::vector<CheckFn> ChecksFor(const std::string& workload) {
  std::vector<CheckFn> checks = {&CheckFinite, &CheckUidsUnique,
                                 &CheckNeighbours};
  if (workload == "oncology") {
    checks.push_back(&CheckBirthsAndDeaths);
  } else if (workload == "neuroscience") {
    checks.push_back(&CheckNoRemovals);
    checks.push_back(&CheckCountNeverDecreases);
    checks.push_back(&CheckStaticSkips);
  } else if (workload == "clustering") {
    checks.push_back(&CheckCountConstant);
    checks.push_back(&CheckFractionRises);
  } else {
    checks.push_back(&CheckOwnedCount);
    checks.push_back(&CheckMomentum);
    checks.push_back(&CheckMass);
  }
  return checks;
}

std::vector<Check> Evaluate(const std::string& workload,
                            const CheckInputs& in) {
  std::vector<Check> out;
  for (CheckFn fn : ChecksFor(workload)) {
    out.push_back(fn(in));
  }
  return out;
}

/// Same-type neighbour fraction within `radius`, from the benchmark's own
/// bucket scan over census positions (independent of the engine's index).
double SameTypeFraction(const std::vector<CensusEntry>& census,
                        real_t radius) {
  if (census.empty()) {
    return 0;
  }
  Real3 lo = census[0].position;
  for (const CensusEntry& e : census) {
    for (int a = 0; a < 3; ++a) {
      lo[a] = std::min(lo[a], e.position[a]);
    }
  }
  const auto key = [&](const Real3& p, int a) {
    return static_cast<int64_t>(std::floor((p[a] - lo[a]) / radius));
  };
  const auto pack = [](int64_t x, int64_t y, int64_t z) {
    return (x << 42) ^ (y << 21) ^ z;
  };
  std::unordered_map<int64_t, std::vector<uint32_t>> buckets;
  for (uint32_t i = 0; i < census.size(); ++i) {
    const Real3& p = census[i].position;
    buckets[pack(key(p, 0), key(p, 1), key(p, 2))].push_back(i);
  }
  const double r2 = static_cast<double>(radius) * radius;
  double same = 0;
  double total = 0;
  for (uint32_t i = 0; i < census.size(); ++i) {
    const Real3& p = census[i].position;
    const int64_t bx = key(p, 0), by = key(p, 1), bz = key(p, 2);
    for (int64_t dz = -1; dz <= 1; ++dz) {
      for (int64_t dy = -1; dy <= 1; ++dy) {
        for (int64_t dx = -1; dx <= 1; ++dx) {
          auto it = buckets.find(pack(bx + dx, by + dy, bz + dz));
          if (it == buckets.end()) {
            continue;
          }
          for (uint32_t j : it->second) {
            if (j == i || (census[j].position - p).SquaredNorm() > r2) {
              continue;
            }
            total += 1;
            same += census[j].type == census[i].type ? 1 : 0;
          }
        }
      }
    }
  }
  return total > 0 ? same / total : 0;
}

// ---------------------------------------------------------------------------
// Round records.
// ---------------------------------------------------------------------------

struct Round {
  bool traced = false;
  double engine_s = 0;
  double population_s = 0;
  double fields_s = 0;
  double setup_cpu_s = 0;  // CPU time of all threads, up to the first step
  std::vector<double> iter_s;      // wall time of each iteration
  std::vector<double> iter_cpu_s;  // CPU time of all threads, per iteration
  std::vector<uint64_t> agents;  // agents at the start of each iteration
  std::map<std::string, std::pair<double, uint64_t>> timing;
  std::map<std::string, uint64_t> counters;  // deltas over the iterations
  std::map<std::string, double> gauge_mean;  // mean of per-iteration samples
  uint64_t voxel_updates_per_iteration = 0;
  std::vector<Check> checks;
};

const char* const kSampledGauges[] = {"sched.slab_imbalance",
                                      "shard/ghost_count"};

std::map<std::string, uint64_t> CounterTotals() {
  std::map<std::string, uint64_t> out;
  for (const auto& [name, value] : MetricsRegistry::Get().Snapshot().counters) {
    out[name] = value;
  }
  return out;
}

std::map<std::string, uint64_t> Delta(
    const std::map<std::string, uint64_t>& end,
    const std::map<std::string, uint64_t>& start) {
  std::map<std::string, uint64_t> out;
  for (const auto& [name, value] : end) {
    auto it = start.find(name);
    out[name] = value - (it == start.end() ? 0 : it->second);
  }
  return out;
}

void AddTiming(const TimingAggregator& timing,
               std::map<std::string, std::pair<double, uint64_t>>* out) {
  for (const auto& [name, entry] : timing.raw()) {
    (*out)[name].first += entry.seconds;
    (*out)[name].second += entry.count;
  }
}

/// Steps `iterations` times, timing each step in wall time and in process
/// CPU time and recording the agents present when it starts; gauges are
/// sampled after every step.
template <typename StepFn, typename CountFn>
void TimedIterations(uint64_t iterations, StepFn step, CountFn count,
                     Round* round) {
  std::map<std::string, double> gauge_sum;
  for (uint64_t i = 0; i < iterations; ++i) {
    round->agents.push_back(count());
    const double cpu_start = ProcessCpuSeconds();
    const auto start = Clock::now();
    step();
    round->iter_s.push_back(Since(start));
    round->iter_cpu_s.push_back(ProcessCpuSeconds() - cpu_start);
    for (const char* gauge : kSampledGauges) {
      gauge_sum[gauge] += MetricsRegistry::Get().GaugeValue(gauge);
    }
  }
  for (const auto& [name, sum] : gauge_sum) {
    round->gauge_mean[name] = sum / static_cast<double>(iterations);
  }
}

void Census(const ResourceManager& rm, bool cells,
            std::vector<CensusEntry>* census, std::vector<Agent*>* agents) {
  rm.ForEachAgent([&](Agent* agent, AgentHandle) {
    if (agent->IsGhost()) {
      return;
    }
    CensusEntry e;
    e.uid = agent->GetUid();
    e.position = agent->GetPosition();
    e.diameter = agent->GetDiameter();
    e.type = cells ? static_cast<Cell*>(agent)->GetCellType() : 0;
    census->push_back(e);
    if (agents != nullptr) {
      agents->push_back(agent);
    }
  });
}

constexpr size_t kNeighbourSamples = 128;

/// Picks evenly spaced query agents among [begin, end) of the census and
/// asks the environment (freshly updated) for their neighbours.
void SampleNeighbours(const Environment& env, const std::vector<Agent*>& agents,
                      size_t begin, size_t end, size_t count,
                      std::vector<NeighbourSample>* samples) {
  if (end <= begin || count == 0) {
    return;
  }
  const real_t radius = env.GetInteractionRadius();
  const size_t stride = std::max<size_t>(1, (end - begin) / count);
  for (size_t i = begin; i < end && count > 0; i += stride, --count) {
    NeighbourSample s;
    s.census_index = i;
    auto collect = [&](Agent* neighbour, real_t) {
      s.environment.push_back(neighbour->GetPosition());
    };
    env.ForEachNeighbor(*agents[i], radius * radius, collect);
    samples->push_back(std::move(s));
  }
}

std::vector<Real3> Positions(const std::vector<CensusEntry>& census) {
  std::vector<Real3> out;
  out.reserve(census.size());
  for (const CensusEntry& e : census) {
    out.push_back(e.position);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Unsharded rounds: oncology, neuroscience, clustering.
// ---------------------------------------------------------------------------

/// Same-type fraction radius: two cell diameters.
constexpr real_t kFractionRadius = 20;

Round RunModelRound(const Workload& w, uint64_t seed, CheckInputs* in) {
  Round round;
  const models::ModelInfo* info = models::FindModel(w.name);
  Param param;
  param.num_threads = w.threads;
  param.random_seed = seed;
  if (info->configure != nullptr) {
    info->configure(&param);
  }

  const double setup_cpu_start = ProcessCpuSeconds();
  auto t = Clock::now();
  Simulation sim("perfbench_" + w.name, param);
  round.engine_s = Since(t);
  if (w.name == "clustering") {
    // The registry model at a lattice large enough for diffusion to take a
    // real share of the iteration: the model's own Build with zero cells
    // creates the two substance grids, then the cells are added exactly as
    // clustering::Build adds them (same random draws, same behaviours).
    models::clustering::Config config;
    config.num_cells = w.agents;
    config.space = std::max<real_t>(
        100, 20 * std::cbrt(static_cast<real_t>(w.agents)));
    config.substance_resolution = w.resolution;
    models::clustering::Config grids_only = config;
    grids_only.num_cells = 0;
    t = Clock::now();
    models::clustering::Build(&sim, grids_only);
    round.fields_s = Since(t);
    t = Clock::now();
    DiffusionGrid* substances[2] = {sim.GetDiffusionGrid("substance_0"),
                                    sim.GetDiffusionGrid("substance_1")};
    auto* random = sim.GetActiveExecutionContext()->random();
    for (uint64_t i = 0; i < config.num_cells; ++i) {
      const int type = static_cast<int>(i % 2);
      auto* cell =
          new Cell(random->UniformPoint(0, config.space), config.diameter);
      cell->SetCellType(type);
      cell->AddBehavior(
          new models::Secretion(substances[type], config.secretion_rate));
      cell->AddBehavior(
          new models::Chemotaxis(substances[type], config.chemotaxis_speed));
      sim.GetResourceManager()->AddAgent(cell);
    }
    round.population_s = Since(t);
  } else {
    t = Clock::now();
    info->build(&sim, w.agents);
    round.population_s = Since(t);
  }
  round.setup_cpu_s = ProcessCpuSeconds() - setup_cpu_start;

  ResourceManager* rm = sim.GetResourceManager();
  const bool cells = w.name == "clustering";
  {
    std::vector<CensusEntry> start;
    Census(*rm, cells, &start, nullptr);
    in->uids_start = SortedUids(start);
    if (cells) {
      in->fraction_start = SameTypeFraction(start, kFractionRadius);
    }
  }
  for (DiffusionGrid* grid : sim.GetAllDiffusionGrids()) {
    round.voxel_updates_per_iteration +=
        static_cast<uint64_t>(grid->GetNumVolumes()) *
        static_cast<uint64_t>(grid->SubstepsFor(param.dt));
  }

  const auto counters_start = CounterTotals();
  TimedIterations(
      w.iterations, [&] { sim.Simulate(1); },
      [&] { return rm->GetNumAgents(); }, &round);
  round.counters = Delta(CounterTotals(), counters_start);
  AddTiming(*sim.GetTiming(), &round.timing);

  in->counts = round.agents;
  in->counts.push_back(rm->GetNumAgents());
  in->expected_count = w.agents;
  in->removals = round.counters["commit.agents_removed"];
  in->static_skips = round.counters["forces.static_agent_skips"];

  std::vector<Agent*> agents;
  Census(*rm, cells, &in->census, &agents);
  if (cells) {
    in->fraction_end = SameTypeFraction(in->census, kFractionRadius);
  }
  Environment* env = sim.GetEnvironment();
  env->Update(*rm, sim.GetThreadPool());
  SampleNeighbours(*env, agents, 0, agents.size(), kNeighbourSamples,
                   &in->samples);
  BruteForceNeighbours(Positions(in->census), env->GetInteractionRadius(),
                       &in->samples);
  return round;
}

// ---------------------------------------------------------------------------
// Sharded rounds: cells_shard4.
// ---------------------------------------------------------------------------

struct ShardBuild {
  std::unique_ptr<shard::ShardedSimulation> sim;
  std::vector<DiffusionGrid*> grids;
  Real3 position_sum;
};

ShardBuild BuildSharded(uint64_t n, int resolution, int shards,
                        uint64_t seed, int threads, Round* round) {
  ShardBuild b;
  const real_t space = ShardSpace(n);
  auto t = Clock::now();
  b.sim = std::make_unique<shard::ShardedSimulation>(
      "perfbench_cells_shard4", ShardParam(threads),
      Real3{0, 0, 0}, Real3{space, space, space}, shards);
  const double engine_s = Since(t);

  t = Clock::now();
  b.sim->AddDiffusionGrid([resolution] { return ShardGrid(resolution); });
  for (int s = 0; s < b.sim->NumShards(); ++s) {
    Simulation* previous = Simulation::SetActive(b.sim->GetShard(s)->sim());
    b.grids.push_back(b.sim->GetShard(s)->sim()->GetAllDiffusionGrids()[0]);
    SeedShardField(b.grids.back(), space);
    Simulation::SetActive(previous);
  }
  const double fields_s = Since(t);

  t = Clock::now();
  Random random(seed);
  for (uint64_t i = 0; i < n; ++i) {
    const Real3 p = random.UniformPoint(0, space);
    b.position_sum += p;
    b.sim->AddAgent(new Cell(p, kShardCellDiameter));
  }
  // Each agent secretes into its owner shard's grid; migration re-resolves
  // the grid by substance name in the destination shard.
  for (int s = 0; s < b.sim->NumShards(); ++s) {
    b.sim->GetShard(s)->sim()->GetResourceManager()->ForEachAgent(
        [&](Agent* agent, AgentHandle) {
          if (!agent->IsGhost()) {
            agent->AddBehavior(
                new models::Secretion(b.grids[s], kSecretionRate));
          }
        });
  }
  if (round != nullptr) {
    round->engine_s = engine_s;
    round->fields_s = fields_s;
    round->population_s = Since(t);
  }
  return b;
}

double FieldMass(const ShardBuild& b) {
  double mass = 0;
  for (int s = 0; s < b.sim->NumShards(); ++s) {
    Simulation* previous = Simulation::SetActive(b.sim->GetShard(s)->sim());
    mass += b.grids[s]->OwnedMass();
    Simulation::SetActive(previous);
  }
  return mass;
}

Round RunShardRound(const Workload& w, uint64_t seed, CheckInputs* in) {
  Round round;
  const double setup_cpu_start = ProcessCpuSeconds();
  ShardBuild b = BuildSharded(w.agents, w.resolution, w.shards, seed,
                              w.threads, &round);
  round.setup_cpu_s = ProcessCpuSeconds() - setup_cpu_start;
  const double mass0 = FieldMass(b);
  for (DiffusionGrid* grid : b.grids) {
    round.voxel_updates_per_iteration +=
        static_cast<uint64_t>(grid->GetNumVolumes()) *
        static_cast<uint64_t>(grid->SubstepsFor(b.sim->GetParam().dt));
  }

  const auto counters_start = CounterTotals();
  TimedIterations(
      w.iterations, [&] { b.sim->Simulate(1); },
      [&] { return b.sim->TotalOwned(); }, &round);
  round.counters = Delta(CounterTotals(), counters_start);
  for (int s = 0; s < b.sim->NumShards(); ++s) {
    AddTiming(*b.sim->GetShard(s)->sim()->GetTiming(), &round.timing);
  }

  in->initial_position_sum = b.position_sum;
  in->expected_count = w.agents;
  in->mass = FieldMass(b);
  in->expected_mass = mass0 + static_cast<double>(w.agents) * kSecretionRate *
                                  b.sim->GetParam().dt *
                                  static_cast<double>(w.iterations);

  // One more exchange settles migrations and refreshes every ghost, so each
  // shard's index covers all owned agents within one radius of its extent.
  b.sim->Exchange();
  std::vector<std::pair<size_t, size_t>> ranges;
  std::vector<Agent*> agents;
  for (int s = 0; s < b.sim->NumShards(); ++s) {
    const size_t begin = in->census.size();
    Census(*b.sim->GetShard(s)->sim()->GetResourceManager(), false,
           &in->census, &agents);
    ranges.emplace_back(begin, in->census.size());
  }
  for (int s = 0; s < b.sim->NumShards(); ++s) {
    Simulation* shard_sim = b.sim->GetShard(s)->sim();
    Simulation* previous = Simulation::SetActive(shard_sim);
    Environment* env = shard_sim->GetEnvironment();
    env->Update(*shard_sim->GetResourceManager(), shard_sim->GetThreadPool());
    SampleNeighbours(*env, agents, ranges[s].first, ranges[s].second,
                     kNeighbourSamples / b.sim->NumShards(), &in->samples);
    Simulation::SetActive(previous);
  }
  const real_t radius =
      b.sim->GetShard(0)->sim()->GetEnvironment()->GetInteractionRadius();
  BruteForceNeighbours(Positions(in->census), radius, &in->samples);
  return round;
}

// ---------------------------------------------------------------------------
// STREAM triad probe (traced runs only).
// ---------------------------------------------------------------------------

struct StreamResult {
  double gbs = 0;
  uint64_t array_bytes = 0;
  uint64_t llc_bytes = 0;
};

/// a = b + s * c over three arrays whose combined size is at least four
/// times the last-level cache, on `threads` threads; best of 5 passes.
StreamResult StreamTriad(int threads) {
  StreamResult r;
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  r.llc_bytes = llc > 0 ? static_cast<uint64_t>(llc) : (32u << 20);
  const uint64_t n = (4 * r.llc_bytes / 3) / sizeof(double) + 1;
  r.array_bytes = n * sizeof(double);
  std::unique_ptr<double[]> a(new double[n]);
  std::unique_ptr<double[]> b(new double[n]);
  std::unique_ptr<double[]> c(new double[n]);
  const auto parallel = [&](const std::function<void(uint64_t, uint64_t)>& fn) {
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        fn(n * static_cast<uint64_t>(t) / static_cast<uint64_t>(threads),
           n * static_cast<uint64_t>(t + 1) / static_cast<uint64_t>(threads));
      });
    }
    for (std::thread& th : pool) {
      th.join();
    }
  };
  parallel([&](uint64_t lo, uint64_t hi) {
    for (uint64_t i = lo; i < hi; ++i) {
      a[i] = 0;
      b[i] = 1;
      c[i] = 2;
    }
  });
  double best = 1e30;
  for (int pass = 0; pass < 5; ++pass) {
    const auto start = Clock::now();
    parallel([&](uint64_t lo, uint64_t hi) {
      const double s = 3;
      for (uint64_t i = lo; i < hi; ++i) {
        a[i] = b[i] + s * c[i];
      }
    });
    best = std::min(best, Since(start));
  }
  if (a[n / 2] != 7) {
    throw std::runtime_error("STREAM triad produced a wrong value");
  }
  r.gbs = 3.0 * static_cast<double>(r.array_bytes) / best / 1e9;
  return r;
}

// ---------------------------------------------------------------------------
// JSON output.
// ---------------------------------------------------------------------------

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void WriteRound(std::ostream& os, const Round& r) {
  os << "{\"traced\": " << (r.traced ? "true" : "false")
     << ", \"engine_s\": " << Num(r.engine_s)
     << ", \"population_s\": " << Num(r.population_s)
     << ", \"fields_s\": " << Num(r.fields_s)
     << ", \"setup_cpu_s\": " << Num(r.setup_cpu_s)
     << ", \"voxel_updates_per_iteration\": " << r.voxel_updates_per_iteration
     << ", \"iter_s\": [";
  for (size_t i = 0; i < r.iter_s.size(); ++i) {
    os << (i ? ", " : "") << Num(r.iter_s[i]);
  }
  os << "], \"iter_cpu_s\": [";
  for (size_t i = 0; i < r.iter_cpu_s.size(); ++i) {
    os << (i ? ", " : "") << Num(r.iter_cpu_s[i]);
  }
  os << "], \"agents\": [";
  for (size_t i = 0; i < r.agents.size(); ++i) {
    os << (i ? ", " : "") << r.agents[i];
  }
  os << "], \"timing\": {";
  bool first = true;
  for (const auto& [name, entry] : r.timing) {
    os << (first ? "" : ", ") << Quote(name) << ": [" << Num(entry.first)
       << ", " << entry.second << "]";
    first = false;
  }
  os << "}, \"counters\": {";
  first = true;
  for (const auto& [name, value] : r.counters) {
    os << (first ? "" : ", ") << Quote(name) << ": " << value;
    first = false;
  }
  os << "}, \"gauges\": {";
  first = true;
  for (const auto& [name, value] : r.gauge_mean) {
    os << (first ? "" : ", ") << Quote(name) << ": " << Num(value);
    first = false;
  }
  os << "}, \"checks\": [";
  for (size_t i = 0; i < r.checks.size(); ++i) {
    os << (i ? ", " : "") << "{\"name\": " << Quote(r.checks[i].name)
       << ", \"ok\": " << (r.checks[i].ok ? "true" : "false")
       << ", \"detail\": " << Quote(r.checks[i].detail) << "}";
  }
  os << "]}";
}

// ---------------------------------------------------------------------------
// Modes.
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int shards = 0;  // reference runs only: override the shard count
  std::string out;
  std::string trace_file;  // non-empty: record a BDM_TRACE span file
  bool selftest = false;
  bool stream = false;
};

Round RunRound(const Workload& w, uint64_t seed, CheckInputs* in) {
  return w.name == "cells_shard4" ? RunShardRound(w, seed, in)
                                  : RunModelRound(w, seed, in);
}

/// One round in this (fresh) process: build, step, check, then report the
/// round and the process's peak resident set.
int RunMeasured(const Options& opt) {
  Workload w = GetWorkload(opt.workload);
  if (opt.shards > 0 && w.shards > 0) {
    w.shards = opt.shards;
  }
  if (!opt.trace_file.empty()) {
    // Read by the engine when the simulation is built (trace start) and
    // when it is destroyed (the span file is written).
    setenv("BDM_TRACE", opt.trace_file.c_str(), 1);
  }
  CheckInputs in;
  Round round = RunRound(w, opt.seed, &in);
  round.traced = !opt.trace_file.empty();
  round.checks = Evaluate(w.name, in);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);

  std::ofstream os(opt.out);
  os << "{\"workload\": " << Quote(w.name) << ", \"seed\": " << opt.seed
     << ", \"threads\": " << w.threads << ", \"shards\": " << w.shards
     << ", \"peak_rss_kb\": " << usage.ru_maxrss << ", \"round\": ";
  WriteRound(os, round);
  os << "}\n";
  return os.good() ? 0 : 1;
}

int RunStream(const Options& opt) {
  const StreamResult r = StreamTriad(GetWorkload(opt.workload).threads);
  std::ofstream os(opt.out);
  os << "{\"stream_gbs\": " << Num(r.gbs)
     << ", \"array_bytes\": " << r.array_bytes
     << ", \"llc_bytes\": " << r.llc_bytes << "}\n";
  return os.good() ? 0 : 1;
}

/// Feeds every check of every workload its true inputs (must pass) and one
/// deliberately wrong expectation (must fail).
int RunSelftest(const Options& opt) {
  using Mutator = std::function<void(CheckInputs*)>;
  const std::map<std::string, Mutator> wrong = {
      {"finite_geometry",
       [](CheckInputs* in) { in->census[0].position.y = std::nan(""); }},
      {"unique_uids",
       [](CheckInputs* in) { in->census[1].uid = in->census[0].uid; }},
      {"neighbour_sets",
       [](CheckInputs* in) {
         for (NeighbourSample& s : in->samples) {
           if (!s.brute_sure.empty()) {  // omit one brute-force neighbour
             const Real3 dropped = s.brute_sure.back();
             s.brute_sure.pop_back();
             std::erase_if(s.brute_possible,
                           [&](const Real3& p) { return p == dropped; });
             return;
           }
         }
       }},
      {"births_and_deaths",
       [](CheckInputs* in) { in->uids_start = SortedUids(in->census); }},
      {"no_removals",
       [](CheckInputs* in) {  // one agent present at the start goes missing
         const AgentUid gone = in->uids_start.front();
         std::erase_if(in->census,
                       [&](const CensusEntry& e) { return e.uid == gone; });
       }},
      {"count_never_decreases",
       [](CheckInputs* in) { in->counts.back() = in->counts.front() - 1; }},
      {"static_skips", [](CheckInputs* in) { in->static_skips = 0; }},
      {"count_constant", [](CheckInputs* in) { in->census.pop_back(); }},
      {"same_type_fraction_rises",
       [](CheckInputs* in) { in->fraction_end = in->fraction_start; }},
      {"owned_count", [](CheckInputs* in) { in->census.pop_back(); }},
      {"momentum",
       [](CheckInputs* in) { in->census[0].position.x += 1; }},
      {"field_mass",
       [](CheckInputs* in) {  // one deposit missing from the expectation
         in->expected_mass -= kSecretionRate * Param{}.dt;
       }},
  };
  int failures = 0;
  const std::vector<std::string> workloads =
      opt.workload.empty()
          ? std::vector<std::string>{"oncology", "neuroscience", "clustering",
                                     "cells_shard4"}
          : std::vector<std::string>{opt.workload};
  for (const std::string& name : workloads) {
    const Workload w = GetWorkload(name);
    CheckInputs in;
    RunRound(w, opt.seed, &in);
    for (CheckFn fn : ChecksFor(name)) {
      const Check truth = fn(in);
      auto it = wrong.find(truth.name);
      if (it == wrong.end()) {
        std::printf("FAIL %s/%s: no wrong expectation defined\n", name.c_str(),
                    truth.name.c_str());
        ++failures;
        continue;
      }
      CheckInputs bad = in;
      it->second(&bad);
      const Check caught = fn(bad);
      const bool ok = truth.ok && !caught.ok;
      failures += ok ? 0 : 1;
      std::printf("%s %s/%s: true inputs %s (%s); wrong expectation %s (%s)\n",
                  ok ? "ok  " : "FAIL", name.c_str(), truth.name.c_str(),
                  truth.ok ? "pass" : "FAIL", truth.detail.c_str(),
                  caught.ok ? "PASSES" : "fails", caught.detail.c_str());
    }
  }
  std::printf("selftest: %d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

Options ParseArgs(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument("missing value for " + arg);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value());
    } else if (arg == "--shards") {
      opt.shards = std::stoi(value());
    } else if (arg == "--out") {
      opt.out = value();
    } else if (arg == "--trace-file") {
      opt.trace_file = value();
    } else if (arg == "--selftest") {
      opt.selftest = true;
    } else if (arg == "--stream") {
      opt.stream = true;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (!opt.selftest && (opt.out.empty() || opt.workload.empty())) {
    throw std::invalid_argument("--workload and --out are required");
  }
  return opt;
}

}  // namespace
}  // namespace bdm::perfbench

int main(int argc, char** argv) {
  try {
    const bdm::perfbench::Options opt = bdm::perfbench::ParseArgs(argc, argv);
    if (opt.selftest) {
      return bdm::perfbench::RunSelftest(opt);
    }
    return opt.stream ? bdm::perfbench::RunStream(opt)
                      : bdm::perfbench::RunMeasured(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
}
