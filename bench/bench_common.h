// Shared setup for the figure-regeneration benches.
//
// Every bench prints the same rows/series as the corresponding figure in the
// paper (shape reproduction; absolute values come from the simulated device
// and link, see EXPERIMENTS.md). Set VROOM_BENCH_PAGES=<n> to cap corpus
// size for quick runs and VROOM_JOBS=<n> to size the worker pool (results
// are bit-identical for any worker count; fleet telemetry goes to stderr).
//
// Benches sweep their entire (corpus × strategy) grid through one
// fleet::SweepPlan pool — multi-corpus grids included — so no strategy or
// corpus serializes behind another and the longest pages dispatch first.
#pragma once

#include <cstdio>
#include <vector>

#include "baselines/strategies.h"
#include "fleet/fleet.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/stats.h"
#include "web/corpus.h"

namespace vroom::bench {

constexpr std::uint64_t kSeed = 42;

inline harness::RunOptions default_options() {
  harness::RunOptions opt;
  opt.seed = kSeed;
  return opt;
}

// Executes a declarative (corpus × strategy) plan on one shared pool and
// prints the run's telemetry (with per-cell rows) to stderr — stdout
// carries only the deterministic tables. Results come back in plan order.
inline std::vector<harness::CorpusResult> run_plan(
    const fleet::SweepPlan& plan) {
  fleet::Telemetry telemetry;
  fleet::FleetOptions fo;
  fo.telemetry = &telemetry;
  auto results = fleet::run_plan(plan, fo);
  telemetry.print(stderr);
  return results;
}

// One-corpus convenience: fans the strategy grid through one pool.
inline std::vector<harness::CorpusResult> run_matrix(
    const web::Corpus& corpus,
    const std::vector<baselines::Strategy>& strategies,
    const harness::RunOptions& opt) {
  fleet::SweepPlan plan;
  plan.add_matrix(corpus, strategies, opt);
  return bench::run_plan(plan);
}

// Sweeps the whole strategy grid through one shared pool and returns one
// PLT series per strategy, in grid order: no pool tail between strategies.
inline std::vector<harness::Series> plt_matrix(
    const web::Corpus& corpus,
    const std::vector<baselines::Strategy>& strategies,
    const harness::RunOptions& opt) {
  auto results = bench::run_matrix(corpus, strategies, opt);
  std::vector<harness::Series> rows;
  rows.reserve(strategies.size());
  for (std::size_t i = 0; i < strategies.size(); ++i) {
    rows.push_back({strategies[i].name, results[i].plt_seconds()});
  }
  return rows;
}

inline void banner(const char* fig, const char* what) {
  std::printf("-------------------------------------------------------\n");
  std::printf("%s: %s\n", fig, what);
  std::printf("-------------------------------------------------------\n");
}

}  // namespace vroom::bench
