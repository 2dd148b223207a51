// Shared setup for the figure-regeneration benches.
//
// Every bench prints the same rows/series as the corresponding figure in the
// paper (shape reproduction; absolute values come from the simulated device
// and link, see EXPERIMENTS.md). Every bench simulates its whole corpus.
// Set VROOM_JOBS=<n> to size the worker pool (results are bit-identical
// for any worker count; fleet telemetry goes to stderr).
//
// Corpus sweeps run their entire (corpus × strategy) grid through one
// fleet::SweepPlan pool — multi-corpus grids included — so no strategy or
// corpus serializes behind another.
// Benches whose calls are not corpus loads (Fig 20's return visits, Fig
// 21's accuracy samples) put them on fleet::run_tasks, one slot per call.
#pragma once

#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

#include "baselines/strategies.h"
#include "fleet/fleet.h"
#include "harness/env.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/stats.h"
#include "obs/manifest.h"
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

// For a bench whose tables come from no fleet::run_plan (which writes its
// own manifest): with VROOM_OUT_DIR set, writes the run's manifest.json
// (fleet::run_manifest's header with the worker count fleet::run_tasks
// resolves, then program, seed, page count) and metric export beside the
// tables. Call once, after the last table.
inline void export_manifest(const char* program, std::size_t pages) {
  const harness::Env env = harness::Env::from_environment();
  if (env.out_dir.empty()) return;
  obs::Manifest manifest = fleet::run_manifest(
      "bench_tables", env, fleet::resolve_worker_count(0, env));
  manifest.set("program", program);
  manifest.set("seed", kSeed);
  manifest.set("pages", static_cast<std::int64_t>(pages));
  obs::export_run(env.out_dir, std::move(manifest));
}

inline void banner(const char* fig, const char* what) {
  std::printf("-------------------------------------------------------\n");
  std::printf("%s: %s\n", fig, what);
  std::printf("-------------------------------------------------------\n");
}

}  // namespace vroom::bench
