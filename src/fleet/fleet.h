// Parallel simulation fleet: executes corpus sweeps on a worker thread pool.
//
// The entry point is declarative: a `SweepPlan` lists (corpus × strategy ×
// options) *cells*, and `run_plan` compiles the whole plan into one flat
// (cell, page, load) job list executed by a single shared pool — so a
// multi-corpus bench grid (the paper's Fig 13/21 evaluation shape) never
// pays one straggling pool tail per corpus. `run_corpus` and `run_matrix`
// are thin wrappers over one-cell / one-corpus plans.
//
// Every cell is simulated in this process. Each job builds a fully private
// simulation world (event loop, network, page instance, servers, browser)
// through harness::run_page_load, and derives its seeds purely from the
// job's identity — (cell options' seed, page id, load index) — never from
// execution order. The determinism contract: plan output is bit-identical,
// cell by cell, to harness::run_page_median over every page, for any
// worker count. `VROOM_JOBS=1` additionally preserves the serial execution
// *order*, not just its results.
//
// With more than one worker, jobs dispatch in deterministic
// longest-job-first order (page resource count as the size proxy, ties by
// job identity — see job_queue.h) instead of FIFO, so the heaviest pages
// cannot land last and leave the pool idling behind one straggler.
// Dispatch order never affects results, only wall-clock time.
//
// Warm-cache cells (RunOptions::cache != nullptr) share one mutable cache
// whose state depends on load order, so the fleet degrades the whole plan
// to a single worker automatically rather than silently changing semantics.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "fleet/telemetry.h"
#include "harness/env.h"
#include "harness/experiment.h"

namespace vroom::fleet {

struct FleetOptions {
  // Worker threads. 0 means "resolve": take VROOM_JOBS from the environment
  // if set and valid, else std::thread::hardware_concurrency().
  int workers = 0;
  // Optional sink for run telemetry; caller-owned, overwritten per run.
  Telemetry* telemetry = nullptr;
};

// Resolves a worker count: `requested` > 0 wins; otherwise VROOM_JOBS from
// `env` (run_plan passes its plan-start snapshot, so one plan sees one
// consistent knob set); otherwise the hardware concurrency (at least 1).
// The one-argument overload takes a fresh environment snapshot.
int resolve_worker_count(int requested, const harness::Env& env);
int resolve_worker_count(int requested);

// Reusable pool entry point beneath run_plan's sweep machinery: runs
// `count` independent tasks `fn(0) .. fn(count-1)` on `workers` threads
// (0 = resolve like run_plan: VROOM_JOBS, else hardware), claiming indices
// from one atomic cursor. With one worker — or one task — the tasks run in
// index order on the calling thread, the VROOM_JOBS=1 serial-replay mode.
// The caller owns the fleet determinism contract: tasks must be mutually
// independent (disjoint output slots, no claim-order-dependent state), so
// results cannot depend on the worker count. Used by the deployment
// scenario for its warm-revisit column and per-level macro passes.
void run_tasks(std::size_t count, const std::function<void(std::size_t)>& fn,
               int workers = 0);

// One cell of a sweep: a full corpus swept under one strategy with its own
// RunOptions. Cells are independent — different corpora, seeds, networks,
// loads_per_page per cell are all fine and each cell's result is identical
// to a standalone run_corpus(corpus, strategy, options) call.
struct SweepCell {
  const web::Corpus* corpus = nullptr;  // caller-owned; must outlive run_plan
  baselines::Strategy strategy;
  harness::RunOptions options;
  // Names the cell in telemetry rows, CorpusResult::strategy, and the
  // trace-counter CSV export. Empty means "use strategy.name" (the
  // historical run_matrix behaviour). Give distinct labels when one
  // strategy appears over several corpora, or its counter exports collide
  // on the same file slug.
  std::string label;
};

// A declarative (corpus × strategy) sweep: the unit the fleet executes.
// Build with add()/add_matrix() (chainable) or fill `cells` directly.
struct SweepPlan {
  std::vector<SweepCell> cells;

  SweepPlan& add(const web::Corpus& corpus, baselines::Strategy strategy,
                 harness::RunOptions options = {}, std::string label = {}) {
    cells.push_back(SweepCell{&corpus, std::move(strategy),
                              std::move(options), std::move(label)});
    return *this;
  }

  // One cell per strategy over a shared corpus and options — the run_matrix
  // grid shape.
  SweepPlan& add_matrix(const web::Corpus& corpus,
                        const std::vector<baselines::Strategy>& strategies,
                        const harness::RunOptions& options = {}) {
    for (const baselines::Strategy& strategy : strategies) {
      add(corpus, strategy, options);
    }
    return *this;
  }
};

// Simulates every cell of the plan in this process on one shared worker
// pool and returns one CorpusResult per cell, in plan order, each
// bit-identical to a standalone run_corpus call with that cell's arguments
// (any worker count). The telemetry summary carries one row per cell.
std::vector<harness::CorpusResult> run_plan(const SweepPlan& plan,
                                            const FleetOptions& fleet = {});

// Sweeps one strategy over the corpus: a one-cell plan. Same contract as
// harness::run_page_median applied to every page — one median-of-N load
// per page, in page order. The canonical corpus sweep: worker count from
// VROOM_JOBS (default: hardware concurrency; VROOM_JOBS=1 preserves the
// serial order), results bit-identical regardless of worker count.
harness::CorpusResult run_corpus(const web::Corpus& corpus,
                                 const baselines::Strategy& strategy,
                                 const harness::RunOptions& options,
                                 const FleetOptions& fleet = {});

// Fans one strategy × corpus grid through one shared pool: a one-corpus
// plan. Results are returned in strategy order, each bit-identical to a
// standalone run_corpus call.
std::vector<harness::CorpusResult> run_matrix(
    const web::Corpus& corpus,
    const std::vector<baselines::Strategy>& strategies,
    const harness::RunOptions& options, const FleetOptions& fleet = {});

}  // namespace vroom::fleet
