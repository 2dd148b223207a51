// Parallel simulation fleet: executes corpus sweeps on a worker thread pool.
//
// The entry point is declarative: a `SweepPlan` lists (corpus × strategy ×
// options) *cells*, and `run_plan` runs the whole plan's (cell, page, load)
// grid as one `run_tasks` call, the fleet's one worker pool — so a
// multi-corpus bench grid (the paper's Fig 13/21 evaluation shape) never
// pays one straggling pool tail per corpus. A strategy grid over one corpus
// is a plan built with `SweepPlan::add_matrix`; `run_corpus` is a thin
// wrapper over a one-cell plan.
//
// Every cell is simulated in this process. Each job builds a fully private
// simulation world (event loop, network, page instance, servers, browser)
// through harness::run_page_load, derives its seeds purely from the job's
// identity — (cell options' seed, page id, load index) — never from
// execution order, and writes its result and wall time into its own slot.
// The determinism contract: plan output is bit-identical, cell by cell, to
// harness::run_page_median over every page, for any worker count.
//
// Jobs dispatch in plan order: task i is grid slot i, so one worker runs
// the loads in (cell, page, load) order and more workers claim them in
// that order. Dispatch order never affects results, only wall-clock time:
// no job reads state another job wrote, so a cell may not set
// RunOptions::cache (return visits are harness::run_page_revisit calls,
// one private cache each).
//
// Run telemetry and the `fleet.*` obs series are computed once, after the
// pool joins, from the per-job result and wall-time slots.
#pragma once

#include <cstddef>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "harness/env.h"
#include "harness/experiment.h"
#include "harness/stats.h"
#include "obs/manifest.h"

namespace vroom::fleet {

// One cell's share of a run: its label, job count, and the summed wall
// time and virtual time of its jobs.
struct CellTelemetry {
  std::string label;
  std::size_t jobs = 0;
  double busy_seconds = 0;
  double simulated_seconds = 0;
};

// Summary of one run_plan call, computed after the pool joins from the
// per-job wall times and load results. Printing goes wherever the caller
// points it — benches send it to stderr so stdout stays byte-identical
// across worker counts.
struct Telemetry {
  int workers = 0;
  std::size_t jobs = 0;
  double wall_seconds = 0;       // dispatch start .. pool join
  double busy_seconds = 0;       // summed per-job wall time
  double simulated_seconds = 0;  // summed virtual time of all loads
  harness::Quartiles job_seconds;  // per-job wall-time distribution
  std::vector<CellTelemetry> cells;  // plan order

  double jobs_per_second() const;
  // Busy time over wall time × workers.
  double utilization() const;

  // The run paragraph plus, for multi-cell plans, one row per cell.
  void print(std::FILE* out) const;
};

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
// The one-argument overload reads the environment only when `requested` is
// not positive.
int resolve_worker_count(int requested, const harness::Env& env);
int resolve_worker_count(int requested);

// The fleet's worker pool: runs `count` independent tasks
// `fn(0) .. fn(count-1)` on `workers` workers (0 = resolve: VROOM_JOBS,
// else hardware), claiming indices from one atomic cursor. The calling
// thread is one of them, beside at most `workers - 1` started threads, so
// with one worker — or one task — the tasks run in index order on the
// calling thread.
// A task that throws stops the run: no further tasks are claimed, the
// running ones finish, and the first exception reaches the caller at any
// worker count.
// The caller owns the fleet determinism contract: tasks must be mutually
// independent (disjoint output slots, no claim-order-dependent state), so
// results cannot depend on the worker count. run_plan runs its
// (cell, page, load) grid through it; the deployment scenario uses it for
// its warm-revisit column, page profiles and per-level macro passes, and
// the benches that are not corpus sweeps (Fig 20's revisits, Fig 21's
// accuracy samples) for their independent calls.
void run_tasks(std::size_t count, const std::function<void(std::size_t)>& fn,
               int workers = 0);

// The entries every run manifest starts with (DESIGN.md §12): the schema,
// the run's `kind`, each harness::Env knob and the worker count. run_plan's
// manifest and the deployment scenario's both begin with it.
obs::Manifest run_manifest(const char* kind, const harness::Env& env,
                           int workers);

// One cell of a sweep: a full corpus swept under one strategy with its own
// RunOptions. Cells are independent — different corpora, seeds, networks,
// loads_per_page per cell are all fine and each cell's result is identical
// to a standalone run_corpus(corpus, strategy, options) call.
struct SweepCell {
  const web::Corpus* corpus = nullptr;  // caller-owned; must outlive run_plan
  baselines::Strategy strategy;
  harness::RunOptions options;
  // Names the cell in telemetry rows, CorpusResult::strategy, and the
  // trace-counter CSV export, trace_counters_<slugify(label)>.csv (a slug
  // already taken in the plan gets _2, _3, ... in plan order). Empty means
  // "use strategy.name".
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

  // One cell per strategy over a shared corpus and options, in strategy
  // order.
  SweepPlan& add_matrix(const web::Corpus& corpus,
                        const std::vector<baselines::Strategy>& strategies,
                        const harness::RunOptions& options = {}) {
    for (const baselines::Strategy& strategy : strategies) {
      add(corpus, strategy, options);
    }
    return *this;
  }
};

// Simulates every page of every cell in this process on one shared worker
// pool and returns one CorpusResult per cell, in plan order, each
// bit-identical to a standalone run_corpus call with that cell's arguments
// (any worker count). The telemetry summary carries one row per cell. A
// load that throws stops the run, and the first exception reaches the
// caller at any worker count. A cell whose RunOptions::loads_per_page is
// below 1 or that sets RunOptions::cache throws std::invalid_argument,
// naming the cell, before any load runs.
std::vector<harness::CorpusResult> run_plan(const SweepPlan& plan,
                                            const FleetOptions& fleet = {});

// Sweeps one strategy over the corpus: a one-cell plan. Same contract as
// harness::run_page_median applied to every page — one median-of-N load
// per page, in page order. The canonical corpus sweep: worker count from
// VROOM_JOBS (default: hardware concurrency), results bit-identical
// regardless of worker count.
harness::CorpusResult run_corpus(const web::Corpus& corpus,
                                 const baselines::Strategy& strategy,
                                 const harness::RunOptions& options,
                                 const FleetOptions& fleet = {});

}  // namespace vroom::fleet
