#include "fleet/fleet.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

#include "harness/env.h"
#include "harness/export.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/phase_profiler.h"

namespace vroom::fleet {

namespace {

double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int hardware_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

// One plan cell, compiled: page/load extents, the flat-grid slot offset and
// the resolved display label.
struct CompiledCell {
  int pages = 0;
  int loads = 0;
  std::size_t slot_offset = 0;
  std::string label;
};

// The cell whose slot range holds `slot`: the last one that starts at or
// before it (a cell without pages shares its offset with the next one).
std::size_t cell_of(const std::vector<CompiledCell>& cells, std::size_t slot) {
  const auto after = std::upper_bound(
      cells.begin(), cells.end(), slot,
      [](std::size_t s, const CompiledCell& cc) { return s < cc.slot_offset; });
  return static_cast<std::size_t>(after - cells.begin()) - 1;
}

// The run's summary, from the per-job slots: each cell's jobs occupy the
// contiguous slot range that starts at its slot_offset.
Telemetry summarize(int workers, double wall_seconds,
                    const std::vector<CompiledCell>& cells,
                    const std::vector<browser::LoadResult>& grid,
                    const std::vector<double>& job_seconds) {
  Telemetry t;
  t.workers = workers;
  t.jobs = grid.size();
  t.wall_seconds = wall_seconds;
  t.cells.reserve(cells.size());
  for (const CompiledCell& cc : cells) {
    CellTelemetry& row = t.cells.emplace_back();
    row.label = cc.label;
    row.jobs = static_cast<std::size_t>(cc.pages) *
               static_cast<std::size_t>(cc.loads);
    for (std::size_t i = cc.slot_offset; i < cc.slot_offset + row.jobs; ++i) {
      row.busy_seconds += job_seconds[i];
      row.simulated_seconds += sim::to_seconds(grid[i].plt);
    }
    t.busy_seconds += row.busy_seconds;
    t.simulated_seconds += row.simulated_seconds;
  }
  t.job_seconds = harness::quartiles(job_seconds);
  return t;
}

// The fleet's obs series (DESIGN.md §12), from the same slots. Job totals
// and the summed virtual time are commutative adds, so the virtual-plane
// export is byte-identical at any VROOM_JOBS; the worker count and the job
// wall-time distribution are nondeterministic by nature and go to the wall
// sidecar.
void record_run_metrics(int workers,
                        const std::vector<browser::LoadResult>& grid,
                        const std::vector<double>& job_seconds) {
  obs::Registry& registry = obs::registry();
  registry.gauge("fleet.run.workers", obs::Plane::Wall).set_max(workers);
  registry.counter("fleet.jobs.completed")
      .add(static_cast<std::int64_t>(grid.size()));
  obs::Counter& virtual_us = registry.counter("fleet.sim.virtual_us");
  obs::Histogram& wall_us =
      registry.histogram("fleet.jobs.wall_us", obs::Plane::Wall);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    virtual_us.add(grid[i].plt);
    wall_us.record(static_cast<std::int64_t>(job_seconds[i] * 1e6));
  }
}

}  // namespace

double Telemetry::jobs_per_second() const {
  return wall_seconds > 0 ? static_cast<double>(jobs) / wall_seconds : 0.0;
}

double Telemetry::utilization() const {
  return wall_seconds > 0 && workers > 0
             ? busy_seconds / (wall_seconds * workers)
             : 0.0;
}

void Telemetry::print(std::FILE* out) const {
  std::fprintf(out,
               "[fleet] workers=%d jobs=%zu wall=%.3fs "
               "throughput=%.1f jobs/s\n",
               workers, jobs, wall_seconds, jobs_per_second());
  std::fprintf(out,
               "[fleet] busy=%.3fs (utilization %.0f%%)  simulated=%.1fs "
               "(%.0fx wall)  job p25/p50/p75=%.3f/%.3f/%.3fs\n",
               busy_seconds, utilization() * 100, simulated_seconds,
               wall_seconds > 0 ? simulated_seconds / wall_seconds : 0.0,
               job_seconds.p25, job_seconds.p50, job_seconds.p75);
  if (cells.size() < 2) return;  // single-cell runs need no breakdown
  for (std::size_t c = 0; c < cells.size(); ++c) {
    std::fprintf(out,
                 "[fleet]   cell %zu \"%s\": jobs=%zu busy=%.3fs "
                 "simulated=%.1fs\n",
                 c, cells[c].label.c_str(), cells[c].jobs,
                 cells[c].busy_seconds, cells[c].simulated_seconds);
  }
}

int resolve_worker_count(int requested, const harness::Env& env) {
  if (requested > 0) return requested;
  if (env.jobs > 0) return env.jobs;
  return hardware_workers();
}

int resolve_worker_count(int requested) {
  if (requested > 0) return requested;
  return resolve_worker_count(requested, harness::Env::from_environment());
}

void run_tasks(std::size_t count, const std::function<void(std::size_t)>& fn,
               int workers) {
  if (count == 0) return;
  int resolved = resolve_worker_count(workers);
  if (static_cast<std::size_t>(resolved) > count) {
    resolved = static_cast<int>(count);
  }
  std::atomic<std::size_t> cursor{0};
  // An exception must not escape a worker thread (that would terminate the
  // process): the first one is kept, the cursor is run out so no worker
  // claims another task, and it is rethrown after the join.
  std::mutex error_mu;
  std::exception_ptr first_error;
  auto worker = [&] {
    for (std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
         i < count; i = cursor.fetch_add(1, std::memory_order_relaxed)) {
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
        cursor.store(count, std::memory_order_relaxed);
        return;
      }
    }
  };
  // The calling thread is one of the workers, so one worker claims every
  // index in order on it.
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(resolved - 1));
  for (int w = 1; w < resolved; ++w) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

obs::Manifest run_manifest(const char* kind, const harness::Env& env,
                           int workers) {
  obs::Manifest manifest;
  manifest.set("schema", std::int64_t{1});
  manifest.set("kind", kind);
  manifest.set("env.jobs", static_cast<std::int64_t>(env.jobs));
  manifest.set("env.trace", env.trace_dir);
  manifest.set("env.out_dir", env.out_dir);
  manifest.set("env.profile", std::int64_t{env.profile ? 1 : 0});
  manifest.set("workers", static_cast<std::int64_t>(workers));
  return manifest;
}

std::vector<harness::CorpusResult> run_plan(const SweepPlan& plan,
                                            const FleetOptions& fleet) {
  const int n_cells = static_cast<int>(plan.cells.size());

  const harness::Env env = harness::Env::from_environment();

  // Compile the plan: per-cell extents and flat result-grid offsets. Each
  // cell may bring its own loads_per_page / options, so offsets accumulate.
  std::vector<CompiledCell> cells(static_cast<std::size_t>(n_cells));
  std::size_t total_jobs = 0;
  for (int c = 0; c < n_cells; ++c) {
    const SweepCell& cell = plan.cells[static_cast<std::size_t>(c)];
    CompiledCell& cc = cells[static_cast<std::size_t>(c)];
    cc.pages = static_cast<int>(cell.corpus->size());
    cc.loads = cell.options.loads_per_page;
    cc.slot_offset = total_jobs;
    cc.label = cell.label.empty() ? cell.strategy.name : cell.label;
    const std::string name =
        "fleet::run_plan: cell " + std::to_string(c) + " (\"" + cc.label +
        "\")";
    // A page's result is the median of its loads, so it needs at least one.
    if (cc.loads < 1) {
      throw std::invalid_argument(name + " sets RunOptions::loads_per_page " +
                                  std::to_string(cc.loads) +
                                  "; want at least 1");
    }
    // A cache shared by a cell's loads would make each result depend on
    // the loads before it; return visits own their cache instead.
    if (cell.options.cache != nullptr) {
      throw std::invalid_argument(
          name + " sets RunOptions::cache; use harness::run_page_revisit");
    }
    total_jobs += static_cast<std::size_t>(cc.pages) *
                  static_cast<std::size_t>(cc.loads);
  }

  // Observability gates, flipped once per run from the environment (the obs
  // library itself never reads env): metrics record exactly when the run
  // has an artifact directory to export them to. A fresh run owns the
  // registry and the phase tables: the export and the printed profile cover
  // exactly this run plus whatever the caller records before the next one
  // starts.
  const bool metrics = !env.out_dir.empty();
  obs::set_metrics_enabled(metrics);
  obs::set_profiling_enabled(env.profile);
  if (metrics) obs::registry().reset();
  if (env.profile) obs::reset_phase_profile();

  int workers = resolve_worker_count(fleet.workers, env);
  if (total_jobs < static_cast<std::size_t>(workers)) {
    workers = static_cast<int>(total_jobs);
  }
  if (workers < 1) workers = 1;

  // One slot per job for its result and its wall time, in (cell, page,
  // load) order: task i runs the job of slot i, so tasks never write to
  // overlapping memory and claim order cannot affect where results land.
  std::vector<browser::LoadResult> grid(total_jobs);
  std::vector<double> job_seconds(total_jobs);

  const double run_started = monotonic_seconds();
  run_tasks(
      total_jobs,
      [&](std::size_t i) {
        const double started = monotonic_seconds();
        const std::size_t c = cell_of(cells, i);
        const CompiledCell& cc = cells[c];
        const SweepCell& cell = plan.cells[c];
        const std::size_t job = i - cc.slot_offset;
        const std::size_t loads = static_cast<std::size_t>(cc.loads);
        const web::PageModel& page = cell.corpus->page(job / loads);
        // Seed derivation matches harness::run_page_median exactly: the
        // nonce depends only on (seed, page id, load index).
        const std::uint64_t nonce = harness::derive_load_nonce(
            cell.options.seed, page.page_id(), static_cast<int>(job % loads));
        grid[i] =
            harness::run_page_load(page, cell.strategy, cell.options, nonce);
        job_seconds[i] = monotonic_seconds() - started;
      },
      workers);
  const Telemetry telemetry = summarize(
      workers, monotonic_seconds() - run_started, cells, grid, job_seconds);
  if (fleet.telemetry != nullptr) *fleet.telemetry = telemetry;
  if (metrics) record_run_metrics(workers, grid, job_seconds);
  if (env.profile) {
    // Collected after the pool joins: every worker's thread-local table has
    // folded into the retired aggregate, so the table partitions the run's
    // whole worker time. Stderr only — stdout stays frozen.
    std::fputs(obs::format_phase_profile(
                   obs::collect_phase_profile(), telemetry.busy_seconds)
                   .c_str(),
               stderr);
  }
  if (metrics) {
    obs::Manifest manifest = run_manifest("fleet_sweep", env, workers);
    manifest.set("jobs.total", static_cast<std::uint64_t>(total_jobs));
    manifest.set("cells", static_cast<std::int64_t>(n_cells));
    for (int c = 0; c < n_cells; ++c) {
      const SweepCell& cell = plan.cells[static_cast<std::size_t>(c)];
      const CompiledCell& cc = cells[static_cast<std::size_t>(c)];
      const std::string prefix = "cell." + std::to_string(c) + ".";
      manifest.set(prefix + "label", cc.label);
      manifest.set(prefix + "fingerprint", cell.strategy.fingerprint());
      manifest.set(prefix + "seed",
                   static_cast<std::uint64_t>(cell.options.seed));
      manifest.set(prefix + "pages", static_cast<std::int64_t>(cc.pages));
      manifest.set(prefix + "loads", static_cast<std::int64_t>(cc.loads));
    }
    obs::export_run(env.out_dir, std::move(manifest));
  }

  // Median selection in load-index order, identical to run_page_median;
  // per-cell results in plan order.
  std::vector<harness::CorpusResult> results(
      static_cast<std::size_t>(n_cells));
  std::set<std::string> counter_files;
  std::size_t slot = 0;
  for (int c = 0; c < n_cells; ++c) {
    const CompiledCell& cc = cells[static_cast<std::size_t>(c)];
    auto& out = results[static_cast<std::size_t>(c)];
    out.strategy = cc.label;
    out.loads.reserve(static_cast<std::size_t>(cc.pages));
    for (int p = 0; p < cc.pages; ++p) {
      std::vector<browser::LoadResult> runs;
      runs.reserve(static_cast<std::size_t>(cc.loads));
      for (int l = 0; l < cc.loads; ++l) {
        runs.push_back(std::move(grid[slot++]));
      }
      out.loads.push_back(harness::select_median_load(std::move(runs)));
    }
    // Tracing runs export their aggregated counters alongside the figure
    // CSVs (no-op when tracing was off or VROOM_OUT_DIR is unset), named by
    // label. A slug the plan already used gets _2, _3, ... so cells that
    // share a label keep their own files, and a dropped or inserted cell
    // renames only later cells of its slug.
    const std::string slug = harness::slugify(cc.label);
    std::string file = slug;
    for (int n = 2; !counter_files.insert(file).second; ++n) {
      file = slug + "_" + std::to_string(n);
    }
    harness::maybe_export_counters("trace counters " + file,
                                   out.counter_totals());
  }
  return results;
}

harness::CorpusResult run_corpus(const web::Corpus& corpus,
                                 const baselines::Strategy& strategy,
                                 const harness::RunOptions& options,
                                 const FleetOptions& fleet) {
  SweepPlan plan;
  plan.add(corpus, strategy, options);
  return std::move(run_plan(plan, fleet).front());
}

}  // namespace vroom::fleet
