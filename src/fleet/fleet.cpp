#include "fleet/fleet.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <tuple>
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

std::string hex_digest(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
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

std::vector<Job> order_longest_first(
    std::vector<Job> jobs,
    const std::function<std::size_t(const Job&)>& size_of) {
  // Sizes are looked up once per job, not once per comparison: size_of may
  // walk corpus pages, and comparator calls are O(n log n).
  std::vector<std::size_t> size(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) size[i] = size_of(jobs[i]);
  std::vector<std::size_t> order(jobs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (size[a] != size[b]) return size[a] > size[b];
    return std::tuple(jobs[a].cell_index, jobs[a].page_index,
                      jobs[a].load_index) <
           std::tuple(jobs[b].cell_index, jobs[b].page_index,
                      jobs[b].load_index);
  });
  std::vector<Job> out;
  out.reserve(jobs.size());
  for (std::size_t i : order) out.push_back(jobs[i]);
  return out;
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
  // library itself never reads env). A fresh run owns the registry and the
  // phase tables: the export and the printed profile cover exactly this run
  // plus whatever the caller records before the next one starts.
  obs::set_metrics_enabled(env.metrics_enabled());
  obs::set_profiling_enabled(env.profile);
  if (env.metrics_enabled()) obs::registry().reset();
  if (env.profile) obs::reset_phase_profile();

  // The flat job list, in (cell, page, load) grid order.
  std::vector<Job> jobs;
  jobs.reserve(total_jobs);
  for (int c = 0; c < n_cells; ++c) {
    for (int p = 0; p < cells[static_cast<std::size_t>(c)].pages; ++p) {
      for (int l = 0; l < cells[static_cast<std::size_t>(c)].loads; ++l) {
        jobs.push_back(Job{c, p, l});
      }
    }
  }

  int workers = resolve_worker_count(fleet.workers, env);
  if (total_jobs < static_cast<std::size_t>(workers)) {
    workers = static_cast<int>(total_jobs);
  }
  if (workers < 1) workers = 1;

  // Dispatch order: longest-job-first (page resource count as the size
  // proxy), so the heaviest pages start early instead of straggling at the
  // tail. The order is a pure function of the plan (ties by job identity),
  // and results never depend on it — slots and seeds are
  // job-identity-based.
  jobs = order_longest_first(
      std::move(jobs), [&plan](const Job& job) -> std::size_t {
        return plan.cells[static_cast<std::size_t>(job.cell_index)]
            .corpus->page(static_cast<std::size_t>(job.page_index))
            .size();
      });

  // One pre-assigned slot per job for its result and its wall time: tasks
  // never write to overlapping memory, and claim order cannot affect where
  // results land.
  std::vector<browser::LoadResult> grid(total_jobs);
  std::vector<double> job_seconds(total_jobs);
  auto slot = [&cells](const Job& job) -> std::size_t {
    const CompiledCell& cc = cells[static_cast<std::size_t>(job.cell_index)];
    return cc.slot_offset +
           static_cast<std::size_t>(job.page_index) *
               static_cast<std::size_t>(cc.loads) +
           static_cast<std::size_t>(job.load_index);
  };

  const double run_started = monotonic_seconds();
  run_tasks(
      jobs.size(),
      [&](std::size_t i) {
        const Job& job = jobs[i];
        const double started = monotonic_seconds();
        const SweepCell& cell =
            plan.cells[static_cast<std::size_t>(job.cell_index)];
        const web::PageModel& page =
            cell.corpus->page(static_cast<std::size_t>(job.page_index));
        // Seed derivation matches harness::run_page_median exactly: the
        // nonce depends only on (seed, page id, load index).
        const std::uint64_t nonce = harness::derive_load_nonce(
            cell.options.seed, page.page_id(), job.load_index);
        browser::LoadResult result =
            harness::run_page_load(page, cell.strategy, cell.options, nonce);
        const std::size_t s = slot(job);
        job_seconds[s] = monotonic_seconds() - started;
        grid[s] = std::move(result);
      },
      workers);
  const Telemetry telemetry = summarize(
      workers, monotonic_seconds() - run_started, cells, grid, job_seconds);
  if (fleet.telemetry != nullptr) *fleet.telemetry = telemetry;
  if (env.metrics_enabled()) record_run_metrics(workers, grid, job_seconds);
  if (env.profile) {
    // Collected after the pool joins: every worker's thread-local table has
    // folded into the retired aggregate, so the table partitions the run's
    // whole worker time. Stderr only — stdout stays frozen.
    std::fputs(obs::format_phase_profile(
                   obs::collect_phase_profile(), telemetry.busy_seconds)
                   .c_str(),
               stderr);
  }
  if (env.metrics_enabled()) {
    obs::PhaseTimer export_phase(obs::Phase::Export);
    std::error_code ec;
    std::filesystem::create_directories(env.metrics_dir, ec);
    obs::registry().export_to(env.metrics_dir);
    obs::Manifest manifest;
    manifest.set("schema", std::int64_t{1});
    manifest.set("kind", "fleet_sweep");
    manifest.set("env.jobs", static_cast<std::int64_t>(env.jobs));
    manifest.set("env.trace", env.trace_dir);
    manifest.set("env.out_dir", env.out_dir);
    manifest.set("env.metrics", env.metrics_dir);
    manifest.set("env.profile", std::int64_t{env.profile ? 1 : 0});
    manifest.set("workers", static_cast<std::int64_t>(workers));
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
    manifest.set("digest.metrics_prom",
                 hex_digest(obs::registry().digest(obs::Plane::Virtual)));
    manifest.set("digest.wall_sidecar_prom",
                 hex_digest(obs::registry().digest(obs::Plane::Wall)));
    manifest.write(env.metrics_dir + "/manifest.json");
  }

  // Median selection in load-index order, identical to run_page_median;
  // per-cell results in plan order.
  std::vector<harness::CorpusResult> results(
      static_cast<std::size_t>(n_cells));
  for (int c = 0; c < n_cells; ++c) {
    const CompiledCell& cc = cells[static_cast<std::size_t>(c)];
    auto& out = results[static_cast<std::size_t>(c)];
    out.strategy = cc.label;
    out.loads.reserve(static_cast<std::size_t>(cc.pages));
    for (int p = 0; p < cc.pages; ++p) {
      std::vector<browser::LoadResult> runs;
      runs.reserve(static_cast<std::size_t>(cc.loads));
      for (int l = 0; l < cc.loads; ++l) {
        runs.push_back(std::move(grid[slot(Job{c, p, l})]));
      }
      out.loads.push_back(harness::select_median_load(std::move(runs)));
    }
    // Tracing runs export their aggregated counters alongside the figure
    // CSVs (no-op when tracing was off or VROOM_OUT_DIR is unset). The cell
    // index keeps cells that share a label from sharing a file.
    harness::maybe_export_counters(
        "trace counters c" + std::to_string(c) + " " + cc.label,
        out.counter_totals());
  }
  return results;
}

std::vector<harness::CorpusResult> run_matrix(
    const web::Corpus& corpus,
    const std::vector<baselines::Strategy>& strategies,
    const harness::RunOptions& options, const FleetOptions& fleet) {
  SweepPlan plan;
  plan.add_matrix(corpus, strategies, options);
  return run_plan(plan, fleet);
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
