#include "fleet/fleet.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "fleet/job_queue.h"
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

// Opt-in live progress line (VROOM_PROGRESS=1): workers redraw a single
// stderr line — `\r`, no newline — at most every 500 ms; a CAS on the
// next-redraw deadline elects one worker per window, so the line never
// interleaves. Goes to stderr so stdout stays byte-identical. finish()
// prints the terminating newline.
class ProgressTicker {
 public:
  ProgressTicker(const JobQueue& queue, const Telemetry& telemetry,
                 bool enabled)
      : queue_(queue), telemetry_(telemetry), start_(monotonic_seconds()),
        enabled_(enabled) {}

  void tick() {
    if (!enabled_) return;
    const double now = monotonic_seconds();
    double deadline = next_redraw_.load(std::memory_order_relaxed);
    if (now < deadline ||
        !next_redraw_.compare_exchange_strong(deadline, now + 0.5,
                                              std::memory_order_relaxed)) {
      return;
    }
    const std::size_t done = telemetry_.jobs_completed();
    const std::size_t total = queue_.size();
    const double elapsed = now - start_;
    const double rate =
        elapsed > 0 ? static_cast<double>(done) / elapsed : 0.0;
    // ETA from the running rate; "--" until the first job lands.
    char eta[32];
    if (rate > 0 && done <= total) {
      const double left = static_cast<double>(total - done) / rate;
      if (left >= 3600) {
        std::snprintf(eta, sizeof eta, "%.1fh", left / 3600);
      } else if (left >= 60) {
        std::snprintf(eta, sizeof eta, "%.1fm", left / 60);
      } else {
        std::snprintf(eta, sizeof eta, "%.0fs", left);
      }
    } else {
      std::snprintf(eta, sizeof eta, "--");
    }
    // Trailing spaces scrub leftovers when this line is shorter than the
    // previous redraw.
    std::fprintf(stderr,
                 "\r[fleet] %zu/%zu jobs (%zu unclaimed), %.1f jobs/s, "
                 "ETA %s   ",
                 done, total, queue_.remaining(), rate, eta);
    std::fflush(stderr);
    printed_ = true;
  }

  // Call after the pool joins: replaces the partial line with the final
  // count and ends it with a newline.
  void finish() {
    if (!enabled_ || !printed_) return;
    std::fprintf(stderr,
                 "\r[fleet] %zu/%zu jobs done"
                 "                                                  \n",
                 telemetry_.jobs_completed(), queue_.size());
  }

 private:
  const JobQueue& queue_;
  const Telemetry& telemetry_;
  double start_;
  bool enabled_ = false;
  std::atomic<bool> printed_{false};
  std::atomic<double> next_redraw_{0};
};

// One plan cell, compiled: page/load extents, the flat-grid slot offset and
// the resolved display label.
struct CompiledCell {
  int pages = 0;
  int loads = 0;
  std::size_t slot_offset = 0;
  std::string label;
};

// Per-job metric recording (DESIGN.md §12). Job totals and the summed
// virtual time are commutative adds, so the virtual-plane export is
// byte-identical at any VROOM_JOBS; the job wall-time distribution is
// nondeterministic by nature and goes to the wall sidecar.
void record_job_metrics(const browser::LoadResult& result,
                        double wall_seconds) {
  if (!obs::metrics_enabled()) return;
  static obs::Counter& completed =
      obs::registry().counter("fleet.jobs.completed");
  static obs::Counter& virtual_us =
      obs::registry().counter("fleet.sim.virtual_us");
  static obs::Histogram& wall_us =
      obs::registry().histogram("fleet.jobs.wall_us", obs::Plane::Wall);
  completed.add();
  virtual_us.add(result.plt);
  wall_us.record(static_cast<std::int64_t>(wall_seconds * 1e6));
}

std::string hex_digest(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

int resolve_worker_count(int requested, const harness::Env& env) {
  if (requested > 0) return requested;
  if (env.jobs > 0) return env.jobs;
  return hardware_workers();
}

int resolve_worker_count(int requested) {
  return resolve_worker_count(requested, harness::Env::from_environment());
}

void run_tasks(std::size_t count, const std::function<void(std::size_t)>& fn,
               int workers) {
  if (count == 0) return;
  int resolved = resolve_worker_count(workers);
  if (static_cast<std::size_t>(resolved) > count) {
    resolved = static_cast<int>(count);
  }
  if (resolved <= 1) {
    // Serial path: index order on the calling thread (VROOM_JOBS=1 replays
    // the serial visit order, mirroring run_plan's one-worker mode).
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
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
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(resolved));
  for (int w = 0; w < resolved; ++w) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

std::vector<harness::CorpusResult> run_plan(const SweepPlan& plan,
                                            const FleetOptions& fleet) {
  const int n_cells = static_cast<int>(plan.cells.size());

  // Observability gates, flipped once per run from the environment (the obs
  // library itself never reads env). A fresh run owns the registry and the
  // phase tables: the export and the printed profile cover exactly this run
  // plus whatever the caller records before the next one starts.
  const harness::Env env = harness::Env::from_environment();
  obs::set_metrics_enabled(env.metrics_enabled());
  obs::set_profiling_enabled(env.profile);
  if (env.metrics_enabled()) obs::registry().reset();
  if (env.profile) obs::reset_phase_profile();

  // Compile the plan: per-cell extents and flat result-grid offsets. Each
  // cell may bring its own loads_per_page / options, so offsets accumulate.
  std::vector<CompiledCell> cells(static_cast<std::size_t>(n_cells));
  std::size_t total_jobs = 0;
  bool any_warm_cache = false;
  for (int c = 0; c < n_cells; ++c) {
    const SweepCell& cell = plan.cells[static_cast<std::size_t>(c)];
    CompiledCell& cc = cells[static_cast<std::size_t>(c)];
    cc.pages = env.effective_page_count(
        static_cast<int>(cell.corpus->size()));
    cc.loads = cell.options.loads_per_page;
    cc.slot_offset = total_jobs;
    cc.label = cell.label.empty() ? cell.strategy.name : cell.label;
    total_jobs += static_cast<std::size_t>(cc.pages) *
                  static_cast<std::size_t>(cc.loads);
    any_warm_cache |= cell.options.cache != nullptr;
  }

  // The flat job list, first in serial (cell, page, load) visit order.
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
  // A shared warm cache is mutated in load order; parallel execution would
  // change which loads hit it. Degrade to the serial order instead.
  if (any_warm_cache) workers = 1;
  if (total_jobs < static_cast<std::size_t>(workers)) {
    workers = static_cast<int>(total_jobs);
  }
  if (workers < 1) workers = 1;

  // Dispatch order. One worker keeps the serial grid order — that is the
  // documented VROOM_JOBS=1 "replay the serial path" mode, and warm-cache
  // cells depend on it. A real pool dispatches longest-job-first (page
  // resource count as the size proxy) so the heaviest pages start early
  // instead of straggling at the tail; the order is a pure function of the
  // plan (ties by job identity), and results never depend on it — slots
  // and seeds are job-identity-based.
  if (workers > 1) {
    jobs = order_longest_first(
        std::move(jobs), [&plan](const Job& job) -> std::size_t {
          return plan.cells[static_cast<std::size_t>(job.cell_index)]
              .corpus->page(static_cast<std::size_t>(job.page_index))
              .size();
        });
  }
  JobQueue queue(std::move(jobs));

  Telemetry local_telemetry;
  Telemetry* telemetry =
      fleet.telemetry != nullptr ? fleet.telemetry : &local_telemetry;
  std::vector<Telemetry::CellPlan> cell_plans;
  cell_plans.reserve(static_cast<std::size_t>(n_cells));
  for (const CompiledCell& cc : cells) {
    cell_plans.push_back(Telemetry::CellPlan{
        cc.label, static_cast<std::size_t>(cc.pages) *
                      static_cast<std::size_t>(cc.loads)});
  }
  telemetry->begin_run(workers, queue.size(), std::move(cell_plans));
  if (env.metrics_enabled()) {
    obs::registry()
        .gauge("fleet.run.workers", obs::Plane::Wall)
        .set_max(workers);
  }
  ProgressTicker ticker(queue, *telemetry, env.progress);

  // Flat result grid, one pre-assigned slot per job: workers never write to
  // overlapping memory, and claim order cannot affect where results land.
  std::vector<browser::LoadResult> grid(total_jobs);
  auto slot = [&cells](const Job& job) -> std::size_t {
    const CompiledCell& cc = cells[static_cast<std::size_t>(job.cell_index)];
    return cc.slot_offset +
           static_cast<std::size_t>(job.page_index) *
               static_cast<std::size_t>(cc.loads) +
           static_cast<std::size_t>(job.load_index);
  };

  auto worker_loop = [&](int worker_id) {
    while (std::optional<Job> job = queue.pop()) {
      telemetry->job_started(worker_id);
      const double started = monotonic_seconds();
      const SweepCell& cell =
          plan.cells[static_cast<std::size_t>(job->cell_index)];
      const web::PageModel& page =
          cell.corpus->page(static_cast<std::size_t>(job->page_index));
      // Seed derivation matches harness::run_page_median exactly: the nonce
      // depends only on (seed, page id, load index).
      const std::uint64_t nonce = harness::derive_load_nonce(
          cell.options.seed, page.page_id(), job->load_index);
      browser::LoadResult result =
          harness::run_page_load(page, cell.strategy, cell.options, nonce);
      const double job_seconds = monotonic_seconds() - started;
      record_job_metrics(result, job_seconds);
      const sim::Time simulated = result.plt;
      grid[slot(*job)] = std::move(result);
      telemetry->job_finished(worker_id, job->cell_index, job_seconds,
                              simulated);
      ticker.tick();
    }
  };

  if (workers == 1) {
    // Serial path: drain the queue on the calling thread in grid order —
    // cell-major then page-major then load-major, the exact visit order of
    // the historical serial sweep.
    worker_loop(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back(worker_loop, w);
    }
    for (std::thread& t : pool) t.join();
  }
  telemetry->end_run();
  ticker.finish();
  if (env.profile) {
    // Collected after the pool joins: every worker's thread-local table has
    // folded into the retired aggregate, so the table partitions the run's
    // whole worker time. Stderr only — stdout stays frozen.
    std::fputs(obs::format_phase_profile(
                   obs::collect_phase_profile(),
                   telemetry->summary().busy_seconds_total)
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
    manifest.set("env.bench_pages",
                 static_cast<std::int64_t>(env.bench_pages));
    manifest.set("env.trace", env.trace_dir);
    manifest.set("env.out_dir", env.out_dir);
    manifest.set("env.metrics", env.metrics_dir);
    manifest.set("env.profile", std::int64_t{env.profile ? 1 : 0});
    manifest.set("env.progress", std::int64_t{env.progress ? 1 : 0});
    manifest.set("env.deploy_arrivals",
                 static_cast<std::int64_t>(env.deploy_arrivals));
    manifest.set("env.deploy_window_hours",
                 static_cast<std::int64_t>(env.deploy_window_hours));
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
    // CSVs (no-op when tracing was off or VROOM_OUT_DIR is unset).
    harness::maybe_export_counters("trace counters " + cc.label,
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
