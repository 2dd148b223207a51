#include "fleet/telemetry.h"

#include <chrono>

namespace vroom::fleet {

namespace {

double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void Telemetry::begin_run(int workers, std::size_t jobs_submitted) {
  begin_run(workers, jobs_submitted, {CellPlan{"", jobs_submitted}});
}

void Telemetry::begin_run(int workers, std::size_t jobs_submitted,
                          std::vector<CellPlan> cells) {
  workers_ = workers;
  jobs_submitted_ = jobs_submitted;
  wall_seconds_ = 0;
  cell_plans_ = std::move(cells);
  slots_.assign(static_cast<std::size_t>(workers), WorkerSlot{});
  for (WorkerSlot& slot : slots_) {
    slot.cells.assign(cell_plans_.size(), CellSlot{});
  }
  completed_.store(0, std::memory_order_relaxed);
  in_flight_.store(0, std::memory_order_relaxed);
  peak_in_flight_.store(0, std::memory_order_relaxed);
  wall_start_ = monotonic_seconds();
}

void Telemetry::end_run() { wall_seconds_ = monotonic_seconds() - wall_start_; }

void Telemetry::job_started(int worker) {
  (void)worker;
  const int now = in_flight_.fetch_add(1, std::memory_order_relaxed) + 1;
  int peak = peak_in_flight_.load(std::memory_order_relaxed);
  while (now > peak && !peak_in_flight_.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
}

void Telemetry::job_finished(int worker, int cell, double wall_seconds,
                             sim::Time simulated) {
  WorkerSlot& slot = slots_[static_cast<std::size_t>(worker)];
  slot.busy_seconds += wall_seconds;
  slot.simulated_seconds += sim::to_seconds(simulated);
  slot.job_seconds.push_back(wall_seconds);
  if (static_cast<std::size_t>(cell) < slot.cells.size()) {
    CellSlot& cs = slot.cells[static_cast<std::size_t>(cell)];
    ++cs.completed;
    cs.busy_seconds += wall_seconds;
    cs.simulated_seconds += sim::to_seconds(simulated);
  }
  in_flight_.fetch_sub(1, std::memory_order_relaxed);
  completed_.fetch_add(1, std::memory_order_relaxed);
}

TelemetrySummary Telemetry::summary() const {
  TelemetrySummary s;
  s.workers = workers_;
  s.jobs_submitted = jobs_submitted_;
  s.jobs_completed = completed_.load(std::memory_order_relaxed);
  s.peak_in_flight = peak_in_flight_.load(std::memory_order_relaxed);
  s.wall_seconds = wall_seconds_;
  s.cells.resize(cell_plans_.size());
  for (std::size_t c = 0; c < cell_plans_.size(); ++c) {
    s.cells[c].label = cell_plans_[c].label;
    s.cells[c].jobs_submitted = cell_plans_[c].jobs;
  }
  std::vector<double> all_jobs;
  for (const WorkerSlot& slot : slots_) {
    s.worker_busy_seconds.push_back(slot.busy_seconds);
    s.busy_seconds_total += slot.busy_seconds;
    s.simulated_seconds += slot.simulated_seconds;
    all_jobs.insert(all_jobs.end(), slot.job_seconds.begin(),
                    slot.job_seconds.end());
    for (std::size_t c = 0; c < slot.cells.size() && c < s.cells.size(); ++c) {
      s.cells[c].jobs_completed += slot.cells[c].completed;
      s.cells[c].busy_seconds += slot.cells[c].busy_seconds;
      s.cells[c].simulated_seconds += slot.cells[c].simulated_seconds;
    }
  }
  if (s.wall_seconds > 0) {
    s.jobs_per_second = static_cast<double>(s.jobs_completed) / s.wall_seconds;
    s.sim_to_wall_ratio = s.simulated_seconds / s.wall_seconds;
    if (s.workers > 0) {
      s.utilization = s.busy_seconds_total / (s.wall_seconds * s.workers);
    }
  }
  s.job_seconds = harness::quartiles(all_jobs);
  return s;
}

void Telemetry::print(std::FILE* out) const {
  const TelemetrySummary s = summary();
  std::fprintf(out,
               "[fleet] workers=%d jobs=%zu/%zu wall=%.3fs "
               "throughput=%.1f jobs/s peak_in_flight=%d\n",
               s.workers, s.jobs_completed, s.jobs_submitted, s.wall_seconds,
               s.jobs_per_second, s.peak_in_flight);
  std::fprintf(out,
               "[fleet] busy=%.3fs (utilization %.0f%%)  simulated=%.1fs "
               "(%.0fx wall)  job p25/p50/p75=%.3f/%.3f/%.3fs\n",
               s.busy_seconds_total, s.utilization * 100, s.simulated_seconds,
               s.sim_to_wall_ratio, s.job_seconds.p25, s.job_seconds.p50,
               s.job_seconds.p75);
  if (s.cells.size() < 2) return;  // single-cell runs need no breakdown
  for (std::size_t c = 0; c < s.cells.size(); ++c) {
    const CellTelemetrySummary& cell = s.cells[c];
    std::fprintf(out,
                 "[fleet]   cell %zu \"%s\": jobs=%zu/%zu busy=%.3fs "
                 "simulated=%.1fs\n",
                 c, cell.label.c_str(), cell.jobs_completed,
                 cell.jobs_submitted, cell.busy_seconds,
                 cell.simulated_seconds);
  }
}

}  // namespace vroom::fleet
