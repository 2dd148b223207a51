// Run telemetry for fleet sweeps.
//
// Workers report into private per-worker slots (no contention on the hot
// path); only the in-flight gauge and the completion counter are shared
// atomics. Aggregation happens in summary(), which callers invoke after the
// pool has joined. Printing goes wherever the caller points it — benches
// send it to stderr so stdout stays byte-identical across worker counts.
//
// A run is a set of *cells* — one (corpus, strategy, options) entry of a
// SweepPlan — and every job belongs to exactly one cell. summary() rolls
// jobs up per cell as well as per run, so a multi-corpus sweep shows where
// its wall time went.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/stats.h"
#include "sim/time.h"

namespace vroom::fleet {

// Per-cell aggregate: one row per SweepPlan cell, in plan order.
struct CellTelemetrySummary {
  std::string label;
  std::size_t jobs_submitted = 0;
  std::size_t jobs_completed = 0;
  double busy_seconds = 0;       // summed worker time spent on this cell
  double simulated_seconds = 0;  // summed virtual time of the cell's loads
};

struct TelemetrySummary {
  int workers = 0;
  std::size_t jobs_submitted = 0;
  std::size_t jobs_completed = 0;
  int peak_in_flight = 0;
  double wall_seconds = 0;        // begin_run() .. end_run()
  double jobs_per_second = 0;
  double busy_seconds_total = 0;  // summed across workers
  double utilization = 0;         // busy / (wall * workers)
  std::vector<double> worker_busy_seconds;
  double simulated_seconds = 0;   // summed virtual time of all loads
  double sim_to_wall_ratio = 0;   // how much faster than real time we simulate
  harness::Quartiles job_seconds; // per-job wall-time distribution
  std::vector<CellTelemetrySummary> cells;  // plan order
};

class Telemetry {
 public:
  // One planned cell: its display label and how many jobs it submits.
  struct CellPlan {
    std::string label;
    std::size_t jobs = 0;
  };

  // Sizes the per-worker slots and starts the wall clock. Must be called
  // before any worker reports; resets any previous run. The single-cell
  // overload serves runs without a plan (one anonymous cell).
  void begin_run(int workers, std::size_t jobs_submitted);
  void begin_run(int workers, std::size_t jobs_submitted,
                 std::vector<CellPlan> cells);
  void end_run();  // stops the wall clock; call after joining the pool

  // Worker-side hooks. `worker` indexes [0, workers); `cell` indexes the
  // plan cells passed to begin_run. job_started / job_finished bracket each
  // job; the finished hook records the job's wall duration and the virtual
  // time its simulation covered.
  void job_started(int worker);
  void job_finished(int worker, int cell, double wall_seconds,
                    sim::Time simulated);

  std::size_t jobs_submitted() const { return jobs_submitted_; }
  std::size_t jobs_completed() const {
    return completed_.load(std::memory_order_relaxed);
  }

  // Aggregates. Only valid once the pool has joined (no concurrent writers).
  TelemetrySummary summary() const;

  // Human-readable dump of summary(): the run paragraph plus, for
  // multi-cell plans, one row per cell.
  void print(std::FILE* out) const;

 private:
  struct CellSlot {  // per-worker per-cell accumulators
    std::size_t completed = 0;
    double busy_seconds = 0;
    double simulated_seconds = 0;
  };
  struct alignas(64) WorkerSlot {  // cache-line padded: no false sharing
    double busy_seconds = 0;
    double simulated_seconds = 0;
    std::vector<double> job_seconds;
    std::vector<CellSlot> cells;
  };

  int workers_ = 0;
  std::size_t jobs_submitted_ = 0;
  double wall_seconds_ = 0;
  double wall_start_ = 0;  // monotonic clock, seconds
  std::vector<CellPlan> cell_plans_;
  std::vector<WorkerSlot> slots_;
  std::atomic<std::size_t> completed_{0};
  std::atomic<int> in_flight_{0};
  std::atomic<int> peak_in_flight_{0};
};

}  // namespace vroom::fleet
