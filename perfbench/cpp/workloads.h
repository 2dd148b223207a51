// The benchmark's workloads. Each builds its inputs from the seed, runs one
// closed-loop pass over them on the fleet, and can measure itself layer by
// layer for the traced run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "layers.h"

namespace perfbench {

struct PassOutcome {
  std::uint64_t digest = 0;
  double wall_s = 0;
  // CPU seconds of all threads over the same interval.
  double cpu_s = 0;
  // Units of work the pass completed (page loads on the sweeps, macro
  // serves on deploy_day) and the wall time they took.
  double work = 0;
  double work_wall_s = 0;
  // Simulated events of every load in the pass; 0 where the public result
  // does not expose them (deploy_day).
  std::int64_t sim_events = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds the pass inputs from the seed; returns the seconds spent
  // generating the page corpora.
  virtual double build_inputs() = 0;
  virtual PassOutcome run_pass() = 0;
  // Per-layer metrics from serial, traced and untraced measurements.
  // `corpus_build_s` holds the corpus generation time of each set-up and
  // `parallel_pass_s` the untraced pass wall time. Every traced result is
  // compared with its untraced run in `check`.
  virtual std::vector<Metric> measure_layers(
      SpanLog& log, const std::vector<double>& corpus_build_s,
      double parallel_pass_s, TraceCheck& check) = 0;
};

// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Options& options);

}  // namespace perfbench
