// Per-layer measurement for the traced run.
//
// Every number here is taken in the benchmark's own code: wall-clock spans
// around calls to public entry points, LoadResult / DeploymentReport fields,
// and trace::Recorder::events() grouped by (layer, event name). Nothing is
// read from trace::Counters, fleet::Telemetry, obs metric names or
// phase-profiler phases.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "baselines/strategies.h"
#include "bench.h"
#include "deploy/scenario.h"
#include "harness/experiment.h"
#include "trace/trace.h"
#include "web/corpus.h"

namespace perfbench {

// Trace events counted by (layer, event name); push decisions are split by
// outcome ("push.decision:push") so issued pushes can be told from skips.
using EventCounts = std::map<std::pair<vroom::trace::Layer, std::string>,
                             std::int64_t>;

void count_events(const vroom::trace::Recorder& recorder, EventCounts& out);

// Traced results compared with the untraced run of the same input.
struct TraceCheck {
  std::int64_t compared = 0;
  std::int64_t mismatches = 0;
};

// One simulated load of a workload, as its fleet pass runs it.
struct LoadJob {
  const vroom::web::PageModel* page = nullptr;
  const vroom::baselines::Strategy* strategy = nullptr;
  vroom::harness::RunOptions options;
  std::uint64_t nonce = 0;
};

// Serial single-load measurements accumulated over a workload's loads.
struct LoadLayerStats {
  std::vector<double> traced_load_ms;
  std::vector<double> untraced_load_ms;
  std::vector<double> instance_us;
  std::vector<double> stable_set_us;
  std::vector<double> resolve_us;
  std::vector<double> online_scan_us;
  // Untraced load time minus the web and core calls it makes, summed.
  double residual_s = 0;
  double untraced_total_s = 0;
  std::int64_t loads = 0;
  std::int64_t sim_events = 0;
  std::int64_t requests = 0;
  std::int64_t bytes = 0;
  std::int64_t wasted_bytes = 0;
  std::int64_t hinted = 0;
  std::int64_t hinted_referenced = 0;
  EventCounts events;
  // Browser-cache prime + revisit pairs.
  std::int64_t revisit_hits = 0;
  std::int64_t revisit_lookups = 0;
};

// Runs every load serially through harness::run_page_load, first all
// untraced, then all traced (each traced result checked against its
// untraced one), and then times the web (PageInstance) and core
// (stable_set, resolve_candidates, analyze_served_html) calls each load
// makes. Each phase runs back to back so its caches are as warm as a fleet
// worker's. Loads whose strategy has no server aid make no core calls, so
// none are timed for them.
void measure_loads(SpanLog& log, LoadLayerStats& stats, TraceCheck& check,
                   const std::vector<LoadJob>& jobs);

// Primes a private browser cache with one load and revisits `gap` later.
void measure_revisit(SpanLog& log, LoadLayerStats& stats,
                     const vroom::web::PageModel& page,
                     const vroom::baselines::Strategy& strategy,
                     const vroom::harness::RunOptions& options,
                     vroom::sim::Time gap);

struct DeployLayerStats {
  double run_s = 0;
  double macro_s = 0;
  double warm_s = 0;
  // The rest of run_deployment: mostly the micro table on the fleet, plus
  // the page traffic profiles and the staleness pricing.
  double micro_s() const { return run_s - macro_s - warm_s; }
  std::vector<double> population_s;
  std::vector<double> serve_us;
  std::int64_t arrivals = 0;
  std::int64_t timeouts = 0;
  std::int64_t serves = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t stale = 0;
  std::int64_t hintless = 0;
  std::int64_t generations = 0;
};

// Runs the scenario untraced and traced (checking that both report the same
// virtual results) and times its deploy-layer calls:
// build_population at the top offered level and FrontEnd::serve over that
// arrival stream, both seeded as run_deployment seeds them.
void measure_deploy(SpanLog& log, DeployLayerStats& stats, TraceCheck& check,
                    const vroom::web::Corpus& corpus,
                    const vroom::deploy::ScenarioConfig& cfg);

// The per-layer metric set, in BENCHMARK.json order. `corpus_build_s`
// holds one corpus generation time per set-up. `parallel_wall_s` is
// the wall time the same loads took on `workers` fleet workers; the serial
// load times over it give the fleet's parallel efficiency.
std::vector<Metric> layer_metrics(const LoadLayerStats& loads,
                                  const DeployLayerStats& deploy,
                                  const std::vector<double>& corpus_build_s,
                                  double parallel_wall_s, int workers);

}  // namespace perfbench
