// Population-scale deployment scenario: the whole pipeline in one call.
//
// Running every page view of a day-long population through the full
// browser simulator would cost hours per load level. The scenario instead
// splits the problem at the point where the layers decouple:
//
//   micro (parallel, expensive)  — a PLT table measured with the real
//     simulator: for every (device class, hint condition), one load per
//     corpus page. Conditions are the hint states a shared front-end can
//     produce — fresh offline hints, hints from crawls {1h, 6h, 24h, ...}
//     old (priced through VroomProviderConfig::hint_age: stale rotations
//     become ghost fetches), and hintless serves — plus a warm-cache
//     revisit column (one harness::run_page_revisit per device and page,
//     Figure 20 style). The stale and hintless conditions run as
//     fleet::SweepPlan cells; the fresh condition's loads are the revisits'
//     primes, which are exactly those cold loads.
//
//   macro (parallel per level)   — the population's arrival stream runs
//     against a deploy::FrontEnd and per-origin net::Link instances. Each
//     page view's PLT is the micro table entry for its (device, hint
//     condition) plus the front-end's synchronous hint wait plus the worst
//     per-origin queueing delay it experienced. Queueing is real FIFO
//     contention: concurrent users share each origin's access link, so p99
//     PLT degrades — and loads start timing out — as offered load crosses
//     link capacity. Nothing is a closed-form approximation of contention;
//     the queues are simulated. Arrivals replay directly over the
//     time-sorted stream (the link FIFO story is busy_until arithmetic, so
//     no event heap is involved), and origin links are keyed by dense
//     interned domain ids, not string maps.
//
// Determinism: micro cells run on the fleet (bit-identical at any
// VROOM_JOBS); the warm column parallelizes over independent (device,
// page) revisits, each priming and revisiting its own cache; the
// offered-load levels run concurrently on the same pool because each level
// owns its entire world (population, FrontEnd, links, recorder) — reports,
// bucket-serve totals, and trace sinks are assembled in level order after
// the join, and every shared obs metric merges commutatively (counter
// adds, gauge maxima, fixed-boundary histogram bucket adds). The whole
// report is therefore byte-stable across worker counts.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "deploy/front_end.h"
#include "deploy/population.h"
#include "harness/experiment.h"
#include "sim/time.h"
#include "web/corpus.h"

namespace vroom::deploy {

struct ScenarioConfig {
  std::uint64_t seed = 42;
  // Offered load levels to sweep, in page views per second (population
  // mean; the diurnal profile modulates the instantaneous rate).
  std::vector<double> offered_levels = {0.05, 0.2, 0.8, 3.2};
  // Hint-staleness conditions measured in the micro table, beyond fresh
  // (age 0). Macro serves map to the nearest measured age.
  std::vector<sim::Time> stale_ages = {sim::hours(1), sim::hours(6),
                                       sim::hours(24)};
  // Gap of the warm-cache micro column (prime, then revisit this long
  // after).
  sim::Time revisit_gap = sim::hours(1);
  // Per-origin access-link rate, as this fraction of the hottest origin's
  // offered demand at the *top* load level, which guarantees the sweep
  // crosses capacity (the regime the scenario exists to show).
  double origin_capacity_frac = 0.6;

  PopulationConfig population;  // mean_arrivals_per_sec set per level
  // The shared front end. It crawls on the micro loads' clock, micro.when,
  // so hints and loads see one web.
  FrontEndConfig front_end;
  // Base options for the micro cells (seed, device and loads_per_page are
  // overridden per cell; when is also the front end's crawl clock; timeout
  // doubles as the macro PLT cap).
  harness::RunOptions micro;
  // Like RunOptions::trace_sink: when set, each level's macro pass runs
  // with a trace::Recorder attached (front-end cache/stale/recrawl events,
  // per-origin queueing) and hands it here after the level finishes.
  std::function<void(int level_index, const trace::Recorder&)> trace_sink;
};

// The micro PLT lookup table. Bucket indices 0..ages.size()-1 correspond
// to hint conditions of age ages[i] (ages[0] == 0 is fresh); bucket
// ages.size() is the hintless condition; warm revisits use warm_plt.
struct MicroTable {
  std::vector<sim::Time> ages;
  // plt[device][bucket][page], microseconds, timeout-capped.
  std::vector<std::vector<std::vector<sim::Time>>> plt;
  // warm_plt[device][page]: revisit PLT with a primed browser cache.
  std::vector<std::vector<sim::Time>> warm_plt;

  int hintless_bucket() const { return static_cast<int>(ages.size()); }
  // Bucket for a front-end decision: None -> hintless, otherwise the
  // nearest measured age (lower index wins ties).
  int bucket_for(HintSource source, sim::Time staleness) const;
};

// One load level's outcome.
struct LevelReport {
  double offered_per_sec = 0;   // configured population mean
  std::int64_t arrivals = 0;
  std::int64_t timeouts = 0;    // PLT hit the cap (counted, not served)
  double served_per_sec = 0;    // completed loads / window
  double p50_plt_s = 0;
  double p99_plt_s = 0;
  // The same percentiles read back from the level's obs::Histogram of PLT
  // microseconds — the log-linear bucketing every metrics export uses.
  // Agrees with the exact values above to within one bucket width (~3%
  // relative); tests/obs_test.cpp asserts the bound.
  double hist_p50_plt_s = 0;
  double hist_p99_plt_s = 0;
  double mean_origin_wait_s = 0;  // per-load worst origin queueing delay
  double mean_fe_wait_ms = 0;     // synchronous hint-path wait
  double max_link_utilization = 0;
  double hit_ratio = 0;
  double stale_frac = 0;     // stale serves / serves
  double hintless_frac = 0;  // deadline-exceeded serves / serves
  double mean_staleness_s = 0;
  FrontEndStats front_end;
  std::vector<double> plt_seconds;  // all completed+timed-out loads, capped
};

// Staleness priced against content persistence (Figure 7's axis): for each
// measured hint age, how much of a page is still valid, how often the
// front-end actually served at that age, and what it cost in PLT.
struct StaleBucketReport {
  sim::Time age = 0;
  double persistence = 0;     // mean still-valid URL fraction at this age
  std::int64_t serves = 0;    // macro serves mapped to this bucket (all levels)
  double mean_micro_plt_s = 0;  // table mean over devices x pages
};

struct DeploymentReport {
  int pages = 0;
  std::vector<std::string> device_names;
  double origin_link_mbps = 0;
  sim::Time effective_recrawl = 0;
  // Traffic window simulated (cfg.population.window).
  sim::Time window = 0;
  MicroTable micro;
  std::vector<LevelReport> levels;
  std::vector<StaleBucketReport> stale_buckets;  // ages, fresh first
  // Total arrivals replayed across all levels (deterministic).
  std::int64_t macro_arrivals = 0;
  // Wall-clock seconds of the macro passes / the warm-revisit column —
  // wall-plane throughput facts for bench reporting (stderr only); never
  // part of any byte-identity check.
  double macro_wall_seconds = 0;
  double warm_wall_seconds = 0;
};

// Runs the full scenario: micro table on the fleet, then the warm column
// and one macro pass per offered level on the same worker pool. The report
// is a function of (corpus, cfg) alone: every page of the corpus is in the
// micro table, and cfg.population.window is the window simulated. A quick
// run is a smaller corpus or window chosen by the caller.
DeploymentReport run_deployment(const web::Corpus& corpus,
                                const ScenarioConfig& cfg);

}  // namespace vroom::deploy
