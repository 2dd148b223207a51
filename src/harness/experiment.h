// Experiment runner: composes a full page-load session (event loop, network,
// realized page instance, replay store, origin farm, connection pool,
// browser, policies) for one (page, strategy) pair, and sweeps corpora the
// way the paper does — each page loaded three times, reporting the load with
// the median PLT.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "baselines/strategies.h"
#include "browser/browser.h"
#include "trace/trace.h"
#include "web/corpus.h"

namespace vroom::harness {

struct RunOptions {
  std::uint64_t seed = 42;
  // Wall time of the load: far enough in that every rotation class has
  // cycled many times.
  sim::Time when = sim::days(45);
  web::DeviceProfile device = web::nexus6();
  std::uint32_t user = 1;
  int loads_per_page = 3;
  sim::Time timeout = sim::seconds(120);
  browser::Cache* cache = nullptr;  // persistent cache for warm-load runs
  // Access-network profile; defaults to the paper's good-signal LTE. The
  // CPU-bottleneck lower-bound strategy always overrides this with the
  // USB-tethered profile.
  std::optional<net::NetworkConfig> network;
  // Programmatic tracing: when set, every load runs with a trace::Recorder
  // attached and the recorder is handed here after the load finishes (the
  // recorder cannot be supplied up front — it must bind to the per-load
  // event loop built inside run_page_load). Independently, VROOM_TRACE=<dir>
  // enables recording and writes one Chrome-trace JSON file per load.
  std::function<void(const trace::Recorder&)> trace_sink;
};

// One load of one page under one strategy.
browser::LoadResult run_page_load(const web::PageModel& page,
                                  const baselines::Strategy& strategy,
                                  const RunOptions& options,
                                  std::uint64_t nonce);

// The network a load actually runs on: the CPU-bottleneck strategy
// overrides the run's profile with the USB-tethered one.
net::NetworkConfig effective_network(const baselines::Strategy& strategy,
                                     const RunOptions& options);

// Name of the Chrome-trace file VROOM_TRACE=<dir> gets for one load:
// trace_<strategy>_<class>_p<page>_n<nonce>_<device>_u<user>_t<when>_net<digest>.json,
// where <class> is web::page_class_name, <when> the wall time in
// microseconds and <digest> 8 hex digits of the effective network's
// fingerprint. Page ids repeat across corpora of different classes, so the
// class is part of the name; loads that differ in any of these never share
// a file.
std::string trace_file_name(const baselines::Strategy& strategy,
                            const web::PageModel& page,
                            const RunOptions& options, std::uint64_t nonce);

// The paper's per-page procedure: N loads, keep the median-PLT load.
browser::LoadResult run_page_median(const web::PageModel& page,
                                    const baselines::Strategy& strategy,
                                    const RunOptions& options);

// The per-load instance nonce, shared by run_page_median, the fleet worker
// loop, and every test that reconstructs a load: (seed, page id, load index)
// mixed through two independent sim::derive_seed stages. The historical
// `seed ^ page_id` fold collided whenever two (seed, page) pairs XOR-ed
// equal, silently giving such loads identical realized instances.
std::uint64_t derive_load_nonce(std::uint64_t seed, std::uint32_t page_id,
                                int load_index);

// Median selection shared by run_page_median and the parallel fleet:
// stable-sorts by PLT and keeps the middle load. `runs` must be in
// load-index order so both paths sort identical input and stay
// bit-identical; stability makes PLT ties resolve to the lower load index
// rather than an implementation-defined pick.
browser::LoadResult select_median_load(std::vector<browser::LoadResult> runs);

struct CorpusResult {
  std::string strategy;
  std::vector<browser::LoadResult> loads;  // one per page

  std::vector<double> plt_seconds() const;
  std::vector<double> aft_seconds() const;
  std::vector<double> speed_indices() const;
  std::vector<double> net_wait_fractions() const;
  // Sums each load's trace-counter snapshot across the corpus (median loads
  // only, matching `loads`); empty when tracing was disabled.
  std::vector<std::pair<std::string, std::int64_t>> counter_totals() const;
};

// Stable versioned LE binary serialization of a CorpusResult — the
// strategy label plus every per-page LoadResult, each through the
// browser::serialize_load_result wire format (length-prefixed so the
// framing survives LoadResult format evolution). Equal results give equal
// bytes, so this is the digest input for checking that two builds simulate
// identically (DESIGN.md §8). Corpus sweeps themselves live in fleet/
// (fleet::run_corpus / run_plan).
std::string serialize_corpus_result(const CorpusResult& r);

// Honors VROOM_BENCH_PAGES (environment) to cap corpus size for quick runs;
// returns `n` unchanged when unset. Malformed or non-positive values are
// rejected with a warning on stderr.
int effective_page_count(int n);

}  // namespace vroom::harness
