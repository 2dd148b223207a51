#include "harness/experiment.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/client_scheduler.h"
#include "harness/env.h"
#include "harness/export.h"
#include "harness/stats.h"
#include "http/connection_pool.h"
#include "obs/phase_profiler.h"
#include "server/origin_server.h"
#include "sim/arena.h"
#include "sim/random.h"
#include "trace/trace.h"
#include "web/trace_io.h"

namespace vroom::harness {

browser::LoadResult run_page_load(const web::PageModel& page,
                                  const baselines::Strategy& strategy,
                                  const RunOptions& options,
                                  std::uint64_t nonce) {
  // Wall-clock phase attribution (VROOM_PROFILE / DESIGN.md §12): the outer
  // span charges everything in this function to world-build except the
  // nested intern / sim / trace-flush spans, whose time is subtracted by
  // the profiler's self-time accounting. Virtual-time behaviour is
  // identical with profiling on or off.
  obs::PhaseTimer build_phase(obs::Phase::WorldBuild);
  // Pooled: reuses a thread-local EventLoop's node pool and heap across the
  // thousands of loads a worker runs, instead of reallocating them from
  // scratch per load.
  sim::PooledEventLoop pooled;
  sim::EventLoop& loop = *pooled;
  // Pooled bump arena for everything with per-load lifetime (interner
  // storage, instance tables, browser fetch/task state). Declared before
  // the world objects so they die before the arena returns to the pool and
  // resets; consecutive loads on a worker then rebuild their world inside
  // the chunks this load grew (DESIGN.md §13).
  sim::PooledArena arena;
  const net::NetworkConfig ncfg = effective_network(strategy, options);
  // Per-domain RTT draws depend only on (seed, page), so every strategy sees
  // the same network conditions for the same page. The XOR fold here can
  // alias two (seed, page) pairs onto one RTT stream, but unlike the load
  // nonce (see derive_load_nonce) that is a benign correlation: the draw is
  // still a pure function of (seed, page), so reproducibility is
  // unaffected.
  net::Network network(loop, ncfg,
                       sim::derive_seed(options.seed ^ page.page_id(), "rtt"),
                       arena.get());

  web::LoadIdentity ident;
  ident.wall_time = options.when;
  ident.device = options.device;
  ident.user = options.user;
  ident.nonce = nonce;
  std::optional<web::PageInstance> instance_storage;
  {
    // Instance realization is the parse-and-intern phase: resource
    // rotation, URL/domain interning, per-load tables.
    obs::PhaseTimer intern_phase(obs::Phase::Intern);
    instance_storage.emplace(page, ident, arena.get());
  }
  const web::PageInstance& instance = *instance_storage;

  server::ReplayStore store(instance);
  server::ServerFarm farm(store);

  // Tracing: off unless VROOM_TRACE=<dir> is set or the caller supplied a
  // sink. The recorder attaches itself to this load's event loop, so every
  // layer's hooks (null-checked pointer reads) start emitting.
  const std::string trace_dir = Env::trace_dir_from_environment();
  const bool trace_to_dir = !trace_dir.empty();
  std::unique_ptr<trace::Recorder> recorder;
  if (trace_to_dir || options.trace_sink) {
    recorder = std::make_unique<trace::Recorder>(loop);
    farm.set_recorder(recorder.get());
  }

  std::unique_ptr<core::VroomProvider> provider;
  if (strategy.server_aid) {
    provider = std::make_unique<core::VroomProvider>(store, strategy.provider);
    if (strategy.first_party_only) {
      farm.set_provider_first_party_only(provider.get());
    } else {
      farm.set_provider_for_all(provider.get());
    }
  }
  if (options.cache != nullptr) {
    browser::Cache* cache = options.cache;
    farm.set_cache_digest([cache, &ident, &loop](const std::string& url) {
      return cache->fresh(url, ident.wall_time + loop.now());
    });
  }

  browser::Browser* browser_ptr = nullptr;
  http::PushObserver observer;
  observer.on_promise = [&browser_ptr](const std::string& url,
                                       std::int64_t bytes) {
    if (browser_ptr != nullptr) browser_ptr->on_push_promise(url, bytes);
  };
  observer.on_complete = [&browser_ptr](const std::string& url,
                                        std::int64_t bytes) {
    if (browser_ptr != nullptr) browser_ptr->on_push_complete(url, bytes);
  };

  http::ConnectionPool pool(
      network,
      [&farm](const std::string& domain) -> http::RequestHandler& {
        return farm.server(domain);
      },
      strategy.protocol, observer,
      strategy.ordered_writer ? net::WriterDiscipline::Ordered
                              : net::WriterDiscipline::RoundRobin);

  std::unique_ptr<browser::FetchPolicy> policy =
      baselines::make_policy(strategy);

  browser::LoadConfig lc;
  lc.cpu = strategy.zero_cpu ? browser::CpuCosts::zero()
                             : browser::CpuCosts::nexus6();
  lc.cpu.device_scale = options.device.cpu_scale;
  lc.know_all_upfront = strategy.know_all_upfront;
  lc.cache = options.cache;
  lc.policy = policy.get();

  browser::Browser browser(network, pool, instance, lc);
  browser_ptr = &browser;
  browser.start();
  std::size_t executed = 0;
  {
    obs::PhaseTimer sim_phase(obs::Phase::Sim);
    executed = loop.run(options.timeout);
  }

  browser::LoadResult result = browser.take_result();
  result.sim_events = static_cast<std::int64_t>(executed);
  if (!result.finished) {
    // Timed out: report the timeout as the PLT so tails stay visible.
    result.plt = options.timeout;
    result.aft = options.timeout;
  }
  if (recorder) {
    obs::PhaseTimer flush_phase(obs::Phase::TraceFlush);
    const auto& values = recorder->counters().values();
    result.trace_counters.assign(values.begin(), values.end());
    if (options.trace_sink) options.trace_sink(*recorder);
    if (trace_to_dir) {
      // One file per load, named by the load's full identity: any VROOM_JOBS
      // worker assignment produces the same set of files, and loads of one
      // (strategy, page id, nonce) in another page class or on other
      // devices or networks keep their own.
      recorder->write_json(trace_dir + "/" +
                           trace_file_name(strategy, page, options, nonce));
    }
  }
  return result;
}

net::NetworkConfig effective_network(const baselines::Strategy& strategy,
                                     const RunOptions& options) {
  return strategy.local_network
             ? net::NetworkConfig::local_usb()
             : options.network.value_or(net::NetworkConfig::lte());
}

std::string trace_file_name(const baselines::Strategy& strategy,
                            const web::PageModel& page,
                            const RunOptions& options, std::uint64_t nonce) {
  auto digest = [](const std::string& s) {
    char hex[9];
    std::snprintf(hex, sizeof hex, "%08llx",
                  static_cast<unsigned long long>(sim::hash64(s) &
                                                  0xffffffffULL));
    return std::string(hex);
  };
  return "trace_" + slugify(strategy.name) + "_" +
         web::page_class_name(page.page_class()) + "_p" +
         std::to_string(page.page_id()) + "_tpl" +
         digest(web::page_to_trace(page)) + "_n" + std::to_string(nonce) +
         "_" + slugify(options.device.name) +
         "_u" + std::to_string(options.user) + "_t" +
         std::to_string(options.when) + "_net" +
         digest(effective_network(strategy, options).fingerprint()) + ".json";
}

std::uint64_t derive_load_nonce(std::uint64_t seed, std::uint32_t page_id,
                                int load_index) {
  return sim::derive_seed(sim::derive_seed(seed, page_id),
                          "load-nonce-" + std::to_string(load_index));
}

Revisit run_page_revisit(const web::PageModel& page,
                         const baselines::Strategy& strategy,
                         const RunOptions& options, sim::Time gap) {
  browser::Cache cache;
  RunOptions opt = options;
  opt.cache = &cache;
  Revisit visit;
  visit.prime = run_page_load(page, strategy, opt,
                              derive_load_nonce(opt.seed, page.page_id(), 0));
  opt.when += gap;
  visit.revisit = run_page_load(
      page, strategy, opt, derive_load_nonce(opt.seed, page.page_id(), 1));
  return visit;
}

browser::LoadResult select_median_load(std::vector<browser::LoadResult> runs) {
  // stable_sort: `runs` arrives in load-index order, so PLT ties resolve to
  // the lower load index on every path (serial or fleet, any worker count)
  // instead of whatever an unstable sort's implementation picks.
  std::stable_sort(runs.begin(), runs.end(),
                   [](const browser::LoadResult& a,
                      const browser::LoadResult& b) { return a.plt < b.plt; });
  return std::move(runs[runs.size() / 2]);
}

browser::LoadResult run_page_median(const web::PageModel& page,
                                    const baselines::Strategy& strategy,
                                    const RunOptions& options) {
  if (options.loads_per_page < 1) {
    throw std::invalid_argument(
        "harness::run_page_median: RunOptions::loads_per_page " +
        std::to_string(options.loads_per_page) + "; want at least 1");
  }
  std::vector<browser::LoadResult> runs;
  runs.reserve(static_cast<std::size_t>(options.loads_per_page));
  for (int i = 0; i < options.loads_per_page; ++i) {
    const std::uint64_t nonce = derive_load_nonce(options.seed,
                                                  page.page_id(), i);
    runs.push_back(run_page_load(page, strategy, options, nonce));
  }
  return select_median_load(std::move(runs));
}

std::vector<double> CorpusResult::plt_seconds() const {
  std::vector<double> v;
  v.reserve(loads.size());
  for (const auto& r : loads) v.push_back(sim::to_seconds(r.plt));
  return v;
}

std::vector<double> CorpusResult::aft_seconds() const {
  std::vector<double> v;
  v.reserve(loads.size());
  for (const auto& r : loads) v.push_back(sim::to_seconds(r.aft));
  return v;
}

std::vector<double> CorpusResult::speed_indices() const {
  std::vector<double> v;
  v.reserve(loads.size());
  for (const auto& r : loads) v.push_back(r.speed_index_ms);
  return v;
}

std::vector<double> CorpusResult::net_wait_fractions() const {
  std::vector<double> v;
  v.reserve(loads.size());
  for (const auto& r : loads) v.push_back(r.net_wait_fraction());
  return v;
}

std::vector<std::pair<std::string, std::int64_t>>
CorpusResult::counter_totals() const {
  std::map<std::string, std::int64_t> totals;
  for (const auto& r : loads) {
    for (const auto& [name, value] : r.trace_counters) totals[name] += value;
  }
  return {totals.begin(), totals.end()};
}

namespace {

// Same wire idiom as browser/metrics.cpp: fixed-width little-endian
// integers, length-prefixed strings, a leading format version.
constexpr std::uint32_t kCorpusResultFormatVersion = 1;

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

}  // namespace

std::string serialize_corpus_result(const CorpusResult& r) {
  std::string out;
  put_u32(out, kCorpusResultFormatVersion);
  put_u32(out, static_cast<std::uint32_t>(r.strategy.size()));
  out.append(r.strategy);
  put_u32(out, static_cast<std::uint32_t>(r.loads.size()));
  for (const auto& load : r.loads) {
    // Each load is framed by its own length so this format survives
    // LoadResult wire evolution without reparsing knowledge of its fields.
    const std::string payload = browser::serialize_load_result(load);
    put_u32(out, static_cast<std::uint32_t>(payload.size()));
    out.append(payload);
  }
  return out;
}

}  // namespace vroom::harness
