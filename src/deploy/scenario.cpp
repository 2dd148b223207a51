#include "deploy/scenario.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <memory_resource>
#include <new>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/accuracy.h"
#include "fleet/fleet.h"
#include "harness/env.h"
#include "harness/stats.h"
#include "net/link.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/phase_profiler.h"
#include "sim/arena.h"
#include "sim/event_loop.h"
#include "sim/random.h"
#include "trace/trace.h"
#include "web/url.h"

namespace vroom::deploy {

namespace {

double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Zipf page-popularity weights, normalized; built from the same
// deploy::zipf_weights the population's page sampler uses, so the macro
// and the link auto-sizing agree on which origins are hot by construction.
std::vector<double> page_weights(int pages, double skew) {
  std::vector<double> w = zipf_weights(pages, skew);
  double total = 0.0;
  for (const double v : w) total += v;
  for (double& v : w) v /= total;
  return w;
}

sim::Time capped(sim::Time plt, sim::Time timeout) {
  return plt == sim::kNever ? timeout : std::min(plt, timeout);
}

// One origin of a page's traffic profile: what a cold load and a warm
// (primed-cache) revisit ship through the origin's link, and how long each
// holds it at the scenario's link rate. A page's origins are in
// domain-string order — the per-arrival loop iterates them, so that order
// is part of the frozen trace byte stream. Domains are dense
// scenario-wide ids (see DomainTable) so the per-arrival hot loop indexes a
// flat link table instead of probing a string map.
struct OriginTraffic {
  std::uint32_t domain = 0;
  std::int64_t bytes[2] = {};  // [cold, warm]
  sim::Time tx[2] = {};        // net::tx_time of each, once the rate is known
};
using PageProfile = std::vector<OriginTraffic>;

// Scenario-wide dense domain ids. Assignment order is first touch over
// (page order, domain-string order within page) — deterministic, and
// internal only: nothing exported mentions an id, names[] recovers the
// label wherever traces need one.
struct DomainTable {
  std::vector<std::string> names;
  std::unordered_map<std::string, std::uint32_t> ids;

  std::uint32_t intern(const std::string& domain) {
    const auto it = ids.find(domain);
    if (it != ids.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(names.size());
    names.push_back(domain);
    ids.emplace(domain, id);
    return id;
  }
};

// Per-arrival macro metrics (DESIGN.md §12). Everything recorded here
// lives on the virtual plane and is a pure function of the simulated
// world; histogram records and the gauge max commute, so concurrent level
// passes leave the export byte-identical to the serial order.
void record_arrival_metrics(sim::Time origin_wait, sim::Time fe_wait) {
  if (!obs::metrics_enabled()) return;
  static obs::Histogram& origin_wait_us =
      obs::registry().histogram("deploy.macro.origin_wait_us");
  static obs::Histogram& fe_wait_us =
      obs::registry().histogram("deploy.frontend.queue_wait_us");
  static obs::Gauge& max_wait =
      obs::registry().gauge("deploy.links.max_wait_us");
  origin_wait_us.record(origin_wait);
  fe_wait_us.record(fe_wait);
  max_wait.set_max(origin_wait);
}

// One offered-load level's complete world and outcome. Levels are fully
// independent — each owns its population, event loop, FrontEnd, links, and
// recorder — so they run concurrently on the fleet pool; everything that
// must come out in level order (the LevelReport, bucket-serve totals, the
// trace sink) is kept here and assembled serially after the join.
struct LevelRun {
  LevelReport report;
  std::vector<std::int64_t> bucket_serves;
  // The loop outlives the recorder (the recorder holds a loop reference)
  // and both outlive the task: cfg.trace_sink consumes the recorder in
  // level order on the assembling thread.
  std::unique_ptr<sim::EventLoop> loop;
  std::unique_ptr<trace::Recorder> recorder;
  double wall_seconds = 0;  // the level task's, for the phase table
};

}  // namespace

int MicroTable::bucket_for(HintSource source, sim::Time staleness) const {
  if (source == HintSource::None) return hintless_bucket();
  int best = 0;
  sim::Time best_dist = sim::kNever;
  for (std::size_t i = 0; i < ages.size(); ++i) {
    const sim::Time dist = std::llabs(staleness - ages[i]);
    if (dist < best_dist) {
      best_dist = dist;
      best = static_cast<int>(i);
    }
  }
  return best;
}

DeploymentReport run_deployment(const web::Corpus& corpus,
                                const ScenarioConfig& cfg) {
  const harness::Env env = harness::Env::from_environment();

  DeploymentReport report;
  const int pages = static_cast<int>(corpus.size());
  report.pages = pages;
  if (pages == 0 || cfg.offered_levels.empty()) return report;

  PopulationConfig pop = cfg.population;
  report.window = pop.window;
  const std::vector<DeviceShare> mix =
      pop.device_mix.empty() ? default_device_mix() : pop.device_mix;
  pop.device_mix = mix;
  for (const DeviceShare& share : mix) {
    report.device_names.push_back(share.device.name);
  }

  // --- Micro: the (device x hint condition) PLT table, on the fleet. ---
  MicroTable& micro = report.micro;
  micro.ages.push_back(0);
  for (sim::Time age : cfg.stale_ages) micro.ages.push_back(age);

  std::vector<baselines::Strategy> conditions;
  for (sim::Time age : micro.ages) {
    conditions.push_back(baselines::vroom_stale_hints(age));
  }
  conditions.push_back(baselines::http2_baseline());  // hintless serves
  const int buckets = static_cast<int>(conditions.size());
  micro.plt.assign(mix.size(),
                   std::vector<std::vector<sim::Time>>(
                       static_cast<std::size_t>(buckets),
                       std::vector<sim::Time>(
                           static_cast<std::size_t>(pages), 0)));

  // The fresh column (bucket 0) is not in the plan: its loads are the warm
  // column's primes below. Conditions 1.. run one cell each per device.
  // The plan runs first because run_plan resets the metric registry and
  // the phase tables.
  fleet::SweepPlan plan;
  for (std::size_t d = 0; d < mix.size(); ++d) {
    for (std::size_t c = 1; c < conditions.size(); ++c) {
      harness::RunOptions opt = cfg.micro;
      opt.seed = cfg.seed;
      opt.device = mix[d].device;
      opt.loads_per_page = 1;
      plan.add(corpus, conditions[c], opt,
               "deploy:" + mix[d].device.name + ":" + conditions[c].name);
    }
  }
  const std::vector<harness::CorpusResult> cells = fleet::run_plan(plan);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::size_t d = i / static_cast<std::size_t>(buckets - 1);
    const std::size_t c = i % static_cast<std::size_t>(buckets - 1) + 1;
    for (std::size_t p = 0; p < cells[i].loads.size(); ++p) {
      micro.plt[d][c][p] = capped(cells[i].loads[p].plt, cfg.micro.timeout);
    }
  }

  // Warm revisit column (Figure 20 style: prime, wait, revisit). Each
  // (device, page) pair is one harness::run_page_revisit with its own
  // cache, so pairs fan out on the pool into pre-assigned slots. The
  // prime is the cold load of the fresh condition, exactly the load the
  // fresh cell would run (same page, options and load index 0; an empty
  // cache changes nothing), so it fills the fresh column too.
  const baselines::Strategy& fresh = conditions[0];
  const double warm_started = monotonic_seconds();
  micro.warm_plt.assign(mix.size(),
                        std::vector<sim::Time>(
                            static_cast<std::size_t>(pages), 0));
  std::vector<double> warm_bytes_frac(static_cast<std::size_t>(pages), 1.0);
  fleet::run_tasks(
      mix.size() * static_cast<std::size_t>(pages), [&](std::size_t task) {
        const std::size_t d = task / static_cast<std::size_t>(pages);
        const std::size_t p = task % static_cast<std::size_t>(pages);
        harness::RunOptions opt = cfg.micro;
        opt.seed = cfg.seed;
        opt.device = mix[d].device;
        const harness::Revisit visit = harness::run_page_revisit(
            corpus.page(p), fresh, opt, cfg.revisit_gap);
        micro.plt[d][0][p] = capped(visit.prime.plt, cfg.micro.timeout);
        micro.warm_plt[d][p] = capped(visit.revisit.plt, cfg.micro.timeout);
        if (d == 0 && visit.prime.bytes_fetched > 0) {
          warm_bytes_frac[p] =
              static_cast<double>(visit.revisit.bytes_fetched) /
              static_cast<double>(visit.prime.bytes_fetched);
        }
      });
  report.warm_wall_seconds = monotonic_seconds() - warm_started;

  // --- Per-page origin traffic profiles (for link contention). ---
  // World construction fans out per page; the dense domain ids are
  // interned afterwards in one serial pass so their assignment order is a
  // pure function of the corpus, not of task scheduling.
  std::vector<std::vector<std::pair<std::string, std::int64_t>>> by_page(
      static_cast<std::size_t>(pages));
  fleet::run_tasks(static_cast<std::size_t>(pages), [&](std::size_t p) {
    const web::PageModel& page = corpus.page(p);
    web::LoadIdentity id;
    id.wall_time = cfg.micro.when;
    id.device = mix[0].device;
    id.user = 0;
    id.nonce = harness::derive_load_nonce(cfg.seed, page.page_id(), 0);
    // Profile world on the pooled arena; reset-and-reused per page.
    sim::PooledArena arena;
    const web::PageInstance inst(page, id, arena.get());
    std::map<std::string, std::int64_t> by_domain;  // ordered => determinism
    for (const web::InstanceResource& r : inst.resources()) {
      by_domain[web::url_domain(r.url)] += r.size;
    }
    by_page[p].assign(by_domain.begin(), by_domain.end());
  });

  DomainTable domains;
  std::vector<PageProfile> profiles(static_cast<std::size_t>(pages));
  for (int p = 0; p < pages; ++p) {
    PageProfile& prof = profiles[static_cast<std::size_t>(p)];
    for (const auto& [domain, bytes] : by_page[static_cast<std::size_t>(p)]) {
      OriginTraffic& origin = prof.emplace_back();
      origin.domain = domains.intern(domain);
      origin.bytes[0] = bytes;
      origin.bytes[1] = static_cast<std::int64_t>(
          static_cast<double>(bytes) *
          warm_bytes_frac[static_cast<std::size_t>(p)]);
    }
  }
  const auto n_domains = domains.names.size();
  // Domain ids in domain-string order: the deterministic emission order of
  // the per-level link summaries (the old string-keyed map iterated
  // sorted; the trace byte stream must not notice the dense rekeying).
  std::vector<std::uint32_t> domains_by_name(n_domains);
  for (std::uint32_t id = 0; id < n_domains; ++id) domains_by_name[id] = id;
  std::sort(domains_by_name.begin(), domains_by_name.end(),
            [&domains](std::uint32_t a, std::uint32_t b) {
              return domains.names[a] < domains.names[b];
            });

  // --- Origin link rate: sized to cross capacity at the top level. ---
  const std::vector<double> weights = page_weights(pages, pop.page_skew);
  const double top_level =
      *std::max_element(cfg.offered_levels.begin(), cfg.offered_levels.end());
  std::vector<double> demand(n_domains, 0.0);  // bytes/sec per origin
  for (int p = 0; p < pages; ++p) {
    for (const OriginTraffic& origin : profiles[static_cast<std::size_t>(p)]) {
      demand[origin.domain] += top_level *
                               weights[static_cast<std::size_t>(p)] *
                               static_cast<double>(origin.bytes[0]);
    }
  }
  double hottest = 0;
  for (const double bps : demand) hottest = std::max(hottest, bps);
  const double link_bps =
      std::max(1.0, cfg.origin_capacity_frac * hottest * 8.0);
  report.origin_link_mbps = link_bps / 1e6;
  for (PageProfile& prof : profiles) {
    for (OriginTraffic& origin : prof) {
      for (int w : {0, 1}) {
        origin.tx[w] = net::tx_time(origin.bytes[w], link_bps);
      }
    }
  }

  // --- Macro: one contention pass per offered level, on the pool. ---
  std::vector<LevelRun> runs(cfg.offered_levels.size());
  // Every level's front end resolves hint counts through one memo: a count
  // is a pure function of (page, device, snapshot) under the memo's corpus,
  // config and seed, which every level shares, so which level resolved a
  // snapshot first cannot change any level's output. Its crawls run on the
  // micro loads' clock.
  const auto memo = std::make_shared<GenerationMemo>(
      corpus, cfg.front_end, sim::derive_seed(cfg.seed, "deploy:frontend"),
      cfg.micro.when);
  // Every level's population has the same users and user_skew, and a draw
  // only reads the table, so the level tasks share one.
  const ZipfSampler user_table(pop.users, pop.user_skew);

  const auto run_level = [&](std::size_t li) {
    // Per-level macro state lives on a pooled bump arena: the dense link
    // table and the Link instances themselves (trivially destructible, so
    // arena placement needs no teardown) are built, replayed through, and
    // dropped wholesale when the level finishes. It is acquired first, so
    // the population's scratch takes the thread's next pooled arena, the
    // one hint generation's crawl worlds reuse after it.
    sim::PooledArena arena;
    LevelRun& run = runs[li];
    run.bucket_serves.assign(static_cast<std::size_t>(buckets), 0);
    PopulationConfig level_pop = pop;
    level_pop.mean_arrivals_per_sec = cfg.offered_levels[li];
    std::vector<Arrival> arrivals;
    {
      const obs::PhaseTimer phase(obs::Phase::Population);
      arrivals = build_population(
          pages, level_pop,
          sim::derive_seed(cfg.seed, "deploy:level-" + std::to_string(li)),
          user_table);
    }
    const obs::PhaseTimer phase(obs::Phase::Replay);

    run.loop = std::make_unique<sim::EventLoop>();
    sim::EventLoop& loop = *run.loop;
    if (cfg.trace_sink) {
      run.recorder = std::make_unique<trace::Recorder>(loop);
    }
    trace::Recorder* recorder = run.recorder.get();

    FrontEnd fe(memo);
    std::pmr::vector<net::Link*> links(n_domains, nullptr, arena.get());
    const auto link_for = [&](std::uint32_t domain_id) -> net::Link& {
      net::Link*& slot = links[domain_id];
      if (slot == nullptr) {
        slot = new (arena->allocate(sizeof(net::Link), alignof(net::Link)))
            net::Link(loop, link_bps, "origin");
      }
      return *slot;
    };

    LevelReport& level = run.report;
    level.offered_per_sec = cfg.offered_levels[li];
    level.arrivals = static_cast<std::int64_t>(arrivals.size());
    double origin_wait_sum_s = 0;
    // This level's PLTs through the shared log-linear bucketing — the same
    // boundaries every metrics export uses. Recorded unconditionally: the
    // histogram-derived report percentiles are deterministic level facts,
    // not opt-in telemetry.
    obs::Histogram level_hist;
    level.plt_seconds.reserve(arrivals.size());

    // Direct replay: the arrival stream is already time-sorted and nothing
    // ever schedules ahead of it, so the clock advances arrival by arrival
    // instead of through a heap event per page view. Link completions need
    // no events either — the FIFO story is busy_until arithmetic
    // (Link::enqueue), and the no-op delivery callbacks the event-driven
    // form paid for carried no state.
    for (const Arrival& a : arrivals) {
      loop.advance_to(a.at);
      const sim::Time now = a.at;
      const web::DeviceProfile& device = mix[a.device].device;
      const ServeDecision d = fe.serve(now, a.page, device, recorder);

      const int bucket = micro.bucket_for(d.source, d.staleness);
      sim::Time base;
      if (a.warm) {
        base = micro.warm_plt[a.device][static_cast<std::size_t>(a.page)];
      } else {
        base = micro.plt[a.device][static_cast<std::size_t>(bucket)]
                        [static_cast<std::size_t>(a.page)];
      }
      if (d.source != HintSource::None) {
        run.bucket_serves[static_cast<std::size_t>(bucket)] += 1;
      }

      // Every origin of the page ships its bytes through that origin's
      // shared access link; the page stalls for the worst queue it hits.
      const int warm = a.warm ? 1 : 0;
      sim::Time origin_wait = 0;
      for (const OriginTraffic& origin :
           profiles[static_cast<std::size_t>(a.page)]) {
        net::Link& link = link_for(origin.domain);
        origin_wait =
            std::max(origin_wait,
                     std::max<sim::Time>(0, link.busy_until() - now));
        const std::int64_t tx_bytes = origin.bytes[warm];
        if (tx_bytes <= 0) continue;
        const sim::Time tx = origin.tx[warm];
        if (recorder == nullptr) {
          link.enqueue(tx_bytes, tx);
          continue;
        }
        // Emit the transmission's full FIFO story for the macro-trace
        // auditor: when it joined the queue, when the link actually
        // started it, and how long it held the link.
        const sim::Time start = std::max(now, link.busy_until());
        link.enqueue(tx_bytes, tx);
        recorder->instant(trace::Layer::Deploy,
                          domains.names[origin.domain], "tx",
                          "deploy.origin_tx",
                          {trace::arg("enqueue_us", now),
                           trace::arg("start_us", start),
                           trace::arg("tx_us", tx),
                           trace::arg("bytes", tx_bytes)});
      }

      const sim::Time plt =
          capped(base + d.queue_wait + origin_wait, cfg.micro.timeout);
      if (plt >= cfg.micro.timeout) level.timeouts += 1;
      level.plt_seconds.push_back(sim::to_seconds(plt));
      level_hist.record(plt);
      record_arrival_metrics(origin_wait, d.queue_wait);
      // A user gives up at the timeout, so the experienced wait caps there
      // too — otherwise day-long overload queues dominate the mean.
      origin_wait_sum_s +=
          sim::to_seconds(std::min(origin_wait, cfg.micro.timeout));
      if (recorder != nullptr) {
        recorder->instant(
            trace::Layer::Deploy, "population", "arrivals",
            "deploy.page_view",
            {trace::arg("page", static_cast<int>(a.page)),
             trace::arg("plt_s", sim::to_seconds(plt)),
             trace::arg("origin_wait_ms", sim::to_ms(origin_wait)),
             trace::arg("source", hint_source_name(d.source)),
             trace::arg("warm", a.warm ? 1 : 0)});
      }
    }
    // The event-driven form ran until its queue drained, leaving the clock
    // at the last arrival or the last link delivery, whichever was later;
    // utilization denominators and the summary events depend on it.
    sim::Time final_now = arrivals.empty() ? 0 : arrivals.back().at;
    for (const net::Link* link : links) {
      if (link != nullptr) final_now = std::max(final_now, link->busy_until());
    }
    loop.advance_to(final_now);

    if (recorder != nullptr) {
      // One closing summary per origin, from the link's own accounting —
      // the auditor cross-checks it against the per-transmission events.
      // Ordered by domain string, exactly as the string-keyed map iterated.
      for (const std::uint32_t domain_id : domains_by_name) {
        const net::Link* link = links[domain_id];
        if (link == nullptr) continue;
        recorder->instant(trace::Layer::Deploy, domains.names[domain_id],
                          "summary", "deploy.link_summary",
                          {trace::arg("busy_us", link->busy_time()),
                           trace::arg("bytes", link->total_bytes()),
                           trace::arg("now_us", loop.now())});
      }
    }

    const double window_s = sim::to_seconds(level_pop.window);
    const std::int64_t completed = level.arrivals - level.timeouts;
    level.served_per_sec =
        window_s > 0 ? static_cast<double>(completed) / window_s : 0.0;
    // Exact percentiles by selection; the histogram read-back answers
    // within one log-linear bucket width of them.
    level.p50_plt_s = harness::percentile(level.plt_seconds, 50);
    level.p99_plt_s = harness::percentile(level.plt_seconds, 99);
    level.hist_p50_plt_s = level_hist.percentile(50) / 1e6;
    level.hist_p99_plt_s = level_hist.percentile(99) / 1e6;
    level.mean_origin_wait_s =
        level.arrivals > 0
            ? origin_wait_sum_s / static_cast<double>(level.arrivals)
            : 0.0;
    const FrontEndStats& fs = fe.stats();
    level.front_end = fs;
    level.hit_ratio = fs.hit_ratio();
    if (fs.serves > 0) {
      level.stale_frac = static_cast<double>(fs.stale_serves) /
                         static_cast<double>(fs.serves);
      level.hintless_frac = static_cast<double>(fs.hintless_serves) /
                            static_cast<double>(fs.serves);
      level.mean_fe_wait_ms =
          sim::to_ms(fs.total_queue_wait) / static_cast<double>(fs.serves);
    }
    const std::int64_t hinted = fs.serves - fs.hintless_serves;
    if (hinted > 0) {
      level.mean_staleness_s = sim::to_seconds(fs.total_staleness) /
                               static_cast<double>(hinted);
    }
    for (const net::Link* link : links) {
      if (link == nullptr) continue;
      level.max_link_utilization =
          std::max(level.max_link_utilization, link->utilization());
    }
    // Virtual-plane recording from inside the task is safe and exact: every
    // mutation commutes (atomic counter adds, fixed-bucket histogram
    // merges), so the export cannot tell level order from pool order.
    if (obs::metrics_enabled()) {
      obs::Registry& reg = obs::registry();
      reg.histogram("deploy.macro.plt_us").merge(level_hist);
      reg.counter("deploy.macro.arrivals").add(level.arrivals);
      reg.counter("deploy.macro.timeouts").add(level.timeouts);
      reg.counter("deploy.frontend.cache_hits").add(fs.cache_hits);
      reg.counter("deploy.frontend.cache_misses").add(fs.cache_misses);
      reg.counter("deploy.frontend.stale_serves").add(fs.stale_serves);
      reg.counter("deploy.frontend.hintless_serves")
          .add(fs.hintless_serves);
      for (const net::Link* link : links) {
        if (link == nullptr) continue;
        reg.histogram("deploy.links.utilization_permille")
            .record(static_cast<std::int64_t>(link->utilization() * 1000.0 +
                                              0.5));
      }
    }
  };

  // The macro pass's phase table covers exactly its level tasks (the
  // fleet's table after run_plan covered the micro pass). Stderr only.
  obs::set_profiling_enabled(env.profile);
  if (env.profile) obs::reset_phase_profile();
  const double macro_started = monotonic_seconds();
  fleet::run_tasks(cfg.offered_levels.size(), [&](std::size_t li) {
    const double started = monotonic_seconds();
    run_level(li);
    runs[li].wall_seconds = monotonic_seconds() - started;
  });
  report.macro_wall_seconds = monotonic_seconds() - macro_started;
  if (env.profile) {
    double level_seconds = 0;
    for (const LevelRun& run : runs) level_seconds += run.wall_seconds;
    std::fprintf(stderr, "[deploy] macro pass, %zu load levels\n",
                 runs.size());
    std::fputs(obs::format_phase_profile(obs::collect_phase_profile(),
                                         level_seconds)
                   .c_str(),
               stderr);
  }

  // Level-order assembly: reports, bucket-serve totals, and trace sinks
  // leave here exactly as the serial pass produced them.
  std::vector<std::int64_t> bucket_serves(
      static_cast<std::size_t>(buckets), 0);
  for (std::size_t li = 0; li < runs.size(); ++li) {
    LevelRun& run = runs[li];
    report.macro_arrivals += run.report.arrivals;
    for (std::size_t b = 0; b < bucket_serves.size(); ++b) {
      bucket_serves[b] += run.bucket_serves[b];
    }
    report.levels.push_back(std::move(run.report));
    if (cfg.trace_sink && run.recorder != nullptr) {
      cfg.trace_sink(static_cast<int>(li), *run.recorder);
    }
  }

  report.effective_recrawl = FrontEnd(memo).effective_recrawl_period();

  // --- Staleness priced against content persistence (Figure 7's axis). ---
  for (std::size_t b = 0; b < micro.ages.size(); ++b) {
    StaleBucketReport row;
    row.age = micro.ages[b];
    double persistence = 0;
    for (int p = 0; p < pages; ++p) {
      persistence += core::persistence_fraction(
          corpus.page(static_cast<std::size_t>(p)), cfg.micro.when,
          mix[0].device, /*user=*/1, row.age);
    }
    row.persistence = persistence / static_cast<double>(pages);
    row.serves = bucket_serves[b];
    double sum = 0;
    std::int64_t n = 0;
    for (std::size_t d = 0; d < mix.size(); ++d) {
      for (const sim::Time plt : micro.plt[d][b]) {
        sum += sim::to_seconds(plt);
        ++n;
      }
    }
    row.mean_micro_plt_s = n > 0 ? sum / static_cast<double>(n) : 0.0;
    report.stale_buckets.push_back(row);
  }

  // Re-export with the macro metrics folded in (the fleet's mid-run export
  // only covered the micro pass). The scenario's manifest replaces the
  // nested sweep's, so the one manifest.json names the export beside it.
  if (!env.out_dir.empty()) {
    // %.17g round-trips a double exactly.
    auto real = [](double v) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", v);
      return std::string(buf);
    };
    obs::Manifest manifest = fleet::run_manifest(
        "deploy_scenario", env, fleet::resolve_worker_count(0, env));
    manifest.set("seed", static_cast<std::uint64_t>(cfg.seed));
    manifest.set("pages", static_cast<std::int64_t>(pages));
    manifest.set("levels",
                 static_cast<std::int64_t>(cfg.offered_levels.size()));
    manifest.set("window_us", static_cast<std::int64_t>(report.window));
    manifest.set("origin_link_mbps", real(report.origin_link_mbps));
    // Fresh first: condition 0's loads are the warm column's primes, the
    // others ran as the sweep's cells.
    manifest.set("conditions", static_cast<std::int64_t>(buckets));
    for (int c = 0; c < buckets; ++c) {
      const baselines::Strategy& condition =
          conditions[static_cast<std::size_t>(c)];
      const std::string prefix = "condition." + std::to_string(c) + ".";
      manifest.set(prefix + "strategy", condition.name);
      manifest.set(prefix + "fingerprint", condition.fingerprint());
    }
    manifest.set("devices", static_cast<std::int64_t>(mix.size()));
    for (std::size_t d = 0; d < mix.size(); ++d) {
      const std::string prefix = "device." + std::to_string(d) + ".";
      manifest.set(prefix + "name", mix[d].device.name);
      manifest.set(prefix + "weight", real(mix[d].weight));
    }
    obs::export_run(env.out_dir, std::move(manifest));
  }

  return report;
}

}  // namespace vroom::deploy
