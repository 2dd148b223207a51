#include "layers.h"

#include <optional>

#include "browser/cache.h"
#include "core/offline_resolver.h"
#include "core/online_analyzer.h"
#include "core/vroom_provider.h"
#include "deploy/front_end.h"
#include "deploy/population.h"
#include "digest.h"
#include "harness/stats.h"
#include "sim/random.h"
#include "web/page_instance.h"

namespace perfbench {

using namespace vroom;

void count_events(const trace::Recorder& recorder, EventCounts& out) {
  for (const trace::Recorder::Event& e : recorder.events()) {
    if (e.layer == trace::Layer::Server && e.name == "push.decision") {
      const bool pushed =
          e.args_json.find("\"decision\":\"push\"") != std::string::npos;
      out[{e.layer, pushed ? "push.decision:push" : "push.decision:skip"}] +=
          1;
    } else {
      out[{e.layer, e.name}] += 1;
    }
  }
}

namespace {

double us(double s) { return s * 1e6; }

}  // namespace

void measure_loads(SpanLog& log, LoadLayerStats& stats, TraceCheck& check,
                   const std::vector<LoadJob>& jobs) {
  const std::size_t n = jobs.size();
  std::vector<std::uint64_t> digests(n);
  std::vector<double> plain_s(n);
  const int untraced = log.begin("serial.untraced", -1, -1);
  for (std::size_t i = 0; i < n; ++i) {
    const LoadJob& job = jobs[i];
    browser::LoadResult r;
    plain_s[i] = timed(log, "harness.run_page_load", untraced,
                       static_cast<std::int64_t>(i), [&] {
                         r = harness::run_page_load(*job.page, *job.strategy,
                                                    job.options, job.nonce);
                       });
    digests[i] = digest_load(r);
    stats.untraced_load_ms.push_back(plain_s[i] * 1e3);
    stats.untraced_total_s += plain_s[i];
    stats.sim_events += r.sim_events;
    stats.requests += r.requests;
    stats.bytes += r.bytes_fetched;
    stats.wasted_bytes += r.wasted_bytes;
    for (const browser::ResourceTiming& t : r.timings) {
      if (!t.hinted) continue;
      ++stats.hinted;
      if (t.referenced) ++stats.hinted_referenced;
    }
  }
  log.end(untraced);

  const int traced = log.begin("serial.traced", -1, -1);
  for (std::size_t i = 0; i < n; ++i) {
    const LoadJob& job = jobs[i];
    harness::RunOptions options = job.options;
    // The sink is the benchmark's own event counting; it runs inside the
    // call, so its time is taken back out of the load's.
    double sink_s = 0;
    options.trace_sink = [&stats, &sink_s](const trace::Recorder& r) {
      const Clock::time_point t0 = Clock::now();
      count_events(r, stats.events);
      sink_s += seconds_since(t0);
    };
    browser::LoadResult r;
    const double load_s =
        timed(log, "harness.run_page_load.traced", traced,
              static_cast<std::int64_t>(i), [&] {
                r = harness::run_page_load(*job.page, *job.strategy, options,
                                           job.nonce);
              });
    stats.traced_load_ms.push_back(1e3 * (load_s - sink_s));
    ++check.compared;
    if (digest_load(std::move(r)) != digests[i]) ++check.mismatches;
  }
  log.end(traced);

  const int calls = log.begin("serial.web_core", -1, -1);
  for (std::size_t i = 0; i < n; ++i) {
    const LoadJob& job = jobs[i];
    const web::PageModel& page = *job.page;
    const harness::RunOptions& options = job.options;
    const auto load = static_cast<std::int64_t>(i);
    web::LoadIdentity ident;
    ident.wall_time = options.when;
    ident.device = options.device;
    ident.user = options.user;
    ident.nonce = job.nonce;
    std::optional<web::PageInstance> instance;
    const double instance_s = timed(log, "web.PageInstance", calls, load,
                                    [&] { instance.emplace(page, ident); });
    stats.instance_us.push_back(us(instance_s));
    double core_s = 0;
    if (job.strategy->server_aid) {
      // What the origin's provider runs for the root document: a cold
      // stable set, then candidate resolution (which includes the markup
      // scan in OfflinePlusOnline mode). The separate scan timing is not
      // subtracted.
      const core::VroomProviderConfig& provider = job.strategy->provider;
      const std::string& domain = page.root().domain;
      const sim::Time crawl_now =
          options.when - (provider.hint_age > 0 ? provider.hint_age : 0);
      std::optional<core::OfflineResolver> resolver;
      const double stable_s = timed(log, "core.stable_set", calls, load, [&] {
        resolver.emplace(page, provider.offline);
        resolver->stable_set(crawl_now, options.device, domain, options.user);
      });
      const double resolve_s =
          timed(log, "core.resolve_candidates", calls, load, [&] {
            core::resolve_candidates(*instance, 0, domain, options.user,
                                     provider.mode, *resolver,
                                     provider.hint_age);
          });
      const double scan_s =
          timed(log, "core.analyze_served_html", calls, load,
                [&] { core::analyze_served_html(*instance, 0); });
      stats.stable_set_us.push_back(us(stable_s));
      stats.resolve_us.push_back(us(resolve_s));
      stats.online_scan_us.push_back(us(scan_s));
      core_s = stable_s + resolve_s;
    }
    stats.residual_s += plain_s[i] - instance_s - core_s;
  }
  log.end(calls);
  stats.loads += static_cast<std::int64_t>(n);
}

void measure_revisit(SpanLog& log, LoadLayerStats& stats,
                     const web::PageModel& page,
                     const baselines::Strategy& strategy,
                     const harness::RunOptions& options, sim::Time gap) {
  browser::Cache cache;
  harness::RunOptions opt = options;
  opt.cache = &cache;
  const int span = log.begin("cache.prime_revisit", -1, -1);
  harness::run_page_load(
      page, strategy, opt,
      harness::derive_load_nonce(opt.seed, page.page_id(), 0));
  opt.when += gap;
  const browser::LoadResult revisit = harness::run_page_load(
      page, strategy, opt,
      harness::derive_load_nonce(opt.seed, page.page_id(), 1));
  log.end(span);
  stats.revisit_hits += revisit.cache_hits;
  stats.revisit_lookups += revisit.cache_hits + revisit.requests;
}

void measure_deploy(SpanLog& log, DeployLayerStats& stats, TraceCheck& check,
                    const web::Corpus& corpus,
                    const deploy::ScenarioConfig& cfg) {
  deploy::DeploymentReport plain;
  stats.run_s = timed(log, "deploy.run_deployment", -1, -1, [&] {
    plain = deploy::run_deployment(corpus, cfg);
  });
  stats.macro_s = plain.macro_wall_seconds;
  stats.warm_s = plain.warm_wall_seconds;
  for (const deploy::LevelReport& level : plain.levels) {
    stats.arrivals += level.arrivals;
    stats.timeouts += level.timeouts;
    stats.serves += level.front_end.serves;
    stats.cache_hits += level.front_end.cache_hits;
    stats.cache_misses += level.front_end.cache_misses;
    stats.stale += level.front_end.stale_serves;
    stats.hintless += level.front_end.hintless_serves;
    stats.generations += level.front_end.generations;
  }

  deploy::ScenarioConfig traced_cfg = cfg;
  traced_cfg.trace_sink = [](int, const trace::Recorder&) {};
  deploy::DeploymentReport traced;
  timed(log, "deploy.run_deployment.traced", -1, -1,
        [&] { traced = deploy::run_deployment(corpus, traced_cfg); });
  Hasher a;
  hash_deployment(a, plain);
  Hasher b;
  hash_deployment(b, traced);
  ++check.compared;
  if (a.value() != b.value()) ++check.mismatches;

  // The top offered level: the macro pass's critical path. Population and
  // front end are built as run_deployment builds them for that level.
  deploy::PopulationConfig pop = cfg.population;
  if (pop.device_mix.empty()) pop.device_mix = deploy::default_device_mix();
  std::size_t top = 0;
  for (std::size_t li = 1; li < cfg.offered_levels.size(); ++li) {
    if (cfg.offered_levels[li] > cfg.offered_levels[top]) top = li;
  }
  pop.mean_arrivals_per_sec = cfg.offered_levels[top];
  const std::uint64_t population_seed =
      sim::derive_seed(cfg.seed, "deploy:level-" + std::to_string(top));
  const int pages = static_cast<int>(corpus.size());
  std::vector<deploy::Arrival> arrivals;
  for (int i = 0; i < 3; ++i) {
    stats.population_s.push_back(
        timed(log, "deploy.build_population", -1, -1, [&] {
          arrivals = deploy::build_population(pages, pop, population_seed);
        }));
  }

  const std::vector<deploy::DeviceShare>& mix = pop.device_mix;
  deploy::FrontEnd fe(corpus, cfg.front_end,
                      sim::derive_seed(cfg.seed, "deploy:frontend"));
  // Serves are timed in batches: one serve is near the clock's resolution.
  constexpr std::size_t kBatch = 64;
  const std::size_t n = std::min<std::size_t>(arrivals.size(), 64 * 1024);
  const int span = log.begin("deploy.FrontEnd.serve", -1, -1);
  for (std::size_t i = 0; i + kBatch <= n; i += kBatch) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t j = i; j < i + kBatch; ++j) {
      const deploy::Arrival& a = arrivals[j];
      fe.serve(a.at, a.page, mix[a.device].device);
    }
    stats.serve_us.push_back(us(seconds_since(t0)) / kBatch);
  }
  log.end(span);
}

namespace {

double per(double num, double den) { return den > 0 ? num / den : 0.0; }

std::int64_t event_count(const EventCounts& events, trace::Layer layer,
                         const std::string& name) {
  const auto it = events.find({layer, name});
  return it == events.end() ? 0 : it->second;
}

std::int64_t layer_count(const EventCounts& events, trace::Layer layer) {
  std::int64_t n = 0;
  for (const auto& [key, count] : events) {
    if (key.first == layer) n += count;
  }
  return n;
}

}  // namespace

std::vector<Metric> layer_metrics(const LoadLayerStats& s,
                                  const DeployLayerStats& d,
                                  const std::vector<double>& corpus_build_s,
                                  double parallel_wall_s, int workers) {
  using trace::Layer;
  const double loads = static_cast<double>(s.loads);
  const std::size_t nl = static_cast<std::size_t>(s.loads);
  const auto per_load = [&](double v) { return per(v, loads); };
  const auto events = [&](Layer layer) {
    return per_load(static_cast<double>(layer_count(s.events, layer)));
  };
  const auto named = [&](Layer layer, const char* name) {
    return per_load(static_cast<double>(event_count(s.events, layer, name)));
  };
  using harness::median;
  using harness::percentile;
  const double traced_p50 = median(s.traced_load_ms);
  const double untraced_p50 = median(s.untraced_load_ms);
  const double lookups = static_cast<double>(d.cache_hits + d.cache_misses);
  const double serves = static_cast<double>(d.serves);
  const std::size_t deploy_runs = d.run_s > 0 ? 1 : 0;
  return {
      {"harness.load_ms_p50", traced_p50, "ms", nl},
      {"harness.load_ms_p99", percentile(s.traced_load_ms, 99), "ms", nl},
      {"sim.events_per_load", per_load(static_cast<double>(s.sim_events)),
       "count", nl},
      {"sim.ns_per_event",
       per(s.residual_s * 1e9, static_cast<double>(s.sim_events)), "ns", nl},
      {"web.instance_us_p50", median(s.instance_us), "us", nl},
      {"web.corpus_build_s", median(corpus_build_s), "s",
       corpus_build_s.size()},
      {"net.events_per_load", events(Layer::Net), "count", nl},
      {"net.connections_per_load", named(Layer::Net, "connect"), "count", nl},
      {"http.events_per_load", events(Layer::Http), "count", nl},
      {"http.push_promises_per_load", named(Layer::Http, "push_promise"),
       "count", nl},
      {"server.events_per_load", events(Layer::Server), "count", nl},
      {"server.pushes_per_load", named(Layer::Server, "push.decision:push"),
       "count", nl},
      {"browser.events_per_load", events(Layer::Browser), "count", nl},
      {"browser.requests_per_load",
       per_load(static_cast<double>(s.requests)), "count", nl},
      {"browser.bytes_per_load", per_load(static_cast<double>(s.bytes)),
       "bytes", nl},
      {"browser.wasted_bytes_frac",
       per(static_cast<double>(s.wasted_bytes), static_cast<double>(s.bytes)),
       "ratio", nl},
      {"cache.hit_frac",
       per(static_cast<double>(s.revisit_hits),
           static_cast<double>(s.revisit_lookups)),
       "ratio", static_cast<std::size_t>(s.revisit_lookups)},
      {"core.stable_set_us_p50", median(s.stable_set_us), "us",
       s.stable_set_us.size()},
      {"core.resolve_us_p50", median(s.resolve_us), "us", s.resolve_us.size()},
      {"core.online_scan_us_p50", median(s.online_scan_us), "us",
       s.online_scan_us.size()},
      {"vroom.events_per_load", events(Layer::Vroom), "count", nl},
      {"vroom.hints_per_load", per_load(static_cast<double>(s.hinted)),
       "count", nl},
      {"vroom.hint_useful_frac",
       per(static_cast<double>(s.hinted_referenced),
           static_cast<double>(s.hinted)),
       "ratio", static_cast<std::size_t>(s.hinted)},
      {"fleet.parallel_efficiency",
       per(s.untraced_total_s, workers * parallel_wall_s), "ratio", nl},
      {"deploy.population_s", median(d.population_s), "s",
       d.population_s.size()},
      {"deploy.serve_us_p50", median(d.serve_us), "us", d.serve_us.size()},
      {"deploy.macro_s", d.macro_s, "s", deploy_runs},
      {"deploy.warm_s", d.warm_s, "s", deploy_runs},
      {"deploy.micro_s", d.micro_s(), "s", deploy_runs},
      {"deploy.generations", static_cast<double>(d.generations), "count",
       deploy_runs},
      {"deploy.hit_ratio", per(static_cast<double>(d.cache_hits), lookups),
       "ratio", static_cast<std::size_t>(lookups)},
      {"deploy.stale_frac", per(static_cast<double>(d.stale), serves),
       "ratio", static_cast<std::size_t>(serves)},
      {"deploy.hintless_frac", per(static_cast<double>(d.hintless), serves),
       "ratio", static_cast<std::size_t>(serves)},
      {"deploy.timeout_frac",
       per(static_cast<double>(d.timeouts), static_cast<double>(d.arrivals)),
       "ratio", static_cast<std::size_t>(d.arrivals)},
      {"trace.overhead_frac", per(traced_p50, untraced_p50) - 1.0, "ratio",
       nl},
  };
}

}  // namespace perfbench
