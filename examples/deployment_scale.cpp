// Population-scale deployment simulation (DESIGN.md §11): a day of traffic
// from a large user population against one shared Vroom front-end, swept
// over offered load levels.
//
//   $ ./example_deployment_scale
//
// Knobs: VROOM_JOBS sizes the worker pool (stdout and CSV are
// bit-identical for any worker count), VROOM_OUT_DIR exports the tables as
// CSV, VROOM_TRACE writes one Chrome-trace JSON per load level with the
// front-end's cache/stale/recrawl events.
#include <cstdio>
#include <string>

#include "deploy/scenario.h"
#include "harness/env.h"
#include "harness/export.h"
#include "harness/report.h"
#include "web/corpus.h"

int main() {
  using namespace vroom;
  constexpr std::uint64_t kSeed = 42;
  constexpr int kPages = 30;
  const web::Corpus corpus = web::Corpus::mixed400_sample(kSeed, kPages);

  deploy::ScenarioConfig cfg;
  cfg.seed = kSeed;
  const harness::Env env = harness::Env::from_environment();
  if (env.trace_enabled()) {
    const std::string dir = env.trace_dir;
    cfg.trace_sink = [dir](int level, const trace::Recorder& rec) {
      rec.write_json(dir + "/deploy_level_" + std::to_string(level) +
                     ".json");
    };
  }

  std::printf("Deployment-scale simulation: %d pages, %d users\n", kPages,
              cfg.population.users);
  const deploy::DeploymentReport report =
      deploy::run_deployment(corpus, cfg);
  std::printf(
      "%.0fh window, origin links %.2f Mbps, hint cache %d entries, "
      "crawl refresh %.1fh\n\n",
      sim::to_seconds(report.window) / 3600.0, report.origin_link_mbps,
      cfg.front_end.hint_cache_entries,
      sim::to_seconds(report.effective_recrawl) / 3600.0);

  // --- Offered-load sweep: throughput and tail latency. ---
  std::printf(
      "%9s %9s %8s %8s %8s %7s %7s %7s %9s %9s %6s\n", "offered/s",
      "served/s", "arrivals", "timeouts", "p50 PLT", "p99 PLT", "hit%",
      "stale%", "hintless%", "origin-s", "util%");
  for (const deploy::LevelReport& l : report.levels) {
    std::printf(
        "%9.2f %9.2f %8lld %8lld %7.2fs %6.2fs %6.1f%% %6.1f%% %8.1f%% "
        "%9.2f %5.0f%%\n",
        l.offered_per_sec, l.served_per_sec,
        static_cast<long long>(l.arrivals),
        static_cast<long long>(l.timeouts), l.p50_plt_s, l.p99_plt_s,
        100.0 * l.hit_ratio, 100.0 * l.stale_frac, 100.0 * l.hintless_frac,
        l.mean_origin_wait_s, 100.0 * l.max_link_utilization);
  }
  std::printf(
      "\np99 PLT climbs once the hottest origins' links saturate; loads that\n"
      "exceed the %.0fs timeout are counted but not served.\n\n",
      sim::to_seconds(cfg.micro.timeout));

  // --- PLT distribution per level. ---
  std::vector<harness::Series> cdf;
  for (const deploy::LevelReport& l : report.levels) {
    char label[32];
    std::snprintf(label, sizeof label, "%.2f/s offered", l.offered_per_sec);
    cdf.push_back({label, l.plt_seconds});
  }
  harness::print_cdf_table("Deployment PLT vs offered load", "s", cdf);

  // --- Hint staleness priced against content persistence (Fig 7 axis). ---
  std::printf("\n%10s %12s %10s %14s\n", "hint age", "persistence",
              "serves", "mean micro PLT");
  for (const deploy::StaleBucketReport& b : report.stale_buckets) {
    std::printf("%9.1fh %11.1f%% %10lld %13.2fs\n",
                sim::to_seconds(b.age) / 3600.0, 100.0 * b.persistence,
                static_cast<long long>(b.serves), b.mean_micro_plt_s);
  }
  long long hintless_serves = 0;
  for (const deploy::LevelReport& l : report.levels) {
    hintless_serves += l.front_end.hintless_serves;
  }
  double hintless_sum = 0;
  long long hintless_n = 0;
  const auto hb = static_cast<std::size_t>(report.micro.hintless_bucket());
  for (const auto& device_rows : report.micro.plt) {
    for (const sim::Time plt : device_rows[hb]) {
      hintless_sum += sim::to_seconds(plt);
      ++hintless_n;
    }
  }
  std::printf("%10s %12s %10lld %13.2fs\n", "no hints", "-", hintless_serves,
              hintless_n > 0 ? hintless_sum / static_cast<double>(hintless_n)
                             : 0.0);
  std::printf(
      "\nStaler hints reference rotated-out URLs (ghost fetches), so the\n"
      "micro PLT cost tracks the persistence falloff of Figure 7.\n");

  // --- CSV of the sweep itself. ---
  std::vector<harness::Series> sweep{
      {"offered_per_sec", {}}, {"served_per_sec", {}},  {"p50_plt_s", {}},
      {"p99_plt_s", {}},       {"hit_ratio", {}},       {"stale_frac", {}},
      {"hintless_frac", {}},   {"mean_staleness_s", {}},
      {"mean_origin_wait_s", {}}, {"max_link_utilization", {}},
      {"timeouts", {}}};
  for (const deploy::LevelReport& l : report.levels) {
    sweep[0].second.push_back(l.offered_per_sec);
    sweep[1].second.push_back(l.served_per_sec);
    sweep[2].second.push_back(l.p50_plt_s);
    sweep[3].second.push_back(l.p99_plt_s);
    sweep[4].second.push_back(l.hit_ratio);
    sweep[5].second.push_back(l.stale_frac);
    sweep[6].second.push_back(l.hintless_frac);
    sweep[7].second.push_back(l.mean_staleness_s);
    sweep[8].second.push_back(l.mean_origin_wait_s);
    sweep[9].second.push_back(l.max_link_utilization);
    sweep[10].second.push_back(static_cast<double>(l.timeouts));
  }
  harness::maybe_export("Deployment offered load sweep", sweep);

  std::vector<harness::Series> stale{
      {"hint_age_hours", {}}, {"persistence", {}}, {"serves", {}},
      {"mean_micro_plt_s", {}}};
  for (const deploy::StaleBucketReport& b : report.stale_buckets) {
    stale[0].second.push_back(sim::to_seconds(b.age) / 3600.0);
    stale[1].second.push_back(b.persistence);
    stale[2].second.push_back(static_cast<double>(b.serves));
    stale[3].second.push_back(b.mean_micro_plt_s);
  }
  harness::maybe_export("Deployment hint staleness", stale);
  return 0;
}
