// Extension: deployment at population scale (DESIGN.md §11).
//
// The paper evaluates Vroom per load; this bench asks what survives when
// millions of page views share one front-end: hint-cache hit ratios, hint
// staleness against the Figure 7 persistence curve, and p99 PLT as offered
// load crosses the hottest origins' link capacity. Output shape: one
// offered-load row per level plus a PLT CDF, like the Figure 13 tables.
#include <string>

#include "bench_common.h"
#include "deploy/scenario.h"

int main() {
  using namespace vroom;
  bench::banner("Deployment scale",
                "population traffic against one shared Vroom front-end");

  const web::Corpus corpus = web::Corpus::mixed400_sample(bench::kSeed, 20);

  deploy::ScenarioConfig cfg;
  cfg.seed = bench::kSeed;
  cfg.micro = bench::default_options();
  // Level sweep sized for a bench pass: same capacity-crossing shape as
  // the example, shorter window.
  cfg.population.window = sim::hours(6);
  cfg.offered_levels = {0.1, 0.8, 3.2};

  const deploy::DeploymentReport report =
      deploy::run_deployment(corpus, cfg);

  std::printf("%9s %9s %8s %8s %7s %7s %9s\n", "offered/s", "served/s",
              "p50 PLT", "p99 PLT", "hit%", "stale%", "hintless%");
  for (const deploy::LevelReport& l : report.levels) {
    std::printf("%9.2f %9.2f %7.2fs %7.2fs %6.1f%% %6.1f%% %8.1f%%\n",
                l.offered_per_sec, l.served_per_sec, l.p50_plt_s,
                l.p99_plt_s, 100.0 * l.hit_ratio, 100.0 * l.stale_frac,
                100.0 * l.hintless_frac);
  }
  harness::print_stat("origin link rate", report.origin_link_mbps, "Mbps");
  harness::print_stat("crawl refresh",
                      sim::to_seconds(report.effective_recrawl) / 3600.0,
                      "h");

  std::vector<harness::Series> cdf;
  for (const deploy::LevelReport& l : report.levels) {
    char label[32];
    std::snprintf(label, sizeof label, "%.2f/s offered", l.offered_per_sec);
    cdf.push_back({label, l.plt_seconds});
  }
  harness::print_cdf_table("Deployment PLT CDF", "s", cdf);

  std::printf("\n%10s %12s %10s %14s\n", "hint age", "persistence",
              "serves", "mean micro PLT");
  for (const deploy::StaleBucketReport& b : report.stale_buckets) {
    std::printf("%9.1fh %11.1f%% %10lld %13.2fs\n",
                sim::to_seconds(b.age) / 3600.0, 100.0 * b.persistence,
                static_cast<long long>(b.serves), b.mean_micro_plt_s);
  }

  // Wall-plane throughput of the macro pass, on stderr: stdout is frozen by
  // the byte-identity goldens, and this number varies run to run.
  if (report.macro_wall_seconds > 0) {
    std::fprintf(stderr,
                 "[bench] macro: %lld arrivals in %.3fs wall = %.0f "
                 "serves/sec (warm column %.3fs)\n",
                 static_cast<long long>(report.macro_arrivals),
                 report.macro_wall_seconds,
                 static_cast<double>(report.macro_arrivals) /
                     report.macro_wall_seconds,
                 report.warm_wall_seconds);
  }
  return 0;
}
