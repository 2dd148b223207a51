// Deployment-scale simulator (src/deploy/): the population's arrival
// process must match its configured rate and diurnal shape, be bit-identical
// for a given seed at any VROOM_JOBS, and the macro scenario must show real
// per-origin contention — p99 PLT degrading as offered load crosses link
// capacity.
#include "deploy/scenario.h"

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "deploy/front_end.h"
#include "deploy/population.h"
#include "obs/metrics.h"
#include "scoped_env.h"
#include "web/corpus.h"

namespace vroom {
namespace {

using testutil::ScopedEnv;

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream out;
  out << f.rdbuf();
  return out.str();
}

deploy::PopulationConfig small_population() {
  deploy::PopulationConfig cfg;
  cfg.users = 500;
  cfg.window = sim::hours(24);
  cfg.mean_arrivals_per_sec = 0.5;
  return cfg;
}

TEST(Population, MeanArrivalRateMatchesConfiguredWithinTolerance) {
  const deploy::PopulationConfig cfg = small_population();
  const auto arrivals = deploy::build_population(8, cfg, 1234);
  const double expected =
      cfg.mean_arrivals_per_sec * sim::to_seconds(cfg.window);
  const auto got = static_cast<double>(arrivals.size());
  // One day at 0.5/s is ~43k draws; 5% covers Poisson noise comfortably.
  EXPECT_NEAR(got / expected, 1.0, 0.05)
      << got << " arrivals vs " << expected << " expected";
}

TEST(Population, DiurnalShapeShowsUpInHourlyCounts) {
  deploy::PopulationConfig cfg = small_population();
  cfg.mean_arrivals_per_sec = 1.0;
  const auto arrivals = deploy::build_population(8, cfg, 99);
  std::vector<int> per_hour(24, 0);
  for (const deploy::Arrival& a : arrivals) {
    ++per_hour[static_cast<std::size_t>(a.at / sim::hours(1))];
  }
  const std::vector<double> profile = deploy::default_diurnal_profile();
  // The default profile's evening peak (hour 20) carries > 4x the traffic
  // of the overnight trough (hour 3); even one sampled day separates them.
  EXPECT_GT(per_hour[20], 2 * per_hour[3])
      << "peak " << per_hour[20] << " vs trough " << per_hour[3];
  EXPECT_GT(profile[20], 4 * profile[3]);  // the shape the test leans on
}

TEST(Population, ArrivalsAreSortedCookiesAndDevicesConsistentPerUser) {
  const auto arrivals = deploy::build_population(6, small_population(), 7);
  ASSERT_FALSE(arrivals.empty());
  std::map<std::uint32_t, std::pair<std::uint8_t, bool>> traits;
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_LE(arrivals[i - 1].at, arrivals[i].at);
  }
  for (const deploy::Arrival& a : arrivals) {
    const auto it = traits.find(a.user);
    if (it == traits.end()) {
      traits.emplace(a.user, std::make_pair(a.device, a.cookie));
    } else {
      EXPECT_EQ(it->second.first, a.device) << "user switched device class";
      EXPECT_EQ(it->second.second, a.cookie) << "user toggled cookie";
    }
  }
}

TEST(Population, WarmFlagsFollowRevisitsWithinTtl) {
  deploy::PopulationConfig cfg = small_population();
  cfg.users = 3;    // few users, few pages: revisits guaranteed
  cfg.warm_ttl = sim::hours(12);
  const auto arrivals = deploy::build_population(2, cfg, 11);
  std::map<std::uint64_t, sim::Time> last;
  int warm = 0;
  for (const deploy::Arrival& a : arrivals) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(a.user) << 16) | a.page;
    const auto it = last.find(key);
    const bool expect_warm =
        it != last.end() && a.at - it->second <= cfg.warm_ttl;
    EXPECT_EQ(a.warm, expect_warm);
    warm += a.warm ? 1 : 0;
    last[key] = a.at;
  }
  EXPECT_GT(warm, 0) << "test setup produced no revisits";
}

TEST(Population, TruncationIsAPrefixOfTheFullStream) {
  const deploy::PopulationConfig cfg = small_population();
  const auto full = deploy::build_population(8, cfg, 5);
  const auto capped = deploy::build_population(8, cfg, 5, 100);
  ASSERT_EQ(capped.size(), 100u);
  for (std::size_t i = 0; i < capped.size(); ++i) {
    EXPECT_TRUE(capped[i] == full[i]) << "diverged at arrival " << i;
  }
}

TEST(Population, BitIdenticalDrawsAcrossJobCounts) {
  // The population generator is serial, but the contract is end-to-end:
  // the same seed must produce the same stream whatever VROOM_JOBS says.
  std::vector<std::vector<deploy::Arrival>> streams;
  for (const char* jobs : {"1", "2", "4"}) {
    ScopedEnv env("VROOM_JOBS", jobs);
    streams.push_back(deploy::build_population(8, small_population(), 42));
  }
  ASSERT_FALSE(streams[0].empty());
  for (std::size_t j = 1; j < streams.size(); ++j) {
    ASSERT_EQ(streams[0].size(), streams[j].size());
    for (std::size_t i = 0; i < streams[0].size(); ++i) {
      ASSERT_TRUE(streams[0][i] == streams[j][i])
          << "stream diverged at arrival " << i;
    }
  }
}

TEST(FrontEnd, CachesHitsAndTracksStaleness) {
  const web::Corpus corpus = web::Corpus::smoke(42, 4);
  deploy::FrontEndConfig cfg;
  // Default deadline (250ms) is meant to be tight against real pages'
  // hint counts; this test is about cache mechanics, so give generation
  // room to finish synchronously.
  cfg.serve_deadline = sim::seconds(5);
  deploy::FrontEnd fe(corpus, cfg, 42);

  const auto first = fe.serve(sim::minutes(1), 0, web::nexus6());
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.source, deploy::HintSource::Fresh);
  EXPECT_GT(first.hints, 0);
  EXPECT_GE(first.staleness, 0);

  const auto second = fe.serve(sim::minutes(2), 0, web::nexus6());
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.source, deploy::HintSource::Cached);
  EXPECT_EQ(second.queue_wait, 0);
  EXPECT_EQ(second.hints, first.hints);

  // Different rendering class = different cache key.
  const auto tablet = fe.serve(sim::minutes(3), 0, web::nexus10());
  EXPECT_FALSE(tablet.cache_hit);

  // After a recrawl the cached entry is stale: served immediately (SWR),
  // flagged, and refreshed for the next serve.
  const sim::Time later = sim::minutes(2) + fe.effective_recrawl_period();
  const auto stale = fe.serve(later, 0, web::nexus6());
  EXPECT_TRUE(stale.cache_hit);
  EXPECT_EQ(stale.source, deploy::HintSource::Stale);
  EXPECT_GT(stale.staleness, cfg.recrawl_period / 2);
  const auto refreshed = fe.serve(later + sim::minutes(1), 0, web::nexus6());
  EXPECT_EQ(refreshed.source, deploy::HintSource::Cached);
  EXPECT_LT(refreshed.staleness, stale.staleness);

  EXPECT_EQ(fe.stats().serves, 5);
  EXPECT_EQ(fe.stats().stale_serves, 1);
  EXPECT_GT(fe.stats().hit_ratio(), 0.5);
}

TEST(FrontEnd, SaturatedGenerationQueueServesHintless) {
  const web::Corpus corpus = web::Corpus::smoke(42, 4);
  deploy::FrontEndConfig cfg;
  cfg.gen_workers = 1;
  cfg.gen_base_cost = sim::seconds(5);
  cfg.serve_deadline = sim::ms(100);
  deploy::FrontEnd fe(corpus, cfg, 42);

  // First miss generates (and blows the deadline synchronously: cost alone
  // exceeds it), later misses find the worker busy and give up queueing.
  const auto a = fe.serve(0, 0, web::nexus6());
  EXPECT_EQ(a.source, deploy::HintSource::None);
  const auto b = fe.serve(sim::ms(1), 1, web::nexus6());
  EXPECT_EQ(b.source, deploy::HintSource::None);
  EXPECT_EQ(b.queue_wait, 0) << "hintless serves must not stall the page";
  EXPECT_EQ(fe.stats().hintless_serves, 2);
}

TEST(FrontEnd, CrawlScheduleIsPeriodicAndThroughputBound) {
  const web::Corpus corpus = web::Corpus::smoke(42, 4);
  deploy::FrontEndConfig cfg;
  cfg.recrawl_period = sim::minutes(10);
  cfg.crawl_cost = sim::minutes(30);  // 4 pages x 30min > 10min target
  deploy::FrontEnd fe(corpus, cfg, 42);
  EXPECT_EQ(fe.effective_recrawl_period(), 4 * sim::minutes(30));
  const sim::Time t = sim::hours(5);
  for (int p = 0; p < 4; ++p) {
    const sim::Time at = fe.last_crawl(t, p);
    EXPECT_LE(at, t);
    EXPECT_GT(at, t - fe.effective_recrawl_period() - sim::minutes(1));
    EXPECT_EQ(fe.last_crawl(at, p), at) << "crawl time not a fixed point";
  }
}

// The flagship contract: the whole report — fleet-built micro table, the
// pool-parallel warm column, and the concurrent per-level macro passes —
// is bit-identical at any worker count.
TEST(Scenario, ReportBitIdenticalAcrossJobCounts) {
  ScopedEnv trace("VROOM_TRACE", nullptr);
  ScopedEnv cap("VROOM_DEPLOY_ARRIVALS", "400");
  ScopedEnv window("VROOM_DEPLOY_WINDOW_HOURS", "2");
  const web::Corpus corpus = web::Corpus::smoke(42, 3);

  deploy::ScenarioConfig cfg;
  cfg.offered_levels = {0.2, 2.0};
  cfg.stale_ages = {sim::hours(1)};
  cfg.population.users = 200;

  std::vector<deploy::DeploymentReport> reports;
  for (const char* jobs : {"1", "2", "4"}) {
    ScopedEnv env("VROOM_JOBS", jobs);
    reports.push_back(deploy::run_deployment(corpus, cfg));
  }
  for (std::size_t j = 1; j < reports.size(); ++j) {
    const deploy::DeploymentReport& a = reports[0];
    const deploy::DeploymentReport& b = reports[j];
    ASSERT_EQ(a.levels.size(), b.levels.size());
    EXPECT_EQ(a.origin_link_mbps, b.origin_link_mbps);
    EXPECT_EQ(a.micro.plt, b.micro.plt);
    EXPECT_EQ(a.micro.warm_plt, b.micro.warm_plt);
    EXPECT_EQ(a.macro_arrivals, b.macro_arrivals);
    for (std::size_t i = 0; i < a.levels.size(); ++i) {
      EXPECT_EQ(a.levels[i].arrivals, b.levels[i].arrivals);
      EXPECT_EQ(a.levels[i].timeouts, b.levels[i].timeouts);
      // Byte-identical, not approximately equal.
      ASSERT_EQ(a.levels[i].plt_seconds, b.levels[i].plt_seconds);
      EXPECT_EQ(a.levels[i].served_per_sec, b.levels[i].served_per_sec);
      EXPECT_EQ(a.levels[i].p50_plt_s, b.levels[i].p50_plt_s);
      EXPECT_EQ(a.levels[i].p99_plt_s, b.levels[i].p99_plt_s);
      EXPECT_EQ(a.levels[i].hist_p50_plt_s, b.levels[i].hist_p50_plt_s);
      EXPECT_EQ(a.levels[i].hist_p99_plt_s, b.levels[i].hist_p99_plt_s);
      EXPECT_EQ(a.levels[i].mean_origin_wait_s,
                b.levels[i].mean_origin_wait_s);
      EXPECT_EQ(a.levels[i].max_link_utilization,
                b.levels[i].max_link_utilization);
      EXPECT_EQ(a.levels[i].front_end.cache_hits,
                b.levels[i].front_end.cache_hits);
      EXPECT_EQ(a.levels[i].front_end.stale_serves,
                b.levels[i].front_end.stale_serves);
    }
    ASSERT_EQ(a.stale_buckets.size(), b.stale_buckets.size());
    for (std::size_t i = 0; i < a.stale_buckets.size(); ++i) {
      EXPECT_EQ(a.stale_buckets[i].serves, b.stale_buckets[i].serves);
      EXPECT_EQ(a.stale_buckets[i].persistence,
                b.stale_buckets[i].persistence);
    }
  }
}

// Same contract, one layer further out: the virtual-plane metrics the run
// exports. The concurrent level passes all record into the shared registry,
// and every mutation commutes (counter adds, gauge maxima, fixed-bucket
// histogram increments), so metrics.csv / metrics.prom must match byte for
// byte whatever the worker pool looked like.
TEST(Scenario, ExportedMetricsByteIdenticalAcrossJobCounts) {
  ScopedEnv trace("VROOM_TRACE", nullptr);
  ScopedEnv cap("VROOM_DEPLOY_ARRIVALS", "300");
  ScopedEnv window("VROOM_DEPLOY_WINDOW_HOURS", "2");
  const web::Corpus corpus = web::Corpus::smoke(42, 3);

  deploy::ScenarioConfig cfg;
  cfg.offered_levels = {0.2, 2.0};
  cfg.stale_ages = {sim::hours(1)};
  cfg.population.users = 200;

  const std::string base = testing::TempDir() + "vroom_deploy_metrics_j";
  std::vector<std::string> dirs;
  for (const char* jobs : {"1", "2", "4"}) {
    const std::string dir = base + jobs;
    ScopedEnv metrics("VROOM_METRICS", dir.c_str());
    ScopedEnv env("VROOM_JOBS", jobs);
    (void)deploy::run_deployment(corpus, cfg);
    dirs.push_back(dir);
  }
  // The fleet flipped the gate on from VROOM_METRICS; leave it as later
  // tests expect to find it.
  obs::set_metrics_enabled(false);

  // Virtual plane only: the wall sidecar is timing and is allowed to vary.
  for (const char* file : {"/metrics.csv", "/metrics.prom"}) {
    const std::string first = read_file(dirs[0] + file);
    ASSERT_FALSE(first.empty()) << "missing export: " << dirs[0] + file;
    for (std::size_t j = 1; j < dirs.size(); ++j) {
      EXPECT_EQ(first, read_file(dirs[j] + file))
          << file << " diverged between jobs=1 and jobs=" << dirs[j].back();
    }
  }
}

// Contention is simulated, not approximated: pushing offered load far past
// the origin links' capacity must degrade tail PLT.
TEST(Scenario, TailPltDegradesAcrossLinkCapacity) {
  ScopedEnv trace("VROOM_TRACE", nullptr);
  ScopedEnv cap("VROOM_DEPLOY_ARRIVALS", "6000");
  ScopedEnv window("VROOM_DEPLOY_WINDOW_HOURS", "6");
  const web::Corpus corpus = web::Corpus::smoke(42, 3);

  deploy::ScenarioConfig cfg;
  cfg.offered_levels = {0.05, 8.0};
  cfg.stale_ages = {sim::hours(1)};
  cfg.population.users = 300;
  // Flat profile: the capped arrival prefix would otherwise fall in the
  // diurnal overnight trough, where even the heavy level is under capacity.
  cfg.population.diurnal.assign(24, 1.0);
  // Deeper overload (2.5x the hottest origin's link) so the ~12 simulated
  // minutes of capped traffic build an unambiguous backlog.
  cfg.origin_capacity_frac = 0.4;
  // Links sized to 60% of the hottest origin's demand at 8/s: the low
  // level idles at ~0.4% utilization, the high level queues hard.
  const deploy::DeploymentReport report =
      deploy::run_deployment(corpus, cfg);
  ASSERT_EQ(report.levels.size(), 2u);
  const deploy::LevelReport& light = report.levels[0];
  const deploy::LevelReport& heavy = report.levels[1];
  EXPECT_GT(heavy.p99_plt_s, 2.0 * light.p99_plt_s)
      << "p99 " << light.p99_plt_s << "s -> " << heavy.p99_plt_s << "s";
  EXPECT_GT(heavy.max_link_utilization, light.max_link_utilization);
  EXPECT_GT(heavy.mean_origin_wait_s, light.mean_origin_wait_s);
  // Median holds up far better than the tail — contention, not a constant.
  EXPECT_LT(heavy.p50_plt_s, heavy.p99_plt_s);
}

TEST(Scenario, MicroTableBucketsMapDecisionsSensibly) {
  deploy::MicroTable t;
  t.ages = {0, sim::hours(1), sim::hours(6)};
  EXPECT_EQ(t.bucket_for(deploy::HintSource::None, 0), 3);
  EXPECT_EQ(t.bucket_for(deploy::HintSource::Fresh, 0), 0);
  EXPECT_EQ(t.bucket_for(deploy::HintSource::Cached, sim::minutes(20)), 0);
  EXPECT_EQ(t.bucket_for(deploy::HintSource::Stale, sim::minutes(50)), 1);
  // Ties break toward the lower (fresher) bucket.
  EXPECT_EQ(t.bucket_for(deploy::HintSource::Stale, sim::minutes(30)), 0);
  EXPECT_EQ(t.bucket_for(deploy::HintSource::Stale, sim::hours(24)), 2);
}

}  // namespace
}  // namespace vroom
