// Deployment-scale simulator (src/deploy/): the population's arrival
// process must match its configured rate and diurnal shape, be bit-identical
// for a given seed at any VROOM_JOBS, and the macro scenario must show real
// per-origin contention — p99 PLT degrading as offered load crosses link
// capacity.
#include "deploy/scenario.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/strategies.h"
#include "browser/cache.h"
#include "deploy/front_end.h"
#include "deploy/population.h"
#include "fleet/fleet.h"
#include "harness/experiment.h"
#include "obs/metrics.h"
#include "scoped_env.h"
#include "sim/random.h"
#include "web/corpus.h"
#include "web/device.h"

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

// A light level and a heavier one over the first 30 minutes of the default
// diurnal profile: about 160 and 1,600 arrivals.
deploy::ScenarioConfig two_level_scenario() {
  deploy::ScenarioConfig cfg;
  cfg.offered_levels = {0.2, 2.0};
  cfg.stale_ages = {sim::hours(1)};
  cfg.population.users = 200;
  cfg.population.window = sim::minutes(30);
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

TEST(Population, CustomDiurnalProfileKeepsConfiguredMeanRate) {
  // Only the profile's shape matters: a flat profile at any level is
  // scaled to mean 1.0, so the day still averages the configured rate.
  for (const double level : {2.0, 0.5}) {
    deploy::PopulationConfig cfg = small_population();
    cfg.diurnal.assign(24, level);
    const auto arrivals = deploy::build_population(8, cfg, 1234);
    const double expected =
        cfg.mean_arrivals_per_sec * sim::to_seconds(cfg.window);
    EXPECT_NEAR(static_cast<double>(arrivals.size()) / expected, 1.0, 0.05)
        << arrivals.size() << " arrivals vs " << expected
        << " expected, flat profile " << level;
  }
}

TEST(Population, RejectsMalformedDiurnalProfile) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::vector<double>& bad :
       {std::vector<double>{1.0, -0.5, 1.0}, std::vector<double>{1.0, nan},
        std::vector<double>{inf, 1.0}, std::vector<double>(24, 0.0),
        std::vector<double>{1e308, 1e308}}) {
    deploy::PopulationConfig cfg = small_population();
    cfg.diurnal = bad;
    EXPECT_THROW(deploy::build_population(8, cfg, 1), std::invalid_argument);
  }
}

TEST(Population, RejectsIndicesArrivalCannotHold) {
  // Arrival::page is 16 bits and Arrival::device 8 bits: a larger corpus
  // or device mix would alias onto low indices instead of failing.
  deploy::PopulationConfig cfg = small_population();
  cfg.page_skew = 0.0;
  cfg.window = sim::hours(5);  // the overnight trough: ~2,400 arrivals
  EXPECT_FALSE(deploy::build_population(65536, cfg, 3).empty());
  EXPECT_THROW(deploy::build_population(65537, cfg, 3),
               std::invalid_argument);

  cfg.device_mix.assign(256, deploy::DeviceShare{web::nexus6(), 1.0});
  const auto arrivals = deploy::build_population(8, cfg, 3);
  ASSERT_FALSE(arrivals.empty());
  std::uint8_t top = 0;
  for (const deploy::Arrival& a : arrivals) top = std::max(top, a.device);
  EXPECT_GT(top, 127) << "a 256-class mix never drew its upper half";
  cfg.device_mix.push_back(deploy::DeviceShare{web::nexus6(), 1.0});
  EXPECT_THROW(deploy::build_population(8, cfg, 3), std::invalid_argument);
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

TEST(Population, ArrivalsAreSortedDevicesConsistentPerUser) {
  const auto arrivals = deploy::build_population(6, small_population(), 7);
  ASSERT_FALSE(arrivals.empty());
  std::map<std::uint32_t, std::uint8_t> devices;
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_LE(arrivals[i - 1].at, arrivals[i].at);
  }
  for (const deploy::Arrival& a : arrivals) {
    const auto [it, first] = devices.emplace(a.user, a.device);
    if (!first) {
      EXPECT_EQ(it->second, a.device) << "user switched device class";
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

// FNV-1a over every field of every arrival, little-endian field by field
// (not the struct's bytes: its padding is unspecified).
std::uint64_t arrival_digest(const std::vector<deploy::Arrival>& arrivals) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const deploy::Arrival& a : arrivals) {
    mix(static_cast<std::uint64_t>(a.at), 8);
    mix(a.user, 4);
    mix(a.page, 2);
    mix(a.device, 1);
    mix(a.warm ? 1 : 0, 1);
  }
  return h;
}

// The arrival stream is part of every deployment figure, so a faster
// generator must reproduce it bit for bit. The digests were recorded from
// the generator that drew each user's device from a full
// std::mt19937_64(derive_seed(root, user)).
TEST(Population, StreamMatchesRecordedDigest) {
  // deploy_day's critical path: run_deployment's 3.2/s level at seed 42
  // over a 30-page corpus, default population.
  deploy::PopulationConfig day;
  day.mean_arrivals_per_sec = 3.2;
  const auto critical = deploy::build_population(
      30, day, sim::derive_seed(42, "deploy:level-3"));
  EXPECT_EQ(critical.size(), 276589u);
  EXPECT_EQ(arrival_digest(critical), 0x73068b70ce607e45ULL);

  struct Recorded {
    std::uint64_t seed;
    std::size_t size;
    std::uint64_t digest;
  };
  for (const Recorded& r : {Recorded{7, 42927, 0xd585a64b6bafb6b2ULL},
                            Recorded{42, 43368, 0x1e824c86bb493a99ULL}}) {
    const auto arrivals =
        deploy::build_population(8, small_population(), r.seed);
    EXPECT_EQ(arrivals.size(), r.size) << "seed " << r.seed;
    EXPECT_EQ(arrival_digest(arrivals), r.digest) << "seed " << r.seed;
  }
}

// The single-pass generator that drew each user's device on their first
// arrival, from a full std::mt19937_64, and kept a std::map revisit table:
// the definition the two-pass build_population must reproduce. Default
// diurnal profile only.
std::vector<deploy::Arrival> reference_population(
    int num_pages, const deploy::PopulationConfig& cfg, std::uint64_t seed) {
  const std::vector<deploy::DeviceShare> mix =
      cfg.device_mix.empty() ? deploy::default_device_mix() : cfg.device_mix;
  std::vector<double> mix_weights;
  for (const deploy::DeviceShare& share : mix) {
    mix_weights.push_back(share.weight);
  }
  const std::vector<double> profile = deploy::default_diurnal_profile();
  double max_mult = 1.0;
  for (const double v : profile) max_mult = std::max(max_mult, v);
  const auto hour_of = [&profile](sim::Time t) {
    return static_cast<std::size_t>((t / sim::hours(1)) %
                                    static_cast<sim::Time>(profile.size()));
  };
  const auto cumulative = [](int n, double skew) {
    std::vector<double> cum;
    double total = 0.0;
    for (const double w : deploy::zipf_weights(n, skew)) {
      total += w;
      cum.push_back(total);
    }
    return cum;
  };
  const std::vector<double> user_cum = cumulative(cfg.users, cfg.user_skew);
  const std::vector<double> page_cum = cumulative(num_pages, cfg.page_skew);
  const auto draw = [](const std::vector<double>& cum, sim::Rng& rng) {
    const double u = rng.uniform(0.0, cum.back());
    return std::upper_bound(cum.begin(), cum.end(), u) - cum.begin();
  };

  const std::uint64_t root = sim::derive_seed(seed, "deploy:population");
  sim::Rng arrival_rng(root, "arrivals");
  sim::Rng who_rng(root, "users");
  sim::Rng page_rng(root, "pages");
  std::map<std::uint32_t, std::uint8_t> devices;
  std::map<std::pair<std::uint32_t, std::uint16_t>, sim::Time> last_visit;
  std::vector<deploy::Arrival> arrivals;
  const double peak_rate = cfg.mean_arrivals_per_sec * max_mult;
  sim::Time t = 0;
  while (true) {
    t += sim::from_seconds(arrival_rng.exponential(1.0 / peak_rate));
    if (t >= cfg.window) break;
    if (!arrival_rng.chance(profile[hour_of(t)] / max_mult)) continue;
    deploy::Arrival a;
    a.at = t;
    a.user = static_cast<std::uint32_t>(draw(user_cum, who_rng));
    a.page = static_cast<std::uint16_t>(draw(page_cum, page_rng));
    auto it = devices.find(a.user);
    if (it == devices.end()) {
      std::mt19937_64 stream(sim::derive_seed(root, std::uint64_t{a.user}));
      const auto device =
          static_cast<std::uint8_t>(sim::weighted(stream, mix_weights));
      it = devices.emplace(a.user, device).first;
    }
    a.device = it->second;
    const auto seen = last_visit.find({a.user, a.page});
    a.warm = seen != last_visit.end() && t - seen->second <= cfg.warm_ttl;
    last_visit[{a.user, a.page}] = t;
    arrivals.push_back(a);
  }
  return arrivals;
}

// Every field of every arrival equals the reference's, over corpus sizes,
// user counts, a one-class and a four-class device mix, two windows, and
// under each of them every warm TTL (none, one microsecond, the default,
// longer than the window). Rates keep each window at a few hundred to a
// few thousand arrivals.
TEST(Population, MatchesArrivalOrderReference) {
  const std::vector<deploy::DeviceShare> four = {
      {web::nexus6(), 0.4},
      {web::nexus5(), 0.3},
      {web::nexus10(), 0.2},
      {web::galaxy_tab(), 0.1}};
  const std::vector<deploy::DeviceShare> one = {{web::oneplus3(), 1.0}};
  std::uint64_t seed = 0;
  int compared = 0;
  for (const sim::Time window : {sim::minutes(30), sim::hours(24)}) {
    const sim::Time ttls[] = {0, 1, sim::hours(12), window + sim::hours(1)};
    for (const int pages : {1, 2, 30, 300}) {
      for (const int users : {1, 3, 1000, 100000}) {
        for (const auto* mix : {&one, &four}) {
          for (int i = 0; i < 4; ++i) {
            deploy::PopulationConfig cfg;
            cfg.window = window;
            cfg.mean_arrivals_per_sec = window == sim::hours(24) ? 0.02 : 0.5;
            cfg.users = users;
            cfg.warm_ttl = ttls[i];
            cfg.device_mix = *mix;
            ++seed;
            const auto got = deploy::build_population(pages, cfg, seed);
            const auto want = reference_population(pages, cfg, seed);
            ASSERT_FALSE(want.empty());
            ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
            for (std::size_t j = 0; j < want.size(); ++j) {
              ASSERT_TRUE(got[j] == want[j])
                  << "seed " << seed << " arrival " << j << ": pages "
                  << pages << ", users " << users << ", ttl " << cfg.warm_ttl
                  << ", " << mix->size() << " devices";
            }
            ++compared;
          }
        }
      }
    }
  }
  EXPECT_EQ(compared, 2 * 4 * 4 * 2 * 4);
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

// Front ends sharing one generation memo serve exactly what front ends
// with memos of their own serve, whether they take turns on one thread or
// run on two at once (the TSAN selection runs this suite).
TEST(FrontEnd, SharedMemoMatchesPrivateMemos) {
  const web::Corpus corpus = web::Corpus::smoke(42, 4);
  const deploy::FrontEndConfig cfg;
  constexpr std::uint64_t kSeed = 42;
  deploy::PopulationConfig pop;
  pop.users = 300;
  pop.window = sim::hours(6);  // six recrawls of every page
  pop.mean_arrivals_per_sec = 0.05;
  pop.device_mix = deploy::default_device_mix();
  const std::vector<std::vector<deploy::Arrival>> streams = {
      deploy::build_population(4, pop, 1),
      deploy::build_population(4, pop, 2)};
  ASSERT_FALSE(streams[0].empty());
  ASSERT_FALSE(streams[1].empty());

  using Decisions = std::vector<deploy::ServeDecision>;
  const auto serve = [&pop](deploy::FrontEnd& fe, const deploy::Arrival& a) {
    return fe.serve(a.at, a.page, pop.device_mix[a.device].device);
  };
  std::vector<Decisions> want(2);
  std::vector<deploy::FrontEndStats> want_stats;
  std::size_t private_counts = 0;
  for (std::size_t k = 0; k < 2; ++k) {
    const auto memo =
        std::make_shared<deploy::GenerationMemo>(corpus, cfg, kSeed,
                                                 sim::days(45));
    deploy::FrontEnd fe(memo);
    for (const deploy::Arrival& a : streams[k]) {
      want[k].push_back(serve(fe, a));
    }
    want_stats.push_back(fe.stats());
    private_counts += memo->size();
  }
  const auto expect_same = [&](const std::vector<Decisions>& got,
                               const deploy::FrontEnd& fe0,
                               const deploy::FrontEnd& fe1, const char* how) {
    for (std::size_t k = 0; k < 2; ++k) {
      ASSERT_EQ(got[k].size(), want[k].size()) << how;
      for (std::size_t i = 0; i < want[k].size(); ++i) {
        const deploy::ServeDecision& g = got[k][i];
        const deploy::ServeDecision& w = want[k][i];
        EXPECT_TRUE(g.source == w.source && g.cache_hit == w.cache_hit &&
                    g.queue_wait == w.queue_wait &&
                    g.staleness == w.staleness && g.hints == w.hints)
            << how << ": stream " << k << " serve " << i;
      }
      const deploy::FrontEndStats& g = (k == 0 ? fe0 : fe1).stats();
      const deploy::FrontEndStats& w = want_stats[k];
      EXPECT_EQ(g.serves, w.serves) << how;
      EXPECT_EQ(g.cache_hits, w.cache_hits) << how;
      EXPECT_EQ(g.cache_misses, w.cache_misses) << how;
      EXPECT_EQ(g.stale_serves, w.stale_serves) << how;
      EXPECT_EQ(g.hintless_serves, w.hintless_serves) << how;
      EXPECT_EQ(g.generations, w.generations) << how;
      EXPECT_EQ(g.total_queue_wait, w.total_queue_wait) << how;
      EXPECT_EQ(g.total_staleness, w.total_staleness) << how;
    }
  };

  {
    const auto shared =
        std::make_shared<deploy::GenerationMemo>(corpus, cfg, kSeed,
                                                 sim::days(45));
    deploy::FrontEnd fe0(shared);
    deploy::FrontEnd fe1(shared);
    std::vector<Decisions> got(2);
    for (std::size_t i = 0;
         i < std::max(streams[0].size(), streams[1].size()); ++i) {
      if (i < streams[0].size()) got[0].push_back(serve(fe0, streams[0][i]));
      if (i < streams[1].size()) got[1].push_back(serve(fe1, streams[1][i]));
    }
    expect_same(got, fe0, fe1, "interleaved");
    EXPECT_LT(shared->size(), private_counts)
        << "the two front ends never reused each other's counts";
  }
  {
    const auto shared =
        std::make_shared<deploy::GenerationMemo>(corpus, cfg, kSeed,
                                                 sim::days(45));
    deploy::FrontEnd fe0(shared);
    deploy::FrontEnd fe1(shared);
    std::vector<Decisions> got(2);
    fleet::run_tasks(
        2,
        [&](std::size_t k) {
          deploy::FrontEnd& fe = k == 0 ? fe0 : fe1;
          for (const deploy::Arrival& a : streams[k]) {
            got[k].push_back(serve(fe, a));
          }
        },
        2);
    expect_same(got, fe0, fe1, "concurrent");
  }
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

// Byte-identical, not approximately equal.
void expect_identical_reports(const deploy::DeploymentReport& a,
                              const deploy::DeploymentReport& b) {
  ASSERT_EQ(a.levels.size(), b.levels.size());
  EXPECT_EQ(a.origin_link_mbps, b.origin_link_mbps);
  EXPECT_EQ(a.effective_recrawl, b.effective_recrawl);
  EXPECT_EQ(a.micro.plt, b.micro.plt);
  EXPECT_EQ(a.micro.warm_plt, b.micro.warm_plt);
  EXPECT_EQ(a.macro_arrivals, b.macro_arrivals);
  for (std::size_t i = 0; i < a.levels.size(); ++i) {
    SCOPED_TRACE("level " + std::to_string(i));
    const deploy::LevelReport& x = a.levels[i];
    const deploy::LevelReport& y = b.levels[i];
    EXPECT_EQ(x.arrivals, y.arrivals);
    EXPECT_EQ(x.timeouts, y.timeouts);
    ASSERT_EQ(x.plt_seconds, y.plt_seconds);
    EXPECT_EQ(x.served_per_sec, y.served_per_sec);
    EXPECT_EQ(x.p50_plt_s, y.p50_plt_s);
    EXPECT_EQ(x.p99_plt_s, y.p99_plt_s);
    EXPECT_EQ(x.hist_p50_plt_s, y.hist_p50_plt_s);
    EXPECT_EQ(x.hist_p99_plt_s, y.hist_p99_plt_s);
    EXPECT_EQ(x.mean_origin_wait_s, y.mean_origin_wait_s);
    EXPECT_EQ(x.mean_fe_wait_ms, y.mean_fe_wait_ms);
    EXPECT_EQ(x.max_link_utilization, y.max_link_utilization);
    EXPECT_EQ(x.hit_ratio, y.hit_ratio);
    EXPECT_EQ(x.stale_frac, y.stale_frac);
    EXPECT_EQ(x.hintless_frac, y.hintless_frac);
    EXPECT_EQ(x.mean_staleness_s, y.mean_staleness_s);
    EXPECT_EQ(x.front_end.cache_hits, y.front_end.cache_hits);
    EXPECT_EQ(x.front_end.stale_serves, y.front_end.stale_serves);
    EXPECT_EQ(x.front_end.generations, y.front_end.generations);
    EXPECT_EQ(x.front_end.total_queue_wait, y.front_end.total_queue_wait);
  }
  ASSERT_EQ(a.stale_buckets.size(), b.stale_buckets.size());
  for (std::size_t i = 0; i < a.stale_buckets.size(); ++i) {
    EXPECT_EQ(a.stale_buckets[i].serves, b.stale_buckets[i].serves);
    EXPECT_EQ(a.stale_buckets[i].persistence, b.stale_buckets[i].persistence);
  }
}

// The flagship contract: the whole report — fleet-built micro table, the
// pool-parallel warm column, and the concurrent per-level macro passes —
// is bit-identical at any worker count.
TEST(Scenario, ReportBitIdenticalAcrossJobCounts) {
  ScopedEnv trace("VROOM_TRACE", nullptr);
  const web::Corpus corpus = web::Corpus::smoke(42, 3);
  const deploy::ScenarioConfig cfg = two_level_scenario();

  std::vector<deploy::DeploymentReport> reports;
  for (const char* jobs : {"1", "2", "4"}) {
    ScopedEnv env("VROOM_JOBS", jobs);
    reports.push_back(deploy::run_deployment(corpus, cfg));
  }
  for (std::size_t j = 1; j < reports.size(); ++j) {
    SCOPED_TRACE("run " + std::to_string(j));
    expect_identical_reports(reports[0], reports[j]);
  }
}

// The front end crawls the web the micro loads see: each level's front end
// serves what a front end on a memo with crawl clock cfg.micro.when serves
// over that level's arrivals, and the default clock would serve otherwise.
TEST(Scenario, FrontEndCrawlsOnTheMicroClock) {
  ScopedEnv trace("VROOM_TRACE", nullptr);
  const web::Corpus corpus = web::Corpus::smoke(42, 3);
  deploy::ScenarioConfig cfg = two_level_scenario();
  cfg.micro.when = sim::days(45) + sim::hours(7);
  const deploy::DeploymentReport report = deploy::run_deployment(corpus, cfg);

  deploy::PopulationConfig pop = cfg.population;
  pop.device_mix = deploy::default_device_mix();
  const auto replay = [&](std::size_t level, sim::Time day0) {
    pop.mean_arrivals_per_sec = cfg.offered_levels[level];
    deploy::FrontEnd fe(std::make_shared<deploy::GenerationMemo>(
        corpus, cfg.front_end, sim::derive_seed(cfg.seed, "deploy:frontend"),
        day0));
    for (const deploy::Arrival& a : deploy::build_population(
             static_cast<int>(corpus.size()), pop,
             sim::derive_seed(cfg.seed,
                              "deploy:level-" + std::to_string(level)))) {
      fe.serve(a.at, a.page, pop.device_mix[a.device].device);
    }
    return fe.stats();
  };
  bool clock_moves_a_level = false;
  for (std::size_t level = 0; level < cfg.offered_levels.size(); ++level) {
    SCOPED_TRACE("level " + std::to_string(level));
    const deploy::FrontEndStats& got = report.levels[level].front_end;
    const deploy::FrontEndStats want = replay(level, cfg.micro.when);
    EXPECT_EQ(got.serves, want.serves);
    EXPECT_EQ(got.cache_hits, want.cache_hits);
    EXPECT_EQ(got.hintless_serves, want.hintless_serves);
    EXPECT_EQ(got.generations, want.generations);
    EXPECT_EQ(got.total_queue_wait, want.total_queue_wait);
    clock_moves_a_level |= replay(level, sim::days(45)).total_queue_wait !=
                           want.total_queue_wait;
  }
  EXPECT_TRUE(clock_moves_a_level)
      << "no level's hint costs depend on the crawl clock";
}

// The warm column is Figure 20's story per (device, page): prime a private
// cache with the fresh-hint strategy at load index 0, revisit
// `revisit_gap` later at load index 1, and cap the revisit's PLT at the
// micro timeout.
TEST(Scenario, WarmColumnIsPrimeThenRevisit) {
  ScopedEnv trace("VROOM_TRACE", nullptr);
  const web::Corpus corpus = web::Corpus::smoke(42, 3);
  deploy::ScenarioConfig cfg;
  cfg.offered_levels = {0.2};
  cfg.stale_ages = {sim::hours(1)};
  cfg.population.users = 100;
  cfg.population.window = sim::hours(1);
  cfg.population.device_mix = {{web::nexus6(), 0.7}, {web::nexus10(), 0.3}};
  const deploy::DeploymentReport report = deploy::run_deployment(corpus, cfg);

  const baselines::Strategy fresh = baselines::vroom_stale_hints(0);
  ASSERT_EQ(report.micro.warm_plt.size(), cfg.population.device_mix.size());
  for (std::size_t d = 0; d < cfg.population.device_mix.size(); ++d) {
    ASSERT_EQ(report.micro.warm_plt[d].size(), corpus.size());
    for (std::size_t p = 0; p < corpus.size(); ++p) {
      const web::PageModel& page = corpus.page(p);
      browser::Cache cache;
      harness::RunOptions opt = cfg.micro;
      opt.seed = cfg.seed;
      opt.device = cfg.population.device_mix[d].device;
      opt.cache = &cache;
      harness::run_page_load(
          page, fresh, opt,
          harness::derive_load_nonce(cfg.seed, page.page_id(), 0));
      opt.when += cfg.revisit_gap;
      const browser::LoadResult revisit = harness::run_page_load(
          page, fresh, opt,
          harness::derive_load_nonce(cfg.seed, page.page_id(), 1));
      ASSERT_GT(revisit.cache_hits, 0);
      const sim::Time expected = revisit.plt == sim::kNever
                                     ? cfg.micro.timeout
                                     : std::min(revisit.plt,
                                                cfg.micro.timeout);
      EXPECT_EQ(report.micro.warm_plt[d][p], expected)
          << "device " << d << ", page " << p;
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
  const web::Corpus corpus = web::Corpus::smoke(42, 3);
  const deploy::ScenarioConfig cfg = two_level_scenario();

  const std::string base = testing::TempDir() + "vroom_deploy_metrics_j";
  std::vector<std::string> dirs;
  for (const char* jobs : {"1", "2", "4"}) {
    const std::string dir = base + jobs;
    ScopedEnv out("VROOM_OUT_DIR", dir.c_str());
    ScopedEnv env("VROOM_JOBS", jobs);
    (void)deploy::run_deployment(corpus, cfg);
    dirs.push_back(dir);
  }
  // The fleet flipped the gate on from VROOM_OUT_DIR; leave it as later
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

// A level task that throws must reach the caller as the exception, not
// terminate the process from a pool thread.
TEST(Scenario, LevelExceptionReachesCallerAtAnyJobCount) {
  ScopedEnv trace("VROOM_TRACE", nullptr);
  const web::Corpus corpus = web::Corpus::smoke(42, 2);
  deploy::ScenarioConfig cfg;
  cfg.stale_ages = {sim::hours(1)};
  cfg.population.device_mix = {{web::nexus6(), 0.0}};
  for (const char* jobs : {"1", "4"}) {
    ScopedEnv env("VROOM_JOBS", jobs);
    EXPECT_THROW(deploy::run_deployment(corpus, cfg), std::invalid_argument)
        << "VROOM_JOBS=" << jobs;
  }
}

// Contention is simulated, not approximated: pushing offered load far past
// the origin links' capacity must degrade tail PLT.
TEST(Scenario, TailPltDegradesAcrossLinkCapacity) {
  ScopedEnv trace("VROOM_TRACE", nullptr);
  const web::Corpus corpus = web::Corpus::smoke(42, 3);

  deploy::ScenarioConfig cfg;
  cfg.offered_levels = {0.05, 8.0};
  cfg.stale_ages = {sim::hours(1)};
  cfg.population.users = 300;
  // Flat profile: a short window would otherwise fall in the diurnal
  // overnight trough, where even the heavy level is under capacity.
  cfg.population.diurnal.assign(24, 1.0);
  cfg.population.window = sim::minutes(15);
  // Deeper overload (2.5x the hottest origin's link) so 15 simulated
  // minutes of traffic build an unambiguous backlog.
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
