// Observability layer (src/obs/): the metrics registry's aggregation must
// be order-independent (exports byte-identical at any VROOM_JOBS), the
// disabled path must leave results bit-for-bit unchanged, manifests must
// round-trip exactly, and the macro-trace auditor must pass a healthy
// deployment sweep while catching injected invariant violations.
#include "obs/metrics.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/strategies.h"
#include "deploy/scenario.h"
#include "fleet/fleet.h"
#include "harness/experiment.h"
#include "harness/export.h"
#include "harness/stats.h"
#include "obs/audit.h"
#include "obs/manifest.h"
#include "obs/phase_profiler.h"
#include "scoped_env.h"
#include "sim/random.h"
#include "web/corpus.h"

namespace vroom {
namespace {

using testutil::ScopedEnv;

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << "missing " << path;
  std::ostringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "vroom_obs_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// --- Metric names ----------------------------------------------------------

TEST(MetricNames, EnforcesLayerSubsystemName) {
  EXPECT_TRUE(obs::valid_metric_name("fleet.jobs.completed"));
  EXPECT_TRUE(obs::valid_metric_name("deploy.macro.plt_us"));
  EXPECT_TRUE(obs::valid_metric_name("a.b.c.d"));
  EXPECT_FALSE(obs::valid_metric_name("fleet.jobs"));      // two segments
  EXPECT_FALSE(obs::valid_metric_name("Fleet.jobs.done"));  // uppercase
  EXPECT_FALSE(obs::valid_metric_name("fleet..done"));      // empty segment
  EXPECT_FALSE(obs::valid_metric_name(".fleet.jobs.done"));
  EXPECT_FALSE(obs::valid_metric_name("fleet.jobs.done."));
  EXPECT_FALSE(obs::valid_metric_name("fleet.jobs.done!"));
  EXPECT_FALSE(obs::valid_metric_name(""));
}

// --- Histogram bucket math -------------------------------------------------

TEST(Histogram, UnitBucketsBelowSubBucketCount) {
  for (std::int64_t v = 0; v < obs::Histogram::kSubBuckets; ++v) {
    EXPECT_EQ(obs::Histogram::bucket_index(v), static_cast<int>(v));
    EXPECT_EQ(obs::Histogram::bucket_lower(static_cast<int>(v)), v);
    EXPECT_EQ(obs::Histogram::bucket_upper(static_cast<int>(v)), v + 1);
  }
}

TEST(Histogram, BucketsContainTheirValuesAndStayLogLinear) {
  std::int64_t prev_index = -1;
  for (const std::int64_t v :
       {std::int64_t{0}, std::int64_t{31}, std::int64_t{32}, std::int64_t{33},
        std::int64_t{63}, std::int64_t{64}, std::int64_t{1000},
        std::int64_t{123456}, std::int64_t{987654321},
        std::int64_t{1} << 40, (std::int64_t{1} << 62) + 12345,
        std::numeric_limits<std::int64_t>::max()}) {
    const int i = obs::Histogram::bucket_index(v);
    ASSERT_GE(i, 0);
    ASSERT_LT(i, obs::Histogram::kBucketCount);
    EXPECT_GE(i, prev_index) << "index must be monotone in value";
    prev_index = i;
    EXPECT_LE(obs::Histogram::bucket_lower(i), v);
    // Exclusive upper bound, except the saturated top bucket.
    if (obs::Histogram::bucket_upper(i) !=
        std::numeric_limits<std::int64_t>::max()) {
      EXPECT_LT(v, obs::Histogram::bucket_upper(i));
    }
    if (v >= obs::Histogram::kSubBuckets) {
      // Log-linear: relative width is at most 1/kSubBuckets of the lower
      // bound (~3% resolution at every magnitude).
      EXPECT_LE(obs::Histogram::bucket_width_at(v),
                obs::Histogram::bucket_lower(i) /
                        (obs::Histogram::kSubBuckets / 2) +
                    1);
    }
  }
  // The very top bucket's true upper bound (2^63) saturates to INT64_MAX
  // instead of overflowing.
  EXPECT_EQ(obs::Histogram::bucket_upper(obs::Histogram::kBucketCount - 1),
            std::numeric_limits<std::int64_t>::max());
}

TEST(Histogram, MergeIsOrderIndependentAndAssociative) {
  // One deterministic value stream, sharded three ways as a worker pool
  // might; every shard assignment and merge order must agree byte for byte.
  std::vector<std::int64_t> values;
  std::uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < 3000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    values.push_back(static_cast<std::int64_t>(x % 50'000'000));
  }

  obs::Histogram serial;
  for (const std::int64_t v : values) serial.record(v);

  obs::Histogram a, b, c;
  for (std::size_t i = 0; i < values.size(); ++i) {
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).record(values[i]);
  }
  obs::Histogram left;   // (a + b) + c
  left.merge(a);
  left.merge(b);
  left.merge(c);
  obs::Histogram right;  // c + (b + a)
  right.merge(c);
  right.merge(b);
  right.merge(a);

  EXPECT_EQ(left.count(), serial.count());
  EXPECT_EQ(left.sum(), serial.sum());
  for (int i = 0; i < obs::Histogram::kBucketCount; ++i) {
    ASSERT_EQ(left.bucket_count(i), serial.bucket_count(i)) << "bucket " << i;
    ASSERT_EQ(right.bucket_count(i), serial.bucket_count(i)) << "bucket " << i;
  }
  EXPECT_EQ(left.percentile(50), serial.percentile(50));
  EXPECT_EQ(right.percentile(99), serial.percentile(99));
}

TEST(Histogram, PercentilesAgreeWithExactSortWithinOneBucketWidth) {
  std::vector<std::int64_t> values;
  std::uint64_t x = 2463534242ULL;
  for (int i = 0; i < 5000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    // Heavy-tailed-ish spread across four decades, like PLT microseconds.
    values.push_back(static_cast<std::int64_t>(x % 10'000'000) + 1000);
  }
  obs::Histogram h;
  std::vector<double> exact;
  for (const std::int64_t v : values) {
    h.record(v);
    exact.push_back(static_cast<double>(v));
  }
  std::sort(exact.begin(), exact.end());
  for (const double p : {50.0, 90.0, 99.0, 99.9}) {
    const double truth = harness::percentile_sorted(exact, p);
    const double approx = h.percentile(p);
    const double width = static_cast<double>(
        obs::Histogram::bucket_width_at(static_cast<std::int64_t>(truth)));
    EXPECT_NEAR(approx, truth, width)
        << "p" << p << ": hist " << approx << " vs exact " << truth;
  }
}

// --- Registry --------------------------------------------------------------

TEST(Registry, HandlesAreStableAcrossReset) {
  obs::Counter& c = obs::registry().counter("test.registry.stable");
  c.add(7);
  EXPECT_EQ(c.value(), 7);
  obs::registry().reset();
  EXPECT_EQ(c.value(), 0);  // zeroed, not invalidated
  EXPECT_EQ(&obs::registry().counter("test.registry.stable"), &c);
}

TEST(Registry, ExportSeparatesPlanesAndSortsNames) {
  obs::registry().counter("test.plane.virtual_ctr").add(3);
  obs::registry()
      .histogram("test.plane.wall_hist", obs::Plane::Wall)
      .record(1234);
  const std::string virt = obs::registry().to_exposition(obs::Plane::Virtual);
  const std::string wall = obs::registry().to_exposition(obs::Plane::Wall);
  EXPECT_NE(virt.find("vroom_test_plane_virtual_ctr 3"), std::string::npos);
  EXPECT_EQ(virt.find("wall_hist"), std::string::npos);
  EXPECT_NE(wall.find("vroom_test_plane_wall_hist_count 1"),
            std::string::npos);
  EXPECT_EQ(wall.find("virtual_ctr"), std::string::npos);

  const std::string csv = obs::registry().to_csv(obs::Plane::Virtual);
  // Name-sorted rows: the header then lexicographic metric names.
  std::vector<std::string> names;
  std::istringstream lines(csv);
  std::string line;
  std::getline(lines, line);  // header
  EXPECT_EQ(line, "name,kind,count,sum,p50,p90,p99,p999,value");
  while (std::getline(lines, line)) {
    names.push_back(line.substr(0, line.find(',')));
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(Registry, DigestTracksContent) {
  obs::Counter& c = obs::registry().counter("test.digest.ctr");
  const std::uint64_t before = obs::registry().digest(obs::Plane::Virtual);
  c.add();
  const std::uint64_t after = obs::registry().digest(obs::Plane::Virtual);
  EXPECT_NE(before, after);
  EXPECT_EQ(after, obs::registry().digest(obs::Plane::Virtual));
}

// --- Fleet integration -----------------------------------------------------

TEST(FleetMetrics, VirtualExportByteIdenticalAcrossJobCounts) {
  ScopedEnv trace("VROOM_TRACE", nullptr);
  ScopedEnv profile("VROOM_PROFILE", nullptr);
  const web::Corpus corpus = web::Corpus::smoke(7);
  harness::RunOptions opt;
  opt.seed = 42;

  std::vector<std::string> csvs, proms, manifests;
  for (const char* jobs : {"1", "2", "4"}) {
    const std::string dir = fresh_dir(std::string("jobs") + jobs);
    ScopedEnv jobs_env("VROOM_JOBS", jobs);
    ScopedEnv out_env("VROOM_OUT_DIR", dir.c_str());
    fleet::run_corpus(corpus, baselines::vroom(), opt);
    csvs.push_back(read_file(dir + "/metrics.csv"));
    proms.push_back(read_file(dir + "/metrics.prom"));
    // The wall sidecar must exist but is free to differ.
    read_file(dir + "/wall_sidecar.prom");
    manifests.push_back(read_file(dir + "/manifest.json"));
  }
  for (std::size_t i = 1; i < csvs.size(); ++i) {
    EXPECT_EQ(csvs[0], csvs[i]) << "metrics.csv differs at jobs index " << i;
    EXPECT_EQ(proms[0], proms[i])
        << "metrics.prom differs at jobs index " << i;
  }
  // The export actually carries the run: one job per (page, load) and the
  // summed virtual time.
  EXPECT_NE(proms[0].find("vroom_fleet_jobs_completed " +
                          std::to_string(corpus.pages().size() *
                                         opt.loads_per_page)),
            std::string::npos)
      << proms[0];
  EXPECT_NE(proms[0].find("vroom_fleet_sim_virtual_us"), std::string::npos);
  // Manifests embed a digest of exactly that virtual exposition.
  const auto manifest = obs::Manifest::from_json(manifests[0]);
  ASSERT_TRUE(manifest.has_value());
  ASSERT_NE(manifest->find("digest.metrics_prom"), nullptr);
  EXPECT_EQ(*manifest->find("kind"), "fleet_sweep");
}

TEST(FleetMetrics, DisabledPathLeavesResultsIdentical) {
  ScopedEnv trace("VROOM_TRACE", nullptr);
  ScopedEnv jobs_env("VROOM_JOBS", "2");
  const web::Corpus corpus = web::Corpus::smoke(7);
  harness::RunOptions opt;
  opt.seed = 42;

  harness::CorpusResult with_metrics, without_metrics;
  {
    const std::string dir = fresh_dir("disabled_path");
    ScopedEnv out_env("VROOM_OUT_DIR", dir.c_str());
    ScopedEnv profile_env("VROOM_PROFILE", "1");
    with_metrics = fleet::run_corpus(corpus, baselines::vroom(), opt);
  }
  {
    ScopedEnv out_env("VROOM_OUT_DIR", nullptr);
    ScopedEnv profile_env("VROOM_PROFILE", nullptr);
    without_metrics = fleet::run_corpus(corpus, baselines::vroom(), opt);
  }
  ASSERT_EQ(with_metrics.loads.size(), without_metrics.loads.size());
  for (std::size_t i = 0; i < with_metrics.loads.size(); ++i) {
    EXPECT_EQ(with_metrics.loads[i].plt, without_metrics.loads[i].plt);
    EXPECT_EQ(with_metrics.loads[i].speed_index_ms,
              without_metrics.loads[i].speed_index_ms);
    EXPECT_EQ(with_metrics.loads[i].bytes_fetched,
              without_metrics.loads[i].bytes_fetched);
  }
}

// One artifact directory: VROOM_OUT_DIR alone takes the metric export and
// the run manifest beside the run's table CSVs, and VROOM_METRICS, which
// is no knob, writes nothing anywhere.
TEST(FleetMetrics, OutDirTakesMetricsAndManifestBesideTables) {
  ScopedEnv trace("VROOM_TRACE", nullptr);
  ScopedEnv profile("VROOM_PROFILE", nullptr);
  const web::Corpus corpus = web::Corpus::smoke(7, /*count=*/2);
  harness::RunOptions opt;
  opt.seed = 42;
  opt.loads_per_page = 1;
  const auto run = [&] {
    const harness::CorpusResult result =
        fleet::run_corpus(corpus, baselines::http2_baseline(), opt);
    harness::maybe_export("Table", {{"PLT", result.plt_seconds()}});
  };
  const auto listing = [](const std::string& dir) {
    std::set<std::string> names;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      names.insert(entry.path().filename().string());
    }
    return names;
  };

  const std::string out = fresh_dir("out_dir_only");
  {
    ScopedEnv out_env("VROOM_OUT_DIR", out.c_str());
    run();
  }
  EXPECT_EQ(listing(out),
            (std::set<std::string>{"manifest.json", "metrics.csv",
                                   "metrics.prom", "table.csv",
                                   "wall_sidecar.prom"}));
  const auto manifest = obs::Manifest::read(out + "/manifest.json");
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(*manifest->find("env.out_dir"), out);
  EXPECT_EQ(manifest->find("env.metrics"), nullptr);
  // The manifest's digest is the one of the export beside it.
  EXPECT_EQ(read_file(out + "/metrics.prom"),
            obs::registry().to_exposition(obs::Plane::Virtual));
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(
                    obs::registry().digest(obs::Plane::Virtual)));
  EXPECT_EQ(*manifest->find("digest.metrics_prom"), digest);

  const std::string ignored = fresh_dir("metrics_only");
  {
    ScopedEnv out_env("VROOM_OUT_DIR", nullptr);
    ScopedEnv metrics_env("VROOM_METRICS", ignored.c_str());
    run();
  }
  EXPECT_FALSE(std::filesystem::exists(ignored));
  EXPECT_FALSE(obs::metrics_enabled());
}

// --- Phase profiler --------------------------------------------------------

TEST(PhaseProfiler, AttributesNestedSpansAsSelfTime) {
  obs::set_profiling_enabled(true);
  obs::reset_phase_profile();
  {
    obs::PhaseTimer outer(obs::Phase::WorldBuild);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      obs::PhaseTimer inner(obs::Phase::Sim);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  const obs::PhaseProfile profile = obs::collect_phase_profile();
  obs::set_profiling_enabled(false);
  const double build =
      profile.seconds[static_cast<int>(obs::Phase::WorldBuild)];
  const double sim = profile.seconds[static_cast<int>(obs::Phase::Sim)];
  EXPECT_GT(build, 0.0);
  EXPECT_GT(sim, 0.0);
  // Self-time: the nested sim sleep is NOT double counted into world-build.
  EXPECT_LT(build, 2.0 * sim + 0.050);
  EXPECT_EQ(profile.spans[static_cast<int>(obs::Phase::WorldBuild)], 1);
  const std::string table = obs::format_phase_profile(profile, build + sim);
  EXPECT_NE(table.find("world-build"), std::string::npos);
  EXPECT_NE(table.find("coverage"), std::string::npos);
}

// The deployment macro pass's level task: a population span, then a
// replay span over the rest of the task. Both land in their own rows.
TEST(PhaseProfiler, MacroPassPhasesHaveTheirOwnRows) {
  obs::set_profiling_enabled(true);
  obs::reset_phase_profile();
  {
    {
      obs::PhaseTimer population(obs::Phase::Population);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    obs::PhaseTimer replay(obs::Phase::Replay);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const obs::PhaseProfile profile = obs::collect_phase_profile();
  obs::set_profiling_enabled(false);
  for (const obs::Phase phase : {obs::Phase::Population, obs::Phase::Replay}) {
    const int p = static_cast<int>(phase);
    EXPECT_GT(profile.seconds[p], 0.0) << obs::phase_name(phase);
    EXPECT_EQ(profile.spans[p], 1) << obs::phase_name(phase);
  }
  EXPECT_EQ(profile.spans[static_cast<int>(obs::Phase::Sim)], 0);
  const std::string table =
      obs::format_phase_profile(profile, profile.total_seconds());
  EXPECT_NE(table.find("population"), std::string::npos) << table;
  EXPECT_NE(table.find("replay"), std::string::npos) << table;
}

TEST(PhaseProfiler, DisabledTimersRecordNothing) {
  obs::set_profiling_enabled(false);
  obs::reset_phase_profile();
  {
    obs::PhaseTimer t(obs::Phase::Sim);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const obs::PhaseProfile profile = obs::collect_phase_profile();
  EXPECT_EQ(profile.total_seconds(), 0.0);
  EXPECT_EQ(profile.spans[static_cast<int>(obs::Phase::Sim)], 0);
}

// --- Manifest --------------------------------------------------------------

TEST(Manifest, RoundTripsTrickyEscapesExactly) {
  obs::Manifest m;
  m.set("plain", "value");
  m.set("quotes", "say \"hi\" twice");
  m.set("backslash", "C:\\path\\to\\thing");
  m.set("newline", "line1\nline2\r\ttabbed");
  m.set("control", std::string("a\x01b\x1f", 4));
  m.set("int", std::int64_t{-42});
  m.set("uint", std::uint64_t{18446744073709551615ULL});
  m.set("plain", "overwritten");  // keeps its original position

  const std::string json = m.to_json();
  const auto back = obs::Manifest::from_json(json);
  ASSERT_TRUE(back.has_value()) << json;
  EXPECT_EQ(*back, m);
  EXPECT_EQ(back->entries().front().first, "plain");
  EXPECT_EQ(back->entries().front().second, "overwritten");
  ASSERT_NE(back->find("uint"), nullptr);
  EXPECT_EQ(*back->find("uint"), "18446744073709551615");

  // On disk through the run writer, which creates the directory and appends
  // the two export digests after the entries it was given.
  const std::string dir = fresh_dir("manifest") + "/nested/dir";
  ASSERT_TRUE(obs::export_run(dir, m));
  const auto from_disk = obs::Manifest::read(dir + "/manifest.json");
  ASSERT_TRUE(from_disk.has_value());
  ASSERT_EQ(from_disk->entries().size(), m.entries().size() + 2);
  EXPECT_TRUE(std::equal(m.entries().begin(), m.entries().end(),
                         from_disk->entries().begin()));
  EXPECT_NE(from_disk->find("digest.metrics_prom"), nullptr);
  EXPECT_NE(from_disk->find("digest.wall_sidecar_prom"), nullptr);
}

TEST(Manifest, RejectsMalformedInput) {
  EXPECT_FALSE(obs::Manifest::from_json("").has_value());
  EXPECT_FALSE(obs::Manifest::from_json("{\"a\":1}").has_value());  // number
  EXPECT_FALSE(obs::Manifest::from_json("{\"a\":\"b\"").has_value());
  EXPECT_FALSE(obs::Manifest::from_json("[\"a\"]").has_value());
  EXPECT_FALSE(obs::Manifest::from_json("{\"a\":\"1\",}").has_value());
  // Trailing bytes after the object, and a key stored twice.
  EXPECT_FALSE(obs::Manifest::from_json("{\"a\":\"1\"} junk").has_value());
  EXPECT_FALSE(obs::Manifest::from_json("{\"a\":\"1\"}}").has_value());
  EXPECT_FALSE(obs::Manifest::from_json("{}{}").has_value());
  EXPECT_FALSE(
      obs::Manifest::from_json("{\"a\":\"1\",\"a\":\"2\"}").has_value());
  EXPECT_TRUE(obs::Manifest::from_json("{}").has_value());
  EXPECT_TRUE(obs::Manifest::from_json(" {\"a\":\"1\"}\n\n").has_value());
}

// --- Deployment: histogram percentiles + macro-trace audit ----------------

deploy::ScenarioConfig small_scenario() {
  deploy::ScenarioConfig cfg;
  cfg.offered_levels = {0.2, 2.0};
  cfg.stale_ages = {sim::hours(1)};
  cfg.population.users = 200;
  cfg.population.window = sim::minutes(30);
  return cfg;
}

TEST(DeployObs, HistogramPercentilesTrackExactOnesWithinOneBucket) {
  ScopedEnv trace("VROOM_TRACE", nullptr);
  const web::Corpus corpus = web::Corpus::smoke(42, 3);

  const deploy::DeploymentReport report =
      deploy::run_deployment(corpus, small_scenario());
  ASSERT_FALSE(report.levels.empty());
  for (const deploy::LevelReport& level : report.levels) {
    ASSERT_FALSE(level.plt_seconds.empty());
    for (const auto& [exact, hist] :
         {std::pair<double, double>{level.p50_plt_s, level.hist_p50_plt_s},
          std::pair<double, double>{level.p99_plt_s, level.hist_p99_plt_s}}) {
      const double width_s =
          static_cast<double>(obs::Histogram::bucket_width_at(
              static_cast<std::int64_t>(exact * 1e6))) /
          1e6;
      EXPECT_NEAR(hist, exact, width_s)
          << "hist " << hist << "s vs exact " << exact << "s";
    }
  }
}

TEST(DeployObs, MacroTraceAuditPassesAndCatchesInjectedViolations) {
  ScopedEnv trace("VROOM_TRACE", nullptr);
  const web::Corpus corpus = web::Corpus::smoke(42, 3);

  std::vector<trace::Recorder::Event> events;
  std::vector<std::string> track_names;
  int audited_levels = 0;
  deploy::ScenarioConfig cfg = small_scenario();
  cfg.trace_sink = [&](int level, const trace::Recorder& recorder) {
    const obs::MacroAuditReport audit = obs::audit_macro_trace(recorder);
    EXPECT_TRUE(audit.ok()) << "level " << level << ": " << audit.to_string();
    EXPECT_GT(audit.page_views, 0);
    EXPECT_GT(audit.transmissions, 0);
    EXPECT_GT(audit.origins, 0);
    ++audited_levels;
    if (level == 1) {  // the contended level: keep a copy to perturb
      events = recorder.events();
      int max_track = -1;
      for (const auto& e : events) max_track = std::max(max_track, e.track);
      for (int t = 0; t <= max_track; ++t) {
        track_names.push_back(recorder.track_name(t));
      }
    }
  };
  deploy::run_deployment(corpus, cfg);
  EXPECT_EQ(audited_levels, 2);
  ASSERT_FALSE(events.empty());

  const auto perturb_arg = [](std::string args, const char* key,
                              std::int64_t delta) {
    const std::string needle = std::string("\"") + key + "\":";
    const std::size_t at = args.find(needle);
    EXPECT_NE(at, std::string::npos) << args;
    std::size_t end = at + needle.size();
    while (end < args.size() &&
           (std::isdigit(static_cast<unsigned char>(args[end])) ||
            args[end] == '-')) {
      ++end;
    }
    const std::int64_t value =
        std::stoll(args.substr(at + needle.size(), end - at - needle.size())) +
        delta;
    return args.substr(0, at + needle.size()) + std::to_string(value) +
           args.substr(end);
  };

  {
    // FIFO violation: one transmission claims to start 1ms late.
    std::vector<trace::Recorder::Event> bad = events;
    for (auto& e : bad) {
      if (e.name == "deploy.origin_tx") {
        e.args_json = perturb_arg(e.args_json, "start_us", 1000);
        break;
      }
    }
    const obs::MacroAuditReport audit =
        obs::audit_macro_trace(bad, track_names);
    EXPECT_FALSE(audit.ok());
    ASSERT_FALSE(audit.errors.empty());
    EXPECT_NE(audit.errors[0].find("FIFO"), std::string::npos)
        << audit.errors[0];
  }
  {
    // Arrival-order violation: an early page view re-emitted at the end.
    std::vector<trace::Recorder::Event> bad = events;
    for (const auto& e : events) {
      if (e.name == "deploy.page_view") {
        bad.push_back(e);
        bad.back().ts -= 1;  // strictly before the stream's last arrival
        break;
      }
    }
    const obs::MacroAuditReport audit =
        obs::audit_macro_trace(bad, track_names);
    EXPECT_FALSE(audit.ok());
  }
  {
    // Conservation violation: a link summary under-reports its busy time.
    std::vector<trace::Recorder::Event> bad = events;
    for (auto& e : bad) {
      if (e.name == "deploy.link_summary") {
        e.args_json = perturb_arg(e.args_json, "busy_us", -1);
        break;
      }
    }
    const obs::MacroAuditReport audit =
        obs::audit_macro_trace(bad, track_names);
    EXPECT_FALSE(audit.ok());
    ASSERT_FALSE(audit.errors.empty());
    EXPECT_NE(audit.errors[0].find("conservation"), std::string::npos)
        << audit.errors[0];
  }
  {
    // Partial-parse laxness: a non-integer bytes value must be reported as a
    // missing arg, not silently truncated ("bytes":12.5 used to read as 12
    // and pass — the strict whole-value contract of harness/env.cpp).
    std::vector<trace::Recorder::Event> bad = events;
    for (auto& e : bad) {
      if (e.name == "deploy.origin_tx") {
        const std::string needle = "\"bytes\":";
        const std::size_t at = e.args_json.find(needle);
        ASSERT_NE(at, std::string::npos) << e.args_json;
        std::size_t end = at + needle.size();
        while (end < e.args_json.size() &&
               std::isdigit(static_cast<unsigned char>(e.args_json[end]))) {
          ++end;
        }
        e.args_json.insert(end, ".5");
        break;
      }
    }
    const obs::MacroAuditReport audit =
        obs::audit_macro_trace(bad, track_names);
    EXPECT_FALSE(audit.ok());
    ASSERT_FALSE(audit.errors.empty());
    EXPECT_NE(audit.errors[0].find("missing"), std::string::npos)
        << audit.errors[0];
  }
}

// A deployment run leaves one manifest.json, the scenario's: written after
// the nested sweep's, it replaces that one, and its digest is the one of
// the metric export on disk beside it (the export the macro pass rewrote).
TEST(DeployObs, MetricsExportCoversMacroPassAndStaysByteIdentical) {
  ScopedEnv trace("VROOM_TRACE", nullptr);
  ScopedEnv profile("VROOM_PROFILE", nullptr);
  const web::Corpus corpus = web::Corpus::smoke(42, 3);
  const deploy::ScenarioConfig cfg = small_scenario();

  std::vector<std::string> proms;
  for (const char* jobs : {"1", "4"}) {
    SCOPED_TRACE(std::string("VROOM_JOBS=") + jobs);
    const std::string dir = fresh_dir(std::string("deploy_jobs") + jobs);
    ScopedEnv jobs_env("VROOM_JOBS", jobs);
    ScopedEnv out_env("VROOM_OUT_DIR", dir.c_str());
    deploy::run_deployment(corpus, cfg);
    proms.push_back(read_file(dir + "/metrics.prom"));
    EXPECT_FALSE(std::filesystem::exists(dir + "/deploy_manifest.json"));
    const auto manifest = obs::Manifest::read(dir + "/manifest.json");
    ASSERT_TRUE(manifest.has_value());
    const auto entry = [&manifest](const std::string& key) {
      const std::string* value = manifest->find(key);
      return value != nullptr ? *value : "<no " + key + ">";
    };
    EXPECT_EQ(entry("kind"), "deploy_scenario");
    char digest[17];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(sim::hash64(proms.back())));
    EXPECT_EQ(entry("digest.metrics_prom"), digest);
    // The fleet's header: every knob and the worker count.
    EXPECT_EQ(entry("env.jobs"), jobs);
    EXPECT_EQ(entry("env.out_dir"), dir);
    EXPECT_EQ(entry("workers"), jobs);
    // Every hint condition, fresh first, and every device.
    const std::vector<baselines::Strategy> conditions = {
        baselines::vroom_stale_hints(0),
        baselines::vroom_stale_hints(cfg.stale_ages[0]),
        baselines::http2_baseline()};
    EXPECT_EQ(entry("conditions"), std::to_string(conditions.size()));
    for (std::size_t c = 0; c < conditions.size(); ++c) {
      const std::string prefix = "condition." + std::to_string(c) + ".";
      EXPECT_EQ(entry(prefix + "strategy"), conditions[c].name);
      EXPECT_EQ(entry(prefix + "fingerprint"), conditions[c].fingerprint());
    }
    EXPECT_EQ(manifest->find("fresh.strategy"), nullptr);
    const std::vector<deploy::DeviceShare> mix = deploy::default_device_mix();
    EXPECT_EQ(entry("devices"), std::to_string(mix.size()));
    for (std::size_t d = 0; d < mix.size(); ++d) {
      EXPECT_EQ(entry("device." + std::to_string(d) + ".name"),
                mix[d].device.name);
    }
  }
  EXPECT_EQ(proms[0], proms[1]);
  EXPECT_NE(proms[0].find("vroom_deploy_macro_plt_us_count"),
            std::string::npos)
      << proms[0];
  EXPECT_NE(proms[0].find("vroom_deploy_frontend_cache_hits"),
            std::string::npos);
}

}  // namespace
}  // namespace vroom
