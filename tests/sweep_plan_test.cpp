// SweepPlan: a multi-corpus, mixed-options plan executed on one shared pool
// must return, cell by cell, results bit-identical to standalone serial
// run_corpus calls — at any worker count. One worker runs the loads in plan
// (cell, page, load) order; per-cell telemetry must add up; trace-counter
// CSVs are named by label; a cell with no loads per page or that sets a
// shared browser cache must be rejected.
#include "fleet/fleet.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/strategies.h"
#include "browser/cache.h"
#include "harness/experiment.h"
#include "harness/export.h"
#include "scoped_env.h"
#include "trace/trace.h"
#include "web/corpus.h"

namespace vroom {
namespace {

using testutil::ScopedEnv;

void expect_identical(const browser::LoadResult& a,
                      const browser::LoadResult& b) {
  EXPECT_EQ(a.finished, b.finished);
  EXPECT_EQ(a.plt, b.plt);
  EXPECT_EQ(a.aft, b.aft);
  EXPECT_EQ(a.speed_index_ms, b.speed_index_ms);  // bitwise, not approx
  EXPECT_EQ(a.ttfb, b.ttfb);
  EXPECT_EQ(a.first_paint, b.first_paint);
  EXPECT_EQ(a.dom_content_loaded, b.dom_content_loaded);
  EXPECT_EQ(a.net_wait, b.net_wait);
  EXPECT_EQ(a.cpu_busy, b.cpu_busy);
  EXPECT_EQ(a.bytes_fetched, b.bytes_fetched);
  EXPECT_EQ(a.wasted_bytes, b.wasted_bytes);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  ASSERT_EQ(a.timings.size(), b.timings.size());
  for (std::size_t i = 0; i < a.timings.size(); ++i) {
    EXPECT_EQ(a.timings[i].url, b.timings[i].url);
    EXPECT_EQ(a.timings[i].bytes, b.timings[i].bytes);
    EXPECT_EQ(a.timings[i].discovered, b.timings[i].discovered);
    EXPECT_EQ(a.timings[i].requested, b.timings[i].requested);
    EXPECT_EQ(a.timings[i].complete, b.timings[i].complete);
    EXPECT_EQ(a.timings[i].processed, b.timings[i].processed);
  }
}

void expect_identical_loads(const harness::CorpusResult& a,
                            const harness::CorpusResult& b) {
  ASSERT_EQ(a.loads.size(), b.loads.size());
  for (std::size_t i = 0; i < a.loads.size(); ++i) {
    expect_identical(a.loads[i], b.loads[i]);
  }
}

harness::RunOptions small_options(std::uint64_t seed = 42) {
  harness::RunOptions opt;
  opt.seed = seed;
  return opt;
}

// The paper-shaped stress case: two corpora of different sizes, strategies
// repeated across corpora, and one cell with its own seed and load count.
fleet::SweepPlan mixed_plan(const web::Corpus& a, const web::Corpus& b) {
  harness::RunOptions heavy = small_options(/*seed=*/1234);
  heavy.loads_per_page = 1;
  fleet::SweepPlan plan;
  plan.add(a, baselines::http2_baseline())
      .add(a, baselines::vroom())
      .add(b, baselines::vroom())
      .add(b, baselines::http11(), heavy);
  return plan;
}

TEST(SweepPlan, MultiCorpusBitIdenticalToStandaloneRuns) {
  ScopedEnv jobs_env("VROOM_JOBS", nullptr);
  const web::Corpus a = web::Corpus::smoke(7);
  const web::Corpus b = web::Corpus::smoke(11, /*count=*/3);
  const fleet::SweepPlan plan = mixed_plan(a, b);

  // Reference: one standalone serial run_corpus per cell.
  std::vector<harness::CorpusResult> expected;
  for (const fleet::SweepCell& cell : plan.cells) {
    fleet::FleetOptions serial;
    serial.workers = 1;
    expected.push_back(
        fleet::run_corpus(*cell.corpus, cell.strategy, cell.options, serial));
  }

  for (int workers : {1, 2, 4}) {
    fleet::FleetOptions fo;
    fo.workers = workers;
    const auto results = fleet::run_plan(plan, fo);
    ASSERT_EQ(results.size(), plan.cells.size()) << "workers=" << workers;
    for (std::size_t c = 0; c < results.size(); ++c) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " cell=" + std::to_string(c));
      EXPECT_EQ(results[c].strategy, expected[c].strategy);
      expect_identical_loads(results[c], expected[c]);
    }
  }
}

TEST(SweepPlan, CustomLabelsFlowToResults) {
  ScopedEnv jobs_env("VROOM_JOBS", nullptr);
  const web::Corpus a = web::Corpus::smoke(7, /*count=*/2);
  const web::Corpus b = web::Corpus::smoke(11, /*count=*/2);
  harness::RunOptions opt = small_options();
  opt.loads_per_page = 1;

  fleet::SweepPlan plan;
  plan.add(a, baselines::http11(), opt, "top100")
      .add(b, baselines::http11(), opt, "news_sports")
      .add(b, baselines::vroom(), opt);  // empty label → strategy name

  fleet::FleetOptions fo;
  fo.workers = 2;
  const auto results = fleet::run_plan(plan, fo);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].strategy, "top100");
  EXPECT_EQ(results[1].strategy, "news_sports");
  EXPECT_EQ(results[2].strategy, baselines::vroom().name);

  // Labels are presentation only: the loads match an unlabeled run exactly.
  fleet::FleetOptions serial;
  serial.workers = 1;
  expect_identical_loads(results[0],
                         fleet::run_corpus(a, baselines::http11(), opt, serial));
}

TEST(SweepPlan, PerCellTelemetryAddsUp) {
  ScopedEnv jobs_env("VROOM_JOBS", nullptr);
  const web::Corpus a = web::Corpus::smoke(7);
  const web::Corpus b = web::Corpus::smoke(11, /*count=*/3);
  const fleet::SweepPlan plan = mixed_plan(a, b);

  fleet::Telemetry telemetry;
  fleet::FleetOptions fo;
  fo.workers = 4;
  fo.telemetry = &telemetry;
  (void)fleet::run_plan(plan, fo);

  ASSERT_EQ(telemetry.cells.size(), plan.cells.size());
  std::size_t jobs = 0;
  double busy = 0.0, simulated = 0.0;
  for (std::size_t c = 0; c < telemetry.cells.size(); ++c) {
    const fleet::CellTelemetry& cell = telemetry.cells[c];
    const std::size_t expected_jobs =
        plan.cells[c].corpus->size() *
        static_cast<std::size_t>(plan.cells[c].options.loads_per_page);
    EXPECT_EQ(cell.jobs, expected_jobs) << "cell=" << c;
    EXPECT_EQ(cell.label, plan.cells[c].strategy.name);
    EXPECT_GT(cell.busy_seconds, 0.0);
    EXPECT_GT(cell.simulated_seconds, 0.0);
    jobs += cell.jobs;
    busy += cell.busy_seconds;
    simulated += cell.simulated_seconds;
  }
  EXPECT_EQ(jobs, telemetry.jobs);
  EXPECT_DOUBLE_EQ(busy, telemetry.busy_seconds);
  EXPECT_NEAR(simulated, telemetry.simulated_seconds, 1e-9);
}

// Jobs dispatch in plan order: one worker runs every load in (cell, page,
// load) order — the order of run_page_median over each cell's pages —
// whatever the pages' sizes.
TEST(SweepPlan, OneWorkerRunsLoadsInPlanOrder) {
  ScopedEnv jobs_env("VROOM_JOBS", nullptr);
  ScopedEnv trace_env("VROOM_TRACE", nullptr);
  const web::Corpus a = web::Corpus::smoke(7);
  const web::Corpus b = web::Corpus::smoke(11, /*count=*/3);
  fleet::SweepPlan plan = mixed_plan(a, b);

  // The pages differ in size, and not in descending order, so a dispatch
  // by size would run them in another order.
  std::vector<std::size_t> sizes;
  for (const fleet::SweepCell& cell : plan.cells) {
    for (const web::PageModel& page : cell.corpus->pages()) {
      sizes.insert(sizes.end(),
                   static_cast<std::size_t>(cell.options.loads_per_page),
                   page.size());
    }
  }
  ASSERT_FALSE(std::is_sorted(sizes.rbegin(), sizes.rend()));

  // A load is known by its cell and its trace counters, which differ
  // between pages of different sizes.
  using Visit = std::pair<std::size_t, std::map<std::string, std::int64_t>>;
  std::vector<Visit> visits;
  for (std::size_t c = 0; c < plan.cells.size(); ++c) {
    plan.cells[c].options.trace_sink = [&visits,
                                        c](const trace::Recorder& rec) {
      visits.emplace_back(c, rec.counters().values());
    };
  }
  fleet::FleetOptions serial;
  serial.workers = 1;
  (void)fleet::run_plan(plan, serial);
  const std::vector<Visit> ran = std::move(visits);

  visits.clear();
  for (const fleet::SweepCell& cell : plan.cells) {
    for (const web::PageModel& page : cell.corpus->pages()) {
      (void)harness::run_page_median(page, cell.strategy, cell.options);
    }
  }
  ASSERT_EQ(ran.size(), sizes.size());
  ASSERT_EQ(visits.size(), sizes.size());
  for (std::size_t i = 0; i < ran.size(); ++i) {
    EXPECT_EQ(ran[i].first, visits[i].first) << "load " << i;
    EXPECT_TRUE(ran[i].second == visits[i].second) << "load " << i;
  }
}

// Trace-counter CSVs are named by cell label: a slug the plan already used
// takes _2, _3, ... in plan order, so dropping a cell renames only later
// cells with the same slug, and every file holds its own cell's totals.
TEST(SweepPlan, TraceCounterFilesNamedByLabel) {
  ScopedEnv jobs_env("VROOM_JOBS", nullptr);
  ScopedEnv profile_env("VROOM_PROFILE", nullptr);
  const std::string root =
      testing::TempDir() + "vroom_sweep_counter_names";
  std::filesystem::remove_all(root);
  const std::string traces = root + "/traces";
  ScopedEnv trace_env("VROOM_TRACE", traces.c_str());
  const web::Corpus a = web::Corpus::smoke(7, /*count=*/2);
  const web::Corpus b = web::Corpus::smoke(11, /*count=*/2);
  harness::RunOptions opt = small_options();
  opt.loads_per_page = 1;

  // Runs `plan` into its own artifact directory and returns each
  // trace-counter file's name and contents, and the CSV each cell's
  // totals make.
  const auto run = [&](const fleet::SweepPlan& plan, const std::string& dir) {
    ScopedEnv out_env("VROOM_OUT_DIR", dir.c_str());
    fleet::FleetOptions fo;
    fo.workers = 2;
    std::vector<std::string> cells;
    for (const harness::CorpusResult& r : fleet::run_plan(plan, fo)) {
      cells.push_back(harness::counters_to_csv(r.counter_totals()));
    }
    std::map<std::string, std::string> files;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("trace_counters_", 0) != 0) continue;
      std::ifstream f(entry.path(), std::ios::binary);
      std::ostringstream text;
      text << f.rdbuf();
      files[name] = text.str();
    }
    return std::pair(files, cells);
  };

  // [A, B, A]: the two HTTP/1.1 cells share a label, as in fig01.
  fleet::SweepPlan aba;
  aba.add(a, baselines::http11(), opt)
      .add(b, baselines::http2_baseline(), opt)
      .add(b, baselines::http11(), opt);
  const auto [aba_files, aba_cells] = run(aba, root + "/aba");
  EXPECT_EQ(aba_files, (std::map<std::string, std::string>{
                           {"trace_counters_http_1_1.csv", aba_cells[0]},
                           {"trace_counters_http_2_baseline.csv", aba_cells[1]},
                           {"trace_counters_http_1_1_2.csv", aba_cells[2]}}));
  EXPECT_NE(aba_cells[0], aba_cells[2]);

  // [B, A]: the first A dropped. B keeps its name and contents; the later
  // A takes the slug's plain name.
  fleet::SweepPlan ba;
  ba.add(b, baselines::http2_baseline(), opt).add(b, baselines::http11(), opt);
  const auto [ba_files, ba_cells] = run(ba, root + "/ba");
  EXPECT_EQ(ba_files, (std::map<std::string, std::string>{
                          {"trace_counters_http_2_baseline.csv", aba_cells[1]},
                          {"trace_counters_http_1_1.csv", aba_cells[2]}}));
  EXPECT_EQ(ba_cells[0], aba_cells[1]);
  EXPECT_EQ(ba_cells[1], aba_cells[2]);
}

// A cache shared by a cell's loads would make each result depend on the
// loads before it, so run_plan refuses such a cell, naming it, before any
// load of the plan runs — at any worker count.
TEST(SweepPlan, RejectsCellThatSetsACache) {
  ScopedEnv jobs_env("VROOM_JOBS", nullptr);
  const web::Corpus corpus = web::Corpus::smoke(7, /*count=*/2);
  std::atomic<int> loads{0};
  harness::RunOptions cold = small_options();
  cold.loads_per_page = 1;
  cold.trace_sink = [&loads](const trace::Recorder&) { ++loads; };
  harness::RunOptions warm = cold;
  browser::Cache cache;
  warm.cache = &cache;

  fleet::SweepPlan plan;
  plan.add(corpus, baselines::http2_baseline(), cold)
      .add(corpus, baselines::http2_baseline(), warm, "warm revisits");
  for (int workers : {1, 4}) {
    fleet::FleetOptions fo;
    fo.workers = workers;
    try {
      fleet::run_plan(plan, fo);
      ADD_FAILURE() << "no exception at workers=" << workers;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("cell 1 (\"warm revisits\")"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(loads.load(), 0) << "workers=" << workers;
    EXPECT_EQ(cache.size(), 0u) << "workers=" << workers;
  }
}

// A page's result is the median of its loads, so a cell with fewer than
// one load per page has no result: run_plan refuses it, naming it, before
// any load of the plan runs, at any worker count, and run_page_median
// refuses the same options.
TEST(SweepPlan, RejectsCellWithoutLoads) {
  ScopedEnv jobs_env("VROOM_JOBS", nullptr);
  const web::Corpus corpus = web::Corpus::smoke(7, /*count=*/2);
  std::atomic<int> loads{0};
  harness::RunOptions one = small_options();
  one.loads_per_page = 1;
  one.trace_sink = [&loads](const trace::Recorder&) { ++loads; };
  for (const int bad : {0, -1}) {
    harness::RunOptions none = one;
    none.loads_per_page = bad;
    fleet::SweepPlan plan;
    plan.add(corpus, baselines::http2_baseline(), one)
        .add(corpus, baselines::http2_baseline(), none, "no loads");
    for (int workers : {1, 4}) {
      fleet::FleetOptions fo;
      fo.workers = workers;
      try {
        fleet::run_plan(plan, fo);
        ADD_FAILURE() << "no exception at loads_per_page=" << bad
                      << ", workers=" << workers;
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("cell 1 (\"no loads\")"),
                  std::string::npos)
            << e.what();
      }
      EXPECT_EQ(loads.load(), 0)
          << "loads_per_page=" << bad << ", workers=" << workers;
    }
    EXPECT_THROW(harness::run_page_median(corpus.page(0),
                                          baselines::http2_baseline(), none),
                 std::invalid_argument)
        << "loads_per_page=" << bad;
  }
}

TEST(SweepPlan, EmptyPlanReturnsNoResults) {
  const fleet::SweepPlan plan;
  const auto results = fleet::run_plan(plan);
  EXPECT_TRUE(results.empty());
}

}  // namespace
}  // namespace vroom
