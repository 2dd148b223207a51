// SweepPlan: a multi-corpus, mixed-options plan executed on one shared pool
// must return, cell by cell, results bit-identical to standalone serial
// run_corpus calls — at any worker count. Longest-job-first dispatch must be
// deterministic and must never leak into results; per-cell telemetry must
// add up; a cell with no loads per page or that sets a shared browser cache
// must be rejected.
#include "fleet/fleet.h"

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/strategies.h"
#include "browser/cache.h"
#include "harness/experiment.h"
#include "scoped_env.h"
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

TEST(JobOrdering, LongestFirstIsDeterministicAndDescending) {
  // 2 cells × 3 pages × 2 loads with synthetic sizes: size depends only on
  // (cell, page), so the 2 loads of a page tie and must break by identity.
  std::vector<fleet::Job> jobs;
  for (int c = 0; c < 2; ++c) {
    for (int p = 0; p < 3; ++p) {
      for (int l = 0; l < 2; ++l) jobs.push_back(fleet::Job{c, p, l});
    }
  }
  const auto size_of = [](const fleet::Job& j) -> std::size_t {
    const std::size_t sizes[2][3] = {{5, 9, 5}, {9, 2, 7}};
    return sizes[j.cell_index][j.page_index];
  };
  const auto a = fleet::order_longest_first(jobs, size_of);
  const auto b = fleet::order_longest_first(jobs, size_of);
  ASSERT_EQ(a.size(), jobs.size());

  // Deterministic: two invocations agree element-wise.
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cell_index, b[i].cell_index);
    EXPECT_EQ(a[i].page_index, b[i].page_index);
    EXPECT_EQ(a[i].load_index, b[i].load_index);
  }

  // Sizes never increase along the dispatch order.
  for (std::size_t i = 1; i < a.size(); ++i) {
    EXPECT_GE(size_of(a[i - 1]), size_of(a[i]));
  }

  // Equal sizes break ties by (cell, page, load) ascending: the two size-9
  // pages are (cell 0, page 1) then (cell 1, page 0), loads in order.
  EXPECT_EQ(a[0].cell_index, 0);
  EXPECT_EQ(a[0].page_index, 1);
  EXPECT_EQ(a[0].load_index, 0);
  EXPECT_EQ(a[1].load_index, 1);
  EXPECT_EQ(a[2].cell_index, 1);
  EXPECT_EQ(a[2].page_index, 0);
  // Nothing lost or duplicated: it is a permutation of the input grid.
  std::vector<int> seen(jobs.size(), 0);
  for (const fleet::Job& j : a) {
    seen[static_cast<std::size_t>((j.cell_index * 3 + j.page_index) * 2 +
                                  j.load_index)]++;
  }
  for (int count : seen) EXPECT_EQ(count, 1);
}

TEST(SweepPlan, EmptyPlanReturnsNoResults) {
  const fleet::SweepPlan plan;
  const auto results = fleet::run_plan(plan);
  EXPECT_TRUE(results.empty());
}

}  // namespace
}  // namespace vroom
