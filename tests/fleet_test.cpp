// Fleet runner: parallel sweeps must be bit-identical to the serial path,
// worker-count resolution must be robust, a failing load must reach the
// caller, and telemetry must add up.
#include "fleet/fleet.h"

#include <atomic>
#include <stdexcept>
#include <string>

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

void expect_identical(const harness::CorpusResult& a,
                      const harness::CorpusResult& b) {
  EXPECT_EQ(a.strategy, b.strategy);
  ASSERT_EQ(a.loads.size(), b.loads.size());
  for (std::size_t i = 0; i < a.loads.size(); ++i) {
    expect_identical(a.loads[i], b.loads[i]);
  }
}

harness::RunOptions small_options() {
  harness::RunOptions opt;
  opt.seed = 42;
  return opt;
}

TEST(Fleet, ParallelBitIdenticalToSerial) {
  ScopedEnv jobs_env("VROOM_JOBS", nullptr);
  const web::Corpus corpus = web::Corpus::smoke(7);
  const harness::RunOptions opt = small_options();

  for (const auto& strategy :
       {baselines::http2_baseline(), baselines::vroom()}) {
    fleet::FleetOptions serial;
    serial.workers = 1;
    fleet::FleetOptions parallel;
    parallel.workers = 4;
    const auto a = fleet::run_corpus(corpus, strategy, opt, serial);
    const auto b = fleet::run_corpus(corpus, strategy, opt, parallel);
    expect_identical(a, b);
  }
}

TEST(Fleet, MatrixMatchesPerStrategyRuns) {
  ScopedEnv jobs_env("VROOM_JOBS", nullptr);
  const web::Corpus corpus = web::Corpus::smoke(7);
  const harness::RunOptions opt = small_options();
  const std::vector<baselines::Strategy> strategies = {
      baselines::http2_baseline(), baselines::vroom()};

  fleet::FleetOptions fo;
  fo.workers = 3;
  const auto matrix = fleet::run_plan(
      fleet::SweepPlan{}.add_matrix(corpus, strategies, opt), fo);
  ASSERT_EQ(matrix.size(), strategies.size());
  for (std::size_t s = 0; s < strategies.size(); ++s) {
    fleet::FleetOptions serial;
    serial.workers = 1;
    expect_identical(matrix[s],
                     fleet::run_corpus(corpus, strategies[s], opt, serial));
  }
}

TEST(Fleet, WorkerCountResolution) {
  {
    ScopedEnv env("VROOM_JOBS", nullptr);
    EXPECT_EQ(fleet::resolve_worker_count(5), 5);  // explicit request wins
    EXPECT_GE(fleet::resolve_worker_count(0), 1);  // 0 → hardware default
  }
  {
    ScopedEnv env("VROOM_JOBS", "3");
    EXPECT_EQ(fleet::resolve_worker_count(0), 3);
    EXPECT_EQ(fleet::resolve_worker_count(2), 2);  // explicit beats env
  }
  // Garbage falls back to the hardware default instead of misbehaving.
  for (const char* bad : {"", "abc", "-4", "0", "8x"}) {
    ScopedEnv env("VROOM_JOBS", bad);
    EXPECT_GE(fleet::resolve_worker_count(0), 1) << "VROOM_JOBS=" << bad;
  }
}

// A malformed knob warns once per program, not once per load or per run:
// a parse that sees the malformed value the previous parse warned about
// stays quiet, so a second run, each of its run_tasks calls and each load
// add nothing to the run that warned.
TEST(Fleet, MalformedKnobWarnsOncePerRun) {
  ScopedEnv jobs_env("VROOM_JOBS", "abc");
  ScopedEnv trace_env("VROOM_TRACE", nullptr);
  const web::Corpus corpus = web::Corpus::smoke(7, /*count=*/2);
  testing::internal::CaptureStderr();
  const harness::CorpusResult result =
      fleet::run_corpus(corpus, baselines::http2_baseline(), small_options());
  fleet::run_tasks(2, [](std::size_t) {});
  fleet::run_corpus(corpus, baselines::http2_baseline(), small_options());
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(result.loads.size(), 2u);
  int warnings = 0;
  for (std::size_t at = err.find("[env] warning"); at != std::string::npos;
       at = err.find("[env] warning", at + 1)) {
    ++warnings;
  }
  EXPECT_EQ(warnings, 1) << err;
}

TEST(Fleet, RunTasksCoversEveryIndexExactlyOnce) {
  ScopedEnv jobs_env("VROOM_JOBS", nullptr);
  for (const int workers : {1, 2, 4, 16}) {
    std::vector<std::atomic<int>> hits(103);
    for (auto& h : hits) h.store(0);
    fleet::run_tasks(hits.size(),
                     [&](std::size_t i) { hits[i].fetch_add(1); }, workers);
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " at " << workers
                                   << " workers";
    }
  }
}

TEST(Fleet, RunTasksSerialPathPreservesIndexOrder) {
  ScopedEnv jobs_env("VROOM_JOBS", nullptr);
  std::vector<std::size_t> order;
  fleet::run_tasks(8, [&](std::size_t i) { order.push_back(i); },
                   /*workers=*/1);
  ASSERT_EQ(order.size(), 8u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  // Zero tasks is a no-op at any worker count, not a crash or a hang.
  fleet::run_tasks(0, [&](std::size_t) { FAIL() << "ran a task"; }, 4);
  // More workers than tasks must not invent extra calls.
  std::atomic<int> calls{0};
  fleet::run_tasks(2, [&](std::size_t) { calls.fetch_add(1); }, 16);
  EXPECT_EQ(calls.load(), 2);
}

TEST(Fleet, RunTasksRethrowsTaskExceptionAtAnyWorkerCount) {
  ScopedEnv jobs_env("VROOM_JOBS", nullptr);
  for (const int workers : {1, 4}) {
    std::atomic<int> calls{0};
    try {
      fleet::run_tasks(
          64,
          [&](std::size_t i) {
            calls.fetch_add(1);
            if (i == 5) throw std::invalid_argument("task 5");
          },
          workers);
      ADD_FAILURE() << "no exception at " << workers << " workers";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "task 5");
    }
    // Serially the throw stops the run at once; in the pool, tasks other
    // workers claimed before it may still finish.
    if (workers == 1) {
      EXPECT_EQ(calls.load(), 6);
    }
  }
}

TEST(Fleet, RunPlanForwardsLoadExceptionAtAnyWorkerCount) {
  ScopedEnv jobs_env("VROOM_JOBS", nullptr);
  const web::Corpus corpus = web::Corpus::smoke(7, /*count=*/2);
  harness::RunOptions opt = small_options();
  opt.trace_sink = [](const trace::Recorder&) {
    throw std::runtime_error("sink failed");
  };
  for (const int workers : {1, 4}) {
    try {
      fleet::run_corpus(corpus, baselines::http2_baseline(), opt, {workers});
      ADD_FAILURE() << "no exception at " << workers << " workers";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "sink failed");
    }
  }
}

TEST(Fleet, RunTasksHonorsVroomJobsEnv) {
  // workers=0 resolves through the same VROOM_JOBS path the sweeps use;
  // with jobs=1 the claim loop must degrade to the in-order serial path.
  ScopedEnv env("VROOM_JOBS", "1");
  std::vector<std::size_t> order;
  fleet::run_tasks(5, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 5u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(Fleet, MoreWorkersThanJobsStillIdentical) {
  ScopedEnv jobs_env("VROOM_JOBS", nullptr);
  const web::Corpus corpus = web::Corpus::smoke(7, /*count=*/2);
  harness::RunOptions opt = small_options();
  opt.loads_per_page = 1;  // 2 jobs total

  fleet::FleetOptions serial;
  serial.workers = 1;
  fleet::FleetOptions oversized;
  oversized.workers = 64;
  fleet::Telemetry telemetry;
  oversized.telemetry = &telemetry;
  const auto a = fleet::run_corpus(corpus, baselines::vroom(), opt, serial);
  const auto b = fleet::run_corpus(corpus, baselines::vroom(), opt, oversized);
  expect_identical(a, b);
  // The pool is clamped to the job count.
  EXPECT_EQ(telemetry.workers, 2);
}

TEST(Fleet, TelemetryCountersAddUp) {
  ScopedEnv jobs_env("VROOM_JOBS", nullptr);
  const web::Corpus corpus = web::Corpus::smoke(7);
  const harness::RunOptions opt = small_options();
  const std::vector<baselines::Strategy> strategies = {
      baselines::http2_baseline(), baselines::vroom()};

  fleet::Telemetry telemetry;
  fleet::FleetOptions fo;
  fo.workers = 4;
  fo.telemetry = &telemetry;
  const auto results = fleet::run_plan(
      fleet::SweepPlan{}.add_matrix(corpus, strategies, opt), fo);

  const std::size_t expected_jobs = strategies.size() * corpus.size() *
                                    static_cast<std::size_t>(opt.loads_per_page);
  EXPECT_EQ(telemetry.jobs, expected_jobs);
  EXPECT_EQ(telemetry.workers, 4);
  EXPECT_GT(telemetry.wall_seconds, 0.0);
  EXPECT_GT(telemetry.busy_seconds, 0.0);
  EXPECT_GT(telemetry.jobs_per_second(), 0.0);
  EXPECT_GT(telemetry.utilization(), 0.0);
  EXPECT_GT(telemetry.simulated_seconds, 0.0);
  EXPECT_LE(telemetry.job_seconds.p25, telemetry.job_seconds.p50);
  EXPECT_LE(telemetry.job_seconds.p50, telemetry.job_seconds.p75);
  // And the sweep still produced one median load per page per strategy.
  ASSERT_EQ(results.size(), strategies.size());
  for (const auto& r : results) EXPECT_EQ(r.loads.size(), corpus.size());
}

TEST(MedianSelection, TiedPltsResolveToLowerLoadIndex) {
  // Both the serial path and the fleet hand select_median_load the loads in
  // load-index order, so a *stable* sort makes PLT ties resolve to the lower
  // load index on every path and at any worker count. The previous unstable
  // std::sort left the returned load implementation-defined.
  std::vector<browser::LoadResult> tied(3);
  for (int i = 0; i < 3; ++i) {
    tied[static_cast<std::size_t>(i)].finished = true;
    tied[static_cast<std::size_t>(i)].plt = sim::ms(1000);
    tied[static_cast<std::size_t>(i)].bytes_fetched = i;  // load-index marker
  }
  for (int repeat = 0; repeat < 3; ++repeat) {
    EXPECT_EQ(harness::select_median_load(tied).bytes_fetched, 1);
  }

  // Partial tie: after sorting, the median slot falls on the tied value —
  // stability keeps the earlier load there.
  std::vector<browser::LoadResult> partial(3);
  partial[0].plt = sim::ms(2000);
  partial[0].bytes_fetched = 0;
  partial[1].plt = sim::ms(1000);
  partial[1].bytes_fetched = 1;
  partial[2].plt = sim::ms(2000);
  partial[2].bytes_fetched = 2;
  // Sorted stably: [1000 (load 1), 2000 (load 0), 2000 (load 2)].
  EXPECT_EQ(harness::select_median_load(partial).bytes_fetched, 0);

  // Five-way with duplicates on both sides of the median.
  std::vector<browser::LoadResult> five(5);
  const sim::Time plts[5] = {sim::ms(7), sim::ms(5), sim::ms(7), sim::ms(5),
                             sim::ms(7)};
  for (int i = 0; i < 5; ++i) {
    five[static_cast<std::size_t>(i)].plt = plts[i];
    five[static_cast<std::size_t>(i)].bytes_fetched = i;
  }
  // Sorted stably: [5 (1), 5 (3), 7 (0), 7 (2), 7 (4)] → median = load 0.
  EXPECT_EQ(harness::select_median_load(five).bytes_fetched, 0);
}

TEST(Harness, LoadNonceDerivationDoesNotCollideOnXorPairs) {
  // The historical `seed ^ page_id` fold gave (seed, page) and
  // (seed ^ d, page ^ d) identical nonces for every d. The two-stage
  // derivation must separate exactly those pairs.
  const std::uint64_t seed = 42;
  const std::uint32_t page = 7;
  for (std::uint32_t d : {1u, 3u, 0x20u, 0xffu}) {
    EXPECT_NE(harness::derive_load_nonce(seed, page, 0),
              harness::derive_load_nonce(seed ^ d, page ^ d, 0))
        << "d=" << d;
  }
  // Still deterministic and distinct per load index.
  EXPECT_EQ(harness::derive_load_nonce(seed, page, 1),
            harness::derive_load_nonce(seed, page, 1));
  EXPECT_NE(harness::derive_load_nonce(seed, page, 0),
            harness::derive_load_nonce(seed, page, 1));
}

// The revisit primitive is the hand-written Figure 20 visit, field by
// field: a private cache primed at load index 0, then the revisit `gap`
// later at load index 1, both nonces from derive_load_nonce. A cache in
// the caller's options is not touched.
TEST(Harness, RunPageRevisitMatchesHandWrittenVisit) {
  const web::Corpus corpus = web::Corpus::smoke(42, /*count=*/1);
  const web::PageModel& page = corpus.page(0);
  const baselines::Strategy strategy = baselines::vroom();
  const sim::Time gap = sim::days(1);
  browser::Cache unused;
  harness::RunOptions opt = small_options();
  opt.cache = &unused;
  const harness::Revisit visit =
      harness::run_page_revisit(page, strategy, opt, gap);
  EXPECT_EQ(unused.size(), 0u);

  browser::Cache cache;
  harness::RunOptions manual = small_options();
  manual.cache = &cache;
  const browser::LoadResult prime = harness::run_page_load(
      page, strategy, manual,
      harness::derive_load_nonce(manual.seed, page.page_id(), 0));
  manual.when += gap;
  const browser::LoadResult revisit = harness::run_page_load(
      page, strategy, manual,
      harness::derive_load_nonce(manual.seed, page.page_id(), 1));
  {
    SCOPED_TRACE("prime");
    expect_identical(visit.prime, prime);
  }
  {
    SCOPED_TRACE("revisit");
    expect_identical(visit.revisit, revisit);
  }
  EXPECT_GT(visit.revisit.cache_hits, 0);
  EXPECT_LT(visit.revisit.bytes_fetched, visit.prime.bytes_fetched);
}

}  // namespace
}  // namespace vroom
