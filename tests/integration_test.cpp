#include <gtest/gtest.h>

#include "baselines/strategies.h"
#include "fleet/fleet.h"
#include "harness/experiment.h"
#include "harness/stats.h"
#include "web/corpus.h"

namespace vroom {
namespace {

// Small-corpus end-to-end sweeps asserting the paper's qualitative ordering
// holds across pages, not just on one lucky page.
class IntegrationTest : public ::testing::Test {
 protected:
  IntegrationTest() : corpus_(web::Corpus::smoke(42, 6)) {
    opt_.loads_per_page = 1;  // keep the suite fast; determinism is separate
  }
  web::Corpus corpus_;
  harness::RunOptions opt_;
};

TEST_F(IntegrationTest, AllStrategiesFinishOnAllPages) {
  const baselines::Strategy strategies[] = {
      baselines::http11(),         baselines::http2_baseline(),
      baselines::vroom(),          baselines::polaris(),
      baselines::push_all_no_hints(), baselines::push_all_fetch_asap(),
      baselines::lower_bound_network(), baselines::lower_bound_cpu(),
  };
  for (const auto& s : strategies) {
    auto res = fleet::run_corpus(corpus_, s, opt_);
    for (const auto& load : res.loads) {
      EXPECT_TRUE(load.finished) << s.name;
    }
  }
}

TEST_F(IntegrationTest, MedianOrderingMatchesPaper) {
  const double h1 =
      harness::median(fleet::run_corpus(corpus_, baselines::http11(), opt_)
                          .plt_seconds());
  const double h2 = harness::median(
      fleet::run_corpus(corpus_, baselines::http2_baseline(), opt_)
          .plt_seconds());
  const double vr = harness::median(
      fleet::run_corpus(corpus_, baselines::vroom(), opt_).plt_seconds());
  const double pol = harness::median(
      fleet::run_corpus(corpus_, baselines::polaris(), opt_).plt_seconds());
  EXPECT_LT(h2, h1);
  EXPECT_LT(vr, h2);
  EXPECT_LT(vr, pol);
  EXPECT_LT(pol, h1 * 1.05);
}

TEST_F(IntegrationTest, VroomImprovesDiscoveryLatency) {
  auto h2 = fleet::run_corpus(corpus_, baselines::http2_baseline(), opt_);
  auto vr = fleet::run_corpus(corpus_, baselines::vroom(), opt_);
  int improved = 0;
  for (std::size_t i = 0; i < h2.loads.size(); ++i) {
    if (vr.loads[i].all_discovered < h2.loads[i].all_discovered) ++improved;
  }
  // Discovery should improve on the clear majority of pages.
  EXPECT_GE(improved, static_cast<int>(h2.loads.size()) - 1);
}

TEST_F(IntegrationTest, VroomReducesNetWaitOnCriticalPath) {
  auto h2 = fleet::run_corpus(corpus_, baselines::http2_baseline(), opt_);
  auto vr = fleet::run_corpus(corpus_, baselines::vroom(), opt_);
  const double h2_wait = harness::median(h2.net_wait_fractions());
  const double vr_wait = harness::median(vr.net_wait_fractions());
  EXPECT_LT(vr_wait, h2_wait);
}

TEST_F(IntegrationTest, VroomWastesOnlyModestBandwidth) {
  auto vr = fleet::run_corpus(corpus_, baselines::vroom(), opt_);
  for (const auto& load : vr.loads) {
    EXPECT_LT(static_cast<double>(load.wasted_bytes),
              0.15 * static_cast<double>(load.bytes_fetched));
  }
}

TEST_F(IntegrationTest, PartialDeploymentBetweenFullAndBaseline) {
  const double h2 = harness::median(
      fleet::run_corpus(corpus_, baselines::http2_baseline(), opt_)
          .plt_seconds());
  const double vr = harness::median(
      fleet::run_corpus(corpus_, baselines::vroom(), opt_).plt_seconds());
  const double part = harness::median(
      fleet::run_corpus(corpus_, baselines::vroom_first_party_only(), opt_)
          .plt_seconds());
  EXPECT_LE(vr, part + 0.05);
  EXPECT_LT(part, h2);
}

TEST_F(IntegrationTest, EffectivePageCountHonorsEnvCap) {
  ASSERT_EQ(harness::effective_page_count(10), 10);
  ::setenv("VROOM_BENCH_PAGES", "3", 1);
  EXPECT_EQ(harness::effective_page_count(10), 3);
  EXPECT_EQ(harness::effective_page_count(2), 2);
  ::unsetenv("VROOM_BENCH_PAGES");
}

}  // namespace
}  // namespace vroom
