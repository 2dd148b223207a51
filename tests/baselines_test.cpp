#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "baselines/polaris.h"
#include "baselines/strategies.h"
#include "harness/experiment.h"
#include "harness/stats.h"
#include "web/page_generator.h"

namespace vroom::baselines {
namespace {

TEST(StrategiesTest, FactoryConfigurations) {
  EXPECT_EQ(http11().protocol, http::Protocol::Http1);
  EXPECT_EQ(http2_baseline().protocol, http::Protocol::Http2);
  EXPECT_FALSE(http2_baseline().server_aid);

  const Strategy v = vroom();
  EXPECT_TRUE(v.server_aid);
  EXPECT_TRUE(v.provider.hints_enabled);
  EXPECT_EQ(v.provider.push, core::PushSelection::HighPriorityLocal);
  EXPECT_EQ(v.sched, Strategy::Sched::VroomStaged);

  EXPECT_TRUE(vroom_first_party_only().first_party_only);
  EXPECT_EQ(vroom_prev_load_deps().provider.mode,
            core::ResolutionMode::PreviousLoad);
  EXPECT_FALSE(push_all_no_hints().provider.hints_enabled);
  EXPECT_EQ(push_all_no_hints().provider.push, core::PushSelection::AllLocal);
  EXPECT_EQ(push_all_fetch_asap().sched, Strategy::Sched::FetchAsap);
  EXPECT_TRUE(push_all_static().first_party_only);
  EXPECT_TRUE(lower_bound_network().know_all_upfront);
  EXPECT_TRUE(lower_bound_cpu().local_network);
}

TEST(StrategiesTest, MakePolicyMatchesSched) {
  EXPECT_EQ(make_policy(http2_baseline()), nullptr);
  EXPECT_NE(make_policy(vroom()), nullptr);
  EXPECT_NE(make_policy(polaris()), nullptr);
}

// fingerprint() names every knob that affects simulation; the fleet
// manifest records it per cell (cell.N.fingerprint), so two cells that
// simulate differently must never share one.
TEST(Strategy, FingerprintCoversProviderKnobs) {
  std::set<std::string> prints;
  prints.insert(vroom().fingerprint());
  prints.insert(http2_baseline().fingerprint());
  prints.insert(http11().fingerprint());
  prints.insert(vroom_offline_only().fingerprint());
  prints.insert(push_all_fetch_asap().fingerprint());
  prints.insert(lower_bound_network().fingerprint());
  // A knob change without a name change must still change the fingerprint.
  Strategy tweaked = vroom();
  tweaked.provider.max_hints = 10;
  prints.insert(tweaked.fingerprint());
  Strategy crawl = vroom();
  crawl.provider.offline.spacing = sim::hours(2);
  prints.insert(crawl.fingerprint());
  EXPECT_EQ(prints.size(), 8u);
  // Stable across calls.
  EXPECT_EQ(vroom().fingerprint(), vroom().fingerprint());
}

// harness::serialize_corpus_result is the digest input for whole sweeps
// (DESIGN.md §8): equal results must give equal bytes, and a different
// label, load count or any single LoadResult field must give different
// bytes.
TEST(CorpusResultSerialization, BytesTrackEveryInput) {
  harness::CorpusResult base;
  base.strategy = "Vroom (News+Sports)";
  browser::LoadResult a;
  a.finished = true;
  a.plt = sim::ms(4321);
  a.speed_index_ms = 1.0 / 3.0;
  a.requests = 12;
  browser::ResourceTiming t;
  t.url = "https://example.com/a?x=1&y=2";
  t.bytes = 777;
  a.timings.push_back(t);
  a.trace_counters.emplace_back("net.bytes", INT64_MAX);
  browser::LoadResult b;
  b.net_wait = -1;
  base.loads = {a, b};

  const std::string bytes = harness::serialize_corpus_result(base);
  const harness::CorpusResult copy = base;
  EXPECT_EQ(harness::serialize_corpus_result(copy), bytes);

  const std::vector<std::function<void(harness::CorpusResult&)>> changes = {
      [](harness::CorpusResult& r) { r.strategy = "Vroom"; },
      [](harness::CorpusResult& r) { r.loads.pop_back(); },
      [](harness::CorpusResult& r) { r.loads.emplace_back(); },
      [](harness::CorpusResult& r) { r.loads[0].finished = false; },
      [](harness::CorpusResult& r) { r.loads[0].plt += 1; },
      [](harness::CorpusResult& r) { r.loads[0].aft = 0; },
      [](harness::CorpusResult& r) { r.loads[0].speed_index_ms += 1e-9; },
      [](harness::CorpusResult& r) { r.loads[0].dom_content_loaded = 5; },
      [](harness::CorpusResult& r) { r.loads[0].cpu_busy = 1; },
      [](harness::CorpusResult& r) { r.loads[0].wasted_bytes = 1; },
      [](harness::CorpusResult& r) { r.loads[0].cache_hits = 1; },
      [](harness::CorpusResult& r) { r.loads[0].sim_events = 1; },
      [](harness::CorpusResult& r) { r.loads[0].timings[0].bytes = 778; },
      [](harness::CorpusResult& r) { r.loads[0].timings[0].url += "z"; },
      [](harness::CorpusResult& r) { r.loads[0].timings[0].pushed = true; },
      [](harness::CorpusResult& r) { r.loads[0].trace_counters[0].second = 0; },
      [](harness::CorpusResult& r) { r.loads[1].net_wait = 0; },
  };
  for (std::size_t i = 0; i < changes.size(); ++i) {
    harness::CorpusResult changed = base;
    changes[i](changed);
    EXPECT_NE(harness::serialize_corpus_result(changed), bytes)
        << "change " << i << " left the bytes unchanged";
  }
}

class BaselineLoadTest : public ::testing::Test {
 protected:
  BaselineLoadTest()
      : page_(web::generate_page(42, 12, web::PageClass::News)) {}
  web::PageModel page_;
  harness::RunOptions opt_;
};

TEST_F(BaselineLoadTest, PolarisFinishesAndFetchesEverything) {
  auto r = harness::run_page_load(page_, polaris(), opt_, 1);
  ASSERT_TRUE(r.finished);
  int referenced = 0;
  for (const auto& t : r.timings) {
    if (t.referenced) {
      ++referenced;
      if (t.template_id && page_.resource(*t.template_id).blocks_onload) {
        EXPECT_NE(t.complete, sim::kNever);
      }
    }
  }
  int expected = 0;
  for (const auto& res : page_.resources()) {
    if (!page_.in_post_onload_subtree(res.id)) ++expected;
  }
  EXPECT_EQ(referenced, expected);
}

TEST_F(BaselineLoadTest, OrderingAcrossSchemesOnMedianPage) {
  // The paper's headline ordering on a typical complex page:
  // lower bound <= Vroom < Polaris-ish < HTTP/2 < HTTP/1.1.
  auto lb_net = harness::run_page_load(page_, lower_bound_network(), opt_, 1);
  auto lb_cpu = harness::run_page_load(page_, lower_bound_cpu(), opt_, 1);
  auto vr = harness::run_page_load(page_, vroom(), opt_, 1);
  auto h2 = harness::run_page_load(page_, http2_baseline(), opt_, 1);
  auto h1 = harness::run_page_load(page_, http11(), opt_, 1);
  const sim::Time bound = std::max(lb_net.plt, lb_cpu.plt);
  EXPECT_LT(bound, h2.plt);
  // Per-page, Vroom may tie the baseline (paper's Fig 13 tail shows the
  // same); it must never be meaningfully slower.
  EXPECT_LT(vr.plt, h2.plt * 102 / 100);
  EXPECT_LT(h2.plt, h1.plt * 105 / 100);
  // Vroom approaches the bound (within 2x on a single page).
  EXPECT_LT(vr.plt, bound * 2);
}

TEST_F(BaselineLoadTest, PushOnlyWorseThanVroom) {
  auto vr = harness::run_page_load(page_, vroom(), opt_, 1);
  auto push_only = harness::run_page_load(page_, push_all_no_hints(), opt_, 1);
  ASSERT_TRUE(push_only.finished);
  EXPECT_GT(push_only.plt, vr.plt);
}

TEST_F(BaselineLoadTest, RunPageMedianPicksMiddleLoad) {
  auto med = harness::run_page_median(page_, http2_baseline(), opt_);
  ASSERT_TRUE(med.finished);
  std::vector<sim::Time> plts;
  for (int i = 0; i < 3; ++i) {
    const std::uint64_t nonce =
        harness::derive_load_nonce(opt_.seed, page_.page_id(), i);
    plts.push_back(harness::run_page_load(page_, http2_baseline(), opt_,
                                          nonce).plt);
  }
  std::sort(plts.begin(), plts.end());
  EXPECT_EQ(med.plt, plts[1]);
}

TEST(StatsTest, PercentileInterpolation) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(harness::percentile(v, 0), 1);
  EXPECT_DOUBLE_EQ(harness::percentile(v, 50), 3);
  EXPECT_DOUBLE_EQ(harness::percentile(v, 100), 5);
  EXPECT_DOUBLE_EQ(harness::percentile(v, 25), 2);
  EXPECT_DOUBLE_EQ(harness::median({2, 1}), 1.5);
  EXPECT_DOUBLE_EQ(harness::percentile({}, 50), 0);
}

TEST(StatsTest, Quartiles) {
  std::vector<double> v;
  for (int i = 1; i <= 101; ++i) v.push_back(i);
  auto q = harness::quartiles(v);
  EXPECT_DOUBLE_EQ(q.p25, 26);
  EXPECT_DOUBLE_EQ(q.p50, 51);
  EXPECT_DOUBLE_EQ(q.p75, 76);
}

}  // namespace
}  // namespace vroom::baselines
