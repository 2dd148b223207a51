// Tests for the extension features: packet loss, RRC radio model,
// WProf-style critical paths, the Vroom+Polaris combination (§6.1), and
// cross-page offline resolution (§7).
#include <gtest/gtest.h>

#include <set>

#include "baselines/strategies.h"
#include "browser/wprof.h"
#include "closure_table.h"
#include "core/type_sharing.h"
#include "harness/experiment.h"
#include "harness/stats.h"
#include "net/tcp.h"
#include "web/amp.h"
#include "web/page_generator.h"

namespace vroom {
namespace {

// ---------- packet loss ----------

sim::Time transfer_time(double loss_rate, std::int64_t bytes) {
  sim::EventLoop loop;
  net::NetworkConfig cfg = net::NetworkConfig::lte();
  cfg.loss_rate = loss_rate;
  net::Network net(loop, cfg, 7);
  net.set_rtt("a.com", sim::ms(100));
  net::TcpConnection conn(net, "a.com", false);
  sim::Time done = -1;
  conn.connect([&] {
    net::TcpConnection::Chunk c;
    c.bytes = bytes;
    c.on_delivered = [&] { done = loop.now(); };
    conn.send_chunk(std::move(c));
  });
  loop.run();
  return done;
}

TEST(LossModelTest, ZeroLossIsDefaultBehaviour) {
  EXPECT_EQ(transfer_time(0.0, 500'000), transfer_time(0.0, 500'000));
}

TEST(LossModelTest, LossSlowsTransfers) {
  const sim::Time clean = transfer_time(0.0, 500'000);
  const sim::Time lossy = transfer_time(0.02, 500'000);
  EXPECT_GT(lossy, clean + sim::ms(100));
}

TEST(LossModelTest, LossIsDeterministic) {
  EXPECT_EQ(transfer_time(0.01, 500'000), transfer_time(0.01, 500'000));
}

TEST(LossModelTest, SingleConnectionSuffersMoreThanParallel) {
  // The related-work observation ([24]): one lossy TCP connection carrying
  // everything (HTTP/2) degrades more than six parallel ones (HTTP/1.1).
  // Transport-level check: one connection moving 600 KB vs six moving
  // 100 KB each, at 2 % loss.
  sim::EventLoop loop;
  net::NetworkConfig cfg = net::NetworkConfig::lte();
  cfg.loss_rate = 0.02;
  net::Network net(loop, cfg, 7);
  net.set_rtt("one.com", sim::ms(100));
  sim::Time one_done = -1;
  net::TcpConnection single(net, "one.com", false);
  single.connect([&] {
    net::TcpConnection::Chunk c;
    c.bytes = 600'000;
    c.on_delivered = [&] { one_done = loop.now(); };
    single.send_chunk(std::move(c));
  });
  loop.run();

  sim::EventLoop loop2;
  net::Network net2(loop2, cfg, 7);
  std::vector<std::unique_ptr<net::TcpConnection>> conns;
  sim::Time six_done = 0;
  int finished = 0;
  for (int i = 0; i < 6; ++i) {
    const std::string dom = "six" + std::to_string(i) + ".com";
    net2.set_rtt(dom, sim::ms(100));
    conns.push_back(std::make_unique<net::TcpConnection>(net2, dom, false));
    auto* c = conns.back().get();
    c->connect([&, c] {
      net::TcpConnection::Chunk ch;
      ch.bytes = 100'000;
      ch.on_delivered = [&] {
        ++finished;
        six_done = std::max(six_done, loop2.now());
      };
      c->send_chunk(std::move(ch));
    });
  }
  loop2.run();
  ASSERT_EQ(finished, 6);
  EXPECT_GT(one_done, six_done);
}

// ---------- RRC radio model ----------

TEST(RadioModelTest, PromotionDelaysFirstConnectionOnly) {
  sim::EventLoop loop;
  net::NetworkConfig cfg = net::NetworkConfig::lte();
  cfg.radio_promotion = sim::ms(250);
  net::Network net(loop, cfg, 7);
  net.set_rtt("a.com", sim::ms(100));
  sim::Time first = -1, second = -1;
  net::TcpConnection c1(net, "a.com", false);
  c1.connect([&] { first = loop.now(); });
  loop.run();
  // Radio is warm now; a second connection shortly after pays no promotion.
  net::TcpConnection c2(net, "a.com", false);
  c2.connect([&] { second = loop.now(); });
  loop.run();
  EXPECT_EQ(first, sim::ms(300 + 250));
  EXPECT_EQ(second - first, sim::ms(300));
}

TEST(RadioModelTest, IdleTimeoutRearmsPromotion) {
  sim::EventLoop loop;
  net::NetworkConfig cfg = net::NetworkConfig::lte();
  cfg.radio_promotion = sim::ms(250);
  cfg.radio_idle_timeout = sim::seconds(2);
  net::Network net(loop, cfg, 7);
  EXPECT_EQ(net.radio_wakeup_delay(), sim::ms(250));
  EXPECT_EQ(net.radio_wakeup_delay(), 0);  // still warm
  testutil::ClosureTable events(loop);
  events.schedule_at(sim::seconds(10), [&] {
    EXPECT_EQ(net.radio_wakeup_delay(), sim::ms(250));  // went idle
  });
  loop.run();
}

TEST(RadioModelTest, DisabledByDefault) {
  sim::EventLoop loop;
  net::Network net(loop, net::NetworkConfig::lte(), 7);
  EXPECT_EQ(net.radio_wakeup_delay(), 0);
}

// ---------- WProf critical paths ----------

class WprofTest : public ::testing::Test {
 protected:
  WprofTest() : page_(web::generate_page(42, 3, web::PageClass::News)) {
    id_.wall_time = opt_.when;
    id_.device = opt_.device;
    id_.user = opt_.user;
    id_.nonce = 1;
  }
  web::PageModel page_;
  harness::RunOptions opt_;
  web::LoadIdentity id_;
};

TEST_F(WprofTest, PathIsNonOverlappingAndBounded) {
  auto r = harness::run_page_load(page_, baselines::http2_baseline(), opt_, 1);
  ASSERT_TRUE(r.finished);
  const web::PageInstance instance(page_, id_);
  auto report = browser::extract_critical_path(r, instance,
                                               browser::CpuCosts::nexus6());
  ASSERT_FALSE(report.segments.empty());
  sim::Time prev_end = 0;
  for (const auto& s : report.segments) {
    EXPECT_GE(s.start, prev_end);
    EXPECT_GE(s.end, s.start);
    prev_end = s.end;
  }
  EXPECT_LE(report.total(), r.plt);
  EXPECT_GT(report.total(), r.plt / 4);  // the path explains a real fraction
}

TEST_F(WprofTest, BaselineHasNetworkOnThePath) {
  auto r = harness::run_page_load(page_, baselines::http2_baseline(), opt_, 1);
  const web::PageInstance instance(page_, id_);
  auto report = browser::extract_critical_path(r, instance,
                                               browser::CpuCosts::nexus6());
  EXPECT_GT(report.time_in(browser::PathKind::Network), 0);
  EXPECT_GT(report.time_in(browser::PathKind::Compute), 0);
  EXPECT_GT(report.network_fraction(), 0.0);
  EXPECT_LT(report.network_fraction(), 1.0);
}

// ---------- Vroom + Polaris (§6.1 future work) ----------

TEST(VroomPolarisTest, FinishesAndCompetesWithVroom) {
  harness::RunOptions opt;
  opt.loads_per_page = 1;
  std::vector<double> vr, combo;
  for (int i = 0; i < 6; ++i) {
    const web::PageModel page =
        web::generate_page(42, static_cast<std::uint32_t>(i),
                           web::PageClass::News);
    auto a = harness::run_page_load(page, baselines::vroom(), opt, 1);
    auto b =
        harness::run_page_load(page, baselines::vroom_plus_polaris(), opt, 1);
    ASSERT_TRUE(a.finished);
    ASSERT_TRUE(b.finished);
    vr.push_back(sim::to_seconds(a.plt));
    combo.push_back(sim::to_seconds(b.plt));
  }
  // The combination must not regress the median materially (the paper
  // expects it to help at the tail).
  EXPECT_LT(harness::median(combo), harness::median(vr) * 1.05);
}

TEST(VroomPolarisTest, StrategyFactoryShape) {
  const auto s = baselines::vroom_plus_polaris();
  EXPECT_TRUE(s.server_aid);
  EXPECT_TRUE(s.provider.hints_enabled);
  EXPECT_EQ(s.sched, baselines::Strategy::Sched::VroomPolaris);
  EXPECT_NE(baselines::make_policy(s), nullptr);
}

// ---------- cross-page offline resolution (§7) ----------

class TypeSharingTest : public ::testing::Test {
 protected:
  TypeSharingTest()
      : pages_(web::generate_site_pages(42, 3, web::PageClass::News, 4)) {}
  std::vector<web::PageModel> pages_;
};

TEST_F(TypeSharingTest, SiblingsShareInfraUrls) {
  web::LoadIdentity id;
  id.wall_time = sim::days(45);
  id.device = web::nexus6();
  id.nonce = 1;
  const web::PageInstance a(pages_[0], id), b(pages_[1], id);
  const auto a_vec = a.url_set();
  std::set<std::string> a_urls(a_vec.begin(), a_vec.end());
  int shared = 0;
  for (const auto& r : pages_[1].resources()) {
    if (r.url_page_override != web::Resource::kNoPageOverride) {
      EXPECT_TRUE(a_urls.count(std::string(b.resource(r.id).url)))
          << "shared slot not shared: " << b.resource(r.id).url;
      ++shared;
    }
  }
  EXPECT_GE(shared, 5);
  // Page-specific roots differ.
  EXPECT_NE(a.resource(0).url, b.resource(0).url);
}

TEST_F(TypeSharingTest, SharedSlotsServableByEitherPage) {
  web::LoadIdentity id;
  id.wall_time = sim::days(45);
  id.device = web::nexus6();
  id.nonce = 1;
  const web::PageInstance a(pages_[0], id);
  for (const auto& r : pages_[0].resources()) {
    if (r.url_page_override == web::Resource::kNoPageOverride) continue;
    // The sibling's replay store can serve the shared URL too.
    EXPECT_TRUE(web::servable_size(pages_[1], a.resource(r.id).url)
                    .has_value());
  }
}

TEST_F(TypeSharingTest, SharedStableSetOnlyContainsSharedSlots) {
  auto shared = core::shared_stable_set(pages_[0], pages_[1], sim::days(45),
                                        web::nexus6(),
                                        pages_[0].first_party(), 1, {});
  EXPECT_FALSE(shared.empty());
  for (const auto& [rid, url] : shared) {
    EXPECT_NE(pages_[0].resource(rid).url_page_override,
              web::Resource::kNoPageOverride);
  }
}

TEST_F(TypeSharingTest, SharingTradesAccuracyForCrawlCost) {
  auto s = core::measure_type_sharing(pages_[0], pages_[1], sim::days(45),
                                      web::nexus6(), 1, {});
  // Own crawls are at least as accurate as sharing; sharing is at least as
  // accurate as having no offline knowledge at all.
  EXPECT_LE(s.fn_per_page_crawl, s.fn_type_shared + 1e-9);
  EXPECT_LE(s.fn_type_shared, s.fn_online_only_scan + 1e-9);
  EXPECT_GT(s.shared_slots, 0);
}

TEST_F(TypeSharingTest, SiteLoadsWorkEndToEnd) {
  harness::RunOptions opt;
  auto r = harness::run_page_load(pages_[0], baselines::vroom(), opt, 1);
  EXPECT_TRUE(r.finished);
}


// ---------- AMP transform (§8) ----------

class AmpTest : public ::testing::Test {
 protected:
  AmpTest()
      : page_(web::generate_page(42, 3, web::PageClass::News)),
        amp_(web::amp_transform(page_)) {}
  web::PageModel page_;
  web::PageModel amp_;
};

TEST_F(AmpTest, StructuralRestrictionsApplied) {
  ASSERT_EQ(amp_.size(), page_.size());
  for (const auto& r : amp_.resources()) {
    EXPECT_FALSE(r.blocks_parser) << r.id;
    if (r.is_iframe_doc) {
      EXPECT_TRUE(r.post_onload) << r.id;
    }
    if (r.type == web::ResourceType::Image && !r.in_iframe) {
      EXPECT_NE(r.via, web::DiscoveryVia::JsExec) << r.id;
    }
    // Byte weights and addressing are preserved.
    EXPECT_EQ(r.base_size, page_.resource(r.id).base_size);
    EXPECT_EQ(r.domain, page_.resource(r.id).domain);
  }
}

TEST_F(AmpTest, AmpLoadsFasterThanLegacyUnderHttp2) {
  harness::RunOptions opt;
  const auto legacy =
      harness::run_page_load(page_, baselines::http2_baseline(), opt, 1);
  const auto amp =
      harness::run_page_load(amp_, baselines::http2_baseline(), opt, 1);
  ASSERT_TRUE(legacy.finished);
  ASSERT_TRUE(amp.finished);
  EXPECT_LT(amp.plt, legacy.plt);
}

TEST_F(AmpTest, VroomStillLoadsAmpPages) {
  harness::RunOptions opt;
  const auto r = harness::run_page_load(amp_, baselines::vroom(), opt, 1);
  EXPECT_TRUE(r.finished);
}

// ---------- lossy end-to-end loads ----------

TEST(LossyLoadTest, DeterministicAndComplete) {
  const web::PageModel page = web::generate_page(42, 2, web::PageClass::News);
  harness::RunOptions opt;
  net::NetworkConfig cfg = net::NetworkConfig::lte();
  cfg.loss_rate = 0.02;
  opt.network = cfg;
  const auto a = harness::run_page_load(page, baselines::vroom(), opt, 1);
  const auto b = harness::run_page_load(page, baselines::vroom(), opt, 1);
  ASSERT_TRUE(a.finished);
  EXPECT_EQ(a.plt, b.plt);
  // Loss slows the load versus the clean profile.
  opt.network = net::NetworkConfig::lte();
  const auto clean = harness::run_page_load(page, baselines::vroom(), opt, 1);
  EXPECT_GT(a.plt, clean.plt);
}

// ---------- scale guard ----------

TEST(ScaleTest, VeryLargePageLoadsComplete) {
  web::GeneratorParams p = web::GeneratorParams::for_class(web::PageClass::News);
  p.complexity = 3.0;  // several hundred resources
  const web::PageModel page =
      web::generate_page(42, 77, web::PageClass::News, p);
  ASSERT_GT(page.size(), 350u);
  harness::RunOptions opt;
  opt.timeout = sim::seconds(300);
  for (const auto& s : {baselines::http11(), baselines::vroom()}) {
    const auto r = harness::run_page_load(page, s, opt, 1);
    EXPECT_TRUE(r.finished) << s.name;
  }
}

}  // namespace
}  // namespace vroom
