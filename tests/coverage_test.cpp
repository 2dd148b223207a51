// Deeper coverage of module edge cases: origin behaviours, connection-pool
// wiring, cache/push interplay, provider modes, network profiles, and
// report/export plumbing.
#include <gtest/gtest.h>

#include <cstdio>
#include <string_view>

#include "baselines/strategies.h"
#include "browser/cache.h"
#include "core/vroom_provider.h"
#include "harness/experiment.h"
#include "harness/export.h"
#include "harness/stats.h"
#include "server/origin_server.h"
#include "web/page_generator.h"

namespace vroom {
namespace {

// ---------- network profiles ----------

TEST(NetworkProfiles, OrderedByQuality) {
  const auto wifi = net::NetworkConfig::wifi();
  const auto lte = net::NetworkConfig::lte();
  const auto loaded = net::NetworkConfig::lte_loaded();
  const auto threeg = net::NetworkConfig::threeg();
  EXPECT_GT(wifi.downlink_bps, lte.downlink_bps);
  EXPECT_GT(lte.downlink_bps, loaded.downlink_bps);
  EXPECT_GT(loaded.downlink_bps, threeg.downlink_bps);
  EXPECT_LT(wifi.cellular_rtt, lte.cellular_rtt);
  EXPECT_LT(lte.cellular_rtt, threeg.cellular_rtt);
  // The USB profile exists to isolate the CPU.
  const auto usb = net::NetworkConfig::local_usb();
  EXPECT_EQ(usb.tls_handshake_rtts, 0);
  EXPECT_EQ(usb.server_think, 0);
}

TEST(NetworkProfiles, SlowerNetworksSlowerLoads) {
  const web::PageModel page = web::generate_page(42, 2, web::PageClass::News);
  auto plt_on = [&](const net::NetworkConfig& cfg) {
    harness::RunOptions opt;
    opt.network = cfg;
    return harness::run_page_load(page, baselines::http2_baseline(), opt, 1)
        .plt;
  };
  const sim::Time wifi = plt_on(net::NetworkConfig::wifi());
  const sim::Time lte = plt_on(net::NetworkConfig::lte());
  const sim::Time threeg = plt_on(net::NetworkConfig::threeg());
  EXPECT_LT(wifi, lte);
  EXPECT_LT(lte, threeg);
}

// ---------- origin server edge cases ----------

class OriginEdgeTest : public ::testing::Test {
 protected:
  OriginEdgeTest() : page_(web::generate_page(42, 7, web::PageClass::News)) {
    id_.wall_time = sim::days(45);
    id_.device = web::nexus6();
    id_.user = 1;
    id_.nonce = 2;
    instance_ = std::make_unique<web::PageInstance>(page_, id_);
    store_ = std::make_unique<server::ReplayStore>(*instance_);
  }
  web::PageModel page_;
  web::LoadIdentity id_;
  std::unique_ptr<web::PageInstance> instance_;
  std::unique_ptr<server::ReplayStore> store_;
};

TEST_F(OriginEdgeTest, UnknownUrlServedAsSmallErrorPage) {
  server::OriginServer s(page_.first_party(), *store_);
  http::Request req;
  req.url = "unrelated.com/p9999/r0v0.html";
  const auto reply = s.handle(req);
  EXPECT_EQ(reply.body_bytes, 500);
  EXPECT_TRUE(reply.hints.empty());
  EXPECT_FALSE(reply.not_modified);
}

TEST_F(OriginEdgeTest, AdDomainsGetAuctionLatency) {
  server::ServerFarm farm(*store_);
  // Find an ad-exchange domain used by the page.
  std::string ad_domain;
  for (const auto& r : page_.resources()) {
    if (r.domain.rfind("ads", 0) == 0 || r.domain.rfind("tag", 0) == 0) {
      ad_domain = r.domain;
      break;
    }
  }
  ASSERT_FALSE(ad_domain.empty());
  server::OriginServer& ad = farm.server(ad_domain);
  server::OriginServer& fp = farm.server(page_.first_party());
  // The ad origin's reply carries extra think time; the first party's none.
  for (const auto& r : page_.resources()) {
    if (r.domain == ad_domain) {
      http::Request req;
      req.url = instance_->resource(r.id).url;
      EXPECT_GE(ad.handle(req).extra_delay, sim::ms(80));
      break;
    }
  }
  http::Request root;
  root.url = instance_->resource(0).url;
  EXPECT_EQ(fp.handle(root).extra_delay, 0);
}

TEST_F(OriginEdgeTest, StaleVersionsServedWithPlausibleSizes) {
  server::OriginServer s(page_.first_party(), *store_);
  auto parsed = web::parse_url(instance_->resource(0).url);
  for (std::uint64_t delta : {8u, 16u, 80u}) {
    const std::string stale =
        web::make_url(parsed->domain, parsed->page_id, parsed->resource_id,
                      parsed->version + delta, parsed->user, parsed->ext);
    http::Request req;
    req.url = stale;
    const auto reply = s.handle(req);
    EXPECT_GT(reply.body_bytes, 1000);  // real content, not the error page
  }
}

// ---------- cache digest / push interplay end-to-end ----------

TEST(CachePushTest, WarmCacheSuppressesPushes) {
  const web::PageModel page = web::generate_page(42, 6, web::PageClass::News);
  browser::Cache cache;
  harness::RunOptions opt;
  opt.cache = &cache;
  const auto cold = harness::run_page_load(page, baselines::vroom(), opt, 1);
  int cold_pushed = 0;
  for (const auto& t : cold.timings) {
    if (t.pushed) ++cold_pushed;
  }
  // Back-to-back warm load: pushed high-priority resources are now cached,
  // so the server (via the cache digest) pushes strictly less.
  const auto warm = harness::run_page_load(page, baselines::vroom(), opt, 2);
  int warm_pushed = 0;
  for (const auto& t : warm.timings) {
    if (t.pushed) ++warm_pushed;
  }
  ASSERT_GT(cold_pushed, 0);
  EXPECT_LT(warm_pushed, cold_pushed);
}

TEST(CachePushTest, StaleEntriesRevalidateWith304) {
  const web::PageModel page = web::generate_page(42, 6, web::PageClass::News);
  browser::Cache cache;
  harness::RunOptions opt;
  opt.cache = &cache;
  (void)harness::run_page_load(page, baselines::http2_baseline(), opt, 1);
  // A week later most short-lived entries are stale; revalidations should
  // appear (bytes saved relative to refetching).
  opt.when += sim::days(7);
  const auto warm = harness::run_page_load(page, baselines::http2_baseline(),
                                           opt, 2);
  ASSERT_TRUE(warm.finished);
  std::int64_t small_transfers = 0;
  for (const auto& t : warm.timings) {
    if (t.referenced && t.bytes > 0 && t.bytes <= http::k304Bytes) {
      ++small_transfers;
    }
  }
  EXPECT_GT(small_transfers, 0) << "no 304s observed on a week-later load";
}

// ---------- provider mode matrix ----------

class ProviderModeTest
    : public ::testing::TestWithParam<core::ResolutionMode> {};

TEST_P(ProviderModeTest, AdviceIsWellFormed) {
  const web::PageModel page = web::generate_page(42, 7, web::PageClass::News);
  web::LoadIdentity id;
  id.wall_time = sim::days(45);
  id.device = web::nexus6();
  id.user = 1;
  id.nonce = 2;
  const web::PageInstance instance(page, id);
  server::ReplayStore store(instance);
  core::VroomProviderConfig cfg;
  cfg.mode = GetParam();
  core::VroomProvider provider(store, cfg);

  http::Request req;
  req.url = instance.resource(0).url;
  req.user = id.user;
  req.device = id.device;
  const auto advice = provider.advise(page.first_party(), req);
  EXPECT_FALSE(advice.hints.empty());
  for (const auto& h : advice.hints.hints) {
    // Every hinted URL parses and belongs to this page's model.
    const std::string_view url = instance.interner().url(h.url);
    EXPECT_TRUE(web::servable_size(page, url).has_value()) << url;
  }
  for (const auto& p : advice.pushes) {
    EXPECT_EQ(web::url_domain(p.url), page.first_party());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, ProviderModeTest,
    ::testing::Values(core::ResolutionMode::OfflinePlusOnline,
                      core::ResolutionMode::OfflineOnly,
                      core::ResolutionMode::OnlineOnly,
                      core::ResolutionMode::PreviousLoad),
    [](const auto& info) {
      std::string n = core::resolution_mode_name(info.param);
      for (auto& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

// ---------- iframe documents get their own advice ----------

TEST(IframeAdviceTest, AdServerAdvisesOnItsIframe) {
  const web::PageModel page = web::generate_page(42, 7, web::PageClass::News);
  web::LoadIdentity id;
  id.wall_time = sim::days(45);
  id.device = web::nexus6();
  id.nonce = 2;
  const web::PageInstance instance(page, id);
  server::ReplayStore store(instance);
  core::VroomProvider provider(store, {});

  for (const auto& r : page.resources()) {
    if (!r.is_iframe_doc || page.children(r.id).empty()) continue;
    http::Request req;
    req.url = instance.resource(r.id).url;
    const auto advice = provider.advise(r.domain, req);
    // Everything under a third-party iframe is low priority (footnote 4).
    for (const auto& h : advice.hints.hints) {
      EXPECT_EQ(h.priority, http::HintPriority::Unimportant)
          << instance.interner().url(h.url);
    }
    return;  // one is enough
  }
  GTEST_SKIP() << "no iframe with children on this page";
}

// ---------- harness report smoke (stdout sanity) ----------

TEST(ReportTest, PrintersDoNotChokeOnEdgeInputs) {
  harness::print_cdf_table("Empty", "s", {{"none", {}}});
  harness::print_quartile_bars("Single", "s", {{"one", {1.0}}});
  harness::print_stat("answer", 42.0, "u");
  SUCCEED();
}

TEST(ReportTest, MedianOfThreeLoadVariants) {
  // run_page_median must return one of the actual loads, not an average.
  const web::PageModel page = web::generate_page(42, 2, web::PageClass::News);
  harness::RunOptions opt;
  const auto med = harness::run_page_median(page, baselines::vroom(), opt);
  bool matches = false;
  for (int i = 0; i < opt.loads_per_page; ++i) {
    const std::uint64_t nonce =
        harness::derive_load_nonce(opt.seed, page.page_id(), i);
    if (harness::run_page_load(page, baselines::vroom(), opt, nonce).plt ==
        med.plt) {
      matches = true;
    }
  }
  EXPECT_TRUE(matches);
}

}  // namespace
}  // namespace vroom
