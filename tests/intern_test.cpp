// URL/domain interning: ids must be stable across identical builds, id-keyed
// lookups must agree with their string-keyed equivalents on real corpus
// pages, and interning must be a pure bookkeeping change — the traced event
// stream of a load is bit-identical run to run.
#include "web/intern.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/strategies.h"
#include "browser/browser.h"
#include "harness/experiment.h"
#include "scoped_env.h"
#include "trace/trace.h"
#include "web/page_generator.h"
#include "web/page_instance.h"
#include "web/url.h"

namespace vroom {
namespace {

using testutil::ScopedEnv;

web::LoadIdentity test_identity(std::uint64_t nonce) {
  web::LoadIdentity id;
  id.wall_time = sim::hours(1000);
  id.nonce = nonce;
  return id;
}

TEST(Interner, AssignsDenseIdsAndRoundTrips) {
  web::Interner in;
  const web::UrlId a = in.url_id("a.example/p1/r0v2u0.html");
  const web::UrlId b = in.url_id("b.example/p1/r1v7u0.css");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  // Re-interning is idempotent: same id, no growth.
  EXPECT_EQ(in.url_id("a.example/p1/r0v2u0.html"), a);
  EXPECT_EQ(in.url_count(), 2u);
  EXPECT_EQ(in.url(a), "a.example/p1/r0v2u0.html");
  EXPECT_EQ(in.url(b), "b.example/p1/r1v7u0.css");
  // find_url never inserts.
  EXPECT_EQ(in.find_url("c.example/p1/r2v0u0.js"), web::kInvalidId);
  EXPECT_EQ(in.url_count(), 2u);
  EXPECT_EQ(in.find_url("a.example/p1/r0v2u0.html"), a);
}

TEST(Interner, UrlInfoCachesSyntaxDerivedFacts) {
  web::Interner in;
  const web::UrlId html = in.url_id("a.example/p3/r0v2u0.html");
  const web::UrlId css = in.url_id("a.example/p3/r1v2u0.css");
  const web::UrlId js = in.url_id("cdn.example/p3/r2v9u5.js");
  const web::UrlId img = in.url_id("a.example/p3/r3v2u0.jpg");
  const web::UrlId junk = in.url_id("not a canonical url");

  const web::UrlInfo& hi = in.info(html);
  EXPECT_TRUE(hi.parse_ok);
  EXPECT_EQ(hi.type, web::ResourceType::Html);
  EXPECT_TRUE(hi.processable);
  EXPECT_EQ(hi.page_id, 3u);
  EXPECT_EQ(hi.resource_id, 0u);
  EXPECT_EQ(hi.version, 2u);
  EXPECT_EQ(in.domain(hi.domain), "a.example");

  const web::UrlInfo& ji = in.info(js);
  EXPECT_TRUE(ji.processable);
  EXPECT_EQ(ji.user, 5u);
  EXPECT_EQ(in.domain(ji.domain), "cdn.example");
  // Same-domain URLs share one DomainId.
  EXPECT_EQ(hi.domain, in.info(css).domain);
  EXPECT_EQ(hi.domain, in.info(img).domain);
  EXPECT_NE(hi.domain, ji.domain);

  EXPECT_FALSE(in.info(img).processable);
  // Priorities follow the browser's native scheme: documents above
  // render-blocking CSS/JS above everything else.
  EXPECT_GT(hi.native_priority, in.info(css).native_priority);
  EXPECT_GT(in.info(css).native_priority, in.info(img).native_priority);

  // Unparsable URLs intern fine (ghost fetches need ids too) but carry
  // conservative defaults.
  const web::UrlInfo& ki = in.info(junk);
  EXPECT_FALSE(ki.parse_ok);
  EXPECT_FALSE(ki.processable);
}

TEST(Interner, IdsStableAcrossIdenticalInstanceBuilds) {
  const web::PageModel page = web::generate_page(42, 5, web::PageClass::News);
  const web::PageInstance a(page, test_identity(7));
  const web::PageInstance b(page, test_identity(7));

  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.interner().url_count(), b.interner().url_count());
  ASSERT_EQ(a.interner().domain_count(), b.interner().domain_count());
  for (std::uint32_t i = 0; i < a.size(); ++i) {
    // Resource i pre-interns to UrlId i, in both builds.
    EXPECT_EQ(a.resource(i).url_id, i);
    EXPECT_EQ(b.resource(i).url_id, i);
    EXPECT_EQ(a.interner().url(i), b.interner().url(i));
    EXPECT_EQ(a.interner().info(i).domain, b.interner().info(i).domain);
  }
}

TEST(Interner, IdLookupsMatchStringLookupsOnCorpusPage) {
  // One page of each class under two devices, users 0 and 1 (personalized
  // slots carry the user in their URL) and two nonces (per-load slots).
  std::vector<web::PageModel> pages;
  for (const web::PageClass cls :
       {web::PageClass::Top100, web::PageClass::News, web::PageClass::Sports,
        web::PageClass::Mixed400}) {
    pages.push_back(web::generate_page(42, 3, cls));
  }
  int personalized = 0;  // URLs that carry a user
  for (const web::PageModel& page : pages) {
    for (const web::DeviceProfile& device : {web::nexus6(), web::nexus10()}) {
      for (const std::uint32_t user : {0u, 1u}) {
        for (const std::uint64_t nonce : {3u, 4u}) {
          web::LoadIdentity ident = test_identity(nonce);
          ident.device = device;
          ident.user = user;
          const web::PageInstance inst(page, ident);
          web::Interner& in = inst.interner();
          const std::string where = std::string(web::page_class_name(
                                        page.page_class())) +
                                    " " + device.name + " user " +
                                    std::to_string(user) + " nonce " +
                                    std::to_string(nonce);

          for (const web::InstanceResource& r : inst.resources()) {
            // The bytes are realize_url's.
            const web::Resource& slot = page.resource(r.template_id);
            EXPECT_EQ(r.url, web::realize_url(page, slot, ident)) << where;
            // String-keyed and id-keyed template lookup agree.
            const auto by_string = inst.find_by_url(r.url);
            const auto by_id = inst.template_of(r.url_id);
            ASSERT_TRUE(by_string.has_value()) << r.url;
            ASSERT_TRUE(by_id.has_value()) << r.url;
            EXPECT_EQ(*by_string, *by_id);
            EXPECT_EQ(*by_id, r.template_id);
            // Every field of the cached UrlInfo equals what interning the
            // string anew derives from parsing it.
            const web::UrlInfo& info = in.info(r.url_id);
            web::Interner fresh;
            const web::UrlInfo& parsed = fresh.info(fresh.url_id(r.url));
            EXPECT_TRUE(info.parse_ok) << r.url;
            EXPECT_EQ(info.parse_ok, parsed.parse_ok) << r.url;
            EXPECT_EQ(in.domain(info.domain), fresh.domain(parsed.domain))
                << r.url;
            EXPECT_EQ(info.type, parsed.type) << r.url;
            EXPECT_EQ(info.type, slot.type) << r.url;
            EXPECT_EQ(info.processable, parsed.processable) << r.url;
            EXPECT_EQ(info.processable,
                      browser::Browser::url_processable(r.url))
                << r.url;
            EXPECT_EQ(info.native_priority, parsed.native_priority) << r.url;
            EXPECT_EQ(info.resource_id, parsed.resource_id) << r.url;
            EXPECT_EQ(info.resource_id, r.template_id) << r.url;
            EXPECT_EQ(info.page_id, parsed.page_id) << r.url;
            EXPECT_EQ(info.version, parsed.version) << r.url;
            EXPECT_EQ(info.user, parsed.user) << r.url;
            if (info.user != 0) ++personalized;
          }

          // A foreign URL interned after build is never mistaken for a
          // resource.
          const web::UrlId ghost = in.url_id("ghost.example/p9/r99v1u0.js");
          EXPECT_GE(ghost, inst.size());
          EXPECT_EQ(inst.template_of(ghost), std::nullopt);
        }
      }
    }
  }
  EXPECT_GT(personalized, 0);
}

// Interning is pure bookkeeping: two runs of the same load produce
// bit-identical traced event streams (timestamps, names, args). Any hidden
// dependence on id assignment or hash-map iteration order introduced by the
// id-keyed hot paths would perturb event ordering and fail here.
TEST(Interner, TracedEventStreamIdenticalAcrossRepeatedLoads) {
  ScopedEnv trace_env("VROOM_TRACE", nullptr);
  const web::PageModel page = web::generate_page(42, 4, web::PageClass::News);

  auto traced_load = [&page](std::string* json) {
    harness::RunOptions opt;
    opt.seed = 42;
    opt.trace_sink = [json](const trace::Recorder& r) {
      *json = r.chrome_trace_json();
    };
    return harness::run_page_load(page, baselines::vroom(), opt, 1);
  };

  std::string first, second;
  const auto r1 = traced_load(&first);
  const auto r2 = traced_load(&second);
  EXPECT_TRUE(r1.finished);
  EXPECT_EQ(r1.plt, r2.plt);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// Accessors assert on out-of-range ids. An id minted by one load's interner
// is meaningless to another's (arena-backed storage is recycled between
// loads), so a cross-load id that slips through must die loudly in debug
// builds instead of reading recycled memory. (This test TU compiles with
// -UNDEBUG so the header asserts are live even in release CI.)
TEST(InternerDeathTest, OutOfRangeIdAsserts) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  web::Interner in;
  const web::UrlId a = in.url_id("a.example/p1/r0v2u0.html");
  (void)in.url(a);  // in-range: fine
  EXPECT_DEATH((void)in.url(web::UrlId{5}), "different interner");
  EXPECT_DEATH((void)in.info(web::UrlId{5}), "different interner");
  EXPECT_DEATH((void)in.domain(web::DomainId{5}), "different interner");
}

// Regression: ids from a *previous* world on the same (reset) arena are
// out of range for the new interner, not silently mapped to new strings.
TEST(InternerDeathTest, CrossLoadIdAsserts) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  sim::Arena arena;
  web::UrlId stale;
  {
    web::Interner in(&arena);
    (void)in.url_id("a.example/p1/r0v2u0.html");
    stale = in.url_id("b.example/p1/r1v7u0.css");  // id 1
  }
  arena.reset();
  web::Interner fresh(&arena);
  (void)fresh.url_id("c.example/p1/r2v0u0.js");  // id 0; count == 1
  EXPECT_DEATH((void)fresh.url(stale), "different interner");
}

}  // namespace
}  // namespace vroom
