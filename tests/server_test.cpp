#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "server/origin_server.h"
#include "server/replay_store.h"
#include "web/page_generator.h"

namespace vroom::server {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  ServerTest() : page_(web::generate_page(42, 7, web::PageClass::News)) {
    id_.wall_time = sim::days(45);
    id_.device = web::nexus6();
    id_.user = 1;
    id_.nonce = 9;
    instance_ = std::make_unique<web::PageInstance>(page_, id_);
    store_ = std::make_unique<ReplayStore>(*instance_);
  }

  http::Request request_for(std::uint32_t rid) const {
    http::Request req;
    req.url = instance_->resource(rid).url;
    req.user = id_.user;
    req.device = id_.device;
    return req;
  }

  // `url`'s id in the page world's interner, which advice speaks.
  web::UrlId id_of(std::string_view url) const {
    return instance_->interner().url_id(url);
  }
  http::PushItem push_of(std::string_view url, std::int64_t bytes) const {
    const web::UrlId id = id_of(url);
    return {.url_id = id,
            .url = instance_->interner().url(id),
            .body_bytes = bytes};
  }

  web::PageModel page_;
  web::LoadIdentity id_;
  std::unique_ptr<web::PageInstance> instance_;
  std::unique_ptr<ReplayStore> store_;
};

TEST_F(ServerTest, StoreResolvesCurrentUrls) {
  auto e = store_->lookup(instance_->resource(0).url);
  ASSERT_TRUE(e.has_value());
  EXPECT_TRUE(e->current);
  EXPECT_EQ(e->template_id, 0u);
  EXPECT_EQ(e->type, web::ResourceType::Html);
  EXPECT_EQ(e->size, instance_->resource(0).size);
}

TEST_F(ServerTest, StoreResolvesStaleVersions) {
  auto parsed = web::parse_url(instance_->resource(4).url);
  const std::string stale =
      web::make_url(parsed->domain, parsed->page_id, parsed->resource_id,
                    parsed->version + 16, parsed->user, parsed->ext);
  auto e = store_->lookup(stale);
  ASSERT_TRUE(e.has_value());
  EXPECT_FALSE(e->current);
  EXPECT_GT(e->size, 0);
  // A request carrying the stale URL's interned id resolves from the
  // interned fields to the same entry.
  http::Request req = request_for(4);
  req.url = stale;
  req.url_id = id_of(stale);
  auto by_id = store_->lookup(req);
  ASSERT_TRUE(by_id.has_value());
  EXPECT_FALSE(by_id->current);
  EXPECT_EQ(by_id->size, e->size);
  EXPECT_EQ(by_id->type, e->type);
  EXPECT_EQ(by_id->template_id, e->template_id);
}

TEST_F(ServerTest, StoreRejectsForeignUrls) {
  EXPECT_FALSE(store_->lookup("other.com/p999/r0v0.html").has_value());
}

TEST_F(ServerTest, OriginServesBody) {
  OriginServer s(page_.first_party(), *store_);
  auto reply = s.handle(request_for(0));
  EXPECT_EQ(reply.body_bytes, instance_->resource(0).size);
  EXPECT_TRUE(reply.hints.empty());
  EXPECT_TRUE(reply.pushes.empty());
  EXPECT_EQ(s.requests_served(), 1);
}

TEST_F(ServerTest, Conditional304OnlyForCurrentVersion) {
  OriginServer s(page_.first_party(), *store_);
  http::Request req = request_for(0);
  req.conditional = true;
  EXPECT_TRUE(s.handle(req).not_modified);

  auto parsed = web::parse_url(req.url);
  const std::string newer =
      web::make_url(parsed->domain, parsed->page_id, parsed->resource_id,
                    parsed->version + 8, parsed->user, parsed->ext);
  req.url = newer;
  EXPECT_FALSE(s.handle(req).not_modified);
}

// Provider that advises fixed pushes/hints, to test origin-side filtering.
class FixedProvider : public DependencyProvider {
 public:
  DependencyAdvice advise(const std::string&, const http::Request&) override {
    return advice;
  }
  DependencyAdvice advice;
};

TEST_F(ServerTest, ProviderConsultedOnlyForHtml) {
  OriginServer s(page_.first_party(), *store_);
  FixedProvider provider;
  provider.advice.hints.add(id_of("x.com/p1/r1v1.js"),
                            http::HintPriority::Preload, 0);
  s.set_provider(&provider);

  auto html_reply = s.handle(request_for(0));
  EXPECT_FALSE(html_reply.hints.empty());

  // Find a non-HTML resource on the first-party domain.
  for (const auto& r : page_.resources()) {
    if (r.domain == page_.first_party() && r.type != web::ResourceType::Html) {
      auto reply = s.handle(request_for(r.id));
      EXPECT_TRUE(reply.hints.empty());
      break;
    }
  }
}

TEST_F(ServerTest, CrossDomainPushesFiltered) {
  OriginServer s(page_.first_party(), *store_);
  FixedProvider provider;
  provider.advice.pushes = {
      push_of("evil.com/p7/r1v1.js", 100),
      push_of(web::make_url(page_.first_party(), 7, 1, 1, 0, "js"), 100)};
  s.set_provider(&provider);
  auto reply = s.handle(request_for(0));
  ASSERT_EQ(reply.pushes.size(), 1u);
  EXPECT_EQ(web::url_domain(reply.pushes[0].url), page_.first_party());
  // The origin stamps the push with its interned type's processability.
  EXPECT_TRUE(reply.pushes[0].processable);
}

TEST_F(ServerTest, CachedContentNotPushed) {
  OriginServer s(page_.first_party(), *store_);
  FixedProvider provider;
  const std::string local =
      web::make_url(page_.first_party(), 7, 1, 1, 0, "js");
  provider.advice.pushes = {push_of(local, 100)};
  s.set_provider(&provider);
  s.set_cache_digest([&](std::string_view url) { return url == local; });
  auto reply = s.handle(request_for(0));
  EXPECT_TRUE(reply.pushes.empty());
}

TEST_F(ServerTest, FarmLazilyCreatesAndConfigures) {
  ServerFarm farm(*store_);
  FixedProvider provider;
  provider.advice.hints.add(id_of("x.com/p1/r1v1.js"),
                            http::HintPriority::Preload, 0);
  farm.set_provider_for_all(&provider);
  OriginServer& fp = farm.server(page_.first_party());
  EXPECT_FALSE(fp.handle(request_for(0)).hints.empty());
  // Same object returned on re-lookup.
  EXPECT_EQ(&farm.server(page_.first_party()), &fp);
}

TEST_F(ServerTest, FirstPartyOnlyAidLeavesThirdPartiesPlain) {
  ServerFarm farm(*store_);
  FixedProvider provider;
  provider.advice.hints.add(id_of("x.com/p1/r1v1.js"),
                            http::HintPriority::Preload, 0);
  farm.set_provider_first_party_only(&provider);

  // Find an iframe doc hosted by a third party.
  for (const auto& r : page_.resources()) {
    if (r.is_iframe_doc && !page_.is_first_party_org(r.domain)) {
      OriginServer& third = farm.server(r.domain);
      auto reply = third.handle(request_for(r.id));
      EXPECT_TRUE(reply.hints.empty());
      break;
    }
  }
  OriginServer& fp = farm.server(page_.first_party());
  EXPECT_FALSE(fp.handle(request_for(0)).hints.empty());
}

}  // namespace
}  // namespace vroom::server
