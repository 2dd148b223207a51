#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>

#include "web/corpus.h"
#include "web/html_scanner.h"
#include "web/page_generator.h"
#include "web/page_instance.h"
#include "web/url.h"

namespace vroom::web {
namespace {

TEST(UrlTest, RoundTrip) {
  const std::string u = make_url("news3.com", 3, 17, 42, 2, "js");
  auto p = parse_url(u);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->domain, "news3.com");
  EXPECT_EQ(p->page_id, 3u);
  EXPECT_EQ(p->resource_id, 17u);
  EXPECT_EQ(p->version, 42u);
  EXPECT_EQ(p->user, 2u);
  EXPECT_EQ(p->ext, "js");

  // The largest value of every field fills max_url_size exactly.
  constexpr std::uint32_t kMax32 = 0xffffffffu;
  constexpr std::uint64_t kMax64 = ~std::uint64_t{0};
  const std::string longest =
      make_url("news3.com", kMax32, kMax32, kMax64, kMax32, "woff");
  EXPECT_EQ(longest.size(), max_url_size("news3.com", "woff"));
  const auto q = parse_url(longest);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(*q, (ParsedUrl{"news3.com", kMax32, kMax32, kMax64, kMax32,
                           "woff"}));
}

TEST(UrlTest, NoUserComponentWhenZero) {
  const std::string u = make_url("a.com", 1, 2, 3, 0, "css");
  EXPECT_EQ(u.find('u'), std::string::npos);
  auto p = parse_url(u);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->user, 0u);
}

TEST(UrlTest, MalformedInputsRejected) {
  EXPECT_FALSE(parse_url("").has_value());
  EXPECT_FALSE(parse_url("nodomainslash").has_value());
  EXPECT_FALSE(parse_url("a.com/x1/r2v3.js").has_value());
  EXPECT_FALSE(parse_url("a.com/p1/r2v3").has_value());
  EXPECT_FALSE(parse_url("a.com/p1/r2.js").has_value());
}

// Strict whole-value contract (harness/env.cpp): the extension tail must be
// exactly one alphanumeric token. The old catch-all accepted any suffix, so
// "r2v3.js.evil" parsed as ext="js.evil" with parse_ok=true.
TEST(UrlTest, ExtensionMustBeAlphanumericTail) {
  EXPECT_FALSE(parse_url("a.com/p1/r2v3.js.evil").has_value());
  EXPECT_FALSE(parse_url("a.com/p1/r2v3.js?x=1").has_value());
  EXPECT_FALSE(parse_url("a.com/p1/r2v3.js ").has_value());
  EXPECT_FALSE(parse_url("a.com/p1/r2v3.j-s").has_value());
  EXPECT_FALSE(parse_url("a.com/p1/r2v3.").has_value());
  // Digit-bearing real extensions still parse.
  auto p = parse_url("a.com/p1/r2v3.woff2");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->ext, "woff2");
}

TEST(UrlTest, DomainExtraction) {
  EXPECT_EQ(url_domain("cdn5.net/p1/r2v3.jpg"), "cdn5.net");
  EXPECT_EQ(url_domain("bare"), "bare");
}

class PageTest : public ::testing::Test {
 protected:
  PageModel page_ = generate_page(42, 7, PageClass::News);
};

TEST_F(PageTest, RootIsHtmlWithNoParent) {
  EXPECT_EQ(page_.root().type, ResourceType::Html);
  EXPECT_EQ(page_.root().parent, -1);
  EXPECT_EQ(page_.root().domain, page_.first_party());
}

TEST_F(PageTest, GenerationIsDeterministic) {
  PageModel again = generate_page(42, 7, PageClass::News);
  ASSERT_EQ(page_.size(), again.size());
  for (std::size_t i = 0; i < page_.size(); ++i) {
    EXPECT_EQ(page_.resource(i).domain, again.resource(i).domain);
    EXPECT_EQ(page_.resource(i).base_size, again.resource(i).base_size);
    EXPECT_EQ(page_.resource(i).volatility, again.resource(i).volatility);
  }
}

TEST_F(PageTest, DifferentSeedsDiffer) {
  PageModel other = generate_page(43, 7, PageClass::News);
  EXPECT_NE(page_.size(), other.size());
}

TEST_F(PageTest, ParentsPrecedeChildren) {
  for (const Resource& r : page_.resources()) {
    if (r.parent >= 0) {
      EXPECT_LT(static_cast<std::uint32_t>(r.parent), r.id);
    }
  }
}

TEST_F(PageTest, IframeContentIsMarked) {
  int iframe_docs = 0;
  for (const Resource& r : page_.resources()) {
    if (r.is_iframe_doc) {
      ++iframe_docs;
      EXPECT_EQ(r.type, ResourceType::Html);
      EXPECT_TRUE(r.in_iframe);
      // Everything under an iframe doc is iframe content.
      for (std::uint32_t c : page_.children(r.id)) {
        EXPECT_TRUE(page_.resource(c).in_iframe);
      }
    }
  }
  EXPECT_GT(iframe_docs, 0);
}

TEST_F(PageTest, ChainDepthSaneAndRootDeepest) {
  const int root_depth = page_.chain_depth(0);
  EXPECT_GE(root_depth, 3);  // html -> js -> image at minimum
  EXPECT_LE(root_depth, 10);
}

TEST_F(PageTest, HintableDescendantsPruneIframes) {
  auto scope = page_.hintable_descendants(0);
  std::set<std::uint32_t> in_scope(scope.begin(), scope.end());
  for (std::uint32_t id : scope) {
    const Resource& r = page_.resource(id);
    // Iframe docs allowed; their descendants are not.
    if (r.in_iframe) {
      EXPECT_TRUE(r.is_iframe_doc) << "non-doc iframe content leaked: " << id;
    }
  }
  // Scope ordering: parents appear before their included children.
  std::set<std::uint32_t> seen;
  seen.insert(0);
  for (std::uint32_t id : scope) {
    const auto parent = static_cast<std::uint32_t>(page_.resource(id).parent);
    EXPECT_TRUE(seen.count(parent)) << "child " << id << " before parent";
    seen.insert(id);
  }
}

TEST_F(PageTest, InstanceRealizationDeterministic) {
  LoadIdentity id;
  id.wall_time = sim::days(45);
  id.device = nexus6();
  id.user = 1;
  id.nonce = 99;
  PageInstance a(page_, id), b(page_, id);
  for (std::size_t i = 0; i < page_.size(); ++i) {
    EXPECT_EQ(a.resource(i).url, b.resource(i).url);
    EXPECT_EQ(a.resource(i).size, b.resource(i).size);
  }
}

TEST_F(PageTest, PerLoadResourcesDifferAcrossNonces) {
  LoadIdentity id;
  id.wall_time = sim::days(45);
  id.device = nexus6();
  id.user = 1;
  id.nonce = 1;
  LoadIdentity id2 = id;
  id2.nonce = 2;
  PageInstance a(page_, id), b(page_, id2);
  int changed = 0, per_load = 0;
  for (const Resource& r : page_.resources()) {
    if (r.volatility == Volatility::PerLoad) {
      ++per_load;
      if (a.resource(r.id).url != b.resource(r.id).url) ++changed;
    } else {
      EXPECT_EQ(a.resource(r.id).url, b.resource(r.id).url)
          << "non-per-load resource changed across nonces";
    }
  }
  EXPECT_GT(per_load, 0);
  EXPECT_EQ(changed, per_load);
}

TEST_F(PageTest, DeviceVariantChangesUrlOnlyForConditionalSlots) {
  LoadIdentity id;
  id.wall_time = sim::days(45);
  id.device = nexus6();
  id.nonce = 5;
  LoadIdentity tablet = id;
  tablet.device = nexus10();
  PageInstance a(page_, id), b(page_, tablet);
  for (const Resource& r : page_.resources()) {
    if (r.device_axis < 0) {
      EXPECT_EQ(a.resource(r.id).url, b.resource(r.id).url);
    }
  }
}

TEST_F(PageTest, PersonalizedUrlsCarryUser) {
  LoadIdentity id;
  id.wall_time = sim::days(45);
  id.device = nexus6();
  id.user = 3;
  id.nonce = 5;
  PageInstance inst(page_, id);
  for (const Resource& r : page_.resources()) {
    auto parsed = parse_url(inst.resource(r.id).url);
    ASSERT_TRUE(parsed.has_value());
    if (r.volatility == Volatility::Personalized) {
      EXPECT_EQ(parsed->user, 3u);
    } else {
      EXPECT_EQ(parsed->user, 0u);
    }
  }
}

TEST_F(PageTest, FindByUrlAndServableSize) {
  LoadIdentity id;
  id.wall_time = sim::days(45);
  id.device = nexus6();
  id.nonce = 5;
  PageInstance inst(page_, id);
  const auto& ir = inst.resource(3);
  EXPECT_EQ(inst.find_by_url(ir.url), std::optional<std::uint32_t>(3));
  EXPECT_FALSE(inst.find_by_url("x.com/p9/r9v9.js").has_value());
  // A stale version of the same slot is servable with a plausible size.
  auto parsed = parse_url(ir.url);
  const std::string stale = make_url(parsed->domain, parsed->page_id,
                                     parsed->resource_id, parsed->version + 8,
                                     parsed->user, parsed->ext);
  auto size = servable_size(page_, stale);
  ASSERT_TRUE(size.has_value());
  EXPECT_GT(*size, 0);
  // Interned, the stale URL is servable from its interned fields alike.
  Interner& interner = inst.interner();
  EXPECT_EQ(servable_size(page_, interner, interner.url_id(stale)), size);
  EXPECT_FALSE(
      servable_size(page_, interner, interner.url_id("x.com/p9/r9v9.js"))
          .has_value());
}

TEST_F(PageTest, HtmlScannerSeesOnlyMarkupChildren) {
  LoadIdentity id;
  id.wall_time = sim::days(45);
  id.device = nexus6();
  id.nonce = 5;
  PageInstance inst(page_, id);
  auto links = scan_html(inst, 0);
  EXPECT_FALSE(links.empty());
  double prev = -1;
  for (const auto& l : links) {
    const Resource& r = page_.resource(l.template_id);
    // The link is the served instance's own URL, viewed, not copied.
    EXPECT_EQ(l.url_id, inst.resource(l.template_id).url_id);
    EXPECT_EQ(l.url.data(), inst.interner().url(l.url_id).data());
    EXPECT_EQ(r.parent, 0);
    EXPECT_EQ(r.via, DiscoveryVia::HtmlTag);
    EXPECT_GE(l.offset, prev);  // ordered by document position
    prev = l.offset;
  }
}

TEST(CorpusTest, ExpectedSizes) {
  EXPECT_EQ(Corpus::top100(1).size(), 100u);
  EXPECT_EQ(Corpus::news_sports(1).size(), 100u);
  EXPECT_EQ(Corpus::accuracy_set(1, 30).size(), 30u);
  EXPECT_EQ(Corpus::smoke(1).size(), 4u);
}

TEST(CorpusTest, PageIdsUnique) {
  auto c = Corpus::news_sports(1);
  std::set<std::uint32_t> ids;
  for (const auto& p : c.pages()) ids.insert(p.page_id());
  EXPECT_EQ(ids.size(), c.size());
}

// A negative count is an error, not a huge reserve or an empty corpus.
TEST(CorpusTest, AddPagesRejectsNegativeCount) {
  Corpus c("negative", 1);
  EXPECT_THROW(c.add_pages(PageClass::News, -2), std::invalid_argument);
  EXPECT_EQ(c.size(), 0u);
  c.add_pages(PageClass::News, 0);
  EXPECT_EQ(c.size(), 0u);
}

}  // namespace
}  // namespace vroom::web
