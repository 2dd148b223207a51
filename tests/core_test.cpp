#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/accuracy.h"
#include "core/client_scheduler.h"
#include "core/hint_generator.h"
#include "core/offline_resolver.h"
#include "core/online_analyzer.h"
#include "core/vroom_provider.h"
#include "harness/experiment.h"
#include "harness/stats.h"
#include "sim/random.h"
#include "web/corpus.h"
#include "web/page_generator.h"
#include "web/trace_io.h"

namespace vroom::core {
namespace {

class CoreTest : public ::testing::Test {
 protected:
  CoreTest() : page_(web::generate_page(42, 7, web::PageClass::News)) {
    id_.wall_time = sim::days(45);
    id_.device = web::nexus6();
    id_.user = 1;
    id_.nonce = 11;
    instance_ = std::make_unique<web::PageInstance>(page_, id_);
  }

  web::PageModel page_;
  web::LoadIdentity id_;
  std::unique_ptr<web::PageInstance> instance_;
  OfflineConfig off_;
};

TEST_F(CoreTest, OrgKnowsUserOnlyWithinOrganization) {
  EXPECT_TRUE(org_knows_user(page_, page_.first_party(), page_.first_party()));
  ASSERT_GT(page_.first_party_group().size(), 1u);
  EXPECT_TRUE(org_knows_user(page_, page_.first_party(),
                             page_.first_party_group()[1]));
  EXPECT_FALSE(org_knows_user(page_, page_.first_party(), "ads0.net"));
  EXPECT_TRUE(org_knows_user(page_, "ads0.net", "ads0.net"));
  EXPECT_FALSE(org_knows_user(page_, "ads0.net", page_.first_party()));
}

TEST_F(CoreTest, StableSetExcludesVolatileClasses) {
  OfflineResolver resolver(page_, off_);
  const auto stable = stable_urls(
      page_, resolver.stable_set(id_.wall_time, id_.device,
                                 page_.first_party(), id_.user));
  EXPECT_FALSE(stable.empty());
  for (const auto& [rid, url] : stable) {
    const web::Resource& r = page_.resource(rid);
    EXPECT_NE(r.volatility, web::Volatility::PerLoad)
        << "per-load resource survived the crawl intersection";
    EXPECT_NE(r.volatility, web::Volatility::Hourly)
        << "hour-scale resource survived a 3-hour crawl window";
    EXPECT_NE(r.volatility, web::Volatility::Personalized);
  }
  // Most stable-class resources should be present.
  int stable_class = 0, covered = 0;
  for (const auto& r : page_.resources()) {
    if (r.volatility == web::Volatility::Stable) {
      ++stable_class;
      if (stable.count(r.id)) ++covered;
    }
  }
  EXPECT_GT(covered, stable_class * 8 / 10);
}

// The advice scope of document `doc`, walked the way the processing order
// is defined rather than the way PageModel stores it: each node's children
// copied, stable-sorted by (discovery offset, id), visited in preorder, and
// nothing below an embedded HTML document.
std::vector<std::uint32_t> sorted_walk(const web::PageModel& model,
                                       std::uint32_t doc) {
  std::vector<std::uint32_t> out;
  auto visit = [&](auto& self, std::uint32_t id) -> void {
    std::vector<std::uint32_t> kids = model.children(id);
    std::stable_sort(kids.begin(), kids.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       const double oa = model.resource(a).discovery_offset;
                       const double ob = model.resource(b).discovery_offset;
                       return oa != ob ? oa < ob : a < b;
                     });
    for (const std::uint32_t k : kids) {
      out.push_back(k);
      if (model.resource(k).type != web::ResourceType::Html) self(self, k);
    }
  };
  visit(visit, doc);
  return out;
}

// The processing order PageModel keeps as it is built is the sorted walk,
// on every HTML document of every page of three corpora.
TEST(HintScopeOrder, PrecomputedOrderEqualsSortedWalk) {
  int docs = 0;
  for (const web::Corpus& corpus :
       {web::Corpus::news_sports(42), web::Corpus::top100(42),
        web::Corpus::mixed400_sample(42, 30)}) {
    for (const web::PageModel& page : corpus.pages()) {
      for (const web::Resource& r : page.resources()) {
        if (r.type != web::ResourceType::Html) continue;
        ++docs;
        EXPECT_EQ(page.hintable_descendants(r.id), sorted_walk(page, r.id))
            << corpus.name() << " page " << page.page_id() << " doc " << r.id;
      }
    }
  }
  EXPECT_GT(docs, 230);
}

// The same on a page loaded from a trace whose children arrive out of
// offset order, with ties between siblings and a nested iframe document.
TEST(HintScopeOrder, TraceOrderWithTiesEqualsSortedWalk) {
  const std::string stable = " vol=stable period=864000000000 phase=0\n";
  auto res = [&](int id, int parent, const char* type, const char* via,
                 const char* off, const char* extra = "") {
    return "res id=" + std::to_string(id) + " parent=" +
           std::to_string(parent) + " type=" + type + " via=" + via +
           " off=" + off + " size=1000 domain=a.com" + extra + stable;
  };
  const std::string trace =
      "page id=3 class=news first_party=a.com\n" +
      res(0, -1, "html", "tag", "0") + res(1, 0, "js", "tag", "0.8") +
      res(2, 0, "css", "tag", "0.2") + res(3, 0, "image", "tag", "0.5") +
      res(4, 1, "image", "js", "0.5") + res(5, 0, "js", "tag", "0.2") +
      res(6, 1, "image", "js", "0.1") + res(7, 0, "html", "tag", "0.5",
                                            " flags=iframe_doc,in_iframe") +
      res(8, 7, "image", "tag", "0.3", " flags=in_iframe") +
      res(9, 2, "font", "css", "0.9") + res(10, 0, "image", "tag", "0.2") +
      res(11, 1, "js", "js", "0.1") + res(12, 11, "image", "js", "0") +
      res(13, 7, "js", "tag", "0.1", " flags=in_iframe");
  std::string error;
  const std::optional<web::PageModel> page =
      web::page_from_trace(trace, &error);
  ASSERT_TRUE(page.has_value()) << error;
  const std::vector<std::uint32_t> want = {2, 9, 5, 10, 3, 7, 1, 6, 11, 12, 4};
  EXPECT_EQ(sorted_walk(*page, 0), want);
  EXPECT_EQ(page->hintable_descendants(0), want);
  EXPECT_EQ(page->hintable_descendants(7), sorted_walk(*page, 7));
  EXPECT_EQ(page->hintable_descendants(7), (std::vector<std::uint32_t>{13, 8}));
  for (const web::Resource& r : page->resources()) {
    EXPECT_EQ(page->hintable_descendants(r.id), sorted_walk(*page, r.id))
        << r.id;
  }
}

// The crawl, intersect and cluster steps of §4.1.2 on realized URL strings,
// as web::realize_url writes them: the reference the slot-key resolver must
// match exactly.
struct StringResolver {
  using Urls = std::map<std::uint32_t, std::string>;
  using Candidates = std::vector<std::pair<std::uint32_t, std::string>>;

  const web::PageModel& model;
  OfflineConfig config;

  Urls load(sim::Time when, const web::DeviceProfile& device,
            const std::string& serving, std::uint32_t user,
            std::uint64_t nonce) const {
    Urls out;
    for (const web::Resource& r : model.resources()) {
      web::LoadIdentity id;
      id.wall_time = when;
      id.device = device;
      id.nonce = nonce;
      id.user = org_knows_user(model, serving, r.domain) ? user : 0;
      out.emplace(r.id, web::realize_url(model, r, id));
    }
    return out;
  }

  Urls intersection(sim::Time now, const web::DeviceProfile& device,
                    const std::string& serving, std::uint32_t user) const {
    Urls stable;
    for (int i = 1; i <= config.loads; ++i) {
      const sim::Time when = now - i * config.spacing;
      const Urls crawl = load(
          when, device, serving, user,
          sim::derive_seed(static_cast<std::uint64_t>(when) ^ model.page_id(),
                           "offline-crawl"));
      if (i == 1) {
        stable = crawl;
        continue;
      }
      std::erase_if(stable, [&](const auto& slot) {
        const auto it = crawl.find(slot.first);
        return it == crawl.end() || it->second != slot.second;
      });
    }
    return stable;
  }

  double iou(sim::Time now, const web::DeviceProfile& a,
             const web::DeviceProfile& b) const {
    std::set<std::string> ua, ub;
    for (const auto& [id, url] : intersection(now, a, model.first_party(), 0)) {
      ua.insert(url);
    }
    for (const auto& [id, url] : intersection(now, b, model.first_party(), 0)) {
      ub.insert(url);
    }
    std::size_t inter = 0;
    for (const std::string& u : ua) inter += ub.count(u);
    const std::size_t uni = ua.size() + ub.size() - inter;
    return uni == 0 ? 1.0
                    : static_cast<double>(inter) / static_cast<double>(uni);
  }

  // Index of each known device's class representative.
  std::vector<std::size_t> classes(sim::Time now) const {
    const auto& known = config.known_devices;
    std::vector<std::size_t> rep_of(known.size()), reps;
    for (std::size_t i = 0; i < known.size(); ++i) {
      rep_of[i] = i;
      for (std::size_t rep : reps) {
        if (iou(now, known[i], known[rep]) >= config.iou_threshold) {
          rep_of[i] = rep;
          break;
        }
      }
      if (rep_of[i] == i) reps.push_back(i);
    }
    return rep_of;
  }

  // `crawl_dev` is the crawl device for the client's class at
  // (serve time - hint_age).
  Candidates candidates(const web::PageInstance& served, std::uint32_t doc,
                        const std::string& serving, std::uint32_t user,
                        ResolutionMode mode,
                        const web::DeviceProfile& crawl_dev,
                        sim::Time hint_age) const {
    const sim::Time now = served.identity().wall_time;
    const web::DeviceProfile& device = served.identity().device;
    Urls by_id;
    switch (mode) {
      case ResolutionMode::OfflinePlusOnline:
      case ResolutionMode::OfflineOnly:
        by_id = intersection(now - hint_age, crawl_dev, serving, user);
        if (mode == ResolutionMode::OfflinePlusOnline) {
          for (const web::ScannedLink& link :
               analyze_served_html(served, doc).links) {
            by_id[link.template_id] = std::string(link.url);
          }
        }
        break;
      case ResolutionMode::OnlineOnly:
        by_id = load(now, device, serving, user,
                     sim::derive_seed(served.identity().nonce ^ 0x5eedf00dULL,
                                      "server-online-load"));
        break;
      case ResolutionMode::PreviousLoad: {
        const sim::Time when = now - sim::minutes(55);
        by_id = load(when, device, serving, user,
                     sim::derive_seed(
                         static_cast<std::uint64_t>(when) ^ model.page_id(),
                         "prev-load"));
        break;
      }
    }
    Candidates ordered;
    for (std::uint32_t id : sorted_walk(model, doc)) {
      const auto it = by_id.find(id);
      if (it != by_id.end()) ordered.emplace_back(id, it->second);
    }
    return ordered;
  }
};

// An advised id's UrlInfo is what interning its URL by parsing gives: the
// origin's interning from slot fields matches parse_url.
void expect_info_parses(const web::Interner& interner, web::UrlId id) {
  const std::string url(interner.url(id));
  web::Interner parsing;
  const web::UrlInfo& want = parsing.info(parsing.url_id(url));
  const web::UrlInfo& got = interner.info(id);
  ASSERT_TRUE(want.parse_ok) << url;
  EXPECT_TRUE(got.parse_ok) << url;
  EXPECT_EQ(interner.domain(got.domain), parsing.domain(want.domain)) << url;
  EXPECT_EQ(got.type, want.type) << url;
  EXPECT_EQ(got.processable, want.processable) << url;
  EXPECT_EQ(got.native_priority, want.native_priority) << url;
  EXPECT_EQ(got.resource_id, want.resource_id) << url;
  EXPECT_EQ(got.page_id, want.page_id) << url;
  EXPECT_EQ(got.version, want.version) << url;
  EXPECT_EQ(got.user, want.user) << url;
}

// Slot keys are exact: over pages of every class, every known device, with
// and without a user cookie, served by the first party, another domain of
// its organization and a third party, at a crawl time on an hour boundary
// and one off it, the resolver agrees with the string reference on stable
// sets, IoU doubles, cluster representatives and ordered advice. The advice
// is also compared with hints 1 h and 24 h old, whose rotated slots the
// origin writes and interns as stale URLs.
TEST(OfflineResolverEquivalence, SlotKeysMatchStringReference) {
  const std::vector<web::PageModel> pages = {
      web::generate_page(42, 7, web::PageClass::News),
      web::generate_page(42, 3, web::PageClass::Sports),
      web::generate_page(42, 11, web::PageClass::Top100),
      web::generate_page(42, 5, web::PageClass::Mixed400)};
  const sim::Time times[] = {sim::days(45),
                             sim::days(45) + sim::minutes(37) + sim::seconds(11)};
  const ResolutionMode modes[] = {
      ResolutionMode::OfflinePlusOnline, ResolutionMode::OfflineOnly,
      ResolutionMode::OnlineOnly, ResolutionMode::PreviousLoad};
  // Only the offline modes read the crawls hint_age shifts.
  const sim::Time hint_ages[] = {0, sim::hours(1), sim::hours(24)};
  const std::vector<web::DeviceProfile> devices = web::all_devices();
  const OfflineConfig config;
  int personalized_urls = 0, stale_urls = 0;
  for (const web::PageModel& page : pages) {
    ASSERT_GT(page.first_party_group().size(), 1u);
    // A third party, preferably one that personalizes a slot of its own.
    std::string third_party;
    for (const web::Resource& r : page.resources()) {
      if (page.is_first_party_org(r.domain)) continue;
      if (third_party.empty() ||
          r.volatility == web::Volatility::Personalized) {
        third_party = r.domain;
        if (r.volatility == web::Volatility::Personalized) break;
      }
    }
    ASSERT_FALSE(third_party.empty());
    const std::string domains[] = {page.first_party(),
                                   page.first_party_group()[1], third_party};
    std::vector<std::uint32_t> docs = {0};
    for (const web::Resource& r : page.resources()) {
      if (r.is_iframe_doc) {
        docs.push_back(r.id);
        break;
      }
    }
    const StringResolver ref{page, config};
    for (const sim::Time now : times) {
      const OfflineResolver resolver(page, config);
      // Class representatives at each hint age's crawl time.
      std::vector<std::vector<std::size_t>> rep_of;
      for (const sim::Time age : hint_ages) {
        rep_of.push_back(ref.classes(now - age));
      }
      for (std::size_t d = 0; d < devices.size(); ++d) {
        const web::DeviceProfile& device = devices[d];
        for (const web::DeviceProfile& other : devices) {
          EXPECT_EQ(resolver.device_iou(now, device, other),
                    ref.iou(now, device, other))
              << device.name << " vs " << other.name;
        }
        const web::DeviceProfile& crawl_dev =
            config.known_devices[rep_of[0][d]];
        EXPECT_EQ(resolver.crawl_device(now, device).name, crawl_dev.name);
        for (const std::uint32_t user : {0u, 1u}) {
          web::LoadIdentity id;
          id.wall_time = now;
          id.device = device;
          id.user = user;
          id.nonce = 11;
          const web::PageInstance served(page, id);
          const web::Interner& interner = served.interner();
          for (const std::string& domain : domains) {
            SCOPED_TRACE(page.first_party() + " " + device.name + " user " +
                         std::to_string(user) + " via " + domain + " at " +
                         std::to_string(now));
            EXPECT_EQ(
                stable_urls(page,
                            resolver.stable_set(now, device, domain, user)),
                ref.intersection(now, crawl_dev, domain, user));
            for (const std::uint32_t doc : docs) {
              for (std::size_t a = 0; a < std::size(hint_ages); ++a) {
                const web::DeviceProfile& aged_dev =
                    config.known_devices[rep_of[a][d]];
                for (const ResolutionMode mode : modes) {
                  if (a > 0 && mode != ResolutionMode::OfflinePlusOnline &&
                      mode != ResolutionMode::OfflineOnly) {
                    continue;
                  }
                  const auto got = resolve_candidates(
                      served, doc, domain, user, mode, resolver, hint_ages[a]);
                  StringResolver::Candidates urls;
                  for (const auto& [rid, url] : got) {
                    urls.emplace_back(rid, interner.url(url));
                    expect_info_parses(interner, url);
                    personalized_urls +=
                        urls.back().second.find("u1.") != std::string::npos;
                    stale_urls += !served.template_of(url).has_value();
                  }
                  EXPECT_EQ(urls, ref.candidates(served, doc, domain, user,
                                                 mode, aged_dev, hint_ages[a]))
                      << resolution_mode_name(mode) << " doc " << doc
                      << " hint age " << hint_ages[a];
                }
              }
            }
          }
        }
      }
    }
  }
  // The user component of slot keys was exercised, not only the version,
  // and so were stale rotations.
  EXPECT_GT(personalized_urls, 0);
  EXPECT_GT(stale_urls, 0);
}

// Prefix clustering is exact. A resolver places only the known devices up
// to the client's, so a fresh resolver's first crawl_device call sees a
// cold clustering: it must name the representative the string reference's
// full clustering gives. Covers every known device with the known list in
// either order, an unknown handset that matches one by rendering axes and
// one that matches none, each on a fresh resolver and all on one resolver
// in shuffled order.
TEST(OfflineResolverEquivalence, ColdCrawlDeviceMatchesFullClustering) {
  const web::PageModel page = web::generate_page(42, 7, web::PageClass::News);
  const sim::Time now = sim::days(45);
  const std::vector<web::DeviceProfile> forward = web::all_devices();
  const std::vector<web::DeviceProfile> reversed(forward.rbegin(),
                                                 forward.rend());
  for (const std::vector<web::DeviceProfile>& known : {forward, reversed}) {
    OfflineConfig config;
    config.known_devices = known;
    const std::vector<std::size_t> rep_of =
        StringResolver{page, config}.classes(now);
    // Each query device and the name of the crawl device it must get.
    std::vector<std::pair<web::DeviceProfile, std::string>> queries;
    for (std::size_t i = 0; i < known.size(); ++i) {
      queries.emplace_back(known[i], known[rep_of[i]].name);
    }
    web::DeviceProfile lookalike = known.back();
    lookalike.name = "Lookalike";
    queries.emplace_back(lookalike, known[rep_of.back()].name);
    web::DeviceProfile unmatched{"Unmatched", 0, 0, 0, 1.0};
    while (std::any_of(known.begin(), known.end(), [&](const auto& d) {
      return d.same_rendering(unmatched);
    })) {
      ++unmatched.width;
    }
    queries.emplace_back(unmatched, known.front().name);

    for (const auto& [device, want] : queries) {
      EXPECT_EQ(OfflineResolver(page, config).crawl_device(now, device).name,
                want)
          << device.name << " first of " << known.front().name;
    }
    std::mt19937_64 rng(known.size());
    for (int round = 0; round < 4; ++round) {
      std::shuffle(queries.begin(), queries.end(), rng);
      const OfflineResolver resolver(page, config);
      for (const auto& [device, want] : queries) {
        EXPECT_EQ(resolver.crawl_device(now, device).name, want)
            << device.name << " in round " << round;
      }
    }
  }
}

TEST_F(CoreTest, EmptyKnownDevicesRejectedUnlessExact) {
  OfflineConfig config = off_;
  config.known_devices.clear();
  for (const DeviceHandling handling :
       {DeviceHandling::SingleClass, DeviceHandling::EquivalenceClasses}) {
    config.device_handling = handling;
    try {
      const OfflineResolver resolver(page_, config);
      ADD_FAILURE() << "an empty device list was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("known_devices"), std::string::npos)
          << e.what();
    }
  }
  // Exact crawls with the client's own device and needs no list.
  config.device_handling = DeviceHandling::Exact;
  const OfflineResolver exact(page_, config);
  EXPECT_EQ(exact.crawl_device(id_.wall_time, web::nexus10()).name, "Nexus10");
  const StableSet& stable =
      exact.stable_set(id_.wall_time, web::nexus10(), page_.first_party(), 0);
  EXPECT_TRUE(std::any_of(stable.begin(), stable.end(),
                          [](const auto& key) { return key.has_value(); }));
}

TEST_F(CoreTest, DeviceIouHigherForSimilarDevices) {
  OfflineResolver resolver(page_, off_);
  const double similar =
      resolver.device_iou(id_.wall_time, web::nexus6(), web::oneplus3());
  const double tablet =
      resolver.device_iou(id_.wall_time, web::nexus6(), web::nexus10());
  const double self =
      resolver.device_iou(id_.wall_time, web::nexus6(), web::nexus6());
  EXPECT_DOUBLE_EQ(self, 1.0);
  EXPECT_GT(similar, tablet);
  EXPECT_GT(tablet, 0.3);
}

TEST_F(CoreTest, CrawlDeviceHandlingModes) {
  OfflineConfig exact = off_;
  exact.device_handling = DeviceHandling::Exact;
  EXPECT_EQ(OfflineResolver(page_, exact)
                .crawl_device(id_.wall_time, web::nexus10())
                .name,
            "Nexus10");

  OfflineConfig single = off_;
  single.device_handling = DeviceHandling::SingleClass;
  EXPECT_EQ(OfflineResolver(page_, single)
                .crawl_device(id_.wall_time, web::nexus10())
                .name,
            off_.known_devices.front().name);

  // Equivalence classes: a phone maps to a phone-class representative.
  OfflineResolver clustered(page_, off_);
  const auto& rep = clustered.crawl_device(id_.wall_time, web::oneplus3());
  EXPECT_EQ(rep.screen, 0);
}

TEST_F(CoreTest, OnlineScanMatchesMarkup) {
  OnlineScan scan = analyze_served_html(*instance_, 0);
  EXPECT_FALSE(scan.links.empty());
  EXPECT_GT(web::scan_cost(instance_->resource(0).size), sim::ms(10));
  for (const web::ScannedLink& link : scan.links) {
    EXPECT_EQ(instance_->resource(link.template_id).url, link.url);
    EXPECT_EQ(instance_->resource(link.template_id).url_id, link.url_id);
    EXPECT_EQ(page_.resource(link.template_id).via,
              web::DiscoveryVia::HtmlTag);
    EXPECT_EQ(page_.resource(link.template_id).parent, 0);
  }
}

TEST_F(CoreTest, HintClassificationFollowsTable1) {
  web::Resource r;
  r.type = web::ResourceType::Js;
  EXPECT_EQ(classify_hint(r), http::HintPriority::Preload);
  r.async = true;
  EXPECT_EQ(classify_hint(r), http::HintPriority::SemiImportant);
  r.type = web::ResourceType::Image;
  EXPECT_EQ(classify_hint(r), http::HintPriority::Unimportant);
  r.type = web::ResourceType::Css;
  r.async = false;
  r.in_iframe = true;  // iframe content is always low priority (footnote 4)
  EXPECT_EQ(classify_hint(r), http::HintPriority::Unimportant);
  web::Resource doc;
  doc.type = web::ResourceType::Html;
  EXPECT_EQ(classify_hint(doc), http::HintPriority::Unimportant);
}

TEST_F(CoreTest, BuildAdvicePushesHighPriorityLocalOnly) {
  std::vector<std::pair<std::uint32_t, web::UrlId>> ordered;
  for (std::uint32_t rid : page_.hintable_descendants(0)) {
    ordered.emplace_back(rid, instance_->resource(rid).url_id);
  }
  AdviceBuild build =
      build_advice(*instance_, ordered, page_.first_party(),
                   /*hints_enabled=*/true, PushSelection::HighPriorityLocal);
  EXPECT_FALSE(build.hints.empty());
  for (const auto& p : build.pushes) {
    EXPECT_EQ(p.url, instance_->interner().url(p.url_id));
    EXPECT_EQ(web::url_domain(p.url), page_.first_party());
    EXPECT_GT(p.body_bytes, 0);
  }
  // No URL appears both pushed and hinted.
  std::set<web::UrlId> pushed;
  for (const auto& p : build.pushes) pushed.insert(p.url_id);
  for (const auto& h : build.hints.hints) {
    EXPECT_FALSE(pushed.count(h.url)) << instance_->interner().url(h.url);
  }
}

TEST_F(CoreTest, TruncateHintsDropsLowPriorityFirst) {
  web::Interner interner;
  http::HintSet hs;
  for (int i = 0; i < 5; ++i) {
    hs.add(interner.url_id("u" + std::to_string(i)),
           http::HintPriority::Unimportant, i);
  }
  for (int i = 0; i < 3; ++i) {
    hs.add(interner.url_id("p" + std::to_string(i)),
           http::HintPriority::Preload, i);
  }
  hs.add(interner.url_id("s0"), http::HintPriority::SemiImportant, 0);

  http::HintSet untouched = hs;
  truncate_hints(untouched, 0);
  EXPECT_EQ(untouched.hints.size(), 9u);

  truncate_hints(hs, 5);
  ASSERT_EQ(hs.hints.size(), 5u);
  // All preloads and the semi survive; only one unimportant remains.
  int preload = 0, semi = 0, low = 0;
  for (const auto& h : hs.hints) {
    switch (h.priority) {
      case http::HintPriority::Preload: ++preload; break;
      case http::HintPriority::SemiImportant: ++semi; break;
      case http::HintPriority::Unimportant: ++low; break;
    }
  }
  EXPECT_EQ(preload, 3);
  EXPECT_EQ(semi, 1);
  EXPECT_EQ(low, 1);
  // Within a class, earlier processing order survives.
  EXPECT_EQ(interner.url(hs.hints[0].url), "p0");
}

TEST_F(CoreTest, HintBudgetStillLoadsAndLimitsHeaderCount) {
  harness::RunOptions opt;
  baselines::Strategy budget = baselines::vroom();
  budget.provider.max_hints = 20;
  auto r = harness::run_page_load(page_, budget, opt, 1);
  ASSERT_TRUE(r.finished);
  int hinted = 0;
  for (const auto& t : r.timings) {
    if (t.hinted) ++hinted;
  }
  // Multiple documents each hint up to 20; still far below unlimited.
  auto full = harness::run_page_load(page_, baselines::vroom(), opt, 1);
  int full_hinted = 0;
  for (const auto& t : full.timings) {
    if (t.hinted) ++full_hinted;
  }
  EXPECT_LT(hinted, full_hinted);
}

TEST_F(CoreTest, ProviderAdvisesOnRootRequest) {
  server::ReplayStore store(*instance_);
  VroomProviderConfig cfg;
  VroomProvider provider(store, cfg);
  http::Request req;
  req.url = instance_->resource(0).url;
  req.user = id_.user;
  req.device = id_.device;
  auto advice = provider.advise(page_.first_party(), req);
  EXPECT_FALSE(advice.hints.empty());
  EXPECT_GT(advice.extra_delay, 0);  // online HTML scan costs time
  // Hints must not include iframe descendants.
  for (const auto& h : advice.hints.hints) {
    auto rid = instance_->template_of(h.url);
    if (rid.has_value()) {
      const web::Resource& r = page_.resource(*rid);
      if (r.in_iframe) {
        EXPECT_TRUE(r.is_iframe_doc);
      }
    }
  }
}

TEST_F(CoreTest, ProviderIgnoresNonHtmlRequests) {
  server::ReplayStore store(*instance_);
  VroomProvider provider(store, {});
  for (const auto& r : page_.resources()) {
    if (r.type != web::ResourceType::Html) {
      http::Request req;
      req.url = instance_->resource(r.id).url;
      auto advice = provider.advise(web::url_domain(req.url), req);
      EXPECT_TRUE(advice.hints.empty());
      EXPECT_TRUE(advice.pushes.empty());
      break;
    }
  }
}

TEST_F(CoreTest, ResolutionModesNested) {
  OfflineResolver resolver(page_, off_);
  auto vroom_set = resolve_candidates(*instance_, 0, page_.first_party(),
                                      id_.user, ResolutionMode::OfflinePlusOnline,
                                      resolver);
  auto offline_set = resolve_candidates(*instance_, 0, page_.first_party(),
                                        id_.user, ResolutionMode::OfflineOnly,
                                        resolver);
  // Vroom = offline + online, so it advises at least as much.
  EXPECT_GE(vroom_set.size(), offline_set.size());
  // Online overrides give exact current URLs for markup children.
  std::set<web::UrlId> vroom_urls;
  for (const auto& [rid, url] : vroom_set) vroom_urls.insert(url);
  for (const web::ScannedLink& l : web::scan_html(*instance_, 0)) {
    EXPECT_TRUE(vroom_urls.count(l.url_id)) << l.url;
  }
}

TEST_F(CoreTest, AccuracyVroomBeatsOfflineOnlyOnMisses) {
  auto vroom = measure_accuracy(page_, id_.wall_time, id_.device, id_.user,
                                ResolutionMode::OfflinePlusOnline, off_);
  auto offline = measure_accuracy(page_, id_.wall_time, id_.device, id_.user,
                                  ResolutionMode::OfflineOnly, off_);
  auto online = measure_accuracy(page_, id_.wall_time, id_.device, id_.user,
                                 ResolutionMode::OnlineOnly, off_);
  EXPECT_GT(vroom.predictable_count_frac, 0.5);
  EXPECT_GT(vroom.predictable_bytes_frac, 0.5);
  EXPECT_LE(vroom.false_negative_frac, offline.false_negative_frac);
  EXPECT_LE(online.false_negative_frac, vroom.false_negative_frac + 0.05);
  EXPECT_GT(online.false_positive_frac, vroom.false_positive_frac);
}

TEST_F(CoreTest, PersistenceDecaysWithGap) {
  const double hour = persistence_fraction(page_, id_.wall_time, id_.device,
                                           id_.user, sim::hours(1));
  const double day = persistence_fraction(page_, id_.wall_time, id_.device,
                                          id_.user, sim::days(1));
  const double week = persistence_fraction(page_, id_.wall_time, id_.device,
                                           id_.user, sim::days(7));
  EXPECT_GT(hour, day);
  EXPECT_GE(day, week);
  EXPECT_GT(hour, 0.4);
  EXPECT_LT(week, 0.9);
}

// End-to-end: across a handful of pages, Vroom's median beats the HTTP/2
// baseline and it finishes high-priority fetches sooner. (Per-page ties or
// small losses happen — the paper sees the same at the tail of Fig 13.)
TEST_F(CoreTest, VroomLoadFasterThanHttp2) {
  harness::RunOptions opt;
  std::vector<double> h2_plt, vr_plt;
  int hp_better = 0;
  const int n = 5;
  for (int i = 0; i < n; ++i) {
    const web::PageModel page =
        web::generate_page(42, static_cast<std::uint32_t>(20 + i),
                           web::PageClass::News);
    auto h2 = harness::run_page_load(page, baselines::http2_baseline(), opt, 1);
    auto vr = harness::run_page_load(page, baselines::vroom(), opt, 1);
    ASSERT_TRUE(h2.finished);
    ASSERT_TRUE(vr.finished);
    h2_plt.push_back(sim::to_seconds(h2.plt));
    vr_plt.push_back(sim::to_seconds(vr.plt));
    if (vr.high_prio_fetched < h2.high_prio_fetched) ++hp_better;
  }
  EXPECT_LT(harness::median(vr_plt), harness::median(h2_plt));
  EXPECT_GE(hp_better, n - 1);
}

TEST_F(CoreTest, VroomHintsAndPushesObservedClientSide) {
  harness::RunOptions opt;
  auto vr = harness::run_page_load(page_, baselines::vroom(), opt, 1);
  ASSERT_TRUE(vr.finished);
  int hinted = 0, pushed = 0;
  for (const auto& t : vr.timings) {
    if (t.hinted) ++hinted;
    if (t.pushed) ++pushed;
  }
  EXPECT_GT(hinted, 10);
  EXPECT_GT(pushed, 0);
}

}  // namespace
}  // namespace vroom::core
