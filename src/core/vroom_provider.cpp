#include "core/vroom_provider.h"

#include <memory_resource>
#include <stdexcept>
#include <string_view>

#include "sim/random.h"
#include "web/url.h"

namespace vroom::core {

const char* resolution_mode_name(ResolutionMode m) {
  switch (m) {
    case ResolutionMode::OfflinePlusOnline: return "vroom";
    case ResolutionMode::OfflineOnly: return "offline-only";
    case ResolutionMode::OnlineOnly: return "online-only";
    case ResolutionMode::PreviousLoad: return "previous-load";
  }
  return "?";
}

namespace {

// The id of slot `id`'s URL under `key`: the served instance's own when the
// key is the live one, else the stale rotation's, written from the key and
// interned with its fields (nothing is parsed).
web::UrlId slot_id(const web::PageInstance& served, std::uint32_t id,
                   const SlotKey& key, char* buf) {
  web::Interner& interner = served.interner();
  const web::UrlId live = served.resource(id).url_id;
  const web::UrlInfo& info = interner.info(live);
  if (key.version == info.version && key.user == info.user) return live;
  const web::Resource& r = served.model().resource(id);
  const std::uint32_t page = r.effective_page_id(served.model().page_id());
  const std::string_view url = web::make_url(
      buf, r.domain, page, id, key.version, key.user, web::type_ext(r.type));
  return interner.url_id(url, r.type, page, id, key.version, key.user);
}

}  // namespace

std::vector<std::pair<std::uint32_t, web::UrlId>> resolve_candidates(
    const web::PageInstance& served, std::uint32_t doc_id,
    const std::string& serving_domain, std::uint32_t user,
    ResolutionMode mode, const OfflineResolver& offline,
    sim::Time hint_age) {
  const web::PageModel& model = served.model();
  const sim::Time now = served.identity().wall_time;
  // Offline knowledge is as fresh as the last crawl: a shared front-end
  // serving cached hints resolves against crawls `hint_age` old.
  const sim::Time crawl_now = now - (hint_age > 0 ? hint_age : 0);
  const web::DeviceProfile& device = served.identity().device;

  // Advice scope: descendants of the requested document, pruned below
  // embedded HTML documents (§4.2).
  const std::vector<std::uint32_t> scope = model.hintable_descendants(doc_id);

  // Stale URLs are written into this buffer, on the page world's arena.
  std::pmr::vector<char> buf(model.max_url_size(), served.memory());
  std::vector<std::pair<std::uint32_t, web::UrlId>> ordered;
  ordered.reserve(scope.size());
  switch (mode) {
    case ResolutionMode::OfflinePlusOnline:
    case ResolutionMode::OfflineOnly: {
      const StableSet& stable =
          offline.stable_set(crawl_now, device, serving_domain, user);
      // Exact URLs from the served markup win over (possibly stale)
      // crawl-derived URLs for the same slot. The scanned links are the
      // document's markup children in markup order, which is also their
      // order within `scope`, so one cursor merges them.
      OnlineScan scan;
      if (mode == ResolutionMode::OfflinePlusOnline) {
        scan = analyze_served_html(served, doc_id);
      }
      auto link = scan.links.begin();
      for (std::uint32_t id : scope) {
        if (link != scan.links.end() && link->template_id == id) {
          ordered.emplace_back(id, link->url_id);
          ++link;
        } else if (stable[id]) {
          ordered.emplace_back(id, slot_id(served, id, *stable[id],
                                           buf.data()));
        }
      }
      if (link != scan.links.end()) {
        throw std::logic_error(
            "resolve_candidates: markup links out of scope order");
      }
      break;
    }
    case ResolutionMode::OnlineOnly:
    case ResolutionMode::PreviousLoad: {
      sim::Time when = now;
      std::uint64_t nonce = 0;
      if (mode == ResolutionMode::OnlineOnly) {
        // Full page load at the server, right now: current time and device,
        // but the *server's* load nonce and only its own cookies.
        nonce = sim::derive_seed(served.identity().nonce ^ 0x5eedf00dULL,
                                 "server-online-load");
      } else {
        // Everything seen in a single crawl within the past hour, per-load
        // churn included.
        when = now - sim::minutes(55);
        nonce = sim::derive_seed(
            static_cast<std::uint64_t>(when) ^ model.page_id(), "prev-load");
      }
      const Crawl load =
          offline.crawl(when, device, serving_domain, user, nonce);
      for (std::uint32_t id : scope) {
        ordered.emplace_back(id, slot_id(served, id, load[id], buf.data()));
      }
      break;
    }
  }
  return ordered;
}

VroomProvider::VroomProvider(const server::ReplayStore& store,
                             VroomProviderConfig config)
    : store_(store),
      config_(std::move(config)),
      offline_(store.instance().model(), config_.offline) {}

server::DependencyAdvice VroomProvider::advise(const std::string& domain,
                                               const http::Request& req) {
  server::DependencyAdvice advice;
  const web::PageInstance& inst = store_.instance();
  auto entry = store_.lookup(req);
  if (!entry || entry->type != web::ResourceType::Html) return advice;
  const std::uint32_t doc_id = entry->template_id;

  auto ordered = resolve_candidates(inst, doc_id, domain, req.user,
                                    config_.mode, offline_, config_.hint_age);
  AdviceBuild build = build_advice(inst, ordered, domain,
                                   config_.hints_enabled, config_.push);
  truncate_hints(build.hints, config_.max_hints);
  advice.hints = std::move(build.hints);
  advice.pushes = std::move(build.pushes);
  advice.push_policy = push_selection_name(config_.push);

  switch (config_.mode) {
    case ResolutionMode::OfflinePlusOnline:
      advice.extra_delay = web::scan_cost(inst.resource(doc_id).size);
      break;
    case ResolutionMode::OnlineOnly:
      // A full on-the-fly page load costs far more than an HTML scan.
      advice.extra_delay = sim::ms(400);
      break;
    case ResolutionMode::OfflineOnly:
    case ResolutionMode::PreviousLoad:
      advice.extra_delay = 0;
      break;
  }
  return advice;
}

}  // namespace vroom::core
