#include "core/type_sharing.h"

#include <set>

#include "core/online_analyzer.h"
#include "sim/random.h"
#include "web/page_instance.h"

namespace vroom::core {

std::map<std::uint32_t, std::string> shared_stable_set(
    const web::PageModel& target, const web::PageModel& crawled,
    sim::Time now, const web::DeviceProfile& device,
    const std::string& serving_domain, std::uint32_t user,
    const OfflineConfig& config) {
  OfflineResolver resolver(crawled, config);
  const StableSet& stable =
      resolver.stable_set(now, device, serving_domain, user);
  std::map<std::uint32_t, std::string> out;
  for (std::uint32_t rid = 0; rid < stable.size(); ++rid) {
    if (!stable[rid]) continue;
    const web::Resource& r = crawled.resource(rid);
    if (r.url_page_override == web::Resource::kNoPageOverride) continue;
    // Shared slots occupy the same ids on every sibling; verify the target
    // really carries this slot (defensive against mismatched site builds).
    if (rid >= target.size()) continue;
    const web::Resource& t = target.resource(rid);
    if (t.url_page_override != r.url_page_override) continue;
    out.emplace(rid, slot_url(crawled, rid, *stable[rid]));
  }
  return out;
}

TypeSharingSample measure_type_sharing(const web::PageModel& target,
                                       const web::PageModel& crawled_sibling,
                                       sim::Time when,
                                       const web::DeviceProfile& device,
                                       std::uint32_t user,
                                       const OfflineConfig& config) {
  TypeSharingSample s;

  web::LoadIdentity id_a;
  id_a.wall_time = when;
  id_a.device = device;
  id_a.user = user;
  id_a.nonce = sim::derive_seed(when ^ target.page_id(), "ts-load-a");
  web::LoadIdentity id_b = id_a;
  id_b.nonce = sim::derive_seed(when ^ target.page_id(), "ts-load-b");
  const web::PageInstance load_a(target, id_a);
  const web::PageInstance load_b(target, id_b);

  const auto scope = target.hintable_descendants(0);
  s.scope_size = static_cast<int>(scope.size());
  std::set<std::string> predictable;
  for (std::uint32_t rid : scope) {
    if (load_a.resource(rid).url == load_b.resource(rid).url) {
      predictable.insert(std::string(load_a.resource(rid).url));
    }
  }
  if (predictable.empty()) return s;

  const OnlineScan scan = analyze_served_html(load_a, 0);
  auto fn_of = [&](const std::map<std::uint32_t, std::string>& offline_set) {
    std::set<std::string> advised;
    for (std::uint32_t rid : scope) {
      auto it = offline_set.find(rid);
      if (it != offline_set.end()) advised.insert(it->second);
    }
    for (const web::ScannedLink& link : scan.links) advised.emplace(link.url);
    int fn = 0;
    for (const auto& url : predictable) {
      if (!advised.count(url)) ++fn;
    }
    return static_cast<double>(fn) / static_cast<double>(predictable.size());
  };

  OfflineResolver own(target, config);
  s.fn_per_page_crawl = fn_of(stable_urls(
      target, own.stable_set(when, device, target.first_party(), user)));

  const auto shared = shared_stable_set(target, crawled_sibling, when, device,
                                        target.first_party(), user, config);
  s.shared_slots = static_cast<int>(shared.size());
  s.fn_type_shared = fn_of(shared);

  s.fn_online_only_scan = fn_of({});
  return s;
}

}  // namespace vroom::core
