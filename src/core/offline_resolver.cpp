#include "core/offline_resolver.h"

#include <stdexcept>
#include <utility>

#include "sim/random.h"
#include "web/url.h"

namespace vroom::core {

std::string slot_url(const web::PageModel& model, std::uint32_t id,
                     const SlotKey& key) {
  const web::Resource& r = model.resource(id);
  return web::make_url(r.domain, r.effective_page_id(model.page_id()), r.id,
                       key.version, key.user, web::type_ext(r.type));
}

std::map<std::uint32_t, std::string> stable_urls(const web::PageModel& model,
                                                 const StableSet& stable) {
  std::map<std::uint32_t, std::string> out;
  for (std::uint32_t id = 0; id < stable.size(); ++id) {
    if (stable[id]) out.emplace(id, slot_url(model, id, *stable[id]));
  }
  return out;
}

bool org_knows_user(const web::PageModel& model,
                    const std::string& serving_domain,
                    const std::string& resource_domain) {
  if (serving_domain == resource_domain) return true;
  return model.is_first_party_org(serving_domain) &&
         model.is_first_party_org(resource_domain);
}

OfflineResolver::OfflineResolver(const web::PageModel& model,
                                 OfflineConfig config)
    : model_(&model), config_(std::move(config)) {
  if (config_.known_devices.empty() &&
      config_.device_handling != DeviceHandling::Exact) {
    throw std::invalid_argument(
        "OfflineResolver: OfflineConfig::known_devices is empty, but "
        "SingleClass and EquivalenceClasses crawl with a known device");
  }
}

std::uint32_t OfflineResolver::device_index(
    const web::DeviceProfile& device) const {
  std::uint32_t i = 0;
  for (; i < devices_.size(); ++i) {
    if (devices_[i].name == device.name &&
        devices_[i].same_rendering(device)) {
      return i;
    }
  }
  devices_.push_back(device);
  return i;
}

std::uint32_t OfflineResolver::cookie_view(const std::string& serving_domain,
                                           std::uint32_t user) const {
  if (user == 0) return 0;  // cookieless: domain-independent
  if (model_->is_first_party_org(serving_domain)) return 1;
  std::uint32_t i = 0;
  while (i < third_parties_.size() && third_parties_[i] != serving_domain) ++i;
  if (i == third_parties_.size()) third_parties_.push_back(serving_domain);
  return 2 + i;
}

std::vector<std::uint32_t> OfflineResolver::slot_users(
    const std::string& serving_domain, std::uint32_t user) const {
  std::vector<std::uint32_t> users(model_->size(), 0);
  if (user == 0) return users;
  for (const web::Resource& r : model_->resources()) {
    if (r.volatility == web::Volatility::Personalized &&
        org_knows_user(*model_, serving_domain, r.domain)) {
      users[r.id] = user;
    }
  }
  return users;
}

Crawl OfflineResolver::crawl(sim::Time when, const web::DeviceProfile& device,
                             const std::vector<std::uint32_t>& users,
                             std::uint64_t nonce) const {
  web::LoadIdentity id;
  id.wall_time = when;
  id.device = device;
  id.nonce = nonce;
  Crawl out;
  out.reserve(model_->size());
  for (const web::Resource& r : model_->resources()) {
    out.push_back({web::realized_version(r, id), users[r.id]});
  }
  return out;
}

Crawl OfflineResolver::crawl(sim::Time when, const web::DeviceProfile& device,
                             const std::string& serving_domain,
                             std::uint32_t user, std::uint64_t nonce) const {
  return crawl(when, device, slot_users(serving_domain, user), nonce);
}

const StableSet& OfflineResolver::crawl_intersection(
    sim::Time now, const web::DeviceProfile& crawl_dev,
    const std::string& serving_domain, std::uint32_t user) const {
  const IntersectKey key{now, device_index(crawl_dev),
                         cookie_view(serving_domain, user), user};
  auto cached = intersect_cache_.find(key);
  if (cached != intersect_cache_.end()) return cached->second;

  const std::vector<std::uint32_t> users = slot_users(serving_domain, user);
  StableSet stable(model_->size());
  for (int i = 1; i <= config_.loads; ++i) {
    const sim::Time when = now - static_cast<sim::Time>(i) * config_.spacing;
    const std::uint64_t nonce =
        sim::derive_seed(static_cast<std::uint64_t>(when) ^ model_->page_id(),
                         "offline-crawl");
    const Crawl load = crawl(when, crawl_dev, users, nonce);
    if (i == 1) {
      stable.assign(load.begin(), load.end());
      continue;
    }
    for (std::size_t s = 0; s < stable.size(); ++s) {
      if (stable[s] && *stable[s] != load[s]) stable[s].reset();
    }
  }
  return intersect_cache_.emplace(key, std::move(stable)).first->second;
}

double OfflineResolver::device_iou(sim::Time now, const web::DeviceProfile& a,
                                   const web::DeviceProfile& b) const {
  const auto key = std::make_tuple(now, device_index(a), device_index(b));
  auto cached = iou_cache_.find(key);
  if (cached != iou_cache_.end()) return cached->second;

  // Slot keys stand in for URLs (see the header): equal keys of one slot are
  // one shared URL, and a URL never recurs under another slot.
  const StableSet& sa = crawl_intersection(now, a, model_->first_party(), 0);
  const StableSet& sb = crawl_intersection(now, b, model_->first_party(), 0);
  std::size_t na = 0, nb = 0, inter = 0;
  for (std::size_t s = 0; s < sa.size(); ++s) {
    na += sa[s].has_value();
    nb += sb[s].has_value();
    inter += sa[s].has_value() && sa[s] == sb[s];
  }
  const std::size_t uni = na + nb - inter;
  const double iou =
      uni == 0 ? 1.0 : static_cast<double>(inter) / static_cast<double>(uni);
  iou_cache_.emplace(key, iou);
  return iou;
}

const web::DeviceProfile& OfflineResolver::crawl_device(
    sim::Time now, const web::DeviceProfile& client_device) const {
  switch (config_.device_handling) {
    case DeviceHandling::Exact:
      return client_device;
    case DeviceHandling::SingleClass:
      return config_.known_devices.front();
    case DeviceHandling::EquivalenceClasses:
      break;
  }
  // The client's class is that of the first known device matching it by
  // name, falling back to rendering-equivalent axes for unknown handsets.
  const std::vector<web::DeviceProfile>& known = config_.known_devices;
  std::size_t client = 0;
  while (client < known.size() && known[client].name != client_device.name &&
         !known[client].same_rendering(client_device)) {
    ++client;
  }
  if (client == known.size()) return known.front();
  // Greedy clustering: walk known devices in order; a device joins the
  // first existing class whose representative's stable set is similar
  // enough, otherwise founds a new class. Placing a device reads only the
  // devices before it, so the clustering is extended only up to the
  // client's device.
  Clusters& clusters = cluster_cache_[now];
  for (std::size_t i = clusters.rep_of.size(); i <= client; ++i) {
    std::size_t rep = i;
    for (const std::size_t r : clusters.reps) {
      if (device_iou(now, known[i], known[r]) >= config_.iou_threshold) {
        rep = r;
        break;
      }
    }
    if (rep == i) clusters.reps.push_back(i);
    clusters.rep_of.push_back(rep);
  }
  return known[clusters.rep_of[client]];
}

const StableSet& OfflineResolver::stable_set(
    sim::Time now, const web::DeviceProfile& client_device,
    const std::string& serving_domain, std::uint32_t user) const {
  const web::DeviceProfile& dev = crawl_device(now, client_device);
  return crawl_intersection(now, dev, serving_domain, user);
}

}  // namespace vroom::core
