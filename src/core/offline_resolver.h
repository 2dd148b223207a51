// Offline server-side dependency resolution (§4.1.2).
//
// A VROOM-compliant origin periodically loads each page it serves (hourly in
// the paper's implementation) and, when a client requests the page, treats
// the URLs present in *all* recent loads as the stable set worth advising.
// The intersection automatically filters per-load ad churn and fast-rotating
// personalized content. Device-type customization is handled with
// equivalence classes so the server need not crawl with every handset model.
//
// Crawls are compared on slot keys, not URL strings. A crawl is a dense
// vector indexed by template id; each entry is the slot's realized version
// (web::realized_version) and the personalized user its URL carries. The
// URL is web::make_url's `<domain>/p<page>/r<id>v<version>[u<user>].<ext>`:
// domain, page and extension are fixed per slot, the id is in the URL, and
// the grammar parses back uniquely (parse_url). So two realizations of one
// slot share a URL exactly when their keys are equal, and two distinct slots
// never share a URL. Intersections, device IoU scores and the clusters built
// on them are therefore the same as on strings. The advice of
// resolve_candidates leaves as interned ids: a slot key that is not the live
// one is written into a buffer and interned with its fields
// (core/vroom_provider.h). URL strings are made (slot_url) only for callers
// that list a stable set (stable_urls).
//
// Resolution is pure: the stable set is a function of (crawl time, crawl
// device, the serving organization's cookie view, user). A resolver
// memoizes each distinct combination, so the many advise() calls of one
// page load — per HTML document, per serving domain — recompute nothing.
// The memo keys are integers: a device is its index in the resolver's
// device table, and a cookie view is a small code, so a lookup copies no
// string.
// Equivalence classes come from a greedy clustering in known-device order,
// where placing a device reads only the devices before it; so a client's
// class needs only the known devices up to its own, and the resolver
// places no more (the first known device crawls as itself, with no IoU).
// Mutable caches are safe because a resolver lives inside one page world,
// which is single-threaded (each fleet worker builds a private world).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "sim/time.h"
#include "web/device.h"
#include "web/page_instance.h"
#include "web/page_model.h"

namespace vroom::core {

enum class DeviceHandling : std::uint8_t {
  Exact,              // crawl with the client's exact device (upper bound)
  EquivalenceClasses, // cluster known devices by stable-set IoU (the paper)
  SingleClass,        // one crawl device for everyone (ablation)
};

struct OfflineConfig {
  int loads = 3;                        // recent crawls intersected
  sim::Time spacing = sim::hours(1);    // crawl period
  DeviceHandling device_handling = DeviceHandling::EquivalenceClasses;
  double iou_threshold = 0.80;          // cluster admission similarity
  std::vector<web::DeviceProfile> known_devices = web::all_devices();
};

// What a crawl saw of one slot: the URL's version and user components.
struct SlotKey {
  std::uint64_t version = 0;  // web::realized_version
  std::uint32_t user = 0;     // non-zero only for a personalized slot
  bool operator==(const SlotKey&) const = default;
};

// One crawl: every slot's key, indexed by template id.
using Crawl = std::vector<SlotKey>;

// Indexed by template id: the key every recent crawl agreed on, or nullopt
// for a slot that changed between them.
using StableSet = std::vector<std::optional<SlotKey>>;

// The URL slot `id` of `model` realizes to under `key`.
std::string slot_url(const web::PageModel& model, std::uint32_t id,
                     const SlotKey& key);

// The URL of every slot in `stable`, by template id.
std::map<std::uint32_t, std::string> stable_urls(const web::PageModel& model,
                                                 const StableSet& stable);

// Whether `serving_domain` holds the user's cookie state for resources of
// `resource_domain` (same organization).
bool org_knows_user(const web::PageModel& model,
                    const std::string& serving_domain,
                    const std::string& resource_domain);

class OfflineResolver {
 public:
  // Throws std::invalid_argument if `config.known_devices` is empty under
  // a device handling that crawls with a known device (every one but
  // Exact).
  OfflineResolver(const web::PageModel& model, OfflineConfig config);

  // Stable set as of `now`, from the perspective of `serving_domain` holding
  // `user`'s cookie for its own organization only. The returned reference
  // points into the resolver's cache and stays valid for the resolver's
  // lifetime.
  const StableSet& stable_set(sim::Time now,
                              const web::DeviceProfile& client_device,
                              const std::string& serving_domain,
                              std::uint32_t user) const;

  // Crawl device chosen for a client device under the configured handling.
  // Under EquivalenceClasses, the representative of the client's class; a
  // device that matches no known device crawls with the first known one.
  const web::DeviceProfile& crawl_device(
      sim::Time now, const web::DeviceProfile& client_device) const;

  // Stable-set intersection-over-union between two devices (Figure 9).
  double device_iou(sim::Time now, const web::DeviceProfile& a,
                    const web::DeviceProfile& b) const;

  // One load of the page at `when` by `serving_domain` with `user`'s cookie
  // (the Figure 17 baseline: "dependencies = everything seen in a prior
  // load"; also the server-side load of online-only resolution).
  Crawl crawl(sim::Time when, const web::DeviceProfile& device,
              const std::string& serving_domain, std::uint32_t user,
              std::uint64_t nonce) const;

  const OfflineConfig& config() const { return config_; }

 private:
  // The user each slot's URL carries in a crawl by `serving_domain`: the
  // crawler sends `user`'s cookie only to domains the serving organization
  // controls, and only personalized slots put the user in the URL.
  std::vector<std::uint32_t> slot_users(const std::string& serving_domain,
                                        std::uint32_t user) const;

  Crawl crawl(sim::Time when, const web::DeviceProfile& device,
              const std::vector<std::uint32_t>& users,
              std::uint64_t nonce) const;

  const StableSet& crawl_intersection(sim::Time now,
                                      const web::DeviceProfile& crawl_dev,
                                      const std::string& serving_domain,
                                      std::uint32_t user) const;

  // Index of `device` in the device table, added if new. Device identity is
  // name + rendering axes: two profiles that differ in either never alias.
  std::uint32_t device_index(const web::DeviceProfile& device) const;

  // Collapses serving_domain to what the crawl outcome actually depends on:
  // with no user cookie the domain is irrelevant (code 0); every
  // first-party-org domain shares the same cookie view (1); a third party
  // sees only itself (2 + its index in the third-party table).
  std::uint32_t cookie_view(const std::string& serving_domain,
                            std::uint32_t user) const;

  const web::PageModel* model_;
  OfflineConfig config_;

  mutable std::vector<web::DeviceProfile> devices_;
  mutable std::vector<std::string> third_parties_;
  // Memo keys: (now, device index, cookie view, user) and (now, device
  // index, device index).
  using IntersectKey =
      std::tuple<sim::Time, std::uint32_t, std::uint32_t, std::uint32_t>;
  mutable std::map<IntersectKey, StableSet> intersect_cache_;
  mutable std::map<std::tuple<sim::Time, std::uint32_t, std::uint32_t>, double>
      iou_cache_;
  // Greedy clustering per crawl time, of a prefix of the known devices:
  // the index of each placed device's class representative, and the
  // representatives so far in order.
  struct Clusters {
    std::vector<std::size_t> rep_of;
    std::vector<std::size_t> reps;
  };
  mutable std::map<sim::Time, Clusters> cluster_cache_;
};

}  // namespace vroom::core
