#include "core/accuracy.h"

#include <set>
#include <string>

#include "sim/random.h"
#include "web/page_instance.h"

namespace vroom::core {

AccuracySample measure_accuracy(const web::PageModel& model, sim::Time when,
                                const web::DeviceProfile& device,
                                std::uint32_t user, ResolutionMode mode,
                                const OfflineConfig& offline_config) {
  AccuracySample s;

  web::LoadIdentity id_a;
  id_a.wall_time = when;
  id_a.device = device;
  id_a.user = user;
  id_a.nonce = sim::derive_seed(when ^ model.page_id(), "acc-load-a");
  web::LoadIdentity id_b = id_a;
  id_b.nonce = sim::derive_seed(when ^ model.page_id(), "acc-load-b");

  const web::PageInstance load_a(model, id_a);
  const web::PageInstance load_b(model, id_b);

  const std::vector<std::uint32_t> scope = model.hintable_descendants(0);
  s.scope_size = static_cast<int>(scope.size());

  std::set<std::string> predictable;
  std::int64_t scope_bytes = 0, predictable_bytes = 0;
  for (std::uint32_t rid : scope) {
    scope_bytes += load_a.resource(rid).size;
    if (load_a.resource(rid).url == load_b.resource(rid).url) {
      predictable.insert(std::string(load_a.resource(rid).url));
      predictable_bytes += load_a.resource(rid).size;
    }
  }
  s.predictable_size = static_cast<int>(predictable.size());
  if (!scope.empty()) {
    s.predictable_count_frac =
        static_cast<double>(predictable.size()) /
        static_cast<double>(scope.size());
    s.predictable_bytes_frac =
        scope_bytes > 0 ? static_cast<double>(predictable_bytes) /
                              static_cast<double>(scope_bytes)
                        : 0.0;
  }

  OfflineResolver offline(model, offline_config);
  auto ordered = resolve_candidates(load_a, /*doc_id=*/0,
                                    model.first_party(), user, mode, offline);
  std::set<std::string> advised;
  for (const auto& [rid, url] : ordered) {
    advised.emplace(load_a.interner().url(url));
  }
  s.advised_size = static_cast<int>(advised.size());

  if (!predictable.empty()) {
    int fn = 0, fp = 0;
    for (const auto& url : predictable) {
      if (!advised.count(url)) ++fn;
    }
    for (const auto& url : advised) {
      if (!predictable.count(url)) ++fp;
    }
    s.false_negative_frac =
        static_cast<double>(fn) / static_cast<double>(predictable.size());
    s.false_positive_frac =
        static_cast<double>(fp) / static_cast<double>(predictable.size());
  }
  return s;
}

double persistence_fraction(const web::PageModel& model, sim::Time when,
                            const web::DeviceProfile& device,
                            std::uint32_t user, sim::Time gap) {
  web::LoadIdentity id_a;
  id_a.wall_time = when;
  id_a.device = device;
  id_a.user = user;
  id_a.nonce = sim::derive_seed(when ^ model.page_id(), "persist-a");
  web::LoadIdentity id_b = id_a;
  id_b.wall_time = when + gap;
  id_b.nonce = sim::derive_seed(when ^ model.page_id(), "persist-b");

  const web::PageInstance a(model, id_a);
  const web::PageInstance b(model, id_b);
  std::set<std::string> later;
  for (const auto& ir : b.resources()) later.insert(std::string(ir.url));
  std::size_t kept = 0;
  for (const auto& ir : a.resources()) kept += later.count(std::string(ir.url));
  return a.size() == 0
             ? 0.0
             : static_cast<double>(kept) / static_cast<double>(a.size());
}

}  // namespace vroom::core
