#include "server/replay_store.h"

namespace vroom::server {

ReplayStore::Entry ReplayStore::entry(std::uint32_t template_id,
                                      std::int64_t size, bool current) const {
  return Entry{.size = size,
               .type = instance_->model().resource(template_id).type,
               .current = current,
               .template_id = template_id};
}

std::optional<ReplayStore::Entry> ReplayStore::lookup(
    const http::Request& req) const {
  if (req.url_id == web::kInvalidId) return lookup(req.url);
  if (auto id = instance_->template_of(req.url_id)) {
    return entry(*id, instance_->resource(*id).size, /*current=*/true);
  }
  // Stale realization of a known slot, from the interned fields.
  const web::Interner& interner = instance_->interner();
  if (auto size =
          web::servable_size(instance_->model(), interner, req.url_id)) {
    return entry(interner.info(req.url_id).resource_id, *size,
                 /*current=*/false);
  }
  return std::nullopt;
}

std::optional<ReplayStore::Entry> ReplayStore::lookup(
    std::string_view url) const {
  if (auto id = instance_->find_by_url(url)) {
    return entry(*id, instance_->resource(*id).size, /*current=*/true);
  }
  // Stale realization of a known slot.
  if (auto size = web::servable_size(instance_->model(), url)) {
    return entry(web::parse_url(url)->resource_id, *size, /*current=*/false);
  }
  return std::nullopt;
}

}  // namespace vroom::server
