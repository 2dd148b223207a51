#include "web/intern.h"

#include "web/url.h"

namespace vroom::web {
namespace {

std::int8_t native_priority_of(ResourceType t) {
  switch (t) {
    case ResourceType::Html: return 3;
    case ResourceType::Css:
    case ResourceType::Js: return 2;
    case ResourceType::Font: return 1;
    default: return 0;
  }
}

// The facts of a URL in the canonical grammar, except its domain id.
UrlInfo canonical_info(ResourceType type, std::uint32_t page_id,
                       std::uint32_t resource_id, std::uint64_t version,
                       std::uint32_t user) {
  UrlInfo info;
  info.parse_ok = true;
  info.type = type;
  info.processable = is_processable(type);
  info.native_priority = native_priority_of(type);
  info.resource_id = resource_id;
  info.page_id = page_id;
  info.version = version;
  info.user = user;
  return info;
}

}  // namespace

Interner::Interner(sim::Arena* arena)
    : arena_(arena != nullptr ? arena : new sim::Arena()),
      owned_arena_(arena != nullptr ? nullptr : arena_),
      urls_(arena_),
      domains_(arena_),
      info_(arena_),
      url_index_(arena_),
      domain_index_(arena_) {}

UrlId Interner::url_id(std::string_view url) {
  auto it = url_index_.find(url);
  if (it != url_index_.end()) return it->second;
  UrlInfo info;
  if (auto parsed = parse_url(url)) {
    info = canonical_info(type_from_ext(parsed->ext), parsed->page_id,
                          parsed->resource_id, parsed->version, parsed->user);
  }
  const std::string_view stored = arena_->copy_string(url);
  url_index_.emplace(stored, static_cast<UrlId>(urls_.size()));
  return append(stored, info);
}

UrlId Interner::url_id(std::string_view url, ResourceType type,
                       std::uint32_t page_id, std::uint32_t resource_id,
                       std::uint64_t version, std::uint32_t user) {
  // A URL just written is nearly always new, so it is copied and inserted
  // with one hash; a known URL costs only the copy's arena bytes.
  const std::string_view stored = arena_->copy_string(url);
  const auto [it, inserted] =
      url_index_.emplace(stored, static_cast<UrlId>(urls_.size()));
  if (!inserted) return it->second;
  return append(stored,
                canonical_info(type, page_id, resource_id, version, user));
}

UrlId Interner::append(std::string_view stored, UrlInfo info) {
  const UrlId id = static_cast<UrlId>(urls_.size());
  urls_.push_back(stored);
  info.domain = domain_id(url_domain_view(stored));
  info_.push_back(info);
  return id;
}

void Interner::reserve(std::size_t urls) {
  urls_.reserve(urls_.size() + urls);
  info_.reserve(info_.size() + urls);
  url_index_.reserve(url_index_.size() + urls);
}

DomainId Interner::domain_id(std::string_view domain) {
  auto it = domain_index_.find(domain);
  if (it != domain_index_.end()) return it->second;
  const DomainId id = static_cast<DomainId>(domains_.size());
  const std::string_view stored = arena_->copy_string(domain);
  domains_.push_back(stored);
  domain_index_.emplace(stored, id);
  return id;
}

}  // namespace vroom::web
