// Record-and-replay content store (the Mahimahi role in the paper's setup).
//
// A store is built around one realized `PageInstance` — the "recorded" page.
// It can also serve *stale* URLs from other realizations of the same page
// (e.g. a client fetching a last-hour story image because of an outdated
// dependency hint), just as a real origin keeps recently rotated content
// addressable.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "http/message.h"
#include "web/page_instance.h"

namespace vroom::server {

class ReplayStore {
 public:
  explicit ReplayStore(const web::PageInstance& instance)
      : instance_(&instance) {}

  struct Entry {
    std::int64_t size = 0;
    web::ResourceType type = web::ResourceType::Other;
    bool current = false;  // part of the recorded instance (vs stale version)
    std::uint32_t template_id = 0;
  };

  // Resolves a URL to servable content; nullopt if the URL does not belong
  // to this page at all.
  std::optional<Entry> lookup(std::string_view url) const;

  // Request overload: when the request carries the page world's interned
  // UrlId (the common case — the store and the client share the instance's
  // interner), current-content hits resolve with one vector index instead of
  // hashing the URL, and stale ones from the interned fields. Only a request
  // without an id takes the string path.
  std::optional<Entry> lookup(const http::Request& req) const;

  const web::PageInstance& instance() const { return *instance_; }

 private:
  // The entry of slot `template_id` served at `size`.
  Entry entry(std::uint32_t template_id, std::int64_t size,
              bool current) const;

  const web::PageInstance* instance_;
};

}  // namespace vroom::server
