// URL and domain interning for the per-load simulation world.
//
// Page loads re-touch the same few hundred URLs thousands of times (fetch
// dedup, template lookup, endpoint routing, hint matching); keying those hot
// paths on std::string re-hashes and re-compares the full URL every time.
// The Interner assigns each distinct URL/domain a dense 32-bit id exactly
// once, caches everything derivable from the URL's syntax (domain id,
// resource type, native fetch priority, parsed version fields) at intern
// time, and lets the rest of the world run on ids. Strings survive only at
// the edges: trace events, CSV export, waterfall tables.
//
// Storage: string bytes, the UrlInfo table, and the index maps all live on
// a sim::Arena (one lifetime ⇒ one arena, bulk-reset between loads — see
// arena.h and DESIGN.md §13). Arena chunks never move, so the string_view
// index keys and the views returned by url()/domain() stay address-stable
// for the interner's whole life. A default-constructed Interner owns a
// private arena; the per-load world passes the fleet worker's pooled arena
// instead so consecutive loads reuse the same chunks.
//
// Ownership and lifetime: the interner is owned by the `PageInstance` (the
// page world); every realized resource URL and its origin are pre-interned
// at build time, so instance resources get ids 0..N-1 in resource order.
// The page world wrote each of those URLs from its fields, so it hands the
// fields over and the URL is never parsed back. The origin's resolver
// writes a stale hint's URL from its slot fields the same way and interns
// it with them, and hints, pushes and requests carry the id from there on;
// only a URL no writer knows (a request without an id, a test's literal)
// is parsed, when it is first interned.
// Ids are meaningful only relative to one interner — they never cross loads
// or appear in results, so interning cannot affect simulated numbers. An id
// minted by a *different* interner (e.g. retained across an arena reset) is
// out of range or names the wrong URL; the debug asserts below catch the
// former. A page world is single-threaded (each fleet job builds a private
// world), so the interner is not synchronized.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/arena.h"
#include "web/resource.h"

namespace vroom::web {

using UrlId = std::uint32_t;
using DomainId = std::uint32_t;
inline constexpr std::uint32_t kInvalidId = 0xffffffffu;

// Syntax-derived facts about an interned URL, computed once at intern time.
struct UrlInfo {
  DomainId domain = kInvalidId;
  ResourceType type = ResourceType::Other;
  bool parse_ok = false;    // canonical <domain>/p../r..v..[u..].<ext> shape
  bool processable = false; // HTML/CSS/JS per extension
  // Browser-native request priority (Chrome's scheme, roughly): documents
  // highest, render-blocking CSS/JS next, fonts, then images/media.
  std::int8_t native_priority = 0;
  // Embedded fields, valid iff parse_ok.
  std::uint32_t resource_id = 0;
  std::uint32_t page_id = 0;
  std::uint64_t version = 0;
  std::uint32_t user = 0;
};

class Interner {
 public:
  // Backs storage with `arena` when given; otherwise owns a private arena.
  // The caller's arena must outlive the interner and not be reset while the
  // interner (or anything holding its views) is alive.
  explicit Interner(sim::Arena* arena = nullptr);
  Interner(const Interner&) = delete;
  Interner& operator=(const Interner&) = delete;

  // Interns `url`, returning its stable id (existing id if already known).
  UrlId url_id(std::string_view url);

  // Interns `url`, which its caller wrote with make_url from these fields:
  // the same id and UrlInfo as url_id(url), with the info taken from the
  // fields instead of from parsing the URL back.
  UrlId url_id(std::string_view url, ResourceType type, std::uint32_t page_id,
               std::uint32_t resource_id, std::uint64_t version,
               std::uint32_t user);

  // Makes room for `urls` more URLs.
  void reserve(std::size_t urls);

  // Non-inserting lookup: kInvalidId if `url` was never interned.
  UrlId find_url(std::string_view url) const {
    auto it = url_index_.find(url);
    return it == url_index_.end() ? kInvalidId : it->second;
  }

  // Accessors index with a debug bounds assert: an out-of-range id is
  // always a cross-interner bug (an id retained across a load boundary),
  // never a legitimate miss — see the lifetime note above.
  std::string_view url(UrlId id) const {
    assert(id < urls_.size() && "UrlId from a different interner/load");
    return urls_[id];
  }
  const UrlInfo& info(UrlId id) const {
    assert(id < info_.size() && "UrlId from a different interner/load");
    return info_[id];
  }
  std::size_t url_count() const { return urls_.size(); }

  DomainId domain_id(std::string_view domain);
  std::string_view domain(DomainId id) const {
    assert(id < domains_.size() && "DomainId from a different interner/load");
    return domains_[id];
  }
  std::size_t domain_count() const { return domains_.size(); }

  // The memory resource backing this interner (the caller's arena or the
  // private fallback). The owning PageInstance allocates its own per-load
  // tables from the same resource.
  std::pmr::memory_resource* memory() const { return arena_; }

 private:
  // Assigns the next id to `stored`, an arena copy just added to the index,
  // with `info` completed by the URL's domain id.
  UrlId append(std::string_view stored, UrlInfo info);

  sim::Arena* arena_;                        // never null after construction
  std::unique_ptr<sim::Arena> owned_arena_;  // set iff no arena was passed
  // Views into arena chunks: chunk memory never moves, so the index maps can
  // key on the same views without re-owning them.
  std::pmr::vector<std::string_view> urls_;
  std::pmr::vector<std::string_view> domains_;
  std::pmr::vector<UrlInfo> info_;
  std::pmr::unordered_map<std::string_view, UrlId> url_index_;
  std::pmr::unordered_map<std::string_view, DomainId> domain_index_;
};

}  // namespace vroom::web
