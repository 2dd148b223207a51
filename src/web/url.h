// Structured URLs for synthetic pages.
//
// Realized resource URLs are self-describing so that any origin server can
// resolve a request for *any* version of a resource (including stale URLs a
// client fetched because of an outdated dependency hint, exactly as a real
// origin would serve a stale story image). Format:
//
//   <domain>/p<page>/r<resource>v<version>u<user>.<ext>
//
// where <version> is the volatility-driven rotation counter and <user> is
// non-zero only for personalized resources.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace vroom::web {

struct ParsedUrl {
  std::string domain;
  std::uint32_t page_id = 0;
  std::uint32_t resource_id = 0;
  std::uint64_t version = 0;
  std::uint32_t user = 0;
  std::string ext;

  bool operator==(const ParsedUrl&) const = default;
};

// An upper bound on the size of make_url's output for `domain` and `ext`:
// "/p", "/r", "v", "u" and "." with the most digits each number can have.
constexpr std::size_t max_url_size(std::string_view domain,
                                   std::string_view ext) {
  return domain.size() + (2 + 10) + (2 + 10) + (1 + 20) + (1 + 10) + 1 +
         ext.size();
}

// Writes the canonical URL into `buf`, which holds at least
// max_url_size(domain, ext) chars, and returns a view of the written text.
// The one writer of the URL grammar.
std::string_view make_url(char* buf, std::string_view domain,
                          std::uint32_t page_id, std::uint32_t resource_id,
                          std::uint64_t version, std::uint32_t user,
                          std::string_view ext);

// The canonical URL as a string.
std::string make_url(std::string_view domain, std::uint32_t page_id,
                     std::uint32_t resource_id, std::uint64_t version,
                     std::uint32_t user, std::string_view ext);

// Parses a canonical URL; returns nullopt for malformed input.
std::optional<ParsedUrl> parse_url(std::string_view url);

// Extracts only the domain (prefix up to the first '/').
std::string url_domain(std::string_view url);

// Non-allocating variant; the view aliases `url`'s storage.
constexpr std::string_view url_domain_view(std::string_view url) {
  const std::size_t slash = url.find('/');
  return slash == std::string_view::npos ? url : url.substr(0, slash);
}

}  // namespace vroom::web
