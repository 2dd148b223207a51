#include "web/url.h"

#include <algorithm>
#include <charconv>

namespace vroom::web {
namespace {

// Parses an unsigned integer starting at `pos`; advances `pos` past it.
template <typename T>
bool parse_uint(std::string_view s, std::size_t& pos, T& out) {
  const char* begin = s.data() + pos;
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, out);
  if (ec != std::errc{} || ptr == begin) return false;
  pos += static_cast<std::size_t>(ptr - begin);
  return true;
}

}  // namespace

std::string_view make_url(char* buf, std::string_view domain,
                          std::uint32_t page_id, std::uint32_t resource_id,
                          std::uint64_t version, std::uint32_t user,
                          std::string_view ext) {
  // Each number has room for its longest decimal form (max_url_size).
  char* out = std::copy(domain.begin(), domain.end(), buf);
  *out++ = '/';
  *out++ = 'p';
  out = std::to_chars(out, out + 10, page_id).ptr;
  *out++ = '/';
  *out++ = 'r';
  out = std::to_chars(out, out + 10, resource_id).ptr;
  *out++ = 'v';
  out = std::to_chars(out, out + 20, version).ptr;
  if (user != 0) {
    *out++ = 'u';
    out = std::to_chars(out, out + 10, user).ptr;
  }
  *out++ = '.';
  out = std::copy(ext.begin(), ext.end(), out);
  return {buf, static_cast<std::size_t>(out - buf)};
}

std::string make_url(std::string_view domain, std::uint32_t page_id,
                     std::uint32_t resource_id, std::uint64_t version,
                     std::uint32_t user, std::string_view ext) {
  std::string url(max_url_size(domain, ext), '\0');
  url.resize(
      make_url(url.data(), domain, page_id, resource_id, version, user, ext)
          .size());
  return url;
}

std::optional<ParsedUrl> parse_url(std::string_view url) {
  const std::size_t slash = url.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  ParsedUrl p;
  p.domain = std::string(url.substr(0, slash));
  std::size_t pos = slash + 1;
  if (pos >= url.size() || url[pos] != 'p') return std::nullopt;
  ++pos;
  if (!parse_uint(url, pos, p.page_id)) return std::nullopt;
  if (pos >= url.size() || url[pos] != '/') return std::nullopt;
  ++pos;
  if (pos >= url.size() || url[pos] != 'r') return std::nullopt;
  ++pos;
  if (!parse_uint(url, pos, p.resource_id)) return std::nullopt;
  if (pos >= url.size() || url[pos] != 'v') return std::nullopt;
  ++pos;
  if (!parse_uint(url, pos, p.version)) return std::nullopt;
  if (pos < url.size() && url[pos] == 'u') {
    ++pos;
    if (!parse_uint(url, pos, p.user)) return std::nullopt;
  }
  if (pos >= url.size() || url[pos] != '.') return std::nullopt;
  ++pos;
  // The extension must consume the remainder of the URL and look like one
  // make_url() emits: non-empty, alphanumeric only. Without this check the
  // catch-all tail accepted any garbage suffix ("r2v3.js.evil" parsed as
  // ext="js.evil", parse_ok=true), the same partial-parse laxness
  // harness/env.cpp's strict contract forbids.
  const std::string_view ext = url.substr(pos);
  if (ext.empty()) return std::nullopt;
  for (const char c : ext) {
    const bool alnum = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9');
    if (!alnum) return std::nullopt;
  }
  p.ext = std::string(ext);
  return p;
}

std::string url_domain(std::string_view url) {
  const std::size_t slash = url.find('/');
  return std::string(slash == std::string_view::npos ? url
                                                     : url.substr(0, slash));
}

}  // namespace vroom::web
