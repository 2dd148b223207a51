// Dependency-hint headers (Table 1 of the paper).
//
// VROOM-compliant servers attach three headers to responses, in decreasing
// priority: `Link rel=preload` for resources that must be parsed/executed,
// `x-semi-important` for lazily processed ones (async scripts), and
// `x-unimportant` for content that is never evaluated (images, media).
// Within a header, URLs are listed in the order the client will process
// them. The wire format, as a VROOM-compliant server emits it (Table 1 and
// §5.1, including the CORS exposure the JS scheduler needs):
//
//   Link: <b.com/x.js>; rel=preload, <a.com/y.css>; rel=preload
//   x-semi-important: <c.com/z.js>
//   x-unimportant: <d.com/img.jpg>, <e.com/ad.html>
//   Access-Control-Expose-Headers: Link, x-semi-important, x-unimportant
//
// The simulator never builds that text: a HintSet carries the hints, and
// header_bytes() prices the headers they add to a response. A hint names
// its URL by the page world's interned id (web/intern.h); the resolver
// interns every URL it advises, so no hint holds a string.
#pragma once

#include <cstdint>
#include <vector>

#include "web/intern.h"

namespace vroom::http {

enum class HintPriority : std::uint8_t {
  Preload = 0,        // Link rel=preload
  SemiImportant = 1,  // x-semi-important
  Unimportant = 2,    // x-unimportant
};

struct Hint {
  web::UrlId url = web::kInvalidId;
  HintPriority priority = HintPriority::Preload;
  // Position within its priority class; preserves processing order.
  int order = 0;

  bool operator==(const Hint&) const = default;
};

struct HintSet {
  std::vector<Hint> hints;

  bool empty() const { return hints.empty(); }
  void add(web::UrlId url, HintPriority p, int order) {
    hints.push_back(Hint{url, p, order});
  }
  // Byte weight the hints add to the HTTP response headers.
  std::int64_t header_bytes() const;
};

}  // namespace vroom::http
