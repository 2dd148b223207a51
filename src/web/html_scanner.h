// Server-side HTML link extraction ("online analysis", §4.1.2).
//
// When a VROOM-compliant server serves an HTML object it parses the bytes on
// the fly and extracts every URL present in the markup. In the simulation an
// HTML instance's markup links are exactly its direct children revealed via
// HtmlTag — script-generated (JsExec) and stylesheet-referenced (CssRef)
// URLs are not visible in markup and are correspondingly invisible to the
// scanner. A link is the served instance's own URL: its interned id and a
// view of the interner's copy, so a scan copies no string.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "sim/time.h"
#include "web/page_instance.h"

namespace vroom::web {

struct ScannedLink {
  std::uint32_t template_id = 0;
  std::string_view url;  // the instance interner's copy
  UrlId url_id = kInvalidId;
  double offset = 0.0;  // document position, preserves processing order
};

// Links visible in the markup of document `doc_id` within `instance`,
// ordered by document position.
std::vector<ScannedLink> scan_html(const PageInstance& instance,
                                   std::uint32_t doc_id);

// Modeled server-side cost of the on-the-fly parse (the paper measures a
// median ~100 ms across top-1000 landing pages).
sim::Time scan_cost(std::int64_t html_bytes);

}  // namespace vroom::web
