// Online server-side dependency resolution (§4.1.2).
//
// When serving an HTML object, the origin parses it on the fly and returns
// every URL present in the markup. This catches content flux the hourly
// offline crawls miss (new stories, rotated modules) with exactly-current
// URLs, at a modeled serving delay of ~100 ms for a typical front page
// (web::scan_cost).
#pragma once

#include <vector>

#include "web/html_scanner.h"
#include "web/page_instance.h"

namespace vroom::core {

struct OnlineScan {
  // Exact URLs as present in the served HTML, in markup order.
  std::vector<web::ScannedLink> links;
};

// Scans the HTML instance being served to the client.
OnlineScan analyze_served_html(const web::PageInstance& instance,
                               std::uint32_t doc_id);

}  // namespace vroom::core
