// Priority classification and ordering of dependency hints (Table 1, §4.3).
//
// Resources that must be parsed or executed go in `Link preload`; lazily
// processed ones (async scripts) in `x-semi-important`; everything that is
// never evaluated — plus embedded HTML documents and anything below them
// (footnote 4) — in `x-unimportant`. Within each header URLs keep the order
// the client will process them. Candidates, hints and pushes name URLs by
// their ids in the served instance's interner; locality and push sizes are
// read from the interned facts.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "http/headers.h"
#include "http/message.h"
#include "web/page_instance.h"
#include "web/page_model.h"

namespace vroom::core {

http::HintPriority classify_hint(const web::Resource& r);

enum class PushSelection : std::uint8_t {
  None,
  HighPriorityLocal,  // Vroom: only Link-preload-class, same-domain content
  AllLocal,           // strawman: everything local
};

// Stable label for trace events ("none" / "high-priority-local" /
// "all-local").
const char* push_selection_name(PushSelection p);

struct AdviceBuild {
  http::HintSet hints;
  std::vector<http::PushItem> pushes;
};

// Assembles hints + pushes from an ordered candidate list.
// `ordered` must already be in processing order (template id, UrlId in
// `instance`'s interner). Push bodies are sized via the current instance
// when the URL is live, else via the store's stale-version realization.
AdviceBuild build_advice(const web::PageInstance& instance,
                         const std::vector<std::pair<std::uint32_t,
                                                     web::UrlId>>& ordered,
                         const std::string& serving_domain, bool hints_enabled,
                         PushSelection push);

// Truncates a hint set to at most `max_hints` entries, dropping the lowest
// priority class first and the latest processing positions within a class
// (header-budget control; 0 = unlimited, no-op).
void truncate_hints(http::HintSet& hints, int max_hints);

}  // namespace vroom::core
