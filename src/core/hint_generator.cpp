#include "core/hint_generator.h"

#include <algorithm>

namespace vroom::core {

const char* push_selection_name(PushSelection p) {
  switch (p) {
    case PushSelection::None: return "none";
    case PushSelection::HighPriorityLocal: return "high-priority-local";
    case PushSelection::AllLocal: return "all-local";
  }
  return "?";
}

void truncate_hints(http::HintSet& hints, int max_hints) {
  if (max_hints <= 0 ||
      hints.hints.size() <= static_cast<std::size_t>(max_hints)) {
    return;
  }
  std::stable_sort(hints.hints.begin(), hints.hints.end(),
                   [](const http::Hint& a, const http::Hint& b) {
                     if (a.priority != b.priority) {
                       return a.priority < b.priority;  // Preload first
                     }
                     return a.order < b.order;
                   });
  hints.hints.resize(static_cast<std::size_t>(max_hints));
}

http::HintPriority classify_hint(const web::Resource& r) {
  if (r.in_iframe || r.type == web::ResourceType::Html) {
    return http::HintPriority::Unimportant;
  }
  if (web::is_processable(r.type)) {
    return r.async ? http::HintPriority::SemiImportant
                   : http::HintPriority::Preload;
  }
  return http::HintPriority::Unimportant;
}

AdviceBuild build_advice(
    const web::PageInstance& instance,
    const std::vector<std::pair<std::uint32_t, web::UrlId>>& ordered,
    const std::string& serving_domain, bool hints_enabled,
    PushSelection push) {
  const web::Interner& interner = instance.interner();
  AdviceBuild out;
  if (hints_enabled) out.hints.hints.reserve(ordered.size());
  int order = 0;
  for (const auto& [id, url] : ordered) {
    const web::Resource& r = instance.model().resource(id);
    const http::HintPriority prio = classify_hint(r);
    const bool local =
        interner.domain(interner.info(url).domain) == serving_domain;

    bool do_push = false;
    switch (push) {
      case PushSelection::None: break;
      case PushSelection::HighPriorityLocal:
        do_push = local && prio == http::HintPriority::Preload;
        break;
      case PushSelection::AllLocal:
        do_push = local;
        break;
    }
    if (do_push) {
      std::int64_t bytes = 0;
      if (auto live = instance.template_of(url)) {
        bytes = instance.resource(*live).size;
      } else if (auto stale =
                     web::servable_size(instance.model(), interner, url)) {
        bytes = *stale;
      }
      out.pushes.push_back(
          http::PushItem{.url_id = url, .url = interner.url(url),
                         .body_bytes = bytes});
      continue;  // pushed content needs no hint
    }
    if (hints_enabled) out.hints.add(url, prio, order++);
  }
  return out;
}

}  // namespace vroom::core
