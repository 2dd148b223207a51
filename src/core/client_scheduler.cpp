#include "core/client_scheduler.h"

#include "trace/trace.h"

namespace vroom::core {
namespace {

bool is_html_url(browser::Browser& b, web::UrlId url) {
  const web::UrlInfo& info = b.instance().interner().info(url);
  return info.parse_ok && info.type == web::ResourceType::Html;
}

}  // namespace

void VroomClientScheduler::fit_flags(browser::Browser& b) {
  flags_.resize(b.instance().interner().url_count());
}

void VroomClientScheduler::on_discovered(browser::Browser& b, web::UrlId url,
                                         bool processable) {
  // Engine-discovered resources always go out right away (the browser's
  // native fetch path); hint-scheduled copies dedup against them.
  if (is_html_url(b, url) && !b.url_complete(url)) {
    if (url >= flags_.size()) fit_flags(b);
    if ((flags_[url] & kPendingDoc) == 0) {
      flags_[url] |= kPendingDoc;
      ++pending_docs_;
    }
  }
  FetchPolicy::on_discovered(b, url, processable);
}

void VroomClientScheduler::on_hints(browser::Browser& b,
                                    const http::HintSet& hints) {
  fit_flags(b);
  const std::size_t n = hints.hints.size();
  preload_urls_.reserve(preload_urls_.size() + n);
  semi_q_.reserve(semi_q_.size() + n);
  low_q_.reserve(low_q_.size() + n);
  int fresh = 0;
  for (const http::Hint& h : hints.hints) {
    b.note_hinted(h.url);
    if ((flags_[h.url] & kSeen) != 0) continue;
    flags_[h.url] |= kSeen;
    ++fresh;
    enqueue_hint(b, h.url, h.priority);
  }
  if (trace::Recorder* tr = trace::of(b.loop())) {
    tr->instant(trace::Layer::Vroom, "browser", "scheduler", "hints.acted",
                {trace::arg("fresh", fresh),
                 trace::arg("total", static_cast<std::int64_t>(n)),
                 trace::arg("stage", stage_)});
    tr->counters().add("vroom.hints_acted_on", fresh);
  }
  try_advance(b);
}

void VroomClientScheduler::enqueue_hint(browser::Browser& b, web::UrlId url,
                                        http::HintPriority priority) {
  if (!staged_) {
    b.fetch_url(url, 0, browser::FetchReason::Hint);
    return;
  }
  switch (priority) {
    case http::HintPriority::Preload:
      preload_urls_.push_back(url);
      b.fetch_url(url, 2, browser::FetchReason::Hint);
      break;
    case http::HintPriority::SemiImportant:
      if (stage_ >= 1) {
        b.fetch_url(url, 1, browser::FetchReason::Hint);
      } else {
        semi_q_.push_back(url);
      }
      break;
    case http::HintPriority::Unimportant:
      if (stage_ >= 2) {
        b.fetch_url(url, 0, browser::FetchReason::Hint);
      } else {
        low_q_.push_back(url);
      }
      break;
  }
}

void VroomClientScheduler::on_fetch_complete(browser::Browser& b,
                                             web::UrlId url) {
  if (url < flags_.size() && (flags_[url] & kPendingDoc) != 0) {
    flags_[url] &= static_cast<std::uint8_t>(~kPendingDoc);
    --pending_docs_;
  }
  try_advance(b);
}

bool VroomClientScheduler::all_complete(
    browser::Browser& b, const std::vector<web::UrlId>& urls) const {
  for (web::UrlId u : urls) {
    if (!b.url_complete(u)) return false;
  }
  return true;
}

void VroomClientScheduler::advance_to(browser::Browser& b, int stage,
                                      std::int64_t released) {
  stage_ = stage;
  if (trace::Recorder* tr = trace::of(b.loop())) {
    tr->instant(trace::Layer::Vroom, "browser", "scheduler", "stage_advance",
                {trace::arg("from", stage - 1), trace::arg("to", stage),
                 trace::arg("released", released)});
    tr->counters().add("vroom.stage_advances");
  }
}

void VroomClientScheduler::try_advance(browser::Browser& b) {
  if (!staged_) return;
  if (stage_ == 0) {
    // "Once resource discovery from servers is complete and all high
    // priority resources learned via hints have been received…"
    if (pending_docs_ > 0 || !all_complete(b, preload_urls_)) return;
    advance_to(b, 1, static_cast<std::int64_t>(semi_q_.size()));
    for (web::UrlId u : semi_q_) {
      b.fetch_url(u, 1, browser::FetchReason::Hint);
    }
  }
  if (stage_ == 1) {
    if (!all_complete(b, semi_q_)) return;
    advance_to(b, 2, static_cast<std::int64_t>(low_q_.size()));
    for (web::UrlId u : low_q_) {
      b.fetch_url(u, 0, browser::FetchReason::Hint);
    }
  }
}

}  // namespace vroom::core
