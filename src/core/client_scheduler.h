// VROOM's client-side request scheduler (§5.2).
//
// Mirrors the JavaScript scheduler injected into pages: it watches hint
// headers on HTML responses and issues staged downloads — `Link preload`
// resources immediately and in listed order, `x-semi-important` once every
// known high-priority resource has been received and no document response
// is still pending, `x-unimportant` after that. Because the callbacks run
// as main-thread tasks, a long script execution delays stage transitions,
// exactly as the paper notes for its JS implementation.
//
// The unstaged variant ("Push All, Fetch ASAP", §4.3) requests every hinted
// URL the moment it is seen.
//
// Hints arrive as UrlIds of the page world's interner, so the scheduler
// keeps its per-URL flags in one vector indexed by id, fitted to the
// interner once per hint set; with the queues reserved at the same time, a
// hinted request allocates nothing.
#pragma once

#include <cstdint>
#include <vector>

#include "browser/browser.h"

namespace vroom::core {

class VroomClientScheduler : public browser::FetchPolicy {
 public:
  explicit VroomClientScheduler(bool staged = true) : staged_(staged) {}

  void on_discovered(browser::Browser& b, web::UrlId url,
                     bool processable) override;
  void on_hints(browser::Browser& b, const http::HintSet& hints) override;
  void on_fetch_complete(browser::Browser& b, web::UrlId url) override;

  int stage() const { return stage_; }

 private:
  void enqueue_hint(browser::Browser& b, web::UrlId url,
                    http::HintPriority priority);
  void advance_to(browser::Browser& b, int stage, std::int64_t released);
  void try_advance(browser::Browser& b);
  bool all_complete(browser::Browser& b,
                    const std::vector<web::UrlId>& urls) const;
  // Sizes flags_ to every URL the page world has interned.
  void fit_flags(browser::Browser& b);

  // Per-UrlId flags.
  static constexpr std::uint8_t kSeen = 1;        // hinted before
  static constexpr std::uint8_t kPendingDoc = 2;  // counted in pending_docs_

  bool staged_;
  int stage_ = 0;  // 0: preload, 1: semi-important, 2: unimportant
  int pending_docs_ = 0;
  std::vector<std::uint8_t> flags_;
  std::vector<web::UrlId> preload_urls_;
  std::vector<web::UrlId> semi_q_;
  std::vector<web::UrlId> low_q_;
};

}  // namespace vroom::core
