// Polaris-style client-side request prioritization (Netravali et al.,
// NSDI'16), as characterized in §2 and §6.1 of the Vroom paper.
//
// The client holds a previously computed fine-grained dependency graph of
// the page. It still discovers each resource by fetching and evaluating its
// ancestors (no server aid), but instead of requesting resources in
// discovery order it schedules requests through a bounded-parallelism
// priority queue, favouring resources that head long dependency chains and
// must be processed — reducing access-link contention on the critical path.
#pragma once

#include <deque>
#include <unordered_set>

#include "browser/browser.h"

namespace vroom::baselines {

// The bounded-parallelism chain-priority queue both Polaris schedulers
// fetch through: at most `max_concurrent` of its fetches are outstanding,
// and a queued URL waits behind every URL of equal or higher priority.
class ChainPriorityQueue {
 public:
  explicit ChainPriorityQueue(int max_concurrent)
      : max_concurrent_(max_concurrent) {}

  bool issued(web::UrlId url) const { return issued_.count(url) > 0; }

  // Queues `url` ahead of the first entry of lower priority, then pumps.
  void push(browser::Browser& b, web::UrlId url, int priority);
  // Frees the slot of a fetch this queue issued; other URLs are ignored.
  void complete(web::UrlId url) {
    if (issued_.erase(url) > 0) --outstanding_;
  }
  // Issues queued URLs, best first, while slots are free. A URL the
  // browser already has or is fetching is dropped.
  void pump(browser::Browser& b);

 private:
  struct Pending {
    web::UrlId url;
    int priority;
  };

  int max_concurrent_;
  int outstanding_ = 0;
  std::deque<Pending> queue_;
  std::unordered_set<web::UrlId> issued_;
};

class PolarisScheduler : public browser::FetchPolicy {
 public:
  explicit PolarisScheduler(int max_concurrent = 10) : queue_(max_concurrent) {}

  void on_discovered(browser::Browser& b, web::UrlId url,
                     bool processable) override;
  void on_fetch_complete(browser::Browser& b, web::UrlId url) override;

 private:
  int priority_of(browser::Browser& b, web::UrlId url,
                  bool processable) const;

  ChainPriorityQueue queue_;
};

}  // namespace vroom::baselines
