#include "baselines/polaris.h"

#include <algorithm>

namespace vroom::baselines {

void ChainPriorityQueue::push(browser::Browser& b, web::UrlId url,
                              int priority) {
  auto it = std::find_if(queue_.begin(), queue_.end(), [&](const Pending& p) {
    return p.priority < priority;
  });
  queue_.insert(it, Pending{url, priority});
  pump(b);
}

void ChainPriorityQueue::pump(browser::Browser& b) {
  while (outstanding_ < max_concurrent_ && !queue_.empty()) {
    Pending p = queue_.front();
    queue_.pop_front();
    if (b.url_complete(p.url) || b.url_outstanding(p.url)) continue;
    issued_.insert(p.url);
    ++outstanding_;
    b.fetch_url(p.url, p.priority, browser::FetchReason::Parser);
  }
}

int PolarisScheduler::priority_of(browser::Browser& b, web::UrlId url,
                                  bool processable) const {
  const web::PageModel& model = b.instance().model();
  int prio = processable ? 50 : 0;
  if (auto id = b.instance().template_of(url)) {
    // Longer remaining dependency chains first — Polaris's key heuristic.
    prio += model.chain_depth(*id) * 100;
    if (*id == 0) prio += 10000;  // the navigation itself
    if (model.resource(*id).type == web::ResourceType::Html) prio += 500;
  }
  return prio;
}

void PolarisScheduler::on_discovered(browser::Browser& b, web::UrlId url,
                                     bool processable) {
  if (queue_.issued(url) || b.url_complete(url) || b.url_outstanding(url)) {
    return;
  }
  queue_.push(b, url, priority_of(b, url, processable));
}

void PolarisScheduler::on_fetch_complete(browser::Browser& b, web::UrlId url) {
  queue_.complete(url);
  queue_.pump(b);
}

}  // namespace vroom::baselines
