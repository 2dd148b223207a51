#include "baselines/vroom_polaris.h"

namespace vroom::baselines {

void VroomPolarisScheduler::on_discovered(browser::Browser& b, web::UrlId url,
                                          bool processable) {
  // Resources already covered by hints (or pushes) are in flight; the
  // chain-priority queue is only for what the client discovers itself.
  if (b.url_complete(url) || b.url_outstanding(url) || queue_.issued(url)) {
    // Still let the base class account for pending documents.
    core::VroomClientScheduler::on_discovered(b, url, processable);
    return;
  }
  // Documents and render-blocking resources bypass the queue: the engine
  // cannot make progress without them.
  int prio = processable ? 50 : 0;
  if (auto id = b.instance().template_of(url)) {
    prio += b.instance().model().chain_depth(*id) * 100;
    if (b.instance().model().resource(*id).type == web::ResourceType::Html ||
        b.instance().model().resource(*id).blocks_parser) {
      core::VroomClientScheduler::on_discovered(b, url, processable);
      return;
    }
  }
  queue_.push(b, url, prio);
}

void VroomPolarisScheduler::on_fetch_complete(browser::Browser& b,
                                              web::UrlId url) {
  queue_.complete(url);
  core::VroomClientScheduler::on_fetch_complete(b, url);
  queue_.pump(b);
}

}  // namespace vroom::baselines
