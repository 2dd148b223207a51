// Vroom + Polaris combination (§6.1: "combining the complementary
// approaches used in VROOM and Polaris is a promising direction").
//
// Server aid stays exactly Vroom's (push + staged dependency hints). The
// client additionally applies Polaris-style prioritization to the resources
// it must still discover on its own — the unpredictable tail that Vroom
// defers to the client: engine discoveries go through a bounded-parallelism
// queue favouring long dependency chains, so the unhinted remainder cannot
// crowd the link at the moment hinted high-priority resources arrive.
#pragma once

#include "baselines/polaris.h"
#include "core/client_scheduler.h"

namespace vroom::baselines {

class VroomPolarisScheduler final : public core::VroomClientScheduler {
 public:
  explicit VroomPolarisScheduler(int max_concurrent_discoveries = 8)
      : queue_(max_concurrent_discoveries) {}

  void on_discovered(browser::Browser& b, web::UrlId url,
                     bool processable) override;
  void on_fetch_complete(browser::Browser& b, web::UrlId url) override;

 private:
  ChainPriorityQueue queue_;
};

}  // namespace vroom::baselines
