// The VROOM dependency provider: what a compliant origin attaches to an HTML
// response (§4 end-to-end).
//
// Candidate resolution modes cover the paper's design and its strawmen:
//   OfflinePlusOnline — VROOM: hourly-crawl stable set + on-the-fly HTML scan
//   OfflineOnly       — strawman 2 (misses hour-scale flux)
//   OnlineOnly        — strawman 1 (full page load at serve time; server's
//                       own randomness leaks into the advice)
//   PreviousLoad      — Figure 17 baseline: everything seen in one crawl
// The same resolution core is reused by the accuracy study (Figure 21).
//
// Advice names each URL by its id in the served instance's interner, which
// the origin and the browser share: from resolve_candidates to the client
// scheduler no URL string is built or hashed again.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/hint_generator.h"
#include "core/offline_resolver.h"
#include "core/online_analyzer.h"
#include "server/origin_server.h"

namespace vroom::core {

enum class ResolutionMode : std::uint8_t {
  OfflinePlusOnline,
  OfflineOnly,
  OnlineOnly,
  PreviousLoad,
};

const char* resolution_mode_name(ResolutionMode m);

// Ordered (processing-order) candidate dependency list for a request for
// document `doc_id`, as computed by `serving_domain`: (template id, UrlId)
// pairs in `served`'s interner. A markup link, and a crawl-derived slot
// whose key is the live one, is the served instance's own id; any other
// slot is a stale rotation, whose URL is written from its slot key and
// interned with those fields, so the origin parses nothing. `hint_age`
// shifts the offline resolution back in time: the stable set is computed
// as of (serve time - hint_age), modelling a shared front-end serving hints
// from a crawl that happened `hint_age` ago (deploy::FrontEnd). Rotated
// resources then advise the *old* rotation's URLs, which clients fetch as
// ghosts — the staleness cost the deployment simulator measures.
std::vector<std::pair<std::uint32_t, web::UrlId>> resolve_candidates(
    const web::PageInstance& served, std::uint32_t doc_id,
    const std::string& serving_domain, std::uint32_t user,
    ResolutionMode mode, const OfflineResolver& offline,
    sim::Time hint_age = 0);

struct VroomProviderConfig {
  ResolutionMode mode = ResolutionMode::OfflinePlusOnline;
  bool hints_enabled = true;
  PushSelection push = PushSelection::HighPriorityLocal;
  OfflineConfig offline;
  // Header-size budget: at most this many hint URLs per response (0 =
  // unlimited). When truncating, low-priority hints are dropped first —
  // the client discovers those on its own, at the smallest cost.
  int max_hints = 0;
  // Crawl lag of the advice: offline resolution happens at
  // (serve time - hint_age) instead of serve time. 0 = the paper's setup
  // (origin resolves against its freshest crawls). Deployment-scale runs
  // use this to price serving cached, possibly stale hints.
  sim::Time hint_age = 0;
};

class VroomProvider final : public server::DependencyProvider {
 public:
  VroomProvider(const server::ReplayStore& store, VroomProviderConfig config);

  server::DependencyAdvice advise(const std::string& domain,
                                  const http::Request& req) override;

  const OfflineResolver& offline() const { return offline_; }

 private:
  const server::ReplayStore& store_;
  VroomProviderConfig config_;
  OfflineResolver offline_;
};

}  // namespace vroom::core
