// Origin web server for one domain.
//
// Serves recorded content from the ReplayStore and, when configured as
// VROOM-compliant, consults a DependencyProvider on document requests to
// attach dependency hints and schedule same-domain content pushes. Pushes
// are filtered against the client's cache digest (footnote 2 of the paper:
// clients summarize cache contents in a cookie so servers skip pushing
// cached resources).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "http/message.h"
#include "server/replay_store.h"
#include "trace/trace.h"

namespace vroom::server {

struct DependencyAdvice {
  // URLs are ids in the store's instance interner.
  http::HintSet hints;
  std::vector<http::PushItem> pushes;  // must be same-domain content
  sim::Time extra_delay = 0;           // e.g. on-the-fly HTML analysis
  // Label of the push-selection policy that produced `pushes`; surfaced in
  // push.decision trace events.
  const char* push_policy = "none";
};

// Implemented by core/VroomServerPolicy and the baseline providers.
class DependencyProvider {
 public:
  virtual ~DependencyProvider() = default;
  // `domain` is the origin consulting the provider; `req.url` the document
  // being served.
  virtual DependencyAdvice advise(const std::string& domain,
                                  const http::Request& req) = 0;
};

class OriginServer : public http::RequestHandler {
 public:
  using CacheDigest = std::function<bool(std::string_view url)>;

  OriginServer(std::string domain, const ReplayStore& store);

  // nullptr disables server aid (plain HTTP/1.1-or-2 origin).
  void set_provider(DependencyProvider* provider) { provider_ = provider; }
  void set_cache_digest(CacheDigest digest) { digest_ = std::move(digest); }
  // Additional backend latency per request (ad exchanges run auctions).
  void set_extra_think(sim::Time t) { extra_think_ = t; }
  // nullptr (the default) disables tracing; the recorder outlives the farm.
  void set_recorder(trace::Recorder* recorder) { recorder_ = recorder; }

  http::ServerReply handle(const http::Request& req) override;

  int requests_served() const { return requests_served_; }

 private:
  std::string domain_;
  const ReplayStore& store_;
  DependencyProvider* provider_ = nullptr;
  CacheDigest digest_;
  trace::Recorder* recorder_ = nullptr;
  sim::Time extra_think_ = 0;
  int requests_served_ = 0;
};

// All origins participating in one page load, keyed by domain.
class ServerFarm {
 public:
  explicit ServerFarm(const ReplayStore& store) : store_(store) {}

  // Lazily creates the origin for a domain.
  OriginServer& server(const std::string& domain);

  // Applies a provider/digest to every origin created now or later.
  void set_provider_for_all(DependencyProvider* provider);
  // Restricts server aid to the first-party organization of the page
  // (incremental-deployment study, §6.1).
  void set_provider_first_party_only(DependencyProvider* provider);
  void set_cache_digest(OriginServer::CacheDigest digest);
  // Applies a trace recorder to every origin created now or later.
  void set_recorder(trace::Recorder* recorder);

 private:
  void configure(OriginServer& s, const std::string& domain);

  const ReplayStore& store_;
  std::map<std::string, std::unique_ptr<OriginServer>> servers_;
  DependencyProvider* provider_ = nullptr;
  bool first_party_only_ = false;
  OriginServer::CacheDigest digest_;
  trace::Recorder* recorder_ = nullptr;
};

}  // namespace vroom::server
