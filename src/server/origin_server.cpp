#include "server/origin_server.h"

#include <cassert>

#include "web/url.h"

namespace vroom::server {

OriginServer::OriginServer(std::string domain, const ReplayStore& store)
    : domain_(std::move(domain)), store_(store) {}

http::ServerReply OriginServer::handle(const http::Request& req) {
  ++requests_served_;
  if (recorder_) recorder_->counters().add("server.requests");
  http::ServerReply reply;
  auto entry = store_.lookup(req);
  if (!entry) {
    reply.body_bytes = 500;  // error page
    return reply;
  }
  assert(web::url_domain_view(req.url) == domain_);

  if (req.conditional && entry->current) {
    // The cached copy is still the live version of this slot.
    reply.not_modified = true;
    if (recorder_) {
      recorder_->instant(trace::Layer::Server, domain_, "origin",
                         "revalidate.304", {trace::arg("url", req.url)});
      recorder_->counters().add("server.revalidations_304");
    }
    return reply;
  }
  reply.body_bytes = entry->size;
  reply.extra_delay = extra_think_;

  if (provider_ && entry->type == web::ResourceType::Html) {
    DependencyAdvice advice = provider_->advise(domain_, req);
    reply.hints = std::move(advice.hints);
    reply.extra_delay += advice.extra_delay;
    if (recorder_ && !reply.hints.empty()) {
      recorder_->instant(
          trace::Layer::Server, domain_, "origin", "hints.attached",
          {trace::arg("url", req.url),
           trace::arg("count",
                      static_cast<std::int64_t>(reply.hints.hints.size()))});
      recorder_->counters().add(
          "server.hints_attached",
          static_cast<std::int64_t>(reply.hints.hints.size()));
    }
    const web::Interner& interner = store_.instance().interner();
    for (http::PushItem& p : advice.pushes) {
      // A domain can only securely push content it owns, and skips content
      // the client's cache digest says it already holds.
      const bool cross_domain = web::url_domain_view(p.url) != domain_;
      const bool in_digest = !cross_domain && digest_ && digest_(p.url);
      const bool do_push = !cross_domain && !in_digest;
      if (recorder_) {
        const char* decision = do_push ? "push"
                               : cross_domain ? "skip:cross-domain"
                                              : "skip:cache-digest";
        recorder_->instant(trace::Layer::Server, domain_, "origin",
                           "push.decision",
                           {trace::arg("url", p.url),
                            trace::arg("decision", decision),
                            trace::arg("policy", advice.push_policy)});
        if (do_push) {
          recorder_->counters().add("server.pushes_issued");
          recorder_->counters().add("server.push_bytes", p.body_bytes);
        } else if (cross_domain) {
          recorder_->counters().add("server.pushes_skipped_cross_domain");
        } else {
          recorder_->counters().add("server.pushes_skipped_digest");
        }
      }
      if (!do_push) continue;
      p.processable = interner.info(p.url_id).processable;
      reply.pushes.push_back(p);
    }
  }
  return reply;
}

OriginServer& ServerFarm::server(const std::string& domain) {
  auto it = servers_.find(domain);
  if (it != servers_.end()) return *it->second;
  auto s = std::make_unique<OriginServer>(domain, store_);
  configure(*s, domain);
  auto [pos, _] = servers_.emplace(domain, std::move(s));
  return *pos->second;
}

void ServerFarm::configure(OriginServer& s, const std::string& domain) {
  const bool aid =
      provider_ != nullptr &&
      (!first_party_only_ ||
       store_.instance().model().is_first_party_org(domain));
  s.set_provider(aid ? provider_ : nullptr);
  if (digest_) s.set_cache_digest(digest_);
  s.set_recorder(recorder_);
  // Ad exchanges and tag managers run auctions/matching on each request;
  // their first-byte latency is far above a static origin's.
  if (domain.rfind("ads", 0) == 0 || domain.rfind("tag", 0) == 0) {
    s.set_extra_think(sim::ms(80));
  }
}

void ServerFarm::set_provider_for_all(DependencyProvider* provider) {
  provider_ = provider;
  first_party_only_ = false;
  for (auto& [dom, s] : servers_) configure(*s, dom);
}

void ServerFarm::set_provider_first_party_only(DependencyProvider* provider) {
  provider_ = provider;
  first_party_only_ = true;
  for (auto& [dom, s] : servers_) configure(*s, dom);
}

void ServerFarm::set_cache_digest(OriginServer::CacheDigest digest) {
  digest_ = std::move(digest);
  for (auto& [dom, s] : servers_) configure(*s, dom);
}

void ServerFarm::set_recorder(trace::Recorder* recorder) {
  recorder_ = recorder;
  for (auto& [dom, s] : servers_) s->set_recorder(recorder);
}

}  // namespace vroom::server
