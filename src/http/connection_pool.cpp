#include "http/connection_pool.h"

#include <utility>

namespace vroom::http {

ConnectionPool::ConnectionPool(net::Network& net, HandlerLookup lookup,
                               Protocol protocol, PushObserver push_observer,
                               net::WriterDiscipline h2_discipline)
    : net_(net),
      lookup_(std::move(lookup)),
      protocol_(protocol),
      push_observer_(std::move(push_observer)),
      h2_discipline_(h2_discipline) {}

Endpoint& ConnectionPool::endpoint(std::uint32_t domain_id,
                                   std::string_view domain) {
  if (domain_id >= by_domain_id_.size()) by_domain_id_.resize(domain_id + 1);
  std::unique_ptr<Endpoint>& ep = by_domain_id_[domain_id];
  if (ep) return *ep;
  const std::string name(domain);
  RequestHandler& handler = lookup_(name);
  if (protocol_ == Protocol::Http2) {
    ep = std::make_unique<Http2Session>(net_, name, handler, push_observer_,
                                        h2_discipline_, domain_id);
  } else {
    ep = std::make_unique<Http1Group>(net_, name, handler, domain_id);
  }
  return *ep;
}

}  // namespace vroom::http
