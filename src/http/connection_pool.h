// Per-domain endpoint factory for one page load: one endpoint per domain,
// all speaking the load's protocol, with server push events wired back to
// the page loader. The §6.1 incremental-adoption study varies which origins
// give dependency hints (server::ServerFarm::set_provider_first_party_only),
// not their protocol.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "http/http1.h"
#include "http/http2.h"
#include "http/message.h"

namespace vroom::http {

enum class Protocol { Http1, Http2 };

class ConnectionPool {
 public:
  using HandlerLookup = std::function<RequestHandler&(const std::string&)>;

  ConnectionPool(net::Network& net, HandlerLookup lookup, Protocol protocol,
                 PushObserver push_observer,
                 net::WriterDiscipline h2_discipline =
                     net::WriterDiscipline::RoundRobin);

  // Returns (creating on first use) the endpoint for a domain, by the page
  // world's interner id for it (web/intern.h): one vector index per lookup.
  Endpoint& endpoint(std::uint32_t domain_id, std::string_view domain);

 private:
  net::Network& net_;
  HandlerLookup lookup_;
  Protocol protocol_;
  PushObserver push_observer_;
  net::WriterDiscipline h2_discipline_;
  std::vector<std::unique_ptr<Endpoint>> by_domain_id_;  // null until used
};

}  // namespace vroom::http
