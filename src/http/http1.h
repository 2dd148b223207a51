// HTTP/1.1 connection group: up to six parallel connections per domain, one
// outstanding request per connection, no server push.
//
// Requests beyond the parallelism limit queue (higher `Request::priority`
// first, FIFO within a priority) — the browser behaviour whose head-of-line
// blocking HTTP/2 was designed to remove.
//
// The queue and each connection's in-flight slot hold exchange indices;
// callbacks capture `this` and the connection, so none allocates, and the
// server's think time is a record of the group and the connection's index
// (DESIGN.md §10). Handlers may fetch again.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <memory_resource>
#include <string>
#include <vector>

#include "http/message.h"
#include "net/tcp.h"

namespace vroom::http {

class Http1Group : public Endpoint {
 public:
  static constexpr int kMaxConnections = 6;

  // `domain_id` is the page world's interner id for `domain` (see
  // web/intern.h); 0xffffffff when the caller does not intern.
  Http1Group(net::Network& net, std::string domain, RequestHandler& handler,
             std::uint32_t domain_id = 0xffffffffu);

  void fetch(Request req, ResponseHandlers handlers) override;

 private:
  struct Conn {
    std::unique_ptr<net::TcpConnection> tcp;
    std::uint32_t index = 0;  // in conns_
    bool busy = false;
    std::uint32_t ex = 0;  // the in-flight exchange while busy
  };

  void pump();
  // Pops the queue's head into `c` and sends it.
  void claim(Conn& c);
  void at_server(Conn& c);
  // The record that ends the think time of conns_[index]'s exchange.
  void write_response(std::uint32_t index, std::int64_t);
  void on_body(Conn& c);

  net::Network& net_;
  std::string domain_;
  RequestHandler& handler_;
  std::uint32_t domain_id_;
  std::vector<std::unique_ptr<Conn>> conns_;
  ExchangePool exchanges_;
  std::pmr::deque<std::uint32_t> queue_;
  bool dns_done_ = false;  // only the first connection pays the DNS lookup
};

}  // namespace vroom::http
