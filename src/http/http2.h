// HTTP/2 session model: one TCP connection per domain, multiplexed requests,
// server push.
//
// Each response (and each pushed resource) occupies its own stream. With the
// RoundRobin writer discipline frames interleave across streams — stock
// HTTP/2 behaviour; with Ordered, responses drain in the order the server
// wrote them — the ordered response writer Vroom adds to Mahimahi (§5.1).
// The PUSH_PROMISE becomes visible to the client when the triggering
// response's headers arrive.
//
// Every callback on a request's path captures `this` and its exchange's
// index, so none allocates (DESIGN.md §10). Handlers may fetch again.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "http/message.h"
#include "net/tcp.h"

namespace vroom::http {

class Http2Session : public Endpoint {
 public:
  // `domain_id` is the page world's interner id for `domain` (see
  // web/intern.h); 0xffffffff when the caller does not intern.
  Http2Session(net::Network& net, std::string domain, RequestHandler& handler,
               PushObserver push_observer,
               net::WriterDiscipline discipline =
                   net::WriterDiscipline::RoundRobin,
               std::uint32_t domain_id = 0xffffffffu);

  void fetch(Request req, ResponseHandlers handlers) override;

 private:
  void dispatch(std::uint32_t ex);
  void at_server(std::uint32_t ex);
  void write_response(std::uint32_t ex);
  void on_headers(std::uint32_t ex);
  void on_body(std::uint32_t ex);
  void on_pushed(std::uint32_t ex, std::uint32_t push);

  net::Network& net_;
  std::string domain_;
  RequestHandler& handler_;
  PushObserver push_observer_;
  net::WriterDiscipline discipline_;
  std::uint32_t domain_id_;
  std::unique_ptr<net::TcpConnection> conn_;
  std::uint32_t next_stream_ = 1;
  int requests_sent_ = 0;   // HPACK dynamic-table warm-up accounting
  int responses_sent_ = 0;
  ExchangePool exchanges_;
};

}  // namespace vroom::http
