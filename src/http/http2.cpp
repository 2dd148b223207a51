#include "http/http2.h"

#include <utility>

#include "trace/trace.h"

namespace vroom::http {

Http2Session::Http2Session(net::Network& net, std::string domain,
                           RequestHandler& handler, PushObserver push_observer,
                           net::WriterDiscipline discipline,
                           std::uint32_t domain_id)
    : net_(net),
      domain_(std::move(domain)),
      handler_(handler),
      push_observer_(std::move(push_observer)),
      discipline_(discipline),
      domain_id_(domain_id),
      exchanges_(net.memory()) {}

void Http2Session::fetch(Request req, ResponseHandlers handlers) {
  if (!conn_) {
    conn_ = std::make_unique<net::TcpConnection>(net_, domain_,
                                                 /*needs_dns=*/true,
                                                 discipline_, domain_id_);
    conn_->connect([this] {
      // Every exchange so far was fetched while the connection came up.
      const std::uint32_t pending = exchanges_.size();
      for (std::uint32_t ex = 0; ex < pending; ++ex) dispatch(ex);
    });
  }
  const std::uint32_t ex =
      exchanges_.add(std::move(req), std::move(handlers), net_.loop().now());
  if (conn_->established()) dispatch(ex);
}

void Http2Session::dispatch(std::uint32_t ex) {
  // HPACK: the first request on the connection populates the dynamic table;
  // later requests reference it.
  const std::int64_t req_bytes = requests_sent_++ == 0
                                     ? kH2RequestHeaderBytesFirst
                                     : kH2RequestHeaderBytesIndexed;
  exchanges_[ex].requested = net_.loop().now();
  conn_->send_request(req_bytes, [this, ex] { at_server(ex); });
}

void Http2Session::at_server(std::uint32_t ex) {
  // At the origin: think time (+ any policy-specific delay, e.g. on-the-fly
  // HTML parsing) before the response starts to flow.
  Exchange& e = exchanges_[ex];
  ServerReply reply = handler_.handle(e.req);
  e.meta = response_meta(e.req, reply);
  e.pushes = std::move(reply.pushes);
  net_.loop().schedule_in(
      net_.config().server_think + reply.extra_delay,
      sim::make_record<&Http2Session::write_response>(this, ex));
}

void Http2Session::write_response(std::uint32_t ex, std::int64_t) {
  Exchange& e = exchanges_[ex];
  const std::int64_t resp_header = responses_sent_++ == 0
                                       ? kResponseHeaderBytesFirst
                                       : kResponseHeaderBytesIndexed;
  net::TcpConnection::Chunk chunk;
  chunk.bytes = (e.meta.not_modified ? k304Bytes
                                     : resp_header + e.meta.body_bytes) +
                e.meta.hints.header_bytes();
  chunk.on_first_byte = [this, ex] { on_headers(ex); };
  chunk.on_delivered = [this, ex] { on_body(ex); };
  if (trace::Recorder* tr = trace::of(net_.loop())) {
    tr->counters().add("http.h2_streams");
  }
  e.stream = next_stream_;
  e.responded = net_.loop().now();
  e.open = 1 + static_cast<std::uint32_t>(e.pushes.size());
  conn_->send_chunk(next_stream_++, e.req.priority, std::move(chunk));

  // Pushed content follows on its own streams; under the Ordered discipline
  // it drains right after the triggering response. Pushed streams carry the
  // priority of their content class so they cannot starve client-requested
  // critical resources.
  for (std::uint32_t k = 0; k < e.pushes.size(); ++k) {
    net::TcpConnection::Chunk pc;
    pc.bytes = kResponseHeaderBytes + e.pushes[k].body_bytes;
    pc.on_delivered = [this, ex, k] { on_pushed(ex, k); };
    conn_->send_chunk(next_stream_++, e.pushes[k].processable ? 2 : 0,
                      std::move(pc));
  }
}

void Http2Session::on_headers(std::uint32_t ex) {
  if (trace::Recorder* tr = trace::of(net_.loop())) {
    // PUSH_PROMISE frames become visible to the client with the
    // triggering response's headers.
    const Exchange& e = exchanges_[ex];
    const std::string lane = "stream#" + std::to_string(e.stream);
    for (const PushItem& p : e.pushes) {
      tr->instant(trace::Layer::Http, domain_, lane, "push_promise",
                  {trace::arg("url", p.url),
                   trace::arg("bytes", p.body_bytes)});
      tr->counters().add("http.h2_push_promises");
    }
  }
  if (push_observer_.on_promise) {
    for (std::size_t k = 0; k < exchanges_[ex].pushes.size(); ++k) {
      const PushItem& p = exchanges_[ex].pushes[k];
      push_observer_.on_promise(p.url_id, p.body_bytes);
    }
  }
  auto on_headers = std::move(exchanges_[ex].handlers.on_headers);
  if (on_headers) on_headers(exchanges_[ex].meta);
}

void Http2Session::on_body(std::uint32_t ex) {
  if (trace::Recorder* tr = trace::of(net_.loop())) {
    const Exchange& e = exchanges_[ex];
    tr->complete(trace::Layer::Http, domain_,
                 "stream#" + std::to_string(e.stream), "stream", e.requested,
                 {trace::arg("url", e.meta.url),
                  trace::arg("bytes", e.meta.body_bytes)});
  }
  auto on_complete = std::move(exchanges_[ex].handlers.on_complete);
  if (on_complete) on_complete(exchanges_[ex].meta);
  if (--exchanges_[ex].open == 0) exchanges_.release(ex);
}

void Http2Session::on_pushed(std::uint32_t ex, std::uint32_t push) {
  const Exchange& e = exchanges_[ex];
  const PushItem& p = e.pushes[push];
  if (trace::Recorder* tr = trace::of(net_.loop())) {
    tr->complete(trace::Layer::Http, domain_,
                 "stream#" + std::to_string(e.stream + 1 + push),
                 "push.stream", e.responded,
                 {trace::arg("url", p.url), trace::arg("bytes", p.body_bytes)});
    tr->counters().add("http.h2_pushed_streams");
    tr->counters().add("http.h2_push_bytes", p.body_bytes);
  }
  if (push_observer_.on_complete) {
    push_observer_.on_complete(p.url_id, p.body_bytes);
  }
  if (--exchanges_[ex].open == 0) exchanges_.release(ex);
}

}  // namespace vroom::http
