#include "http/http1.h"

#include <algorithm>
#include <utility>

#include "trace/trace.h"

namespace vroom::http {

Http1Group::Http1Group(net::Network& net, std::string domain,
                       RequestHandler& handler, std::uint32_t domain_id)
    : net_(net),
      domain_(std::move(domain)),
      handler_(handler),
      domain_id_(domain_id),
      exchanges_(net.memory()),
      queue_(net.memory()) {}

void Http1Group::fetch(Request req, ResponseHandlers handlers) {
  const int priority = req.priority;
  const std::uint32_t ex =
      exchanges_.add(std::move(req), std::move(handlers), net_.loop().now());
  // Insert keeping the queue ordered by priority (desc), FIFO within equal
  // priorities.
  auto it = std::find_if(queue_.begin(), queue_.end(), [&](std::uint32_t q) {
    return exchanges_[q].req.priority < priority;
  });
  queue_.insert(it, ex);
  pump();
}

void Http1Group::claim(Conn& c) {
  c.ex = queue_.front();
  queue_.pop_front();
  Exchange& e = exchanges_[c.ex];
  if (trace::Recorder* tr = trace::of(net_.loop())) {
    const sim::Time waited = net_.loop().now() - e.queued;
    if (waited > 0) {
      // All six connections were occupied while this request sat queued:
      // HTTP/1.1's head-of-line blocking, the cost HTTP/2 multiplexing (and
      // eventually push) was designed to remove.
      tr->complete(trace::Layer::Http, domain_, "h1-queue", "h1.queue_wait",
                   e.queued, {trace::arg("url", e.req.url)});
      tr->counters().add("http.h1_hol_waits");
      tr->counters().add("http.h1_hol_wait_us", waited);
    }
  }
  c.busy = true;
  e.requested = net_.loop().now();
  if (trace::Recorder* tr = trace::of(net_.loop())) {
    tr->counters().add("http.h1_requests");
  }
  c.tcp->send_request(kH1RequestHeaderBytes,
                      [this, conn = &c] { at_server(*conn); });
}

void Http1Group::pump() {
  if (queue_.empty()) return;
  // Reuse an idle established connection first.
  for (auto& cp : conns_) {
    if (!cp->busy && cp->tcp->established()) {
      if (queue_.empty()) return;
      claim(*cp);
      if (queue_.empty()) return;
    }
  }
  // Open new connections up to the limit while work remains.
  while (!queue_.empty() &&
         conns_.size() < static_cast<std::size_t>(kMaxConnections)) {
    auto cp = std::make_unique<Conn>();
    Conn* c = cp.get();
    c->tcp = std::make_unique<net::TcpConnection>(
        net_, domain_, /*needs_dns=*/!dns_done_,
        net::WriterDiscipline::Ordered, domain_id_);
    dns_done_ = true;
    conns_.push_back(std::move(cp));
    c->tcp->connect([this] { pump(); });
    // The connection only picks work up once established (via pump), so a
    // queued request may be taken by whichever connection frees up first.
    break;  // open one at a time per pump; re-entered on events
  }
  // If every connection is busy/connecting, the queue drains later.
}

void Http1Group::at_server(Conn& c) {
  Exchange& e = exchanges_[c.ex];
  ServerReply reply = handler_.handle(e.req);
  e.meta = response_meta(e.req, reply);
  net_.loop().schedule_in(net_.config().server_think + reply.extra_delay,
                          [this, conn = &c] { write_response(*conn); });
}

void Http1Group::write_response(Conn& c) {
  const ResponseMeta& meta = exchanges_[c.ex].meta;
  net::TcpConnection::Chunk chunk;
  chunk.bytes = (meta.not_modified ? k304Bytes
                                   : kResponseHeaderBytes + meta.body_bytes) +
                meta.hints.header_bytes();
  chunk.on_first_byte = [this, conn = &c] {
    Exchange& e = exchanges_[conn->ex];
    auto on_headers = std::move(e.handlers.on_headers);
    if (on_headers) on_headers(e.meta);
  };
  chunk.on_delivered = [this, conn = &c] { on_body(*conn); };
  c.tcp->send_chunk(std::move(chunk));
}

void Http1Group::on_body(Conn& c) {
  Exchange& e = exchanges_[c.ex];
  if (trace::Recorder* tr = trace::of(net_.loop())) {
    tr->complete(trace::Layer::Http, domain_, c.tcp->lane(), "h1.fetch",
                 e.requested,
                 {trace::arg("url", e.meta.url),
                  trace::arg("bytes", e.meta.body_bytes)});
  }
  // `c` stays busy until the handler returns, so a fetch from inside it
  // queues or takes another connection.
  auto on_complete = std::move(e.handlers.on_complete);
  if (on_complete) on_complete(e.meta);
  exchanges_.release(c.ex);
  c.busy = false;
  pump();
}

}  // namespace vroom::http
