#include "net/tcp.h"

#include <algorithm>
#include <cassert>
#include <climits>
#include <utility>

#include "trace/trace.h"

namespace vroom::net {

TcpConnection::TcpConnection(Network& net, std::string domain, bool needs_dns,
                             WriterDiscipline discipline,
                             std::uint32_t domain_id)
    : net_(net),
      domain_(std::move(domain)),
      lane_("conn#" + std::to_string(net.alloc_conn_id())),
      needs_dns_(needs_dns),
      discipline_(discipline),
      rtt_(net_.rtt(domain_id, domain_)),
      delay_line_(net_.loop().add_lane()) {
  const auto& cfg = net_.config();
  cwnd_ = static_cast<std::int64_t>(cfg.init_cwnd_segments) * cfg.mss_bytes;
  max_cwnd_ = static_cast<std::int64_t>(cfg.max_cwnd_segments) * cfg.mss_bytes;
  stream_window_ = cfg.h2_stream_window_bytes;
}

void TcpConnection::connect(std::function<void()> on_established) {
  assert(!established_);
  const auto& cfg = net_.config();
  sim::Time setup = rtt_;  // TCP 3-way handshake (client sees 1 RTT)
  setup += net_.radio_wakeup_delay();  // RRC idle->connected promotion
  if (needs_dns_) setup += cfg.dns_lookup;
  setup += static_cast<sim::Time>(cfg.tls_handshake_rtts) * rtt_;
  const sim::Time started = net_.loop().now();
  net_.loop().schedule_in(setup, [this, started,
                                  cb = std::move(on_established)] {
    established_ = true;
    if (trace::Recorder* tr = trace::of(net_.loop())) {
      tr->complete(trace::Layer::Net, domain_, lane_, "connect", started,
                   {trace::arg("rtt_ms", sim::to_ms(rtt_)),
                    trace::arg("dns", needs_dns_ ? "yes" : "no"),
                    trace::arg("tls_rtts", net_.config().tls_handshake_rtts)});
      tr->counters().add("net.connections");
      if (needs_dns_) tr->counters().add("net.dns_lookups");
    }
    cb();
  });
}

void TcpConnection::send_request(std::int64_t bytes,
                                 std::function<void()> deliver_at_server) {
  assert(established_);
  // Uplink serialization at the client, then propagation to the origin.
  const sim::Time half_rtt = rtt_ / 2;
  net_.uplink().transmit(bytes,
                         [this, half_rtt, cb = std::move(deliver_at_server)] {
                           net_.loop().schedule_in(delay_line_, half_rtt, cb);
                         });
}

TcpConnection::Stream& TcpConnection::stream_for(std::uint32_t id,
                                                 int priority) {
  const auto it = stream_index_.find(id);
  if (it != stream_index_.end()) return streams_[it->second];
  stream_index_.emplace(id, streams_.size());
  streams_.push_back(Stream{id, priority, {}, 0, 0});
  return streams_.back();
}

void TcpConnection::activate(std::size_t stream_index) {
  const auto it =
      std::lower_bound(active_.begin(), active_.end(), stream_index);
  if (it == active_.end() || *it != stream_index) {
    active_.insert(it, stream_index);
  }
}

void TcpConnection::deactivate(std::size_t stream_index) {
  const auto it =
      std::lower_bound(active_.begin(), active_.end(), stream_index);
  if (it != active_.end() && *it == stream_index) active_.erase(it);
}

void TcpConnection::send_chunk(std::uint32_t stream_id, int priority,
                               Chunk chunk) {
  assert(established_);
  const std::int64_t bytes = std::max<std::int64_t>(chunk.bytes, 1);
  Stream& s = stream_for(stream_id, priority);
  const bool was_exhausted = s.exhausted();
  s.chunks.push_back(PendingChunk{std::move(chunk), bytes, bytes});
  if (was_exhausted) {
    activate(static_cast<std::size_t>(&s - streams_.data()));
  }
  pump();
}

TcpConnection::Stream* TcpConnection::pick_stream() {
  if (active_.empty()) return nullptr;
  // HTTP/2 flow control: a stream with a full window cannot send even if
  // the connection's congestion window has room; another stream may.
  auto flow_open = [&](const Stream& s) {
    return stream_window_ <= 0 || streams_.size() < 2 ||
           s.inflight < stream_window_;
  };
  if (discipline_ == WriterDiscipline::Ordered) {
    for (const std::size_t idx : active_) {
      Stream& s = streams_[idx];
      if (flow_open(s)) return &s;
    }
    return nullptr;
  }
  // Highest-priority active streams first; round-robin within the tier.
  int best = INT_MIN;
  for (const std::size_t idx : active_) {
    const Stream& s = streams_[idx];
    if (flow_open(s)) best = std::max(best, s.priority);
  }
  if (best == INT_MIN) return nullptr;
  // Cyclic scan from rr_next_, restricted to the active subsequence: the
  // same stream the full positional scan would reach, since exhausted
  // streams never matched it anyway.
  const std::size_t n = streams_.size();
  const std::size_t m = active_.size();
  const std::size_t base = static_cast<std::size_t>(
      std::lower_bound(active_.begin(), active_.end(), rr_next_) -
      active_.begin());
  for (std::size_t k = 0; k < m; ++k) {
    const std::size_t idx = active_[(base + k) % m];
    Stream& s = streams_[idx];
    if (flow_open(s) && s.priority == best) {
      rr_next_ = (idx + 1) % n;
      return &s;
    }
  }
  return nullptr;
}

void TcpConnection::pump() {
  const std::int64_t mss = net_.config().mss_bytes;
  while (inflight_ < cwnd_) {
    Stream* s = pick_stream();
    if (s == nullptr) return;
    // Advance the stream's send cursor to a chunk with bytes left.
    while (s->send_cursor < s->chunks.size() &&
           s->chunks[s->send_cursor].to_send == 0) {
      ++s->send_cursor;
    }
    if (s->send_cursor >= s->chunks.size()) continue;
    PendingChunk& pc = s->chunks[s->send_cursor];
    const std::int64_t seg = std::min(mss, pc.to_send);
    pc.to_send -= seg;
    inflight_ += seg;
    s->inflight += seg;
    const std::size_t stream_index =
        static_cast<std::size_t>(s - streams_.data());
    if (s->exhausted()) deactivate(stream_index);
    // A lost segment is recovered after a retransmission timeout and costs
    // the flow half its window; the retransmit then takes the normal path.
    sim::Time extra = 0;
    if (net_.draw_loss()) {
      extra = std::max(net_.config().rto_min, 2 * rtt_);
      cwnd_ = std::max<std::int64_t>(cwnd_ / 2,
                                     2 * net_.config().mss_bytes);
      if (trace::Recorder* tr = trace::of(net_.loop())) {
        tr->instant(trace::Layer::Net, domain_, lane_, "rto",
                    {trace::arg("timeout_ms", sim::to_ms(extra)),
                     trace::arg("cwnd_after", cwnd_)});
        tr->counter(trace::Layer::Net, domain_, "cwnd." + lane_, cwnd_);
        tr->counters().add("net.rto_events");
      }
    }
    // Propagation from origin to the access-link bottleneck, then FIFO
    // serialization shared with every other connection.
    net_.loop().schedule_in(
        delay_line_, rtt_ / 2 + extra, [this, stream_index, seg] {
          net_.downlink().transmit(seg, [this, stream_index, seg] {
            on_segment_at_client(stream_index, seg);
          });
        });
  }
}

void TcpConnection::on_segment_at_client(std::size_t stream_index,
                                         std::int64_t seg) {
  bytes_delivered_total_ += seg;
  Stream& s = streams_[stream_index];
  std::int64_t remaining = seg;
  while (remaining > 0 && s.deliver_cursor < s.chunks.size()) {
    PendingChunk& pc = s.chunks[s.deliver_cursor];
    if (pc.to_deliver == 0) {
      ++s.deliver_cursor;
      continue;
    }
    if (!pc.first_byte_fired) {
      pc.first_byte_fired = true;
      if (pc.chunk.on_first_byte) pc.chunk.on_first_byte();
    }
    const std::int64_t credit = std::min(remaining, pc.to_deliver);
    pc.to_deliver -= credit;
    remaining -= credit;
    if (pc.to_deliver == 0) {
      if (pc.chunk.on_delivered) pc.chunk.on_delivered();
      ++s.deliver_cursor;
    }
  }
  // ACK (and the stream's WINDOW_UPDATE) travels back to the origin.
  net_.loop().schedule_in(delay_line_, rtt_ / 2, [this, stream_index, seg] {
    on_ack(stream_index, seg);
  });
}

void TcpConnection::on_ack(std::size_t stream_index, std::int64_t seg) {
  inflight_ -= seg;
  streams_[stream_index].inflight -= seg;
  // Slow start: cwnd grows by one MSS per acked segment (doubling per RTT)
  // up to the configured cap. A loss halves cwnd in pump(); there is no
  // ssthresh, so growth resumes at this rate afterwards.
  const std::int64_t before = cwnd_;
  cwnd_ = std::min(cwnd_ + net_.config().mss_bytes, max_cwnd_);
  if (cwnd_ != before) {
    if (trace::Recorder* tr = trace::of(net_.loop())) {
      tr->counter(trace::Layer::Net, domain_, "cwnd." + lane_, cwnd_);
      if (cwnd_ == max_cwnd_) {
        tr->instant(trace::Layer::Net, domain_, lane_, "slow_start_cap",
                    {trace::arg("cwnd", cwnd_)});
      }
    }
  }
  pump();
}

}  // namespace vroom::net
