#include "net/tcp.h"

#include <algorithm>
#include <cassert>
#include <climits>
#include <stdexcept>
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
      delay_line_(net_.loop().add_lane()),
      chunks_(net.memory()),
      streams_(net.memory()),
      active_(net.memory()),
      waiting_(net.memory()) {
  const auto& cfg = net_.config();
  cwnd_ = static_cast<std::int64_t>(cfg.init_cwnd_segments) * cfg.mss_bytes;
  max_cwnd_ = static_cast<std::int64_t>(cfg.max_cwnd_segments) * cfg.mss_bytes;
  stream_window_ = cfg.h2_stream_window_bytes;
}

void TcpConnection::connect(sim::SmallFn on_established) {
  assert(!established_);
  const auto& cfg = net_.config();
  sim::Time setup = rtt_;  // TCP 3-way handshake (client sees 1 RTT)
  setup += net_.radio_wakeup_delay();  // RRC idle->connected promotion
  if (needs_dns_) setup += cfg.dns_lookup;
  setup += static_cast<sim::Time>(cfg.tls_handshake_rtts) * rtt_;
  const sim::Time started = net_.loop().now();
  waiting_.push_back(std::move(on_established));
  net_.loop().schedule_in(setup, [this, started] {
    established_ = true;
    if (trace::Recorder* tr = trace::of(net_.loop())) {
      tr->complete(trace::Layer::Net, domain_, lane_, "connect", started,
                   {trace::arg("rtt_ms", sim::to_ms(rtt_)),
                    trace::arg("dns", needs_dns_ ? "yes" : "no"),
                    trace::arg("tls_rtts", net_.config().tls_handshake_rtts)});
      tr->counters().add("net.connections");
      if (needs_dns_) tr->counters().add("net.dns_lookups");
    }
    run_next_waiting();
  });
}

void TcpConnection::send_request(std::int64_t bytes,
                                 sim::SmallFn deliver_at_server) {
  assert(established_);
  // Uplink serialization at the client, then propagation to the origin; both
  // FIFO for this connection, so each delivery runs the oldest callback.
  waiting_.push_back(std::move(deliver_at_server));
  net_.uplink().transmit(
      bytes, sim::lane_record<&TcpConnection::on_request_uplinked>(this));
}

void TcpConnection::delay(sim::Time by, const sim::LaneRecord& record) {
  net_.loop().post(delay_line_, net_.loop().now() + by, record);
}

void TcpConnection::on_request_uplinked(std::uint32_t, std::int64_t) {
  delay(rtt_ / 2, sim::lane_record<&TcpConnection::on_request_at_server>(this));
}

void TcpConnection::on_request_at_server(std::uint32_t, std::int64_t) {
  run_next_waiting();
}

void TcpConnection::run_next_waiting() {
  sim::SmallFn cb = std::move(waiting_[waiting_head_]);
  if (++waiting_head_ == waiting_.size()) {
    waiting_.clear();
    waiting_head_ = 0;
  }
  cb();
}

std::uint32_t TcpConnection::stream_for(std::uint32_t id, int priority) {
  const auto n = static_cast<std::uint32_t>(streams_.size());
  if (n == 0 || id > streams_.back().id) {
    streams_.push_back(Stream{id, priority});
    return n;
  }
  const auto it = std::lower_bound(
      streams_.begin(), streams_.end(), id,
      [](const Stream& s, std::uint32_t v) { return s.id < v; });
  if (it->id != id) {
    throw std::invalid_argument(
        "TcpConnection: a new stream id must exceed every earlier one");
  }
  return static_cast<std::uint32_t>(it - streams_.begin());
}

void TcpConnection::activate(std::uint32_t stream_index) {
  const auto it =
      std::lower_bound(active_.begin(), active_.end(), stream_index);
  if (it == active_.end() || *it != stream_index) {
    active_.insert(it, stream_index);
  }
}

void TcpConnection::deactivate(std::uint32_t stream_index) {
  const auto it =
      std::lower_bound(active_.begin(), active_.end(), stream_index);
  if (it != active_.end() && *it == stream_index) active_.erase(it);
}

void TcpConnection::send_chunk(std::uint32_t stream_id, int priority,
                               Chunk chunk) {
  assert(established_);
  const std::int64_t bytes = std::max<std::int64_t>(chunk.bytes, 1);
  std::uint32_t c = free_chunk_;
  if (c == kNone) {
    c = static_cast<std::uint32_t>(chunks_.size());
    chunks_.emplace_back();
  } else {
    free_chunk_ = chunks_[c].next;
  }
  chunks_[c] = PendingChunk{std::move(chunk), bytes, bytes};
  const std::uint32_t si = stream_for(stream_id, priority);
  Stream& s = streams_[si];
  if (s.last != kNone) chunks_[s.last].next = c;
  s.last = c;
  if (s.deliver == kNone) s.deliver = c;
  if (s.send == kNone) {
    s.send = c;
    activate(si);
  }
  pump();
}

std::uint32_t TcpConnection::pick_stream() {
  if (active_.empty()) return kNone;
  // HTTP/2 flow control: a stream with a full window cannot send even if
  // the connection's congestion window has room; another stream may.
  auto flow_open = [&](const Stream& s) {
    return stream_window_ <= 0 || streams_.size() < 2 ||
           s.inflight < stream_window_;
  };
  if (discipline_ == WriterDiscipline::Ordered) {
    for (const std::uint32_t idx : active_) {
      if (flow_open(streams_[idx])) return idx;
    }
    return kNone;
  }
  // Highest-priority active streams first; round-robin within the tier.
  int best = INT_MIN;
  for (const std::uint32_t idx : active_) {
    const Stream& s = streams_[idx];
    if (flow_open(s)) best = std::max(best, s.priority);
  }
  if (best == INT_MIN) return kNone;
  // Cyclic scan from rr_next_, restricted to the active subsequence: the
  // same stream the full positional scan would reach, since exhausted
  // streams never matched it anyway.
  const auto n = static_cast<std::uint32_t>(streams_.size());
  const std::size_t m = active_.size();
  const std::size_t base = static_cast<std::size_t>(
      std::lower_bound(active_.begin(), active_.end(), rr_next_) -
      active_.begin());
  for (std::size_t k = 0; k < m; ++k) {
    const std::uint32_t idx = active_[(base + k) % m];
    const Stream& s = streams_[idx];
    if (flow_open(s) && s.priority == best) {
      rr_next_ = (idx + 1) % n;
      return idx;
    }
  }
  return kNone;
}

void TcpConnection::pump() {
  const std::int64_t mss = net_.config().mss_bytes;
  while (inflight_ < cwnd_) {
    const std::uint32_t stream_index = pick_stream();
    if (stream_index == kNone) return;
    Stream& s = streams_[stream_index];
    PendingChunk& pc = chunks_[s.send];
    const std::int64_t seg = std::min(mss, pc.to_send);
    pc.to_send -= seg;
    if (pc.to_send == 0) s.send = pc.next;
    inflight_ += seg;
    s.inflight += seg;
    if (s.send == kNone) deactivate(stream_index);
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
    delay(rtt_ / 2 + extra,
          sim::lane_record<&TcpConnection::on_segment_at_bottleneck>(
              this, stream_index, seg));
  }
}

void TcpConnection::on_segment_at_bottleneck(std::uint32_t stream_index,
                                             std::int64_t seg) {
  net_.downlink().transmit(
      seg, sim::lane_record<&TcpConnection::on_segment_at_client>(
               this, stream_index, seg));
}

void TcpConnection::on_segment_at_client(std::uint32_t stream_index,
                                         std::int64_t seg) {
  bytes_delivered_total_ += seg;
  // Credit the stream's chunks in write order. Callbacks may move chunks_
  // and streams_ by writing on this connection: index afresh after each.
  std::int64_t remaining = seg;
  while (remaining > 0) {
    const std::uint32_t c = streams_[stream_index].deliver;
    if (c == kNone) break;
    if (!chunks_[c].first_byte_fired) {
      chunks_[c].first_byte_fired = true;
      sim::SmallFn cb = std::move(chunks_[c].chunk.on_first_byte);
      if (cb) cb();
    }
    PendingChunk& pc = chunks_[c];
    const std::int64_t credit = std::min(remaining, pc.to_deliver);
    pc.to_deliver -= credit;
    remaining -= credit;
    if (pc.to_deliver == 0) {
      // Fully sent and delivered: nothing refers to the slot but `last`.
      Stream& s = streams_[stream_index];
      s.deliver = pc.next;
      if (s.deliver == kNone) s.last = kNone;
      sim::SmallFn cb = std::move(pc.chunk.on_delivered);
      pc.next = free_chunk_;
      free_chunk_ = c;
      if (cb) cb();
    }
  }
  // ACK (and the stream's WINDOW_UPDATE) travels back to the origin.
  delay(rtt_ / 2,
        sim::lane_record<&TcpConnection::on_ack>(this, stream_index, seg));
}

void TcpConnection::on_ack(std::uint32_t stream_index, std::int64_t seg) {
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
