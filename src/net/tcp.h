// TCP connection model with stream-aware send scheduling.
//
// Models the pieces of TCP that shape page-load timing on an LTE access
// link: DNS lookup, 3-way handshake, TLS setup RTTs, slow start from an
// initial window, and in-order byte delivery through the shared bottleneck
// (`Network::downlink`). Random segment loss is drawn per segment when
// `NetworkConfig::loss_rate` is set (off by default: the paper's replay runs
// over a good-signal LTE hotspot): a lost segment arrives one retransmission
// timeout late and halves the congestion window.
//
// Every half-RTT delay of a connection (request and segment propagation,
// ACKs) is now() plus one constant, so the connection's delay line runs on
// one event-loop lane (sim::EventLoop::add_lane()). A lost segment's RTO
// is the one delay that puts the line out of order: events scheduled after
// it that fire before it go through the heap, so event order is unchanged.
//
// Server-to-client data is enqueued as `Chunk`s tagged with a stream id.
// Two writer disciplines are supported:
//   * RoundRobin — segments alternate across active streams, approximating
//     HTTP/2 frame multiplexing (the baseline behaviour);
//   * Ordered   — streams drain strictly in first-write order, the ordered
//     response writer Vroom adds to Mahimahi (§5.1).
// HTTP/1.1 uses a single stream per connection, where the two coincide.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/network.h"

namespace vroom::net {

enum class WriterDiscipline : std::uint8_t { RoundRobin, Ordered };

class TcpConnection {
 public:
  struct Chunk {
    std::int64_t bytes = 0;
    std::function<void()> on_first_byte;  // first segment delivered (headers)
    std::function<void()> on_delivered;   // all bytes delivered
  };

  // `needs_dns` should be true for the first connection to a domain within a
  // page load. `domain_id` (an interner id, see web/intern.h) lets the RTT
  // lookup skip the string map; 0xffffffff means "unknown" and falls back.
  TcpConnection(Network& net, std::string domain, bool needs_dns,
                WriterDiscipline discipline = WriterDiscipline::Ordered,
                std::uint32_t domain_id = 0xffffffffu);

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  const std::string& domain() const { return domain_; }
  sim::Time rtt() const { return rtt_; }
  bool established() const { return established_; }
  // Trace lane for this connection ("conn#<n>"), stable across worker
  // counts because connection ids follow event-loop creation order.
  const std::string& lane() const { return lane_; }

  // Performs DNS + TCP handshake + TLS setup, then fires `on_established`.
  // Must be called exactly once.
  void connect(std::function<void()> on_established);

  // Per-stream flow-control window; defaults to the network config's value.
  // Multi-stream (HTTP/2) connections enforce it; single-stream HTTP/1.1
  // connections pass 0 to disable.
  void set_stream_window(std::int64_t bytes) { stream_window_ = bytes; }

  // Client -> server. `deliver_at_server` fires when the request reaches the
  // origin (uplink serialization + half RTT). Valid once established.
  void send_request(std::int64_t bytes,
                    std::function<void()> deliver_at_server);

  // Server -> client. Chunks within one stream drain FIFO; across streams
  // the writer discipline decides: RoundRobin serves the highest-priority
  // active streams first (HTTP/2 priority tree), cycling within a priority;
  // Ordered ignores priority and drains streams in first-write order.
  void send_chunk(std::uint32_t stream_id, int priority, Chunk chunk);
  void send_chunk(Chunk chunk) { send_chunk(0, 0, std::move(chunk)); }

  std::int64_t bytes_delivered() const { return bytes_delivered_total_; }

 private:
  struct PendingChunk {
    Chunk chunk;
    std::int64_t to_send;
    std::int64_t to_deliver;
    bool first_byte_fired = false;
  };
  struct Stream {
    std::uint32_t id = 0;
    int priority = 0;
    std::deque<PendingChunk> chunks;
    std::size_t send_cursor = 0;     // first chunk with to_send > 0
    std::size_t deliver_cursor = 0;  // first chunk with to_deliver > 0
    std::int64_t inflight = 0;       // un-acknowledged bytes (flow control)
    // Exact "no bytes left to send": chunks after send_cursor always have
    // to_send > 0 (pump drains strictly in order), so checking the cursor
    // chunk suffices. Transitions are tracked in `active_` — pick_stream()
    // scans only non-exhausted streams per pumped segment.
    bool exhausted() const {
      return send_cursor >= chunks.size() ||
             (send_cursor == chunks.size() - 1 &&
              chunks[send_cursor].to_send == 0);
    }
  };

  Stream& stream_for(std::uint32_t id, int priority);
  Stream* pick_stream();
  // Maintain `active_` (sorted indices of non-exhausted streams) across the
  // two transitions: a send_chunk() on a drained stream re-activates it, a
  // pump() that takes a stream's last pending byte exhausts it.
  void activate(std::size_t stream_index);
  void deactivate(std::size_t stream_index);
  void pump();
  void on_segment_at_client(std::size_t stream_index, std::int64_t seg);
  void on_ack(std::size_t stream_index, std::int64_t seg);

  Network& net_;
  std::string domain_;
  std::string lane_;
  bool needs_dns_;
  WriterDiscipline discipline_;
  sim::Time rtt_;
  sim::LaneId delay_line_;
  bool established_ = false;

  std::vector<Stream> streams_;  // in first-write order
  // Stream id -> index into streams_ (stream_for without the linear scan).
  std::unordered_map<std::uint32_t, std::size_t> stream_index_;
  // Sorted indices of non-exhausted streams; the subsequence of streams_
  // both writer disciplines actually consider, so scanning it preserves
  // their pick order exactly while skipping the drained (typical) majority.
  std::vector<std::size_t> active_;
  std::size_t rr_next_ = 0;

  std::int64_t cwnd_ = 0;
  std::int64_t max_cwnd_ = 0;
  std::int64_t inflight_ = 0;
  std::int64_t stream_window_ = 0;  // 0 = no per-stream flow control
  std::int64_t bytes_delivered_total_ = 0;
};

}  // namespace vroom::net
