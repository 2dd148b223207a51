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
// Every event of a connection is a record (sim::Record) that names a member
// and carries a stream index and a segment size, or the connect's start
// time, so none builds a closure. Every half-RTT delay (request and segment
// propagation, ACKs) is now() plus one constant, so the connection's delay
// line runs on one event-loop lane (sim::EventLoop::add_lane()). A lost
// segment's RTO is the one delay that puts the line out of order: records
// posted after it that fire before it go through the heap, so event order
// is unchanged.
//
// Server-to-client data is enqueued as `Chunk`s tagged with a stream id.
// Two writer disciplines are supported:
//   * RoundRobin — segments alternate across active streams, approximating
//     HTTP/2 frame multiplexing (the baseline behaviour);
//   * Ordered   — streams drain strictly in first-write order, the ordered
//     response writer Vroom adds to Mahimahi (§5.1).
// HTTP/1.1 uses a single stream per connection, where the two coincide.
// Per-connection stores (DESIGN.md §10): chunks linked per stream by index,
// delivered slots reused, and a FIFO of connect/delivery callbacks, so the
// callbacks hold only `this` and ids. Callbacks may write on their own
// connection, so none runs in place and no store reference outlives one.
#pragma once

#include <cstdint>
#include <memory_resource>
#include <string>
#include <vector>

#include "net/network.h"
#include "sim/small_fn.h"

namespace vroom::net {

enum class WriterDiscipline : std::uint8_t { RoundRobin, Ordered };

class TcpConnection {
 public:
  struct Chunk {
    std::int64_t bytes = 0;
    sim::SmallFn on_first_byte;  // first segment delivered (headers)
    sim::SmallFn on_delivered;   // all bytes delivered
  };

  // `needs_dns` should be true for the first connection to a domain within a
  // page load. `domain_id` (an interner id, see web/intern.h) indexes the
  // network's RTT memo; 0xffffffff means "unknown" and draws it again.
  TcpConnection(Network& net, std::string domain, bool needs_dns,
                WriterDiscipline discipline = WriterDiscipline::Ordered,
                std::uint32_t domain_id = 0xffffffffu);

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  bool established() const { return established_; }
  // Trace lane for this connection ("conn#<n>"), stable across worker
  // counts because connection ids follow event-loop creation order.
  const std::string& lane() const { return lane_; }

  // Performs DNS + TCP handshake + TLS setup, then fires `on_established`.
  // Must be called exactly once.
  void connect(sim::SmallFn on_established);

  // Client -> server. `deliver_at_server` fires when the request reaches the
  // origin (uplink serialization + half RTT). Valid once established.
  void send_request(std::int64_t bytes, sim::SmallFn deliver_at_server);

  // Server -> client. Chunks within one stream drain FIFO; across streams
  // the writer discipline decides: RoundRobin serves the highest-priority
  // active streams first (HTTP/2 priority tree), cycling within a priority;
  // Ordered ignores priority and drains streams in first-write order. A new
  // stream's id must exceed every earlier one; std::invalid_argument if not.
  void send_chunk(std::uint32_t stream_id, int priority, Chunk chunk);
  void send_chunk(Chunk chunk) { send_chunk(0, 0, std::move(chunk)); }

  std::int64_t bytes_delivered() const { return bytes_delivered_total_; }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  struct PendingChunk {
    Chunk chunk;
    std::int64_t to_send;
    std::int64_t to_deliver;
    std::uint32_t next = kNone;  // the stream's next chunk, or next free
    bool first_byte_fired = false;
  };
  struct Stream {
    std::uint32_t id = 0;
    int priority = 0;
    // Into chunks_ (kNone if none): the first chunk with bytes left to
    // send (none: the stream is exhausted), the first with bytes left to
    // deliver, and the latest written.
    std::uint32_t send = kNone;
    std::uint32_t deliver = kNone;
    std::uint32_t last = kNone;
    std::int64_t inflight = 0;  // un-acknowledged bytes (flow control)
  };

  // Indices into streams_; pick_stream() returns kNone if none may send.
  std::uint32_t stream_for(std::uint32_t id, int priority);
  std::uint32_t pick_stream();
  // Maintain `active_` (sorted indices of non-exhausted streams) across the
  // two transitions: a send_chunk() on a drained stream re-activates it, a
  // pump() that takes a stream's last pending byte exhausts it.
  void activate(std::uint32_t stream_index);
  void deactivate(std::uint32_t stream_index);
  void pump();
  // Posts `record` on the delay line, `by` after now().
  void delay(sim::Time by, const sim::Record& record);
  // The connection's records (sim::make_record): the end of connect()'s
  // setup, then those of the delay line and the links, in a request's or a
  // segment's order.
  void on_connected(std::uint32_t, std::int64_t started);
  void on_request_uplinked(std::uint32_t, std::int64_t);
  void on_request_at_server(std::uint32_t, std::int64_t);
  void on_segment_at_bottleneck(std::uint32_t stream_index, std::int64_t seg);
  void on_segment_at_client(std::uint32_t stream_index, std::int64_t seg);
  void on_ack(std::uint32_t stream_index, std::int64_t seg);
  // Pops the oldest waiting connect/delivery callback and runs it.
  void run_next_waiting();

  Network& net_;
  std::string domain_;
  std::string lane_;
  bool needs_dns_;
  WriterDiscipline discipline_;
  sim::Time rtt_;
  sim::LaneId delay_line_;
  bool established_ = false;

  std::pmr::vector<PendingChunk> chunks_;  // every stream's
  std::uint32_t free_chunk_ = kNone;       // delivered slots, linked by next
  std::pmr::vector<Stream> streams_;       // in first-write (so id) order
  // Sorted indices of non-exhausted streams; the subsequence of streams_
  // both writer disciplines actually consider, so scanning it preserves
  // their pick order exactly while skipping the drained (typical) majority.
  std::pmr::vector<std::uint32_t> active_;
  std::uint32_t rr_next_ = 0;
  // Unfired connect()/send_request() callbacks from waiting_head_ on;
  // cleared for reuse once drained.
  std::pmr::vector<sim::SmallFn> waiting_;
  std::size_t waiting_head_ = 0;

  std::int64_t cwnd_ = 0;
  std::int64_t max_cwnd_ = 0;
  std::int64_t inflight_ = 0;
  std::int64_t stream_window_ = 0;  // 0 = no per-stream flow control
  std::int64_t bytes_delivered_total_ = 0;
};

}  // namespace vroom::net
