// Discrete-event loop with virtual time.
//
// Events are records (sim::Record: a plain function and its arguments)
// scheduled at absolute or relative virtual times and executed in
// (time, insertion-order) order, so simultaneous events are deterministic.
// The loop never sleeps: running it advances virtual time instantaneously,
// which makes week-long page-evolution experiments cheap.
//
// Internals are built for the per-load hot path (a page load executes a few
// thousand events, a fleet run hundreds of millions): every pending record
// sits in one node pool, and a binary min-heap orders 24-byte POD entries
// that name nodes, so scheduling or firing an event builds no closure and
// allocates nothing once the pool is warm. Most events of a load come from
// streams that are already in time order — a link's completions, a TCP
// connection's half-RTT delay line — so such a stream runs on a FIFO
// *lane*: only the lane's earliest record sits in the heap; the rest wait in
// the pool, linked per lane, and when the head fires the lane's next record
// replaces it in the heap with one sift-down. A record takes its seq when
// scheduled or posted, and the heap merges every lane head with every other
// event by (time, seq); since no two events share a (time, seq), the
// execution order is exactly the order without lanes. A record is copied
// out of its node before it runs, so the pool may grow under it. reset()
// keeps the pool, heap and lane capacity, so fleet workers reuse one loop's
// storage across consecutive loads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "sim/pooled.h"
#include "sim/time.h"

namespace vroom::trace {
class Recorder;
}

namespace vroom::sim {

// Names one FIFO lane of one EventLoop (see EventLoop::add_lane()). A
// default-constructed id names no lane.
class LaneId {
 public:
  LaneId() = default;

 private:
  friend class EventLoop;
  explicit LaneId(std::uint32_t index) : index_(index) {}
  std::uint32_t index_ = 0xffffffffu;
};

// An event: firing it calls run(obj, index, value). Trivially copyable, so
// the loop stores and copies it like an integer.
struct Record {
  void (*run)(void* obj, std::uint32_t index, std::int64_t value);
  void* obj;
  std::uint32_t index;
  std::int64_t value;
};
static_assert(std::is_trivially_copyable_v<Record>);

// The record that calls (obj->*Method)(index, value).
template <auto Method, typename T>
Record make_record(T* obj, std::uint32_t index = 0, std::int64_t value = 0) {
  return {[](void* self, std::uint32_t i, std::int64_t v) {
            (static_cast<T*>(self)->*Method)(i, v);
          },
          obj, index, value};
}

class EventLoop {
 public:
  // Nodes in the pool's first allocation; each growth doubles it.
  static constexpr std::size_t kFirstPoolNodes = 64;

  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  Time now() const { return now_; }

  // Schedules `record` at absolute virtual time `at` (clamped to now()).
  void schedule_at(Time at, const Record& record);

  // Schedules `record` after `delay` microseconds of virtual time.
  void schedule_in(Time delay, const Record& record) {
    schedule_at(now_ + (delay < 0 ? 0 : delay), record);
  }

  // Opens a FIFO lane for a stream of records posted in non-decreasing
  // time order. The id stays valid until reset().
  LaneId add_lane();

  // Schedules `record` on `lane` at absolute virtual time `at` (clamped to
  // now()): the time and execution order of schedule_at(at, record), with
  // no heap operation unless the lane is empty. A record earlier than the
  // lane's latest one goes through schedule_at, so the order stays exact
  // for any input. Throws std::out_of_range, storing nothing, when the id's
  // index is not below the number of lanes add_lane() has opened since the
  // last reset(): a default-constructed id always throws, and an id kept
  // across a reset() names whichever lane reopened its index.
  void post(LaneId lane, Time at, const Record& record);

  // Runs events until the queue is empty or `until` is reached, whichever
  // comes first. Returns the number of events executed. An exception from
  // a record propagates to the caller; the event counts as run and its node
  // is freed, so the loop stays usable.
  std::size_t run(Time until = kNever);

  // Advances virtual time to `at` without executing anything; never rewinds
  // (`at` <= now() is a no-op). The direct-replay entry point: a caller
  // that already holds a time-sorted work stream (deploy's macro arrival
  // replay) moves the clock itself instead of paying a heap event per item,
  // and everything stamped off now() — trace events, link accounting —
  // reads the same times the event-driven equivalent would. The caller owns
  // the invariant that no pending event is being jumped over.
  void advance_to(Time at) {
    if (at > now_) now_ = at;
  }

  bool empty() const { return live_ == 0; }
  std::size_t pending() const { return live_; }

  // Returns the loop to its just-constructed state (now()==0, fresh seqs, no
  // lanes, no recorder): drops the records still pending and keeps the node
  // pool, heap and lane capacity, so a pooled loop reused across page loads
  // stops paying per-load allocation warmup. A reset loop is
  // indistinguishable from a new one: seqs restart at 1, so event ordering
  // — and therefore every simulated number — is unchanged.
  void reset();

  // Structured-trace recorder attached to this simulation world (see
  // src/trace/). Null when tracing is disabled — instrumentation sites
  // check this pointer and do nothing else, which keeps the disabled-path
  // cost to one branch. The loop does not own the recorder.
  trace::Recorder* recorder() const { return recorder_; }
  void set_recorder(trace::Recorder* recorder) { recorder_ = recorder; }

 private:
  static constexpr std::uint32_t kNoLane = 0xffffffffu;
  static constexpr std::uint32_t kNone = 0xffffffffu;

  // Min-heap entry: the pool node of a pending record, and the lane whose
  // head it is (kNoLane for an event scheduled off any lane).
  struct HeapEntry {
    Time at;
    std::uint64_t seq;
    std::uint32_t node;
    std::uint32_t lane;
  };
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  // A pending record and its (time, seq). `next` links the lane's next
  // record (kNone: none, always so off a lane) while the node is pending,
  // the free list while it is not.
  struct Node {
    Record record;
    Time at;
    std::uint64_t seq;
    std::uint32_t next;
  };
  // A lane's pending records are a list of nodes from its head (in the
  // heap) to `last`; kNone means the lane is empty.
  struct Lane {
    std::uint32_t last = kNone;
    Time tail = 0;  // time of the lane's latest record
  };

  // Appends a node to the pool; when the pool is full, grows it and the
  // heap's reserve together.
  std::uint32_t add_node();
  // Stores `record` at `at` with the next seq in a free node and returns
  // the node.
  std::uint32_t store(Time at, const Record& record);
  // Stores `record` and queues its node in the heap as the head of `lane`
  // (kNoLane: off any lane); returns the node.
  std::uint32_t push_head(Time at, const Record& record, std::uint32_t lane);
  [[noreturn]] static void throw_unknown_lane();
  // Fires the earliest event; the heap must not be empty.
  void fire_front();
  // Removes heap_.front() and restores heap order.
  void pop_front();
  // Puts `moving` in heap_.front()'s place and sifts it down; `moving` is
  // no later than the entry it replaces, or heap_.front() has been
  // removed. `moving` must not refer into the heap.
  void sift_down_front(const HeapEntry& moving);

  Time now_ = 0;
  trace::Recorder* recorder_ = nullptr;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;  // scheduled and not yet fired
  // One entry per event off a lane and per non-empty lane, so never more
  // entries than nodes: the heap reserves the pool's capacity, and a push
  // neither reallocates nor throws.
  std::vector<HeapEntry> heap_;
  // Every pending record; the rest are on the free list.
  std::vector<Node> nodes_;
  std::uint32_t free_node_ = kNone;
  std::vector<Lane> lanes_;  // [0, open_lanes_) are open
  std::uint32_t open_lanes_ = 0;
};

// A thread-local pooled EventLoop (sim/pooled.h).
using PooledEventLoop = Pooled<EventLoop>;

}  // namespace vroom::sim
