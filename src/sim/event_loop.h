// Discrete-event loop with virtual time.
//
// Events are callbacks scheduled at absolute or relative virtual times and
// executed in (time, insertion-order) order, so simultaneous events are
// deterministic. The loop never sleeps: running it advances virtual time
// instantaneously, which makes week-long page-evolution experiments cheap.
//
// Internals are built for the per-load hot path (a page load executes a few
// thousand events, a fleet run hundreds of millions): each callback is a
// SmallFn built directly in a recycled slab slot (no per-event heap
// allocation for typical closures) and run there, and a binary min-heap
// orders 24-byte POD entries. The slab is a list of fixed-size chunks, so a
// slot never moves: a running callback may schedule events that grow the
// slab, and its slot is freed only after it returns (or throws). Most
// events of a load come from streams that are already in time order — a
// link's completions, a TCP connection's half-RTT delay line — so such a
// stream runs on a FIFO *lane* of records: a record is a plain function
// and its arguments (LaneRecord), so posting and firing one builds no
// closure. Only the lane's earliest record sits in the heap; the rest wait
// in one loop-wide node pool, linked per lane, and when the head fires the
// lane's next record replaces it in the heap with one sift-down. A record
// takes its seq when posted, like any event, and the heap merges every lane
// head with every other event by (time, seq); since no two events share a
// (time, seq), the execution order is exactly the order without lanes.
// reset() destroys only the closures still pending and keeps the slab, node
// pool, heap and lane capacity, so fleet workers reuse one loop's storage
// across consecutive loads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/pooled.h"
#include "sim/small_fn.h"
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

// A lane event: firing it calls run(obj, index, value). Trivially
// copyable, so the loop stores and copies it like an integer.
struct LaneRecord {
  void (*run)(void* obj, std::uint32_t index, std::int64_t value);
  void* obj;
  std::uint32_t index;
  std::int64_t value;
};
static_assert(std::is_trivially_copyable_v<LaneRecord>);

// The record that calls (obj->*Method)(index, value).
template <auto Method, typename T>
LaneRecord lane_record(T* obj, std::uint32_t index = 0,
                       std::int64_t value = 0) {
  return {[](void* self, std::uint32_t i, std::int64_t v) {
            (static_cast<T*>(self)->*Method)(i, v);
          },
          obj, index, value};
}

class EventLoop {
 public:
  // Slots per slab chunk.
  static constexpr std::size_t kChunkSlots = 256;

  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  Time now() const { return now_; }

  // Schedules the callable `cb` (a closure or a SmallFn) at absolute
  // virtual time `at` (clamped to now()). A closure is constructed directly
  // in its slab slot.
  template <typename F>
  void schedule_at(Time at, F&& cb) {
    push_event(at, store(std::forward<F>(cb)));
  }

  // Schedules `cb` after `delay` microseconds of virtual time.
  template <typename F>
  void schedule_in(Time delay, F&& cb) {
    schedule_at(now_ + (delay < 0 ? 0 : delay), std::forward<F>(cb));
  }

  // Opens a FIFO lane for a stream of records posted in non-decreasing
  // time order. The id stays valid until reset().
  LaneId add_lane();

  // Schedules `record` on `lane` at absolute virtual time `at` (clamped to
  // now()): the time and execution order of an ordinary event scheduled
  // now, with no heap operation unless the lane is empty. A record earlier
  // than the lane's latest one goes to the heap as an ordinary event
  // wrapping it, so the order stays exact for any input. Throws
  // std::out_of_range, storing nothing, for a lane this loop has not opened
  // since its last reset().
  void post(LaneId lane, Time at, const LaneRecord& record);

  // Runs events until the queue is empty or `until` is reached, whichever
  // comes first. Returns the number of events executed. An exception from
  // a callback or record propagates to the caller; the event counts as run
  // and its storage is freed, so the loop stays usable.
  std::size_t run(Time until = kNever);

  // Runs at most one event; returns false if the queue was empty or the next
  // event lies beyond `until`.
  bool step(Time until = kNever);

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
  // lanes, no recorder): destroys the callbacks still pending and frees
  // their slots, so its cost is proportional to the pending events, and
  // keeps the slab, node pool, heap and lane capacity, so a pooled loop
  // reused across
  // page loads stops paying per-load allocation warmup. A reset loop is
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

  // Min-heap entry. An ordinary event (`lane` == kNoLane) names the slab
  // slot of its callback; a lane's head names lane `lane` and the pool
  // node of its record.
  struct HeapEntry {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t lane;
  };
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  // `next` links the free list while the slot holds no callback.
  struct Slot {
    SmallFn cb;
    std::uint32_t next = kNone;
  };
  // A posted record and its (time, seq). `next` links the lane's next
  // record while the node is pending, the free list while it is not.
  struct Node {
    LaneRecord record;
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

  Slot& slot(std::uint32_t index) {
    return chunks_[index / kChunkSlots][index % kChunkSlots];
  }

  // Builds `cb` in a free slot and returns the slot's index.
  template <typename F>
  std::uint32_t store(F&& cb) {
    const std::uint32_t index = acquire_slot();
    try {
      slot(index).cb.emplace(std::forward<F>(cb));
    } catch (...) {
      release_slot(index);
      throw;
    }
    return index;
  }

  std::uint32_t acquire_slot() {
    if (free_head_ != kNone) {
      const std::uint32_t index = free_head_;
      free_head_ = slot(index).next;
      return index;
    }
    if (used_ == chunks_.size() * kChunkSlots) add_chunk();
    return used_++;
  }
  // Puts an empty slot on the free list.
  void release_slot(std::uint32_t index) {
    slot(index).next = free_head_;
    free_head_ = index;
  }
  // Each reserves a heap entry per slot or node it adds.
  void add_chunk();
  std::uint32_t acquire_node();

  // Stamps the event in slot `index` with the next seq and its time
  // clamped to now(), and queues it in the heap.
  void push_event(Time at, std::uint32_t index);
  [[noreturn]] static void throw_unknown_lane();
  void heap_push(const HeapEntry& e);
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
  std::vector<HeapEntry> heap_;
  // Fixed-size chunks of slots; a slot's address never changes. Slots
  // [0, used_) have been handed out; those not holding an event are on
  // the free list.
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t used_ = 0;
  std::uint32_t free_head_ = kNone;
  // Every lane's pending records; the rest are on the free list. Records
  // are copied out before they run, so the pool may grow under a record.
  std::vector<Node> nodes_;
  std::uint32_t free_node_ = kNone;
  std::vector<Lane> lanes_;  // [0, open_lanes_) are open
  std::uint32_t open_lanes_ = 0;
};

// A thread-local pooled EventLoop (sim/pooled.h).
using PooledEventLoop = Pooled<EventLoop>;

}  // namespace vroom::sim
