// Discrete-event loop with virtual time.
//
// Events are callbacks scheduled at absolute or relative virtual times and
// executed in (time, insertion-order) order, so simultaneous events are
// deterministic. The loop never sleeps: running it advances virtual time
// instantaneously, which makes week-long page-evolution experiments cheap.
//
// Internals are built for the per-load hot path (a page load executes a few
// thousand events, a fleet run hundreds of millions): callbacks live in a
// recycled slab of SmallFn slots (no per-event heap allocation for typical
// closures), and a binary min-heap orders 24-byte POD entries. Most events
// of a load come from streams that are already in time order — a link's
// completions, a TCP connection's half-RTT delay line — so such a stream
// can run on a FIFO *lane*: only the lane's earliest event sits in the
// heap, the rest wait in a list threaded through their slab slots, and
// when the head fires the lane's next event replaces it in the heap with
// one sift-down. The heap still merges every lane head with every other
// event by (time, seq), so the execution order is exactly the order
// without lanes. reset() keeps the slab, heap and lane capacity so fleet
// workers reuse one loop's storage across consecutive loads.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

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

class EventLoop {
 public:
  using Callback = SmallFn;

  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  Time now() const { return now_; }

  // Schedules `cb` at absolute virtual time `at` (clamped to now()).
  void schedule_at(Time at, Callback cb);

  // Schedules `cb` after `delay` microseconds of virtual time.
  void schedule_in(Time delay, Callback cb) {
    schedule_at(now_ + (delay < 0 ? 0 : delay), std::move(cb));
  }

  // Opens a FIFO lane for a stream of events scheduled in non-decreasing
  // time order. The id stays valid until reset().
  LaneId add_lane();

  // schedule_at()/schedule_in() through `lane`: same time and same
  // execution order, with no heap operation unless the lane is empty. An
  // event earlier than the lane's latest one goes to the heap as an
  // ordinary event, so the order stays exact for any input. Throws
  // std::out_of_range for a lane this loop has not opened since its last
  // reset().
  void schedule_at(LaneId lane, Time at, Callback cb);
  void schedule_in(LaneId lane, Time delay, Callback cb) {
    schedule_at(lane, now_ + (delay < 0 ? 0 : delay), std::move(cb));
  }

  // Runs events until the queue is empty or `until` is reached, whichever
  // comes first. Returns the number of events executed.
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
  // lanes, no recorder) but keeps the slab, heap and lane capacity, so a
  // pooled loop reused across page loads stops paying per-load allocation
  // warmup. A reset loop is indistinguishable from a new one: seqs restart
  // at 1, so event ordering — and therefore every simulated number — is
  // unchanged.
  void reset();

  // Structured-trace recorder attached to this simulation world (see
  // src/trace/). Null when tracing is disabled — instrumentation sites
  // check this pointer and do nothing else, which keeps the disabled-path
  // cost to one branch. The loop does not own the recorder.
  trace::Recorder* recorder() const { return recorder_; }
  void set_recorder(trace::Recorder* recorder) { recorder_ = recorder; }

 private:
  static constexpr std::uint32_t kNoLane = 0xffffffffu;

  // Min-heap entry; the callback lives in slots_[slot]. `lane` is the lane
  // whose head the entry is, or kNoLane for an ordinary event.
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
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  struct Slot {
    Callback cb;
    // While the event waits in a lane behind its head: its time and seq,
    // and `next` links to the lane's next waiting event. While the slot is
    // free, `next` links the free list.
    Time at = 0;
    std::uint64_t seq = 0;
    std::uint32_t next = kNoSlot;
  };
  // A lane's earliest event is in the heap (`has_head`); the events behind
  // it wait in slots first..last, so a lane costs no storage beyond its
  // backlog's slots.
  struct Lane {
    std::uint32_t first = kNoSlot;
    std::uint32_t last = kNoSlot;
    Time tail = 0;  // time of the lane's latest event
    bool has_head = false;
  };

  // Stores `cb` in a slot and stamps the entry with the next seq and its
  // time clamped to now().
  HeapEntry make_entry(Time at, Callback&& cb, std::uint32_t lane);
  void heap_push(const HeapEntry& e);
  // Restores heap order after heap_.front() was replaced by a later entry.
  void sift_down_front();
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);

  Time now_ = 0;
  trace::Recorder* recorder_ = nullptr;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;  // scheduled and not yet fired
  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::vector<Lane> lanes_;  // [0, open_lanes_) are open
  std::uint32_t open_lanes_ = 0;
};

// Thread-local pool of EventLoops: acquire on construction, reset-and-return
// on destruction. Fleet workers build one simulation world per (page, load)
// job; pooling lets consecutive jobs on a worker reuse the slab and heap
// storage the previous load grew. Reentrant — a nested world (e.g. the
// offline resolver crawling inside a live load) simply acquires a second
// loop.
class PooledEventLoop {
 public:
  PooledEventLoop();
  ~PooledEventLoop();
  PooledEventLoop(const PooledEventLoop&) = delete;
  PooledEventLoop& operator=(const PooledEventLoop&) = delete;

  EventLoop& operator*() { return *loop_; }
  EventLoop* operator->() { return loop_; }
  EventLoop* get() { return loop_; }

 private:
  EventLoop* loop_;
};

}  // namespace vroom::sim
