#include "sim/event_loop.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

namespace vroom::sim {

std::uint32_t EventLoop::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next;
    return slot;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventLoop::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.cb.reset();
  s.next = free_head_;
  free_head_ = slot;
}

EventLoop::HeapEntry EventLoop::make_entry(Time at, Callback&& cb,
                                           std::uint32_t lane) {
  const std::uint32_t slot = acquire_slot();
  slots_[slot].cb = std::move(cb);
  ++live_;
  return HeapEntry{at < now_ ? now_ : at, next_seq_++, slot, lane};
}

void EventLoop::heap_push(const HeapEntry& e) {
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void EventLoop::sift_down_front() {
  const std::size_t n = heap_.size();
  const HeapEntry moving = heap_.front();
  std::size_t hole = 0;
  for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
    if (child + 1 < n && Later{}(heap_[child], heap_[child + 1])) ++child;
    if (!Later{}(moving, heap_[child])) break;
    heap_[hole] = heap_[child];
    hole = child;
  }
  heap_[hole] = moving;
}

void EventLoop::schedule_at(Time at, Callback cb) {
  heap_push(make_entry(at, std::move(cb), kNoLane));
}

LaneId EventLoop::add_lane() {
  if (open_lanes_ == lanes_.size()) lanes_.emplace_back();
  lanes_[open_lanes_] = Lane{};
  return LaneId(open_lanes_++);
}

void EventLoop::schedule_at(LaneId id, Time at, Callback cb) {
  if (id.index_ >= open_lanes_) {
    throw std::out_of_range("EventLoop::schedule_at: unknown lane");
  }
  Lane& lane = lanes_[id.index_];
  HeapEntry e = make_entry(at, std::move(cb), id.index_);
  if (!lane.has_head) {  // an empty lane: the event is its head
    lane.has_head = true;
    lane.tail = e.at;
    heap_push(e);
  } else if (e.at >= lane.tail) {  // in order: wait behind the tail
    lane.tail = e.at;
    Slot& s = slots_[e.slot];
    s.at = e.at;
    s.seq = e.seq;
    s.next = kNoSlot;
    if (lane.last == kNoSlot) {
      lane.first = e.slot;
    } else {
      slots_[lane.last].next = e.slot;
    }
    lane.last = e.slot;
  } else {  // earlier than the lane's latest event: an ordinary event
    e.lane = kNoLane;
    heap_push(e);
  }
}

bool EventLoop::step(Time until) {
  if (heap_.empty() || heap_.front().at > until) return false;
  const HeapEntry top = heap_.front();
  Lane* lane = top.lane == kNoLane ? nullptr : &lanes_[top.lane];
  if (lane != nullptr && lane->first != kNoSlot) {
    // The lane's next event takes the fired head's place in the heap.
    const std::uint32_t slot = lane->first;
    const Slot& s = slots_[slot];
    heap_.front() = HeapEntry{s.at, s.seq, slot, top.lane};
    lane->first = s.next;
    if (lane->first == kNoSlot) lane->last = kNoSlot;
    sift_down_front();
  } else {
    if (lane != nullptr) lane->has_head = false;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
  // Move the callback out and free the slot before invoking: the callback
  // may schedule more events, which can grow the slab.
  Callback cb = std::move(slots_[top.slot].cb);
  release_slot(top.slot);
  --live_;
  now_ = top.at;
  cb();
  return true;
}

std::size_t EventLoop::run(Time until) {
  std::size_t n = 0;
  while (step(until)) ++n;
  return n;
}

void EventLoop::reset() {
  heap_.clear();
  // Destroy any surviving callbacks but keep the slab's capacity.
  const std::size_t capacity = slots_.size();
  slots_.clear();
  slots_.resize(capacity);
  free_head_ = kNoSlot;
  for (std::size_t i = capacity; i-- > 0;) {
    slots_[i].next = free_head_;
    free_head_ = static_cast<std::uint32_t>(i);
  }
  open_lanes_ = 0;  // add_lane() clears a lane when it reopens it
  live_ = 0;
  now_ = 0;
  next_seq_ = 1;
  recorder_ = nullptr;
}

namespace {

// One pool per thread: fleet workers never share loops, and a loop acquired
// on a thread is returned to that thread's pool.
struct LoopPool {
  std::vector<std::unique_ptr<EventLoop>> free_list;

  EventLoop* acquire() {
    if (free_list.empty()) return new EventLoop();
    EventLoop* loop = free_list.back().release();
    free_list.pop_back();
    return loop;
  }

  void release(EventLoop* loop) {
    loop->reset();
    free_list.emplace_back(loop);
  }
};

LoopPool& thread_pool() {
  thread_local LoopPool pool;
  return pool;
}

}  // namespace

PooledEventLoop::PooledEventLoop() : loop_(thread_pool().acquire()) {}

PooledEventLoop::~PooledEventLoop() { thread_pool().release(loop_); }

}  // namespace vroom::sim
