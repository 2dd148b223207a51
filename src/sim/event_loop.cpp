#include "sim/event_loop.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

namespace vroom::sim {

void EventLoop::add_chunk() {
  // Every heap entry names a distinct pending slot, so with an entry
  // reserved per slot a push never reallocates (and never throws).
  heap_.reserve((chunks_.size() + 1) * kChunkSlots);
  chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
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

void EventLoop::push_event(Time at, std::uint32_t index) {
  ++live_;
  heap_push(HeapEntry{at < now_ ? now_ : at, next_seq_++, index, kNoLane});
}

LaneId EventLoop::add_lane() {
  if (open_lanes_ == lanes_.size()) lanes_.emplace_back();
  lanes_[open_lanes_] = Lane{};
  return LaneId(open_lanes_++);
}

void EventLoop::throw_unknown_lane() {
  throw std::out_of_range("EventLoop::schedule_at: unknown lane");
}

void EventLoop::push_lane_event(std::uint32_t lane_index, Time at,
                                std::uint32_t index) {
  ++live_;
  HeapEntry e{at < now_ ? now_ : at, next_seq_++, index, lane_index};
  Lane& lane = lanes_[lane_index];
  if (!lane.has_head) {  // an empty lane: the event is its head
    lane.has_head = true;
    lane.tail = e.at;
    heap_push(e);
  } else if (e.at >= lane.tail) {  // in order: wait behind the tail
    lane.tail = e.at;
    Slot& s = slot(index);
    s.at = e.at;
    s.seq = e.seq;
    s.next = kNoSlot;
    if (lane.last == kNoSlot) {
      lane.first = index;
    } else {
      slot(lane.last).next = index;
    }
    lane.last = index;
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
    const std::uint32_t next = lane->first;
    const Slot& s = slot(next);
    heap_.front() = HeapEntry{s.at, s.seq, next, top.lane};
    lane->first = s.next;
    if (lane->first == kNoSlot) lane->last = kNoSlot;
    sift_down_front();
  } else {
    if (lane != nullptr) lane->has_head = false;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
  --live_;
  now_ = top.at;
  // The callback runs in its slot; the slot is freed once it has returned
  // or thrown, so the events it schedules never reuse it.
  struct FreeSlot {
    EventLoop& loop;
    std::uint32_t index;
    ~FreeSlot() { loop.release_slot(index); }
  } free_slot{*this, top.slot};
  slot(top.slot).cb.call_and_reset();
  return true;
}

std::size_t EventLoop::run(Time until) {
  std::size_t n = 0;
  while (step(until)) ++n;
  return n;
}

void EventLoop::reset() {
  // Only pending events hold callbacks: the heap's entries and the events
  // waiting behind the lanes' heads.
  const auto drop = [this](std::uint32_t index) {
    slot(index).cb.reset();
    release_slot(index);
  };
  for (const HeapEntry& e : heap_) drop(e.slot);
  heap_.clear();
  for (std::uint32_t l = 0; l < open_lanes_; ++l) {
    for (std::uint32_t index = lanes_[l].first; index != kNoSlot;) {
      const std::uint32_t next = slot(index).next;
      drop(index);
      index = next;
    }
  }
  open_lanes_ = 0;  // add_lane() clears a lane when it reopens it
  live_ = 0;
  now_ = 0;
  next_seq_ = 1;
  recorder_ = nullptr;
}

}  // namespace vroom::sim
