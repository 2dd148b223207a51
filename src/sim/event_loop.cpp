#include "sim/event_loop.h"

#include <algorithm>
#include <stdexcept>

namespace vroom::sim {

std::uint32_t EventLoop::add_node() {
  if (nodes_.size() == nodes_.capacity()) {
    const std::size_t grown =
        std::max<std::size_t>(kFirstPoolNodes, 2 * nodes_.size());
    heap_.reserve(grown);
    nodes_.reserve(grown);
  }
  nodes_.emplace_back();
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

// store() is forced inline into push_head() and post(), so an in-order post
// reuses a free node without a call.
[[gnu::always_inline]] inline std::uint32_t EventLoop::store(
    Time at, const Record& record) {
  std::uint32_t index = free_node_;
  if (index != kNone) {
    free_node_ = nodes_[index].next;
  } else {
    index = add_node();
  }
  nodes_[index] = Node{record, at, next_seq_++, kNone};
  ++live_;
  return index;
}

std::uint32_t EventLoop::push_head(Time at, const Record& record,
                                   std::uint32_t lane) {
  const std::uint32_t index = store(at, record);
  heap_.push_back(HeapEntry{at, nodes_[index].seq, index, lane});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return index;
}

void EventLoop::schedule_at(Time at, const Record& record) {
  push_head(at < now_ ? now_ : at, record, kNoLane);
}

// sift_down_front(), pop_front() and fire_front() are forced inline into
// run(): the entry being sifted then stays in registers instead of being
// stored and reloaded, and run()'s loop makes no call but the event's own.
[[gnu::always_inline]] inline void EventLoop::sift_down_front(
    const HeapEntry& moving) {
  HeapEntry* const heap = heap_.data();
  const std::size_t n = heap_.size();
  std::size_t hole = 0;
  for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
    if (child + 1 < n && Later{}(heap[child], heap[child + 1])) ++child;
    if (!Later{}(moving, heap[child])) break;
    heap[hole] = heap[child];
    hole = child;
  }
  heap[hole] = moving;
}

[[gnu::always_inline]] inline void EventLoop::pop_front() {
  const HeapEntry back = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down_front(back);
}

LaneId EventLoop::add_lane() {
  if (open_lanes_ == lanes_.size()) lanes_.emplace_back();
  lanes_[open_lanes_] = Lane{};
  return LaneId(open_lanes_++);
}

void EventLoop::throw_unknown_lane() {
  throw std::out_of_range("EventLoop::post: unknown lane");
}

void EventLoop::post(LaneId lane_id, Time at, const Record& record) {
  if (lane_id.index_ >= open_lanes_) throw_unknown_lane();
  if (at < now_) at = now_;
  Lane& lane = lanes_[lane_id.index_];
  if (lane.last == kNone) {  // an empty lane: the record is its head
    lane.last = push_head(at, record, lane_id.index_);
  } else if (at < lane.tail) {  // earlier than the lane's latest record
    schedule_at(at, record);
    return;
  } else {  // in order: wait behind the latest record
    const std::uint32_t index = store(at, record);
    nodes_[lane.last].next = index;
    lane.last = index;
  }
  lane.tail = at;
}

[[gnu::always_inline]] inline void EventLoop::fire_front() {
  const HeapEntry top = heap_.front();
  --live_;
  now_ = top.at;
  // The record leaves its node before it runs; the lane's next record, if
  // any, takes the fired head's place in the heap.
  Node& node = nodes_[top.node];
  const Record record = node.record;
  const std::uint32_t next = node.next;
  if (next != kNone) {
    const Node& n = nodes_[next];
    sift_down_front(HeapEntry{n.at, n.seq, next, top.lane});
  } else {
    if (top.lane != kNoLane) lanes_[top.lane].last = kNone;
    pop_front();
  }
  node.next = free_node_;
  free_node_ = top.node;
  record.run(record.obj, record.index, record.value);
}

std::size_t EventLoop::run(Time until) {
  std::size_t n = 0;
  while (!heap_.empty() && heap_.front().at <= until) {
    fire_front();
    ++n;
  }
  return n;
}

void EventLoop::reset() {
  heap_.clear();
  nodes_.clear();
  free_node_ = kNone;
  open_lanes_ = 0;  // add_lane() clears a lane when it reopens it
  live_ = 0;
  now_ = 0;
  next_seq_ = 1;
  recorder_ = nullptr;
}

}  // namespace vroom::sim
