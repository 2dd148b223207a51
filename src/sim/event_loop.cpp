#include "sim/event_loop.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

namespace vroom::sim {

// Every heap entry names a distinct pending slot or node, so with an entry
// reserved per slot and per node a push never reallocates (and never
// throws). Both reserve before they grow.
void EventLoop::add_chunk() {
  heap_.reserve((chunks_.size() + 1) * kChunkSlots + nodes_.capacity());
  chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
}

std::uint32_t EventLoop::acquire_node() {
  if (free_node_ != kNone) {
    const std::uint32_t index = free_node_;
    free_node_ = nodes_[index].next;
    return index;
  }
  if (nodes_.size() == nodes_.capacity()) {
    const std::size_t grown = std::max<std::size_t>(64, 2 * nodes_.size());
    heap_.reserve(chunks_.size() * kChunkSlots + grown);
    nodes_.reserve(grown);
  }
  nodes_.emplace_back();
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

void EventLoop::heap_push(const HeapEntry& e) {
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

// sift_down_front(), pop_front() and fire_front() are forced inline into
// step() and run(): the entry being sifted then stays in registers instead
// of being stored and reloaded, and run()'s loop makes no call but the
// event's own.
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
  throw std::out_of_range("EventLoop::post: unknown lane");
}

void EventLoop::post(LaneId lane_id, Time at, const LaneRecord& record) {
  if (lane_id.index_ >= open_lanes_) throw_unknown_lane();
  if (at < now_) at = now_;
  Lane& lane = lanes_[lane_id.index_];
  if (lane.last != kNone && at < lane.tail) {
    // Earlier than the lane's latest record: an ordinary event.
    schedule_at(at, [record] { record.run(record.obj, record.index,
                                          record.value); });
    return;
  }
  const std::uint32_t index = acquire_node();
  const std::uint64_t seq = next_seq_++;
  nodes_[index] = Node{record, at, seq, kNone};
  ++live_;
  if (lane.last == kNone) {  // an empty lane: the record is its head
    heap_push(HeapEntry{at, seq, index, lane_id.index_});
  } else {  // in order: wait behind the latest record
    nodes_[lane.last].next = index;
  }
  lane.last = index;
  lane.tail = at;
}

[[gnu::always_inline]] inline void EventLoop::fire_front() {
  const HeapEntry top = heap_.front();
  --live_;
  now_ = top.at;
  if (top.lane != kNoLane) {
    // The lane's next record, if any, takes the fired head's place in the
    // heap; the node is free before the record runs.
    const Node& node = nodes_[top.slot];
    const LaneRecord record = node.record;
    const std::uint32_t next = node.next;
    if (next != kNone) {
      const Node& n = nodes_[next];
      sift_down_front(HeapEntry{n.at, n.seq, next, top.lane});
    } else {
      lanes_[top.lane].last = kNone;
      pop_front();
    }
    nodes_[top.slot].next = free_node_;
    free_node_ = top.slot;
    record.run(record.obj, record.index, record.value);
    return;
  }
  pop_front();
  // The callback runs in its slot; the slot is freed once it has returned
  // or thrown, so the events it schedules never reuse it.
  struct FreeSlot {
    EventLoop& loop;
    std::uint32_t index;
    ~FreeSlot() { loop.release_slot(index); }
  } free_slot{*this, top.slot};
  slot(top.slot).cb.call_and_reset();
}

bool EventLoop::step(Time until) {
  if (heap_.empty() || heap_.front().at > until) return false;
  fire_front();
  return true;
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
  // Only ordinary pending events hold callbacks; records are plain data.
  for (const HeapEntry& e : heap_) {
    if (e.lane != kNoLane) continue;
    slot(e.slot).cb.reset();
    release_slot(e.slot);
  }
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
