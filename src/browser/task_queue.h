// Single-threaded main-thread task executor.
//
// Non-preemptive: once a task starts, later arrivals wait regardless of
// priority — which is exactly why Vroom's JavaScript request scheduler can
// be delayed by a long-running script (§5.2), an effect the client-side
// scheduler experiments depend on.
// Waiting tasks sit in one FIFO per priority, so starting the next task
// pops the front of the highest non-empty FIFO: highest priority first,
// FIFO within a priority. A FIFO that drains is cleared, so its storage is
// reused. The running task's body waits in running_body_, not in its
// completion event, so that event's closure stays in SmallFn's inline
// buffer.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory_resource>
#include <vector>

#include "sim/event_loop.h"
#include "sim/small_fn.h"

namespace vroom::browser {

enum class TaskPriority : int {
  ImageDecode = 0,
  AsyncScript = 1,
  Parse = 2,       // HTML/CSS parsing and synchronous script execution
  Scheduler = 3,   // tiny request-scheduler callbacks
};

class TaskQueue {
 public:
  // Queue storage comes from `memory` — the page world's per-load arena
  // when the browser constructs it, the default heap resource otherwise.
  explicit TaskQueue(sim::EventLoop& loop,
                     std::pmr::memory_resource* memory =
                         std::pmr::get_default_resource())
      : loop_(loop),
        fifos_{Fifo(memory), Fifo(memory), Fifo(memory), Fifo(memory)} {}

  // Enqueues a task occupying the CPU for `duration`; `body` runs at task
  // completion.
  void post(sim::Time duration, TaskPriority priority, sim::SmallFn body);

  sim::Time total_busy() const { return total_busy_; }

  // Observer invoked whenever the CPU transitions busy <-> idle (used by the
  // critical-path tracker).
  void set_state_observer(std::function<void(bool busy)> obs) {
    observer_ = std::move(obs);
  }

 private:
  struct Task {
    sim::Time duration;
    sim::SmallFn body;
  };
  // Tasks [head, tasks.size()) wait, oldest first.
  struct Fifo {
    explicit Fifo(std::pmr::memory_resource* memory) : tasks(memory) {}
    std::pmr::vector<Task> tasks;
    std::size_t head = 0;
  };
  static constexpr std::size_t kPriorities =
      static_cast<std::size_t>(TaskPriority::Scheduler) + 1;

  void start_next();

  sim::EventLoop& loop_;
  std::array<Fifo, kPriorities> fifos_;  // indexed by TaskPriority
  sim::SmallFn running_body_;  // runs when the running task completes
  bool running_ = false;
  sim::Time total_busy_ = 0;
  std::function<void(bool)> observer_;
};

}  // namespace vroom::browser
