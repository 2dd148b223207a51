#include "browser/task_queue.h"

#include "trace/trace.h"

namespace vroom::browser {

namespace {
const char* task_name(std::uint32_t priority) {
  switch (static_cast<TaskPriority>(priority)) {
    case TaskPriority::ImageDecode: return "task:image-decode";
    case TaskPriority::AsyncScript: return "task:async-script";
    case TaskPriority::Parse: return "task:parse";
    case TaskPriority::Scheduler: return "task:scheduler";
  }
  return "task:?";
}
}  // namespace

void TaskQueue::post(sim::Time duration, TaskPriority priority,
                     sim::SmallFn body) {
  fifos_[static_cast<std::size_t>(priority)].tasks.push_back(
      Task{duration, std::move(body)});
  if (!running_) start_next();
}

void TaskQueue::start_next() {
  // Highest priority first; FIFO within a priority.
  int priority = static_cast<int>(kPriorities) - 1;
  while (priority >= 0 &&
         fifos_[priority].head == fifos_[priority].tasks.size()) {
    --priority;
  }
  if (priority < 0) {
    if (running_) {
      running_ = false;
      if (observer_) observer_(false);
    }
    return;
  }
  Fifo& fifo = fifos_[priority];
  Task& task = fifo.tasks[fifo.head++];
  const sim::Time duration = task.duration;
  running_body_ = std::move(task.body);
  if (fifo.head == fifo.tasks.size()) {
    fifo.tasks.clear();
    fifo.head = 0;
  }
  if (!running_) {
    running_ = true;
    if (observer_) observer_(true);
  }
  total_busy_ += duration;
  loop_.schedule_in(duration, sim::make_record<&TaskQueue::finish_task>(
                                  this, static_cast<std::uint32_t>(priority),
                                  loop_.now()));
}

void TaskQueue::finish_task(std::uint32_t priority, std::int64_t started) {
  if (trace::Recorder* tr = trace::of(loop_)) {
    tr->complete(trace::Layer::Browser, "browser", "main-thread",
                 task_name(priority), started);
    tr->counters().add("browser.tasks_executed");
    tr->counters().add("browser.cpu_busy_us", loop_.now() - started);
  }
  sim::SmallFn body = std::move(running_body_);
  body();  // may post more tasks
  start_next();
}

}  // namespace vroom::browser
