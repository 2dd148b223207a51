#include "browser/task_queue.h"

#include <algorithm>

#include "trace/trace.h"

namespace vroom::browser {

namespace {
const char* task_name(int priority) {
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
  queue_.push_back(Task{duration, static_cast<int>(priority), std::move(body)});
  if (!running_) start_next();
}

void TaskQueue::start_next() {
  if (queue_.empty()) {
    if (running_) {
      running_ = false;
      if (observer_) observer_(false);
    }
    return;
  }
  // Highest priority first; FIFO within a priority.
  auto best = queue_.begin();
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->priority > best->priority) best = it;
  }
  const sim::Time duration = best->duration;
  const int priority = best->priority;
  running_body_ = std::move(best->body);
  queue_.erase(best);
  if (!running_) {
    running_ = true;
    if (observer_) observer_(true);
  }
  total_busy_ += duration;
  const sim::Time started = loop_.now();
  loop_.schedule_in(duration, [this, started, priority] {
    if (trace::Recorder* tr = trace::of(loop_)) {
      tr->complete(trace::Layer::Browser, "browser", "main-thread",
                   task_name(priority), started);
      tr->counters().add("browser.tasks_executed");
      tr->counters().add("browser.cpu_busy_us", loop_.now() - started);
    }
    sim::SmallFn body = std::move(running_body_);
    body();  // may post more tasks
    start_next();
  });
}

}  // namespace vroom::browser
