// Test-side closures for sim::EventLoop, whose events are records
// (sim::Record): a ClosureTable keeps each closure a test schedules and
// schedules the record that runs it by its index in the table. Shared by
// the suites whose scripts are easiest to write as closures.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_loop.h"
#include "sim/small_fn.h"

namespace vroom::testutil {

class ClosureTable {
 public:
  explicit ClosureTable(sim::EventLoop& loop) : loop_(loop) {}
  ClosureTable(const ClosureTable&) = delete;
  ClosureTable& operator=(const ClosureTable&) = delete;

  void schedule_at(sim::Time at, sim::SmallFn fn) {
    loop_.schedule_at(at, add(std::move(fn)));
  }
  void schedule_in(sim::Time delay, sim::SmallFn fn) {
    loop_.schedule_in(delay, add(std::move(fn)));
  }

 private:
  sim::Record add(sim::SmallFn fn) {
    fns_.push_back(std::move(fn));
    return sim::make_record<&ClosureTable::run>(
        this, static_cast<std::uint32_t>(fns_.size() - 1));
  }
  // Takes the closure out of the table before calling it, since it may
  // schedule more.
  void run(std::uint32_t index, std::int64_t) {
    sim::SmallFn fn = std::move(fns_[index]);
    fn();
  }

  sim::EventLoop& loop_;
  std::vector<sim::SmallFn> fns_;
};

}  // namespace vroom::testutil
