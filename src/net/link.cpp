#include "net/link.h"

#include <algorithm>
#include <cassert>

#include "trace/trace.h"

namespace vroom::net {

Link::Link(sim::EventLoop& loop, double bps, const char* name)
    : loop_(loop), completions_(loop.add_lane()), bps_(bps), name_(name) {
  assert(bps > 0);
}

sim::Time tx_time(std::int64_t bytes, double bps) {
  return static_cast<sim::Time>(static_cast<double>(bytes) * 8.0 / bps * 1e6 +
                                0.5);
}

sim::Time Link::enqueue(std::int64_t bytes) {
  return enqueue(bytes, tx_time(bytes, bps_));
}

sim::Time Link::enqueue(std::int64_t bytes, sim::Time tx) {
  const sim::Time start = std::max(loop_.now(), busy_until_);
  const sim::Time done = start + tx;
  busy_time_ += done - start;
  busy_until_ = done;
  total_bytes_ += bytes;
  if (trace::Recorder* tr = trace::of(loop_)) record_enqueue(*tr, bytes);
  return done;
}

void Link::record_enqueue(trace::Recorder& tr, std::int64_t bytes) const {
  // Queue-depth sample: time a byte arriving right now would wait behind
  // everything already queued — the access-link contention of §4.3.
  const sim::Time queued = busy_until_ - loop_.now();
  tr.counter(trace::Layer::Net, "net", std::string(name_) + ".queued_us",
             queued);
  tr.counters().add(std::string("net.") + name_ + "_bytes", bytes);
  tr.counters().set_max(std::string("net.") + name_ + "_max_queued_us",
                        queued);
}

double Link::utilization() const {
  if (loop_.now() == 0) return 0.0;
  return static_cast<double>(busy_time_) / static_cast<double>(loop_.now());
}

}  // namespace vroom::net
