#include "http/message.h"

namespace vroom::http {

std::uint32_t ExchangePool::add(Request req, ResponseHandlers handlers,
                                sim::Time now) {
  Exchange e{.req = std::move(req), .handlers = std::move(handlers),
             .queued = now};
  if (free_.empty()) {
    records_.push_back(std::move(e));
    return size() - 1;
  }
  const std::uint32_t ex = free_.back();
  free_.pop_back();
  records_[ex] = std::move(e);
  return ex;
}

}  // namespace vroom::http
