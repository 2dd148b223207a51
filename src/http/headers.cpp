#include "http/headers.h"

namespace vroom::http {

std::int64_t HintSet::header_bytes() const {
  // Each listed URL costs roughly its length plus separators; our synthetic
  // URLs are ~45-60 bytes.
  return static_cast<std::int64_t>(hints.size()) * 60;
}

}  // namespace vroom::http
