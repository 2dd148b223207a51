#include "core/online_analyzer.h"

namespace vroom::core {

OnlineScan analyze_served_html(const web::PageInstance& instance,
                               std::uint32_t doc_id) {
  return OnlineScan{web::scan_html(instance, doc_id)};
}

}  // namespace vroom::core
