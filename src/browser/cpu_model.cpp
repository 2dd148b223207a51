#include "browser/cpu_model.h"

namespace vroom::browser {

CpuCosts CpuCosts::zero() {
  CpuCosts c;
  c.html_parse_us_per_byte = 0;
  c.css_parse_us_per_byte = 0;
  c.js_exec_us_per_byte = 0;
  c.image_decode_us_per_byte = 0;
  c.font_us_per_byte = 0;
  c.task_overhead = 0;
  return c;
}

CpuCosts CpuCosts::nexus6() { return CpuCosts{}; }

sim::Time CpuCosts::process_cost(web::ResourceType type,
                                 std::int64_t bytes) const {
  double us_per_byte = 0;
  switch (type) {
    case web::ResourceType::Html: us_per_byte = html_parse_us_per_byte; break;
    case web::ResourceType::Css: us_per_byte = css_parse_us_per_byte; break;
    case web::ResourceType::Js: us_per_byte = js_exec_us_per_byte; break;
    case web::ResourceType::Image:
      us_per_byte = image_decode_us_per_byte;
      break;
    case web::ResourceType::Font: us_per_byte = font_us_per_byte; break;
    case web::ResourceType::Media:
    case web::ResourceType::Other: us_per_byte = 0.005; break;
  }
  return static_cast<sim::Time>(static_cast<double>(bytes) * us_per_byte *
                                device_scale);
}

}  // namespace vroom::browser
