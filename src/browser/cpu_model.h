// Per-byte processing costs of the mobile browser's main thread.
//
// Calibrated so that a News/Sports-class page processed with zero network
// delay (the paper's USB-tethered CPU-bottleneck experiment, Figure 2) takes
// ~5 s on the Nexus 6 reference device. JavaScript dominates, matching the
// paper's observation that the CPU — not bandwidth — is the binding
// constraint on mobile.
#pragma once

#include "sim/time.h"
#include "web/resource.h"

namespace vroom::browser {

struct CpuCosts {
  double html_parse_us_per_byte = 1.0;
  double css_parse_us_per_byte = 0.45;
  double js_exec_us_per_byte = 6.5;
  double image_decode_us_per_byte = 0.02;
  double font_us_per_byte = 0.01;
  sim::Time task_overhead = sim::us(150);  // queueing/dispatch per task
  double device_scale = 1.0;               // DeviceProfile::cpu_scale

  // Zero-cost profile for the network-bottleneck lower bound.
  static CpuCosts zero();
  static CpuCosts nexus6();

  sim::Time process_cost(web::ResourceType type, std::int64_t bytes) const;
};

}  // namespace vroom::browser
