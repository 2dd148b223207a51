// WProf-style critical-path extraction (Wang et al., NSDI'13 — [41] in the
// paper).
//
// Reconstructs the dependency chain that determined the load time from the
// per-resource timings of a finished load: starting from the resource whose
// processing completed last among those the load event waits for, walk back
// through fetch and discovery edges to the navigation. Each chain segment is
// classified as Network (bytes in flight), Compute (parse/execute), or
// Queue (waiting for the main thread / request scheduling), giving the
// breakdown behind Figure 4's "fraction of critical path waiting on
// network".
#pragma once

#include <string>
#include <vector>

#include "browser/cpu_model.h"
#include "browser/metrics.h"
#include "web/page_instance.h"

namespace vroom::browser {

enum class PathKind : std::uint8_t { Network, Compute, Queue };

struct PathSegment {
  std::string url;
  sim::Time start = 0;
  sim::Time end = 0;
  PathKind kind = PathKind::Network;

  sim::Time duration() const { return end - start; }
};

struct CriticalPathReport {
  std::vector<PathSegment> segments;  // navigation -> onload order

  sim::Time total() const;
  sim::Time time_in(PathKind k) const;
  double network_fraction() const;
};

// Extracts the critical path of a finished load. The instance provides the
// dependency tree (who discovered whom) and processing costs.
CriticalPathReport extract_critical_path(const LoadResult& result,
                                         const web::PageInstance& instance,
                                         const CpuCosts& cpu);

}  // namespace vroom::browser
