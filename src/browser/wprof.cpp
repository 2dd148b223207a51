#include "browser/wprof.h"

#include <algorithm>
#include <map>

#include "browser/cpu_model.h"

namespace vroom::browser {

sim::Time CriticalPathReport::total() const {
  sim::Time t = 0;
  for (const auto& s : segments) t += s.duration();
  return t;
}

sim::Time CriticalPathReport::time_in(PathKind k) const {
  sim::Time t = 0;
  for (const auto& s : segments) {
    if (s.kind == k) t += s.duration();
  }
  return t;
}

double CriticalPathReport::network_fraction() const {
  const sim::Time tot = total();
  return tot > 0 ? static_cast<double>(time_in(PathKind::Network)) /
                       static_cast<double>(tot)
                 : 0.0;
}

namespace {

// Appends the [discovered -> processed] life of one resource, most recent
// segment first (the caller reverses at the end).
void append_resource_segments(const ResourceTiming& t,
                              const web::PageInstance& instance,
                              const CpuCosts& cpu,
                              std::vector<PathSegment>& out) {
  const web::Resource& r = instance.model().resource(*t.template_id);
  // Processing: [processed - cost, processed] is compute; anything between
  // fetch completion and compute start is main-thread queueing.
  if (t.processed != sim::kNever && t.complete != sim::kNever) {
    const sim::Time cost =
        cpu.process_cost(r.type, instance.resource(r.id).size) +
        cpu.task_overhead;
    const sim::Time compute_start = std::max(t.complete, t.processed - cost);
    if (t.processed > compute_start) {
      out.push_back({t.url, compute_start, t.processed, PathKind::Compute});
    }
    if (compute_start > t.complete) {
      out.push_back({t.url, t.complete, compute_start, PathKind::Queue});
    }
  }
  // Fetch: [requested, complete] is network.
  if (t.complete != sim::kNever && t.requested != sim::kNever &&
      t.complete > t.requested) {
    out.push_back({t.url, t.requested, t.complete, PathKind::Network});
  }
  // Discovery-to-request gap: request scheduling.
  if (t.requested != sim::kNever && t.discovered != sim::kNever &&
      t.requested > t.discovered) {
    out.push_back({t.url, t.discovered, t.requested, PathKind::Queue});
  }
}

}  // namespace

CriticalPathReport extract_critical_path(const LoadResult& result,
                                         const web::PageInstance& instance,
                                         const CpuCosts& cpu) {
  CriticalPathReport report;
  // Index timings by template id.
  std::map<std::uint32_t, const ResourceTiming*> by_id;
  for (const auto& t : result.timings) {
    if (t.template_id && t.referenced) by_id[*t.template_id] = &t;
  }
  if (by_id.empty()) return report;

  // Start from the gating resource processed last.
  const ResourceTiming* cur = nullptr;
  for (const auto& [id, t] : by_id) {
    const web::Resource& r = instance.model().resource(id);
    if (!r.blocks_onload) continue;
    if (t->processed == sim::kNever) continue;
    if (cur == nullptr || t->processed > cur->processed) cur = t;
  }
  if (cur == nullptr) return report;

  std::vector<PathSegment> reversed;
  while (cur != nullptr) {
    append_resource_segments(*cur, instance, cpu, reversed);
    const web::Resource& r = instance.model().resource(*cur->template_id);
    if (r.parent < 0) break;
    // The discovery dependency: normally the parent's processing revealed
    // this resource; a hinted resource instead became known when the hinting
    // document's headers arrived — jump to the root document in that case.
    const ResourceTiming* parent = nullptr;
    auto it = by_id.find(static_cast<std::uint32_t>(r.parent));
    if (it != by_id.end()) parent = it->second;
    if (cur->hinted && parent != nullptr &&
        parent->processed != sim::kNever &&
        cur->discovered < parent->processed) {
      auto root_it = by_id.find(0);
      parent = root_it == by_id.end() ? nullptr : root_it->second;
    }
    if (parent == nullptr || parent == cur) break;
    cur = parent;
  }
  std::reverse(reversed.begin(), reversed.end());

  // Enforce a single non-overlapping left-to-right timeline: each earlier
  // segment is clipped at the start of the one that follows it.
  sim::Time limit = sim::kNever;
  for (auto rit = reversed.rbegin(); rit != reversed.rend(); ++rit) {
    if (rit->end > limit) rit->end = limit;
    if (rit->start > rit->end) rit->start = rit->end;
    limit = std::min(limit, rit->start);
  }
  for (auto& s : reversed) {
    if (s.duration() > 0) report.segments.push_back(s);
  }
  return report;
}

}  // namespace vroom::browser
