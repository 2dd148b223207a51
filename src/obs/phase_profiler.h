// Wall-clock phase profiler (DESIGN.md §12): where does worker time go?
//
// `PhaseTimer` is an RAII span over one of a fixed set of harness phases
// (world-build, interning, sim, trace flush, and the deployment macro
// pass's population and replay).
// Spans nest: a nested span's elapsed time is charged to the inner phase
// and subtracted from the outer one, so phase totals partition wall time
// instead of double counting. Each thread accumulates into a thread-local
// table (no contention on the hot path) that folds into a process-global
// aggregate when the thread exits or when collect_phase_profile() sweeps
// the live threads.
//
// Everything here is wall-clock and therefore nondeterministic: output goes
// to stderr (VROOM_PROFILE=1 prints the per-run table after each fleet
// run and after each deployment macro pass) and to the wall-plane metrics
// sidecar — never into frozen virtual-time artifacts. With profiling
// disabled (the default), a PhaseTimer is one relaxed bool load; the
// simulated world is identical either way.
//
// This library is environment-free; harness::Env owns the VROOM_PROFILE
// knob and the fleet / benches flip set_profiling_enabled from it.
#pragma once

#include <cstdint>
#include <string>

namespace vroom::obs {

enum class Phase : std::uint8_t {
  WorldBuild,      // per-load world: network, servers, pool, browser
  Intern,          // PageInstance realization incl. URL/domain interning
  Sim,             // event-loop execution of the load
  TraceFlush,      // recorder counter snapshot + Chrome-trace JSON write
  Population,      // deploy macro pass: one level's arrival stream
  Replay,          // deploy macro pass: one level's front end and links
  kCount,
};

const char* phase_name(Phase phase);

// Process-global switch; off by default (a disabled PhaseTimer costs one
// relaxed atomic load and nothing else).
bool profiling_enabled();
void set_profiling_enabled(bool on);

class PhaseTimer {
 public:
  explicit PhaseTimer(Phase phase);
  ~PhaseTimer();
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  Phase phase_;
  bool active_ = false;
  std::int64_t start_ns_ = 0;
  std::int64_t child_ns_ = 0;   // time spent in nested spans
  PhaseTimer* parent_ = nullptr;
};

// Aggregated profile: self-time seconds and span counts per phase.
struct PhaseProfile {
  double seconds[static_cast<int>(Phase::kCount)] = {};
  std::int64_t spans[static_cast<int>(Phase::kCount)] = {};

  double total_seconds() const;
  void merge(const PhaseProfile& other);
};

// Folds every thread's table (exited threads' contributions plus a sweep of
// currently live ones) into one profile. Call after the worker pool joins.
PhaseProfile collect_phase_profile();

// Zeroes all accumulated phase time (process-global and live threads').
// The fleet calls this at the start of each profiled run so the printed
// table covers exactly that run.
void reset_phase_profile();

// Human-readable table. `busy_seconds` is the externally measured worker
// time the phases should explain (e.g. fleet::Telemetry::busy_seconds, the
// summed per-job wall time); when > 0 a coverage line (profiled /
// measured) is appended.
std::string format_phase_profile(const PhaseProfile& profile,
                                 double busy_seconds);

}  // namespace vroom::obs
