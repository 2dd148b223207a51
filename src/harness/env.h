// The process environment, parsed in one place.
//
// Every VROOM_* knob the toolkit honours is read and validated here —
// nowhere else calls getenv for them. Call Env::from_environment() at the
// point of use (it re-reads the environment each time, so tests that
// setenv/unsetenv always see current values) and take the already-parsed
// field. Malformed values warn on stderr in one unified format and leave
// the knob at its "unset" default instead of misbehaving.
//
// The knobs:
//   VROOM_JOBS=<n>          worker-pool size for corpus sweeps (fleet/)
//   VROOM_TRACE=<dir>       write one Chrome-trace JSON file per load
//   VROOM_OUT_DIR=<dir>     export printed tables as CSV
//   VROOM_METRICS=<dir>     export obs metrics (CSV + Prometheus text) and
//                           run manifests after each fleet/deploy run
//   VROOM_PROFILE=1         print the wall-clock phase-profile table after
//                           each fleet run (stderr; nondeterministic)
#pragma once

#include <string>

namespace vroom::harness {

struct Env {
  int jobs = 0;                  // VROOM_JOBS; 0 = unset (hardware default)
  std::string trace_dir;         // VROOM_TRACE; empty = tracing off
  std::string out_dir;           // VROOM_OUT_DIR; empty = no CSV export
  std::string metrics_dir;       // VROOM_METRICS; empty = metrics off
  bool profile = false;          // VROOM_PROFILE; off unless set and != "0"

  // Parses the environment afresh (never cached: scoped setenv in tests and
  // long-lived tools both see the current values).
  static Env from_environment();

  // VROOM_TRACE alone, for the per-load check: it parses no other knob, so
  // a malformed one warns once per run instead of once per load.
  static std::string trace_dir_from_environment();

  bool trace_enabled() const { return !trace_dir.empty(); }
  bool metrics_enabled() const { return !metrics_dir.empty(); }
};

}  // namespace vroom::harness
