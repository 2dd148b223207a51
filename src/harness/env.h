// The process environment, parsed in one place.
//
// Every VROOM_* knob the toolkit honours is read and validated here —
// nowhere else calls getenv for them. Call Env::from_environment() at the
// point of use (it re-reads the environment each time, so tests that
// setenv/unsetenv always see current values) and take the already-parsed
// field. Malformed values warn on stderr in one unified format and leave
// the knob at its "unset" default instead of misbehaving. A malformed value
// warns the first time a parse sees it and again only after the variable
// has changed, so a program warns once however many runs re-read it.
//
// The knobs:
//   VROOM_JOBS=<n>          worker-pool size for corpus sweeps (fleet/)
//   VROOM_TRACE=<dir>       write one Chrome-trace JSON file per load
//   VROOM_OUT_DIR=<dir>     the run's artifact directory: printed tables
//                           as CSV, and after each fleet/deploy run its obs
//                           metric export and run manifest
//   VROOM_PROFILE=1         print the wall-clock phase-profile table after
//                           each fleet run (stderr; nondeterministic)
#pragma once

#include <string>

namespace vroom::harness {

struct Env {
  int jobs = 0;                  // VROOM_JOBS; 0 = unset (hardware default)
  std::string trace_dir;         // VROOM_TRACE; empty = tracing off
  std::string out_dir;           // VROOM_OUT_DIR; empty = no artifacts
  bool profile = false;          // VROOM_PROFILE; off unless set and != "0"

  // Parses the environment afresh (never cached: scoped setenv in tests and
  // long-lived tools both see the current values).
  static Env from_environment();

  // VROOM_TRACE alone, for the per-load check: a load reads one variable,
  // not every knob.
  static std::string trace_dir_from_environment();

  bool trace_enabled() const { return !trace_dir.empty(); }
};

}  // namespace vroom::harness
