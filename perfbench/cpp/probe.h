// Host-speed probe. A shared machine's speed drifts by a quarter or more
// within an hour, and CPU time drifts with it, so the benchmark runs a fixed
// piece of work of its own before every timed set-up and pass and reports
// CPU seconds in units of the probe's: a host that slows both by the same
// factor leaves the reported figure unchanged. The probe is benchmark code
// and never changes with the program. It runs in a child process, so its
// memory neither counts in the benchmark's peak RSS nor fragments its heap.
#pragma once

namespace perfbench {

// The probe's CPU seconds per thread on a quiet 4-vCPU host; normalized
// figures are CPU seconds on a host that runs the probe this fast.
constexpr double kProbeReferenceCpuS = 0.1;

// Runs the probe as a child process on `threads` threads at once, waits for
// it and returns the CPU seconds it used; negative if it could not run.
double probe_cpu_seconds(int threads);

// The child's side: `perfbench --probe THREADS` does the work and exits.
int run_probe_child(int threads);

// `cpu_s` rescaled to the reference host speed, given the CPU seconds
// `probe_s` of a probe on `threads` threads run around the same time.
inline double normalized_cpu_s(double cpu_s, double probe_s, int threads) {
  return cpu_s * kProbeReferenceCpuS * threads / probe_s;
}

}  // namespace perfbench
