// Shared types of the benchmark program: run options, metrics, wall-clock
// and CPU-clock helpers and the in-memory span log of the traced run.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// CPU seconds used so far by all threads of this process.
double process_cpu_seconds();

// Wall and process CPU time elapsed since construction. CPU time adds up
// the fleet workers' busy time and leaves out time the host ran something
// else, so it drifts less than wall time on a shared machine.
class Stopwatch {
 public:
  Stopwatch() : wall0_(Clock::now()), cpu0_(process_cpu_seconds()) {}
  double wall_s() const { return seconds_since(wall0_); }
  double cpu_s() const { return process_cpu_seconds() - cpu0_; }

 private:
  Clock::time_point wall0_;
  double cpu0_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  // Tiny inputs (a handful of pages, a short deployment window) for the
  // self-test; never used for measurement.
  bool tiny = false;
  // Expected digest of one pass for this (workload, seed); empty = none
  // recorded, so only pass-to-pass agreement is checked.
  std::string reference;
  // Where the traced run writes its span log; empty = not written.
  std::string span_file;
  int workers = 1;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 1;  // measurements behind the value
};

// One wall-clock span recorded by the benchmark around a call into a layer.
// `parent` indexes the enclosing span (-1 for none); spans of one simulated
// load share `load`.
struct Span {
  std::string name;
  double start_s = 0;
  double end_s = 0;
  int parent = -1;
  std::int64_t load = -1;
};

// Span log of the traced run: kept in memory, written once at exit.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}
  int begin(std::string name, int parent, std::int64_t load);
  // Closes span `id` and returns its duration in seconds.
  double end(int id);
  const std::vector<Span>& spans() const { return spans_; }
  // Chrome Trace Event Format (one tid per load); false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// Times `fn` as span `name` and returns its duration in seconds.
template <typename Fn>
double timed(SpanLog& log, const char* name, int parent, std::int64_t load,
             Fn&& fn) {
  const int id = log.begin(name, parent, load);
  fn();
  return log.end(id);
}

}  // namespace perfbench
