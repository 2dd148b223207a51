#include "obs/phase_profiler.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <vector>

namespace vroom::obs {

namespace {

constexpr int kPhaseCount = static_cast<int>(Phase::kCount);

std::atomic<bool> g_profiling_enabled{false};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Per-thread accumulator. Registered in a global list on first use;
// the destructor (thread exit) folds the remainder into the global
// aggregate so short-lived fleet workers are never lost.
struct ThreadTable {
  std::int64_t ns[kPhaseCount] = {};
  std::int64_t spans[kPhaseCount] = {};
  PhaseTimer* active = nullptr;  // innermost open span on this thread

  ThreadTable();
  ~ThreadTable();
};

struct GlobalState {
  std::mutex mu;
  PhaseProfile retired;               // contributions of exited threads
  std::vector<ThreadTable*> live;     // currently registered threads
};

GlobalState& global() {
  static GlobalState* state = new GlobalState();  // outlives thread dtors
  return *state;
}

thread_local ThreadTable t_table;
// Ensures the thread_local is constructed (and thus registered) before use.
ThreadTable& thread_table() { return t_table; }

ThreadTable::ThreadTable() {
  GlobalState& g = global();
  std::lock_guard<std::mutex> lock(g.mu);
  g.live.push_back(this);
}

ThreadTable::~ThreadTable() {
  GlobalState& g = global();
  std::lock_guard<std::mutex> lock(g.mu);
  for (int p = 0; p < kPhaseCount; ++p) {
    g.retired.seconds[p] += static_cast<double>(ns[p]) / 1e9;
    g.retired.spans[p] += spans[p];
  }
  for (std::size_t i = 0; i < g.live.size(); ++i) {
    if (g.live[i] == this) {
      g.live.erase(g.live.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
}

}  // namespace

const char* phase_name(Phase phase) {
  switch (phase) {
    case Phase::WorldBuild: return "world-build";
    case Phase::Intern: return "intern";
    case Phase::Sim: return "sim";
    case Phase::TraceFlush: return "trace-flush";
    case Phase::Export: return "export";
    case Phase::kCount: break;
  }
  return "?";
}

bool profiling_enabled() {
  return g_profiling_enabled.load(std::memory_order_relaxed);
}

void set_profiling_enabled(bool on) {
  g_profiling_enabled.store(on, std::memory_order_relaxed);
}

PhaseTimer::PhaseTimer(Phase phase) : phase_(phase) {
  if (!profiling_enabled()) return;
  active_ = true;
  start_ns_ = now_ns();
  ThreadTable& table = thread_table();
  parent_ = table.active;
  table.active = this;
}

PhaseTimer::~PhaseTimer() {
  if (!active_) return;
  const std::int64_t elapsed = now_ns() - start_ns_;
  ThreadTable& table = thread_table();
  const int p = static_cast<int>(phase_);
  table.ns[p] += elapsed - child_ns_;  // self time only
  table.spans[p] += 1;
  table.active = parent_;
  if (parent_ != nullptr) parent_->child_ns_ += elapsed;
}

double PhaseProfile::total_seconds() const {
  double total = 0;
  for (const double s : seconds) total += s;
  return total;
}

void PhaseProfile::merge(const PhaseProfile& other) {
  for (int p = 0; p < kPhaseCount; ++p) {
    seconds[p] += other.seconds[p];
    spans[p] += other.spans[p];
  }
}

PhaseProfile collect_phase_profile() {
  GlobalState& g = global();
  std::lock_guard<std::mutex> lock(g.mu);
  PhaseProfile out = g.retired;
  // Live threads (the calling thread, plus any pool that has not exited
  // yet) are read in place. Callers collect after joining their pool, so
  // cross-thread reads do not race with writes.
  for (const ThreadTable* table : g.live) {
    for (int p = 0; p < kPhaseCount; ++p) {
      out.seconds[p] += static_cast<double>(table->ns[p]) / 1e9;
      out.spans[p] += table->spans[p];
    }
  }
  return out;
}

void reset_phase_profile() {
  GlobalState& g = global();
  std::lock_guard<std::mutex> lock(g.mu);
  g.retired = PhaseProfile{};
  for (ThreadTable* table : g.live) {
    for (int p = 0; p < kPhaseCount; ++p) {
      table->ns[p] = 0;
      table->spans[p] = 0;
    }
  }
}

std::string format_phase_profile(const PhaseProfile& profile,
                                 double busy_seconds) {
  const double total = profile.total_seconds();
  std::string out = "[obs] phase profile (wall clock, all workers)\n";
  char line[128];
  std::snprintf(line, sizeof line, "  %-12s %10s %9s %7s\n", "phase",
                "seconds", "spans", "share");
  out += line;
  for (int p = 0; p < kPhaseCount; ++p) {
    if (profile.spans[p] == 0 && profile.seconds[p] == 0) continue;
    std::snprintf(line, sizeof line, "  %-12s %10.4f %9lld %6.1f%%\n",
                  phase_name(static_cast<Phase>(p)), profile.seconds[p],
                  static_cast<long long>(profile.spans[p]),
                  total > 0 ? 100.0 * profile.seconds[p] / total : 0.0);
    out += line;
  }
  std::snprintf(line, sizeof line, "  %-12s %10.4f\n", "total", total);
  out += line;
  if (busy_seconds > 0) {
    std::snprintf(line, sizeof line,
                  "  coverage: %.1f%% of %.4fs measured worker time\n",
                  100.0 * total / busy_seconds, busy_seconds);
    out += line;
  }
  return out;
}

}  // namespace vroom::obs
