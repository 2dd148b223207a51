// Cross-layer structured tracing (WProf-spirit, zero overhead when off).
//
// A `Recorder` is owned by one simulation world and reached through the
// world's event loop (`sim::EventLoop::recorder()`), so every layer — link,
// TCP, HTTP sessions, origin servers, browser engine, Vroom scheduler — can
// emit typed events stamped with virtual time without new plumbing. When no
// recorder is attached the hook at every call site is a single pointer null
// check; the simulation's virtual-time behaviour is identical either way.
//
// Events carry a layer (category), a `track` (Chrome-trace process: the
// browser, or one origin domain) and a `lane` (Chrome-trace thread: the
// browser main thread / loader, or one TCP connection). Two sinks exist:
//   * chrome_trace_json() — the Trace Event Format that chrome://tracing
//     and Perfetto load directly (one pid per track, one tid per lane);
//   * waterfall.h — a compact per-load text table for terminal use.
// A `Counters` registry (monotonic counters + high-water gauges) rides on
// the recorder; `fleet::run_plan` aggregates it across each cell's loads
// and exports it through the VROOM_OUT_DIR CSV path.
//
// Enable per-process with VROOM_TRACE=<dir> (the harness then writes one
// JSON file per load) or programmatically via RunOptions::trace.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/event_loop.h"
#include "sim/time.h"

namespace vroom::trace {

// Which subsystem emitted the event; becomes the Chrome-trace category.
enum class Layer : std::uint8_t { Sim, Net, Http, Browser, Server, Vroom,
                                  Cache, Deploy };

const char* layer_name(Layer layer);

// One key/value annotation. Numbers are emitted unquoted in the JSON.
struct Arg {
  std::string key;
  std::string value;
  bool quoted = true;
};

Arg arg(std::string key, std::string value);
Arg arg(std::string key, std::string_view value);  // copies; views are
                                                   // per-load, events are not
Arg arg(std::string key, const char* value);
Arg arg(std::string key, std::int64_t value);
Arg arg(std::string key, int value);
Arg arg(std::string key, double value);

using Args = std::vector<Arg>;

// Monotonic counters and high-water gauges, keyed by dotted names
// ("net.downlink_bytes", "server.pushes_issued"). std::map keeps the
// export order deterministic.
class Counters {
 public:
  void add(const std::string& name, std::int64_t delta = 1);
  void set_max(const std::string& name, std::int64_t value);
  std::int64_t value(const std::string& name) const;
  bool empty() const { return values_.empty(); }
  const std::map<std::string, std::int64_t>& values() const { return values_; }

 private:
  std::map<std::string, std::int64_t> values_;
};

class Recorder {
 public:
  // 'i' instant, 'X' complete span (ts..ts+dur), 'C' counter sample.
  struct Event {
    sim::Time ts = 0;
    sim::Time dur = 0;
    char phase = 'i';
    Layer layer = Layer::Sim;
    int track = 0;  // Chrome-trace pid index
    int lane = 0;   // Chrome-trace tid index
    std::string name;
    std::string args_json;  // pre-rendered `"k":v,...` fragment (may be empty)
  };

  // Attaches itself to the loop; detaches on destruction. One recorder per
  // simulation world (worlds are thread-private, so this is TSAN-clean).
  explicit Recorder(sim::EventLoop& loop);
  ~Recorder();
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  // Point event at now().
  void instant(Layer layer, const std::string& track, const std::string& lane,
               std::string name, const Args& args = {});
  // Span from `start` (virtual time) to now().
  void complete(Layer layer, const std::string& track, const std::string& lane,
                std::string name, sim::Time start, const Args& args = {});
  // Counter-track sample ("C" events render as stacked area charts).
  void counter(Layer layer, const std::string& track, std::string name,
               std::int64_t value);

  Counters& counters() { return counters_; }
  const Counters& counters() const { return counters_; }

  std::size_t event_count() const { return events_.size(); }
  const std::vector<Event>& events() const { return events_; }
  // Events ordered by (ts, emission order): per-lane timestamps are monotone.
  std::vector<Event> sorted_events() const;

  const std::string& track_name(int track) const { return tracks_[static_cast<
      std::size_t>(track)]; }
  const std::string& lane_name(int lane) const { return lanes_[static_cast<
      std::size_t>(lane)].second; }

  // Chrome Trace Event Format (JSON object with "traceEvents"), loadable in
  // chrome://tracing and Perfetto. Deterministic for a deterministic world.
  std::string chrome_trace_json() const;
  // Writes chrome_trace_json() to `path` (directories created as needed);
  // warns on stderr and returns false on I/O failure.
  bool write_json(const std::string& path) const;

  static std::string json_escape(const std::string& s);

 private:
  int track_id(const std::string& track);
  int lane_id(int track, const std::string& lane);
  void push(Layer layer, const std::string& track, const std::string& lane,
            char phase, std::string name, sim::Time ts, sim::Time dur,
            const Args& args);

  sim::EventLoop& loop_;
  std::vector<Event> events_;
  std::vector<std::string> tracks_;                   // index = pid
  std::vector<std::pair<int, std::string>> lanes_;    // index = tid
  std::map<std::string, int> track_ids_;
  std::map<std::string, int> lane_ids_;  // "track\x1flane" -> tid
  Counters counters_;
};

// The recorder attached to `loop`, or nullptr when tracing is off. The
// single null check this compiles to is the entire disabled-path cost.
inline Recorder* of(sim::EventLoop& loop) {
  return loop.recorder();
}

// (The process-level VROOM_TRACE=<dir> switch is parsed by harness::Env —
// the single home of every VROOM_* environment knob; this library stays
// environment-free.)

}  // namespace vroom::trace
