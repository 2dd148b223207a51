// Structured tracing: the Chrome-trace sink must emit well-formed JSON with
// monotone per-lane timestamps, traces must be bit-identical across worker
// counts, and a disabled recorder must not perturb the simulation.
#include "trace/trace.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/strategies.h"
#include "fleet/fleet.h"
#include "harness/env.h"
#include "harness/experiment.h"
#include "harness/export.h"
#include "scoped_env.h"
#include "sim/random.h"
#include "trace/waterfall.h"
#include "web/amp.h"
#include "web/corpus.h"
#include "web/page_generator.h"
#include "web/trace_io.h"

namespace vroom {
namespace {

using testutil::ScopedEnv;

// Minimal recursive-descent JSON parser: accepts exactly the RFC 8259
// grammar (objects, arrays, strings with escapes, numbers, literals) and
// rejects trailing commas, unterminated strings, and stray bytes.
class JsonChecker {
 public:
  explicit JsonChecker(std::string text) : s_(std::move(text)) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // bare control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(
                    static_cast<unsigned char>(s_[pos_]))) return false;
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!digits()) return false;
    if (peek() == '.') { ++pos_; if (!digits()) return false; }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!digits()) return false;
    }
    return pos_ > start;
  }
  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_]))) ++pos_;
    return pos_ > start;
  }
  bool literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
    }
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\t' || s_[pos_] == '\r')) ++pos_;
  }

  const std::string s_;
  std::size_t pos_ = 0;
};

harness::RunOptions traced_options(std::string* json,
                                   std::vector<trace::Recorder::Event>* events,
                                   std::map<std::string, std::int64_t>*
                                       counters) {
  harness::RunOptions opt;
  opt.seed = 42;
  opt.trace_sink = [json, events, counters](const trace::Recorder& r) {
    if (json != nullptr) *json = r.chrome_trace_json();
    if (events != nullptr) *events = r.sorted_events();
    if (counters != nullptr) *counters = r.counters().values();
  };
  return opt;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return in ? out.str() : std::string();
}

TEST(Counters, AddMaxAndDeterministicOrder) {
  trace::Counters c;
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.value("net.bytes"), 0);
  c.add("net.bytes", 100);
  c.add("net.bytes", 50);
  c.add("server.requests");  // default delta 1
  c.set_max("net.max_queued_us", 10);
  c.set_max("net.max_queued_us", 4);   // lower sample never wins
  c.set_max("net.max_queued_us", 25);
  EXPECT_EQ(c.value("net.bytes"), 150);
  EXPECT_EQ(c.value("server.requests"), 1);
  EXPECT_EQ(c.value("net.max_queued_us"), 25);
  // std::map iteration: names come out sorted, so exports are stable.
  std::vector<std::string> names;
  for (const auto& [name, value] : c.values()) names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{
                       "net.bytes", "net.max_queued_us", "server.requests"}));
}

TEST(Recorder, AttachesToLoopAndDetachesOnDestruction) {
  sim::EventLoop loop;
  EXPECT_EQ(trace::of(loop), nullptr);
  {
    trace::Recorder rec(loop);
    EXPECT_EQ(trace::of(loop), &rec);
    rec.instant(trace::Layer::Net, "net", "conn#1", "connect");
    EXPECT_EQ(rec.event_count(), 1u);
  }
  EXPECT_EQ(trace::of(loop), nullptr);
}

TEST(Recorder, JsonEscapesControlAndQuoteCharacters) {
  EXPECT_EQ(trace::Recorder::json_escape("plain"), "plain");
  EXPECT_EQ(trace::Recorder::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(trace::Recorder::json_escape("line\nbreak\ttab"),
            "line\\nbreak\\ttab");
  // The escaped forms must themselves survive a JSON parse.
  JsonChecker check("\"" + trace::Recorder::json_escape(
                              std::string("\x01\x1f\"\\\n") + "x") + "\"");
  EXPECT_TRUE(check.valid());
}

TEST(Recorder, ChromeTraceJsonIsWellFormed) {
  sim::EventLoop loop;
  trace::Recorder rec(loop);
  rec.instant(trace::Layer::Browser, "browser", "loader", "discover",
              {trace::arg("url", "https://a.example/\"odd\"\npath"),
               trace::arg("n", std::int64_t{7})});
  rec.complete(trace::Layer::Http, "a.example", "stream#1", "stream", 0,
               {trace::arg("ratio", 0.5)});
  rec.counter(trace::Layer::Net, "net", "cwnd", 10);
  const std::string json = rec.chrome_trace_json();
  JsonChecker check(json);
  EXPECT_TRUE(check.valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  // Perfetto reads process/thread names from metadata events.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
}

TEST(Trace, FullLoadJsonWellFormedAndLayersPresent) {
  ScopedEnv trace_env("VROOM_TRACE", nullptr);
  const web::PageModel page = web::generate_page(42, 3, web::PageClass::News);
  std::string json;
  std::vector<trace::Recorder::Event> events;
  std::map<std::string, std::int64_t> counters;
  const harness::RunOptions opt = traced_options(&json, &events, &counters);
  harness::run_page_load(page, baselines::vroom(), opt, 1);

  ASSERT_FALSE(json.empty());
  JsonChecker check(json);
  EXPECT_TRUE(check.valid());

  // Events must arrive from every major subsystem of the stack.
  std::set<std::string> layers;
  for (const auto& e : events) layers.insert(trace::layer_name(e.layer));
  for (const char* want : {"net", "http", "browser", "server", "vroom"}) {
    EXPECT_TRUE(layers.count(want)) << "missing layer: " << want;
  }
  // And the counter registry saw traffic from the same subsystems.
  EXPECT_GT(counters.at("browser.requests"), 0);
  EXPECT_GT(counters.at("net.connections"), 0);
  EXPECT_GT(counters.at("server.requests"), 0);
  EXPECT_GT(counters.at("vroom.hints_received"), 0);
}

TEST(Trace, TimestampsMonotonePerLane) {
  ScopedEnv trace_env("VROOM_TRACE", nullptr);
  const web::PageModel page = web::generate_page(42, 3, web::PageClass::News);
  std::vector<trace::Recorder::Event> events;
  const harness::RunOptions opt = traced_options(nullptr, &events, nullptr);
  harness::run_page_load(page, baselines::vroom(), opt, 1);

  ASSERT_FALSE(events.empty());
  sim::Time prev_global = 0;
  std::map<std::pair<int, int>, sim::Time> prev_lane;
  for (const auto& e : events) {
    EXPECT_GE(e.ts, prev_global);  // sorted_events orders by timestamp
    prev_global = e.ts;
    auto [it, fresh] = prev_lane.try_emplace({e.track, e.lane}, e.ts);
    if (!fresh) {
      EXPECT_GE(e.ts, it->second) << "lane went backwards: " << e.name;
      it->second = e.ts;
    }
    EXPECT_GE(e.dur, 0) << e.name;
  }
}

TEST(Trace, DisabledRecorderAddsNothingAndLoadIsIdentical) {
  ScopedEnv trace_env("VROOM_TRACE", nullptr);
  const web::PageModel page = web::generate_page(42, 3, web::PageClass::News);

  harness::RunOptions plain;
  plain.seed = 42;
  const auto off = harness::run_page_load(page, baselines::vroom(), plain, 1);
  EXPECT_TRUE(off.trace_counters.empty());  // no recorder → no counters

  std::vector<trace::Recorder::Event> events;
  const harness::RunOptions opt = traced_options(nullptr, &events, nullptr);
  const auto on = harness::run_page_load(page, baselines::vroom(), opt, 1);
  EXPECT_FALSE(events.empty());

  // Tracing must be an observer: identical virtual-time results either way.
  EXPECT_EQ(off.plt, on.plt);
  EXPECT_EQ(off.aft, on.aft);
  EXPECT_EQ(off.speed_index_ms, on.speed_index_ms);
  EXPECT_EQ(off.bytes_fetched, on.bytes_fetched);
  EXPECT_EQ(off.requests, on.requests);
  ASSERT_EQ(off.timings.size(), on.timings.size());
  for (std::size_t i = 0; i < off.timings.size(); ++i) {
    EXPECT_EQ(off.timings[i].url, on.timings[i].url);
    EXPECT_EQ(off.timings[i].complete, on.timings[i].complete);
  }

  // A recorder that exists but never fires stays empty and costs nothing.
  sim::EventLoop loop;
  trace::Recorder rec(loop);
  EXPECT_EQ(rec.event_count(), 0u);
  EXPECT_TRUE(rec.counters().empty());
}

TEST(Trace, IdenticalSeedsGiveByteIdenticalTracesAtAnyJobCount) {
  ScopedEnv jobs_env("VROOM_JOBS", nullptr);
  const web::Corpus corpus = web::Corpus::smoke(7, /*count=*/2);
  harness::RunOptions opt;
  opt.seed = 42;

  const std::string base = testing::TempDir() + "vroom_trace_jobs";
  const std::string dir1 = base + "/serial";
  const std::string dir4 = base + "/parallel";

  fleet::FleetOptions serial;
  serial.workers = 1;
  fleet::FleetOptions parallel;
  parallel.workers = 4;
  {
    ScopedEnv trace_env("VROOM_TRACE", dir1.c_str());
    fleet::run_corpus(corpus, baselines::vroom(), opt, serial);
  }
  {
    ScopedEnv trace_env("VROOM_TRACE", dir4.c_str());
    fleet::run_corpus(corpus, baselines::vroom(), opt, parallel);
  }

  // Filenames derive from load identity, so the two sweeps must produce the
  // same set of files with the same bytes.
  int compared = 0;
  for (const auto& page : corpus.pages()) {
    for (int load = 0; load < opt.loads_per_page; ++load) {
      const std::uint64_t nonce =
          harness::derive_load_nonce(opt.seed, page.page_id(), load);
      const std::string name =
          "/" + harness::trace_file_name(baselines::vroom(), page, opt,
                                         nonce);
      const std::string a = read_file(dir1 + name);
      const std::string b = read_file(dir4 + name);
      ASSERT_FALSE(a.empty()) << "missing trace: " << dir1 + name;
      EXPECT_EQ(a, b) << "trace diverged: " << name;
      JsonChecker check(a);
      EXPECT_TRUE(check.valid()) << name;
      ++compared;
    }
  }
  EXPECT_EQ(compared, static_cast<int>(corpus.size()) * opt.loads_per_page);
}

// The deploy micro table runs one (strategy, page, nonce) on several
// devices, and the network ablation on several networks: each such load
// must keep its own trace file rather than overwrite a sibling's. So must
// a page of another class that shares the id (and so the nonce), as Top100
// page k and News page k do in fig01, and an AMP rewrite of the page, which
// keeps its id and class, as in ext_amp.
TEST(Trace, LoadsDifferingOnlyInDeviceOrNetworkWriteSeparateFiles) {
  const std::string dir = testing::TempDir() + "vroom_trace_identity";
  std::filesystem::remove_all(dir);
  ScopedEnv trace_env("VROOM_TRACE", dir.c_str());
  const web::PageModel page = web::generate_page(42, 3, web::PageClass::News);
  const web::PageModel top =
      web::generate_page(42, 3, web::PageClass::Top100);
  const baselines::Strategy strategy = baselines::vroom();
  harness::RunOptions phone;
  harness::RunOptions tablet = phone;
  tablet.device = web::nexus10();
  harness::RunOptions slow = phone;
  slow.network = net::NetworkConfig::threeg();
  const std::uint64_t nonce =
      harness::derive_load_nonce(phone.seed, page.page_id(), 0);
  ASSERT_EQ(top.page_id(), page.page_id());

  // The AMP rewrite keeps the page's id, class and first party.
  const web::PageModel amp = web::amp_transform(page);
  ASSERT_EQ(amp.page_id(), page.page_id());
  ASSERT_EQ(amp.page_class(), page.page_class());

  char tpl[9];
  std::snprintf(tpl, sizeof tpl, "%08llx",
                static_cast<unsigned long long>(
                    sim::hash64(web::page_to_trace(page)) & 0xffffffffULL));
  const std::string phone_name =
      harness::trace_file_name(strategy, page, phone, nonce);
  EXPECT_EQ(phone_name.rfind("trace_vroom_news_p3_tpl" + std::string(tpl) +
                                 "_n" + std::to_string(nonce) +
                                 "_nexus6_u1_t" +
                                 std::to_string(phone.when) + "_net",
                             0),
            0u)
      << phone_name;
  std::set<std::string> expected;
  for (const harness::RunOptions& opt : {phone, tablet, slow}) {
    harness::run_page_load(page, strategy, opt, nonce);
    expected.insert(harness::trace_file_name(strategy, page, opt, nonce));
  }
  for (const web::PageModel* other : {&top, &amp}) {
    harness::run_page_load(*other, strategy, phone, nonce);
    expected.insert(harness::trace_file_name(strategy, *other, phone, nonce));
  }
  EXPECT_EQ(expected.size(), 5u);
  std::set<std::string> written;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    written.insert(entry.path().filename().string());
  }
  EXPECT_EQ(written, expected);
}

// fig01's shape: one strategy over two corpora, so both cells carry the
// strategy name as their label. Each traced cell must still export its own
// counter totals instead of the second overwriting the first. (The
// directory also takes the run's metric export and manifest.)
TEST(Trace, CellsSharingALabelExportSeparateCounterFiles) {
  const std::string dir = testing::TempDir() + "vroom_trace_counters";
  std::filesystem::remove_all(dir);
  ScopedEnv out_env("VROOM_OUT_DIR", dir.c_str());
  ScopedEnv trace_env("VROOM_TRACE", nullptr);
  const web::Corpus a = web::Corpus::smoke(7, /*count=*/2);
  const web::Corpus b = web::Corpus::smoke(11, /*count=*/2);
  harness::RunOptions opt;
  opt.seed = 42;
  opt.loads_per_page = 1;
  opt.trace_sink = [](const trace::Recorder&) {};  // record, write no file

  fleet::SweepPlan plan;
  plan.add(a, baselines::http2_baseline(), opt)
      .add(b, baselines::http2_baseline(), opt);
  const auto results = fleet::run_plan(plan, {2});
  ASSERT_EQ(results.size(), 2u);
  ASSERT_EQ(results[0].strategy, results[1].strategy);

  std::multiset<std::string> written;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("trace_counters_", 0) != 0) {
      continue;
    }
    written.insert(read_file(entry.path().string()));
  }
  const std::multiset<std::string> expected = {
      harness::counters_to_csv(results[0].counter_totals()),
      harness::counters_to_csv(results[1].counter_totals())};
  EXPECT_EQ(written, expected);
}

TEST(Trace, WriteJsonCreatesDirectoriesAndReportsFailure) {
  sim::EventLoop loop;
  trace::Recorder rec(loop);
  rec.instant(trace::Layer::Sim, "sim", "loop", "tick");
  const std::string path =
      testing::TempDir() + "vroom_trace_mkdir/a/b/trace.json";
  EXPECT_TRUE(rec.write_json(path));
  const std::string body = read_file(path);
  JsonChecker check(body);
  EXPECT_TRUE(check.valid());
  // An unwritable path warns and returns false instead of throwing.
  EXPECT_FALSE(rec.write_json("/proc/vroom-definitely-not-writable/t.json"));
}

TEST(Trace, EnvTraceDirHonorsSwitch) {
  {
    ScopedEnv env("VROOM_TRACE", nullptr);
    EXPECT_FALSE(harness::Env::from_environment().trace_enabled());
  }
  {
    ScopedEnv env("VROOM_TRACE", "");
    // empty means off
    EXPECT_FALSE(harness::Env::from_environment().trace_enabled());
  }
  {
    ScopedEnv env("VROOM_TRACE", "/tmp/traces");
    const harness::Env env_vals = harness::Env::from_environment();
    EXPECT_TRUE(env_vals.trace_enabled());
    EXPECT_EQ(env_vals.trace_dir, "/tmp/traces");
  }
}

// Trace-backed invariant (the template for future ones): assertions on the
// *event stream* of a load catch violations that aggregate metrics average
// away. Here: an HTTP/2 load multiplexes every request over one connection
// per domain, so it must never pay an HTTP/1.1 head-of-line queue wait —
// neither as an `h1.queue_wait` span nor in the `http.h1_hol_waits` counter.
TEST(Trace, Http2LoadReplayHasNoH1HolWaits) {
  ScopedEnv trace_env("VROOM_TRACE", nullptr);
  const web::PageModel page = web::generate_page(42, 3, web::PageClass::News);
  harness::RunOptions opt;
  opt.seed = 42;

  auto hol_waits = [&](const baselines::Strategy& strategy) {
    int wait_events = 0;
    std::int64_t wait_counter = 0;
    harness::RunOptions traced = opt;
    traced.trace_sink = [&](const trace::Recorder& rec) {
      for (const auto& ev : rec.events()) {
        if (ev.name == "h1.queue_wait") ++wait_events;
      }
      wait_counter = rec.counters().value("http.h1_hol_waits");
    };
    const auto r = harness::run_page_load(page, strategy, traced, 1);
    EXPECT_TRUE(r.finished);
    // Counter and event stream must agree — and the snapshot carried in the
    // LoadResult (what corpus-level checks see) must match too.
    std::int64_t snapshot = 0;
    for (const auto& [name, value] : r.trace_counters) {
      if (name == "http.h1_hol_waits") snapshot = value;
    }
    EXPECT_EQ(wait_counter, snapshot);
    EXPECT_EQ(wait_events, static_cast<int>(wait_counter));
    return wait_events;
  };

  EXPECT_EQ(hol_waits(baselines::http2_baseline()), 0);
  // The probe is live: the same page over HTTP/1.1 (6 connections per
  // domain) does queue behind busy connections.
  EXPECT_GT(hol_waits(baselines::http11()), 0);
}

// Every push decision an origin records must carry the policy label of the
// push selection the provider was configured with — a decision attributed
// to the wrong policy would silently corrupt any per-policy trace analysis.
TEST(Trace, PushDecisionEventsCarryConfiguredPolicy) {
  ScopedEnv trace_env("VROOM_TRACE", nullptr);
  const web::PageModel page = web::generate_page(42, 3, web::PageClass::News);

  auto decisions_with_policy = [&page](core::PushSelection push) {
    baselines::Strategy s = baselines::vroom();
    s.provider.push = push;
    const std::string want =
        std::string("\"policy\":\"") + core::push_selection_name(push) + "\"";
    int decisions = 0;
    harness::RunOptions opt;
    opt.seed = 42;
    opt.trace_sink = [&](const trace::Recorder& rec) {
      for (const auto& ev : rec.events()) {
        if (ev.name != "push.decision") continue;
        ++decisions;
        EXPECT_NE(ev.args_json.find(want), std::string::npos)
            << "push.decision args: " << ev.args_json;
      }
    };
    const auto r = harness::run_page_load(page, s, opt, 1);
    EXPECT_TRUE(r.finished);
    return decisions;
  };

  // Policies that push must record decisions, each tagged with that policy.
  EXPECT_GT(decisions_with_policy(core::PushSelection::HighPriorityLocal), 0);
  EXPECT_GT(decisions_with_policy(core::PushSelection::AllLocal), 0);
  // With push disabled the provider advises no pushes, so origins have no
  // decisions to record.
  EXPECT_EQ(decisions_with_policy(core::PushSelection::None), 0);
}

// Pulls a string arg out of a pre-rendered `"k":"v",...` args fragment;
// empty when the key is absent.
std::string event_arg(const trace::Recorder::Event& ev,
                      const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const std::size_t at = ev.args_json.find(needle);
  if (at == std::string::npos) return {};
  const std::size_t start = at + needle.size();
  const std::size_t end = ev.args_json.find('"', start);
  return end == std::string::npos ? std::string()
                                  : ev.args_json.substr(start, end - start);
}

// Integer arg out of the same fragment (`"k":v`); nullopt when absent.
std::optional<std::int64_t> event_arg_int(const trace::Recorder::Event& ev,
                                          const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = ev.args_json.find(needle);
  if (at == std::string::npos) return std::nullopt;
  return std::stoll(ev.args_json.substr(at + needle.size()));
}

// Causality invariants of the staged Vroom scheduler, checked on the real
// event stream of a full load: stages only advance forward one step at a
// time, no URL is requested twice (hints are consumed at most once), and
// every request is preceded by the event that could have caused it — its
// discovery for parser fetches, a hint delivery for hint fetches.
TEST(Trace, SchedulerStageInvariantsHoldOnFullLoad) {
  ScopedEnv trace_env("VROOM_TRACE", nullptr);
  const web::PageModel page = web::generate_page(42, 7, web::PageClass::News);
  std::vector<trace::Recorder::Event> events;
  harness::RunOptions opt = traced_options(nullptr, &events, nullptr);
  const auto r = harness::run_page_load(page, baselines::vroom(), opt, 1);
  ASSERT_TRUE(r.finished);

  int last_stage = 0;
  int stage_advances = 0;
  sim::Time first_hints_received = sim::kNever;
  std::map<std::string, sim::Time> discovered;
  std::set<std::string> requested;
  int hint_requests = 0;
  for (const auto& ev : events) {  // sorted_events(): ts-ordered
    if (ev.name == "stage_advance") {
      const auto from = event_arg_int(ev, "from");
      const auto to = event_arg_int(ev, "to");
      ASSERT_TRUE(from.has_value() && to.has_value());
      EXPECT_EQ(*from + 1, *to) << "stage skipped";
      EXPECT_EQ(*from, last_stage) << "stage regressed or skipped";
      last_stage = static_cast<int>(*to);
      ++stage_advances;
    } else if (ev.name == "hints.received") {
      first_hints_received = std::min(first_hints_received, ev.ts);
    } else if (ev.name == "discover") {
      const std::string url = event_arg(ev, "url");
      ASSERT_FALSE(url.empty());
      if (!discovered.count(url)) discovered[url] = ev.ts;
    } else if (ev.name == "request") {
      const std::string url = event_arg(ev, "url");
      ASSERT_FALSE(url.empty());
      EXPECT_TRUE(requested.insert(url).second)
          << url << " requested twice (hint consumed more than once?)";
      const std::string reason = event_arg(ev, "reason");
      if (reason == "parser") {
        ASSERT_TRUE(discovered.count(url)) << url << " fetched undiscovered";
        EXPECT_LE(discovered[url], ev.ts);
      } else if (reason == "hint") {
        ++hint_requests;
        EXPECT_NE(first_hints_received, sim::kNever)
            << url << " hint-fetched before any hints arrived";
        EXPECT_LE(first_hints_received, ev.ts);
      }
    }
  }
  // The invariants must have had something to bite on: a Vroom load stages
  // through the pipeline and fetches at least some resources via hints.
  EXPECT_GT(stage_advances, 0);
  EXPECT_GT(hint_requests, 0);
}

TEST(Waterfall, TableListsRequestsInOrder) {
  ScopedEnv trace_env("VROOM_TRACE", nullptr);
  const web::PageModel page = web::generate_page(42, 3, web::PageClass::News);
  harness::RunOptions opt;
  opt.seed = 42;
  const auto r = harness::run_page_load(page, baselines::vroom(), opt, 1);

  trace::WaterfallOptions wf;
  wf.max_rows = 5;
  const std::string table = trace::waterfall_table("Vroom", r, wf);
  EXPECT_NE(table.find("Vroom"), std::string::npos);
  EXPECT_NE(table.find("PLT"), std::string::npos);
  EXPECT_NE(table.find(page.first_party()), std::string::npos);
  if (r.requests > wf.max_rows) {
    EXPECT_NE(table.find("more requests"), std::string::npos);
  }
}

}  // namespace
}  // namespace vroom
