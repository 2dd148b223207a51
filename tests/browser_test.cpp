#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "baselines/strategies.h"
#include "browser/browser.h"
#include "browser/cache.h"
#include "browser/metrics.h"
#include "browser/task_queue.h"
#include "closure_table.h"
#include "harness/experiment.h"
#include "scoped_env.h"
#include "web/page_generator.h"

namespace vroom::browser {
namespace {

using testutil::ScopedEnv;

TEST(TaskQueueTest, RunsTasksSerially) {
  sim::EventLoop loop;
  TaskQueue q(loop);
  sim::Time t1 = -1, t2 = -1;
  q.post(sim::ms(10), TaskPriority::Parse, [&] { t1 = loop.now(); });
  q.post(sim::ms(5), TaskPriority::Parse, [&] { t2 = loop.now(); });
  loop.run();
  EXPECT_EQ(t1, sim::ms(10));
  EXPECT_EQ(t2, sim::ms(15));
  EXPECT_EQ(q.total_busy(), sim::ms(15));
}

TEST(TaskQueueTest, PriorityPreemptsQueueNotRunningTask) {
  sim::EventLoop loop;
  TaskQueue q(loop);
  std::vector<int> order;
  q.post(sim::ms(10), TaskPriority::Parse, [&] { order.push_back(0); });
  q.post(sim::ms(10), TaskPriority::ImageDecode, [&] { order.push_back(1); });
  q.post(sim::ms(10), TaskPriority::Scheduler, [&] { order.push_back(2); });
  loop.run();
  // Task 0 was already running; then the scheduler callback outranks the
  // image decode.
  EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
}

TEST(TaskQueueTest, ObserverSeesBusyTransitions) {
  sim::EventLoop loop;
  TaskQueue q(loop);
  std::vector<bool> transitions;
  q.set_state_observer([&](bool busy) { transitions.push_back(busy); });
  q.post(sim::ms(1), TaskPriority::Parse, [] {});
  loop.run();
  EXPECT_EQ(transitions, (std::vector<bool>{true, false}));
}

// The reference order for TaskQueue: one FIFO list, scanned for the first
// task of the highest priority, which is erased and started. A task's body
// runs in its completion event, which then starts the next task.
class ScanQueue {
 public:
  explicit ScanQueue(sim::EventLoop& loop) : events_(loop) {}

  void post(sim::Time duration, TaskPriority priority, sim::SmallFn body) {
    queue_.push_back(
        Task{duration, static_cast<int>(priority), std::move(body)});
    if (!running_) start_next();
  }
  sim::Time total_busy() const { return total_busy_; }
  void set_state_observer(std::function<void(bool busy)> obs) {
    observer_ = std::move(obs);
  }

 private:
  struct Task {
    sim::Time duration;
    int priority;
    sim::SmallFn body;
  };

  void start_next() {
    if (queue_.empty()) {
      if (running_) {
        running_ = false;
        if (observer_) observer_(false);
      }
      return;
    }
    auto best = queue_.begin();
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->priority > best->priority) best = it;
    }
    Task task = std::move(*best);
    queue_.erase(best);
    if (!running_) {
      running_ = true;
      if (observer_) observer_(true);
    }
    total_busy_ += task.duration;
    events_.schedule_in(task.duration,
                        [this, body = std::move(task.body)]() mutable {
                          body();
                          start_next();
                        });
  }

  testutil::ClosureTable events_;
  std::deque<Task> queue_;
  bool running_ = false;
  sim::Time total_busy_ = 0;
  std::function<void(bool)> observer_;
};

// What a task script observed: each task as (id, start, end), each
// busy/idle transition with its time, and the queue's busy total.
struct TaskRecord {
  int id;
  sim::Time start;
  sim::Time end;
  bool operator==(const TaskRecord&) const = default;
};
struct TaskScriptRun {
  std::vector<TaskRecord> tasks;
  std::vector<std::pair<sim::Time, bool>> transitions;
  sim::Time total_busy = 0;
};

// A seeded random task script: random priorities, durations that are often
// 0, posts from inside task bodies and from outside events at drawn times
// (some while the queue is busy, some after it went idle). Tasks are drawn
// as they run, so two queues draw the same tasks only while they run them
// in the same order.
template <typename Queue>
TaskScriptRun run_task_script(std::uint64_t seed) {
  sim::EventLoop loop;
  Queue queue(loop);
  TaskScriptRun out;
  std::mt19937_64 rng(seed);
  const auto draw = [&rng](int n) {
    return static_cast<int>(rng() % static_cast<std::uint64_t>(n));
  };
  queue.set_state_observer(
      [&](bool busy) { out.transitions.emplace_back(loop.now(), busy); });
  int next_id = 0;
  std::function<void()> post = [&] {
    const int id = next_id++;
    const sim::Time duration = draw(3) == 0 ? 0 : 1 + draw(20);
    const auto priority = static_cast<TaskPriority>(draw(4));
    queue.post(duration, priority, [&, id, duration] {
      out.tasks.push_back(TaskRecord{id, loop.now() - duration, loop.now()});
      if (next_id >= 400) return;
      for (int children = draw(3); children > 0; --children) post();
    });
  };
  testutil::ClosureTable events(loop);
  for (int burst = 0; burst < 20; ++burst) {
    events.schedule_at(draw(600), [&] {
      for (int n = 1 + draw(4); n > 0; --n) post();
    });
  }
  loop.run();
  out.total_busy = queue.total_busy();
  return out;
}

TEST(TaskQueueTest, MatchesPriorityScanReference) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const TaskScriptRun expected = run_task_script<ScanQueue>(seed);
    const TaskScriptRun got = run_task_script<TaskQueue>(seed);
    ASSERT_GT(expected.tasks.size(), 20u) << "seed " << seed;
    EXPECT_EQ(got.tasks, expected.tasks) << "seed " << seed;
    EXPECT_EQ(got.transitions, expected.transitions) << "seed " << seed;
    EXPECT_EQ(got.total_busy, expected.total_busy) << "seed " << seed;
  }
}

TEST(CacheTest, FreshnessWindow) {
  Cache c;
  c.insert("u", 100, sim::hours(1), sim::minutes(10));
  EXPECT_TRUE(c.fresh("u", sim::hours(1) + sim::minutes(5)));
  EXPECT_FALSE(c.fresh("u", sim::hours(1) + sim::minutes(15)));
  EXPECT_TRUE(c.has("u"));
  EXPECT_FALSE(c.has("v"));
}

TEST(CacheTest, UncacheableNotStored) {
  Cache c;
  c.insert("u", 100, 0, 0);
  EXPECT_FALSE(c.has("u"));
}

TEST(MetricsTest, SpeedIndexWeightsRenderTimes) {
  // Two paints: weight 1 at 1s, weight 3 at 2s -> SI = 0.25*1000 + 0.75*2000.
  const double si = speed_index_ms(
      {{sim::seconds(1), 1.0}, {sim::seconds(2), 3.0}});
  EXPECT_NEAR(si, 1750.0, 1e-6);
  EXPECT_EQ(speed_index_ms({}), 0.0);
}

// End-to-end single-page loads via the harness composer.
class BrowserLoadTest : public ::testing::Test {
 protected:
  BrowserLoadTest() : page_(web::generate_page(42, 7, web::PageClass::News)) {}

  // Resources expected to load before onload (everything outside post-onload
  // ad subtrees).
  int expected_referenced() const {
    int n = 0;
    for (const auto& r : page_.resources()) {
      if (!page_.in_post_onload_subtree(r.id)) ++n;
    }
    return n;
  }

  web::PageModel page_;
  harness::RunOptions opt_;
};

TEST_F(BrowserLoadTest, Http2LoadFinishes) {
  auto r = harness::run_page_load(page_, baselines::http2_baseline(), opt_, 1);
  ASSERT_TRUE(r.finished);
  EXPECT_GT(r.plt, sim::seconds(1));
  EXPECT_LT(r.plt, sim::seconds(60));
  EXPECT_GT(r.bytes_fetched, 100'000);
  EXPECT_GT(r.requests, 20);
}

TEST_F(BrowserLoadTest, EveryReferencedResourceCompletes) {
  auto r = harness::run_page_load(page_, baselines::http2_baseline(), opt_, 1);
  ASSERT_TRUE(r.finished);
  int referenced = 0;
  for (const auto& t : r.timings) {
    if (!t.referenced) continue;
    ++referenced;
    EXPECT_NE(t.discovered, sim::kNever) << t.url;
    ASSERT_TRUE(t.template_id.has_value()) << t.url;
    if (!page_.resource(*t.template_id).blocks_onload) {
      continue;  // beacons may still be in flight when onload fires
    }
    EXPECT_NE(t.complete, sim::kNever) << t.url;
    EXPECT_NE(t.processed, sim::kNever) << t.url;
    EXPECT_LE(t.discovered, t.complete) << t.url;
    EXPECT_LE(t.complete, t.processed) << t.url;
  }
  // Everything outside post-onload ad subtrees should be referenced.
  EXPECT_EQ(referenced, expected_referenced());
}

TEST_F(BrowserLoadTest, MilestonesAreOrdered) {
  auto r = harness::run_page_load(page_, baselines::http2_baseline(), opt_, 1);
  ASSERT_TRUE(r.finished);
  EXPECT_NE(r.ttfb, sim::kNever);
  EXPECT_NE(r.first_paint, sim::kNever);
  EXPECT_NE(r.dom_content_loaded, sim::kNever);
  EXPECT_GT(r.ttfb, 0);
  EXPECT_LT(r.ttfb, r.first_paint);
  EXPECT_LE(r.first_paint, r.aft);
  EXPECT_LE(r.dom_content_loaded, r.plt);
  EXPECT_LE(r.aft, r.plt);
}

TEST_F(BrowserLoadTest, AftAndSpeedIndexWithinPlt) {
  auto r = harness::run_page_load(page_, baselines::http2_baseline(), opt_, 1);
  ASSERT_TRUE(r.finished);
  EXPECT_GT(r.aft, 0);
  EXPECT_LE(r.aft, r.plt);
  EXPECT_GT(r.speed_index_ms, 0);
  EXPECT_LE(r.speed_index_ms, sim::to_ms(r.plt));
}

TEST_F(BrowserLoadTest, NetWaitPositiveUnderBaseline) {
  auto r = harness::run_page_load(page_, baselines::http2_baseline(), opt_, 1);
  ASSERT_TRUE(r.finished);
  EXPECT_GT(r.net_wait_fraction(), 0.05);
  EXPECT_LT(r.net_wait_fraction(), 0.95);
}

TEST_F(BrowserLoadTest, Http1SlowerThanHttp2) {
  auto h1 = harness::run_page_load(page_, baselines::http11(), opt_, 1);
  auto h2 = harness::run_page_load(page_, baselines::http2_baseline(), opt_, 1);
  ASSERT_TRUE(h1.finished);
  ASSERT_TRUE(h2.finished);
  EXPECT_GT(h1.plt, h2.plt);
}

TEST_F(BrowserLoadTest, CpuBoundLowerBoundIgnoresNetwork) {
  auto r = harness::run_page_load(page_, baselines::lower_bound_cpu(), opt_, 1);
  ASSERT_TRUE(r.finished);
  // Nearly all load time is CPU work.
  EXPECT_GT(static_cast<double>(r.cpu_busy) / static_cast<double>(r.plt), 0.8);
}

TEST_F(BrowserLoadTest, NetworkBoundFetchesEverythingWithoutProcessing) {
  auto r =
      harness::run_page_load(page_, baselines::lower_bound_network(), opt_, 1);
  ASSERT_TRUE(r.finished);
  EXPECT_EQ(r.cpu_busy, 0);
  int fetched = 0;
  for (const auto& t : r.timings) {
    if (t.referenced) {
      ++fetched;
      EXPECT_EQ(t.discovered, 0) << "all URLs known at t=0";
    }
  }
  EXPECT_EQ(fetched, expected_referenced());
}

TEST_F(BrowserLoadTest, LowerBoundsAreLowerThanBaseline) {
  auto h2 = harness::run_page_load(page_, baselines::http2_baseline(), opt_, 1);
  auto netb =
      harness::run_page_load(page_, baselines::lower_bound_network(), opt_, 1);
  auto cpub =
      harness::run_page_load(page_, baselines::lower_bound_cpu(), opt_, 1);
  EXPECT_LT(netb.plt, h2.plt);
  EXPECT_LT(cpub.plt, h2.plt);
}

TEST_F(BrowserLoadTest, WarmCacheSpeedsUpRepeatLoad) {
  Cache cache;
  harness::RunOptions warm = opt_;
  warm.cache = &cache;
  auto cold = harness::run_page_load(page_, baselines::http2_baseline(), warm, 1);
  ASSERT_TRUE(cold.finished);
  EXPECT_GT(cache.size(), 10u);
  auto hot = harness::run_page_load(page_, baselines::http2_baseline(), warm, 2);
  ASSERT_TRUE(hot.finished);
  EXPECT_GT(hot.cache_hits, 10);
  EXPECT_LT(hot.plt, cold.plt);
  EXPECT_LT(hot.bytes_fetched, cold.bytes_fetched);
}

TEST_F(BrowserLoadTest, DeterministicAcrossRuns) {
  auto a = harness::run_page_load(page_, baselines::http2_baseline(), opt_, 1);
  auto b = harness::run_page_load(page_, baselines::http2_baseline(), opt_, 1);
  EXPECT_EQ(a.plt, b.plt);
  EXPECT_EQ(a.bytes_fetched, b.bytes_fetched);
}

// Onload fires once every onload-gating resource is processed *and* the root
// document has finished parsing. When the root document is itself the last
// gating item, both conditions come true in the same step; the load must
// still finish instead of running into the timeout.
TEST(BrowserOnload, RootOnlyPageFinishes) {
  web::PageModel page(1, web::PageClass::Top100, "solo.com");
  web::Resource root;
  root.id = 0;
  root.type = web::ResourceType::Html;
  root.base_size = 20000;
  root.domain = "solo.com";
  root.above_fold = true;
  page.add(root);
  harness::RunOptions opt;
  for (const baselines::Strategy& s :
       {baselines::http2_baseline(), baselines::vroom()}) {
    const LoadResult r = harness::run_page_load(page, s, opt, 1);
    EXPECT_TRUE(r.finished) << s.name;
    EXPECT_LT(r.plt, opt.timeout) << s.name;
    EXPECT_EQ(r.dom_content_loaded, r.plt) << s.name;
  }
}

// browser::serialize_load_result is the digest input for checking that two
// builds simulate identically, so the round trip through
// deserialize_load_result must reproduce every LoadResult field: a field
// the wire format drops would be invisible to the digest.
void expect_identical(const LoadResult& a, const LoadResult& b) {
  EXPECT_EQ(a.finished, b.finished);
  EXPECT_EQ(a.plt, b.plt);
  EXPECT_EQ(a.aft, b.aft);
  EXPECT_EQ(a.speed_index_ms, b.speed_index_ms);  // bitwise, not approx
  EXPECT_EQ(a.ttfb, b.ttfb);
  EXPECT_EQ(a.first_paint, b.first_paint);
  EXPECT_EQ(a.dom_content_loaded, b.dom_content_loaded);
  EXPECT_EQ(a.all_discovered, b.all_discovered);
  EXPECT_EQ(a.all_fetched, b.all_fetched);
  EXPECT_EQ(a.high_prio_discovered, b.high_prio_discovered);
  EXPECT_EQ(a.high_prio_fetched, b.high_prio_fetched);
  EXPECT_EQ(a.net_wait, b.net_wait);
  EXPECT_EQ(a.cpu_busy, b.cpu_busy);
  EXPECT_EQ(a.bytes_fetched, b.bytes_fetched);
  EXPECT_EQ(a.wasted_bytes, b.wasted_bytes);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.sim_events, b.sim_events);
  ASSERT_EQ(a.timings.size(), b.timings.size());
  for (std::size_t i = 0; i < a.timings.size(); ++i) {
    EXPECT_EQ(a.timings[i].url, b.timings[i].url);
    EXPECT_EQ(a.timings[i].template_id, b.timings[i].template_id);
    EXPECT_EQ(a.timings[i].referenced, b.timings[i].referenced);
    EXPECT_EQ(a.timings[i].processable, b.timings[i].processable);
    EXPECT_EQ(a.timings[i].in_iframe, b.timings[i].in_iframe);
    EXPECT_EQ(a.timings[i].hinted, b.timings[i].hinted);
    EXPECT_EQ(a.timings[i].pushed, b.timings[i].pushed);
    EXPECT_EQ(a.timings[i].from_cache, b.timings[i].from_cache);
    EXPECT_EQ(a.timings[i].bytes, b.timings[i].bytes);
    EXPECT_EQ(a.timings[i].discovered, b.timings[i].discovered);
    EXPECT_EQ(a.timings[i].requested, b.timings[i].requested);
    EXPECT_EQ(a.timings[i].complete, b.timings[i].complete);
    EXPECT_EQ(a.timings[i].processed, b.timings[i].processed);
  }
  ASSERT_EQ(a.trace_counters.size(), b.trace_counters.size());
  for (std::size_t i = 0; i < a.trace_counters.size(); ++i) {
    EXPECT_EQ(a.trace_counters[i], b.trace_counters[i]);
  }
}

TEST(LoadResultSerialization, RealLoadRoundTripsEveryField) {
  ScopedEnv trace_env("VROOM_TRACE", nullptr);
  const web::PageModel page = web::generate_page(42, 5, web::PageClass::News);
  harness::RunOptions opt;
  // Trace so the trace_counters snapshot is non-empty and round-trips too.
  opt.trace_sink = [](const trace::Recorder&) {};
  const auto r = harness::run_page_load(page, baselines::vroom(), opt, 1);
  ASSERT_TRUE(r.finished);
  ASSERT_FALSE(r.timings.empty());
  ASSERT_FALSE(r.trace_counters.empty());

  const std::string bytes = serialize_load_result(r);
  LoadResult back;
  ASSERT_TRUE(deserialize_load_result(bytes, &back));
  expect_identical(r, back);
}

TEST(LoadResultSerialization, SentinelAndEdgeValuesSurvive) {
  LoadResult r;
  r.finished = false;
  r.plt = sim::kNever;
  r.aft = sim::kNever;
  r.speed_index_ms = 1.0 / 3.0;
  r.net_wait = -1;  // sign must survive the unsigned wire format
  ResourceTiming t;
  t.url = "https://example.com/a?x=1&y=2";
  t.template_id = std::nullopt;
  t.discovered = sim::kNever;
  r.timings.push_back(t);
  r.trace_counters.emplace_back("net.bytes", INT64_MAX);

  LoadResult back;
  ASSERT_TRUE(deserialize_load_result(serialize_load_result(r), &back));
  expect_identical(r, back);
  EXPECT_FALSE(back.timings[0].template_id.has_value());
}

TEST(LoadResultSerialization, RejectsCorruptBytes) {
  LoadResult r;
  r.plt = sim::ms(1234);
  const std::string bytes = serialize_load_result(r);
  LoadResult out;
  EXPECT_FALSE(deserialize_load_result("", &out));
  for (std::size_t cut : {std::size_t{1}, bytes.size() / 2,
                          bytes.size() - 1}) {
    EXPECT_FALSE(
        deserialize_load_result(std::string_view(bytes).substr(0, cut), &out))
        << "truncated at " << cut;
  }
  EXPECT_FALSE(deserialize_load_result(bytes + "x", &out));
  std::string wrong_version = bytes;
  wrong_version[0] = static_cast<char>(wrong_version[0] + 1);
  EXPECT_FALSE(deserialize_load_result(wrong_version, &out));
}

}  // namespace
}  // namespace vroom::browser
