// Tests for the EventLoop internals: FIFO lanes of records keep the
// (time, seq) order of the plain heap exactly, storage reuse via
// reset()/PooledEventLoop, callbacks that run in slots which never move, and
// the SmallFn small-buffer callable the slab stores.
#include <cstddef>
#include <cstdint>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_loop.h"
#include "sim/small_fn.h"
#include "sim/time.h"

namespace vroom::sim {
namespace {

// What a script observed: every fired event as (now(), event id), every
// run() return value, and the events still pending when it stopped.
struct ScriptRun {
  std::vector<std::pair<Time, int>> fired;
  std::vector<std::size_t> run_counts;
  std::size_t pending_at_stop = 0;
};

// A seeded random event script. Events are drawn as they fire, so two runs
// of one seed draw the same events only while they fire them in the same
// order. Each event is a record posted on a lane or a closure scheduled on
// the heap: with `use_lanes` false every event is a closure, with the same
// draws.
class LaneScript {
 public:
  LaneScript(EventLoop& loop, std::uint64_t seed, bool use_lanes)
      : loop_(loop), rng_(seed), use_lanes_(use_lanes) {
    for (int i = draw(4); i >= 0; --i) {
      lanes_.push_back(loop_.add_lane());
      lane_delay_.push_back(10 * (3 + draw(5)));
    }
  }

  ScriptRun run() {
    for (int i = 0; i < 30; ++i) add_event();
    // run(until) stops wherever `until` falls, often between two events of
    // one lane; more events arrive from outside between the runs. The
    // script stops at a drawn horizon, often with events still pending.
    const Time horizon = 100 + 20 * draw(30);
    Time until = 0;
    while (!loop_.empty() && until < horizon) {
      until += 1 + draw(40);
      out_.run_counts.push_back(loop_.run(until));
      if (draw(3) == 0) add_event();
    }
    out_.pending_at_stop = loop_.pending();
    return out_;
  }

 private:
  int draw(int n) {
    return static_cast<int>(rng_() % static_cast<std::uint64_t>(n));
  }

  void add_event() {
    const int id = next_id_++;
    const std::size_t pick = static_cast<std::size_t>(
        draw(static_cast<int>(lanes_.size()) + 1));
    const bool on_lane = use_lanes_ && pick < lanes_.size();
    Time at = loop_.now();  // simultaneous with the running event
    switch (draw(4)) {
      case 0:
        break;
      case 1:  // in the past: clamped to now()
        at -= 10;
        break;
      case 2:  // often earlier than the lane's latest event
        at += 10 * draw(3);
        break;
      default:  // the lane's own delay line, in time order
        at += pick < lanes_.size() ? lane_delay_[pick] : 10 * draw(8);
        break;
    }
    const bool relative = draw(2) == 0;
    auto fire = [this, id] { on_fire(id); };
    if (on_lane) {
      loop_.post(lanes_[pick], at,
                 lane_record<&LaneScript::on_record>(
                     this, static_cast<std::uint32_t>(id)));
    } else if (relative) {
      loop_.schedule_in(at - loop_.now(), fire);
    } else {
      loop_.schedule_at(at, fire);
    }
  }

  void on_record(std::uint32_t id, std::int64_t) {
    on_fire(static_cast<int>(id));
  }

  void on_fire(int id) {
    out_.fired.emplace_back(loop_.now(), id);
    if (next_id_ >= 1000) return;
    for (int children = draw(3); children > 0; --children) add_event();
  }

  EventLoop& loop_;
  std::mt19937_64 rng_;
  bool use_lanes_;
  std::vector<LaneId> lanes_;
  std::vector<Time> lane_delay_;
  ScriptRun out_;
  int next_id_ = 0;
};

TEST(EventLoopLaneTest, LanesKeepTheHeapOrderExactly) {
  // One loop reset between scripts, and the thread's pooled loop reused
  // across them: each often starts where the previous script stopped with
  // lane events pending.
  EventLoop reused;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    EventLoop fresh;
    const ScriptRun expected = LaneScript(fresh, seed, false).run();
    reused.reset();
    const ScriptRun after_reset = LaneScript(reused, seed, true).run();
    ScriptRun pooled_run;
    {
      PooledEventLoop pooled;
      pooled_run = LaneScript(*pooled, seed, true).run();
    }
    for (const ScriptRun& got : {after_reset, pooled_run}) {
      EXPECT_EQ(got.fired, expected.fired) << "seed " << seed;
      EXPECT_EQ(got.run_counts, expected.run_counts) << "seed " << seed;
      EXPECT_EQ(got.pending_at_stop, expected.pending_at_stop)
          << "seed " << seed;
    }
  }
}

// Records what fired: the record's index and value, at now().
struct RecordLog {
  explicit RecordLog(EventLoop& l) : loop(&l) {}
  EventLoop* loop;
  std::vector<std::tuple<Time, std::uint32_t, std::int64_t>> fired;
  void hit(std::uint32_t index, std::int64_t value) {
    fired.emplace_back(loop->now(), index, value);
  }
  void raise(std::uint32_t index, std::int64_t) {
    throw std::runtime_error("record " + std::to_string(index));
  }
};

TEST(EventLoopLaneTest, UnknownLaneThrows) {
  EventLoop loop;
  RecordLog log(loop);
  const LaneRecord record = lane_record<&RecordLog::hit>(&log);
  EXPECT_THROW(loop.post(LaneId{}, ms(1), record), std::out_of_range);
  const LaneId lane = loop.add_lane();
  loop.post(lane, ms(1), record);
  loop.reset();  // closes every lane
  EXPECT_THROW(loop.post(lane, ms(1), record), std::out_of_range);
  EXPECT_TRUE(loop.empty());
  EXPECT_EQ(loop.run(), 0u);
  EXPECT_TRUE(log.fired.empty());
}

TEST(EventLoopLaneTest, RecordsCarryTheirArgumentsInOrder) {
  // Three records on one lane, one earlier than the lane's latest (so it
  // goes through the heap), and a closure tied in time with a record
  // posted before it.
  EventLoop loop;
  RecordLog log(loop);
  const LaneId lane = loop.add_lane();
  loop.post(lane, ms(2), lane_record<&RecordLog::hit>(&log, 1, -7));
  loop.post(lane, ms(5), lane_record<&RecordLog::hit>(&log, 2, 1LL << 40));
  loop.post(lane, ms(3), lane_record<&RecordLog::hit>(&log, 3, 0));
  loop.schedule_at(ms(2), [&log] { log.hit(4, 4); });
  EXPECT_EQ(loop.pending(), 4u);
  EXPECT_EQ(loop.run(), 4u);
  using Fired = std::tuple<Time, std::uint32_t, std::int64_t>;
  EXPECT_EQ(log.fired, (std::vector<Fired>{{ms(2), 1, -7},
                                           {ms(2), 4, 4},
                                           {ms(3), 3, 0},
                                           {ms(5), 2, 1LL << 40}}));
}

TEST(EventLoopLaneTest, ThrowingRecordLeavesLoopReusable) {
  EventLoop loop;
  RecordLog log(loop);
  const LaneId lane = loop.add_lane();
  loop.post(lane, ms(1), lane_record<&RecordLog::raise>(&log, 9));
  loop.post(lane, ms(2), lane_record<&RecordLog::hit>(&log, 1));
  loop.schedule_at(ms(3), [&log] { log.hit(2, 0); });

  // The exception reaches run()'s caller; the record counts as run, and
  // the lane's next record still fires after it.
  EXPECT_THROW(loop.run(), std::runtime_error);
  EXPECT_EQ(loop.now(), ms(1));
  EXPECT_EQ(loop.pending(), 2u);
  EXPECT_EQ(loop.run(), 2u);
  using Fired = std::tuple<Time, std::uint32_t, std::int64_t>;
  EXPECT_EQ(log.fired, (std::vector<Fired>{{ms(2), 1, 0}, {ms(3), 2, 0}}));

  // A throw with records still pending, then a reset: the pool is reused.
  loop.post(lane, ms(4), lane_record<&RecordLog::raise>(&log, 8));
  loop.post(lane, ms(5), lane_record<&RecordLog::hit>(&log, 3));
  EXPECT_THROW(loop.run(), std::runtime_error);
  loop.reset();
  EXPECT_TRUE(loop.empty());
  log.fired.clear();
  const LaneId reopened = loop.add_lane();
  for (std::uint32_t i = 0; i < 3; ++i) {
    loop.post(reopened, ms(1 + i), lane_record<&RecordLog::hit>(&log, i));
  }
  EXPECT_EQ(loop.run(), 3u);
  EXPECT_EQ(log.fired, (std::vector<Fired>{{ms(1), 0, 0},
                                           {ms(2), 1, 0},
                                           {ms(3), 2, 0}}));
}

TEST(EventLoopResetTest, ResetRestoresFreshState) {
  EventLoop loop;
  int count = 0;
  loop.schedule_at(ms(10), [&] { ++count; });
  loop.schedule_at(ms(20), [&] { ++count; });
  loop.run();
  EXPECT_EQ(loop.now(), ms(20));

  loop.reset();
  EXPECT_EQ(loop.now(), 0);
  EXPECT_TRUE(loop.empty());
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_EQ(loop.recorder(), nullptr);

  // A reset loop behaves exactly like a fresh one, ordering included.
  std::vector<int> order;
  loop.schedule_at(ms(5), [&] { order.push_back(1); });
  loop.schedule_at(ms(5), [&] { order.push_back(2); });
  loop.schedule_at(ms(1), [&] { order.push_back(0); });
  EXPECT_EQ(loop.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// A closure too large for SmallFn's inline buffer, stored on the heap.
struct Oversized {
  std::uint64_t pad[8] = {};
};
static_assert(sizeof(Oversized) > SmallFn::kInlineSize);

TEST(EventLoopResetTest, ResetDropsUnfiredCallbacks) {
  EventLoop loop;
  RecordLog log(loop);
  auto fired = std::make_shared<int>(1);
  auto plain = std::make_shared<int>(2);
  auto oversized = std::make_shared<int>(5);
  const std::weak_ptr<int> fired_watch = fired;
  const std::vector<std::weak_ptr<int>> pending = {plain, oversized};
  const LaneId lane = loop.add_lane();
  loop.schedule_at(ms(1), [keep = std::move(fired)] {});
  loop.schedule_at(ms(10), [keep = std::move(plain)] {});
  loop.post(lane, ms(10), lane_record<&RecordLog::hit>(&log, 1));
  // Waits in the lane behind its head, outside the heap.
  loop.post(lane, ms(20), lane_record<&RecordLog::hit>(&log, 2));
  loop.schedule_at(ms(30), [big = Oversized{}, keep = std::move(oversized)] {
    (void)big;
  });

  // A fired closure is destroyed as soon as it has run.
  EXPECT_EQ(loop.run(ms(1)), 1u);
  EXPECT_TRUE(fired_watch.expired());
  for (const auto& watch : pending) EXPECT_FALSE(watch.expired());

  loop.reset();
  for (const auto& watch : pending) {
    EXPECT_TRUE(watch.expired());  // reset released the closure
  }
  EXPECT_TRUE(loop.empty());
  // Neither record survives the reset.
  EXPECT_EQ(loop.run(), 0u);
  EXPECT_TRUE(log.fired.empty());
}

TEST(EventLoopResetTest, PooledLoopReuseIsTransparent) {
  // Two consecutive pooled loops on one thread share storage; the second
  // must still start from a pristine state.
  {
    PooledEventLoop pooled;
    pooled->schedule_at(ms(100), [] {});
    pooled->run();
    EXPECT_EQ(pooled->now(), ms(100));
  }
  {
    PooledEventLoop pooled;
    EXPECT_EQ(pooled->now(), 0);
    EXPECT_TRUE(pooled->empty());
    int fired = 0;
    pooled->schedule_at(ms(1), [&] { ++fired; });
    EXPECT_EQ(pooled->run(), 1u);
    EXPECT_EQ(fired, 1);
  }
}

TEST(EventLoopTest, CallbackStateSurvivesSlabGrowth) {
  // A callback runs in its slab slot. While it runs it schedules several
  // chunks' worth of events, then reads its own captures: the slot must not
  // have moved (under ASan a moved slot is a use after free).
  EventLoop loop;
  const std::size_t added = 4 * EventLoop::kChunkSlots;
  std::uint64_t sum = 0;
  int fired = 0;
  auto grow = [&loop, &sum, &fired, added, a = std::uint64_t{7},
               b = std::uint64_t{35}] {
    for (std::size_t i = 0; i < added; ++i) {
      loop.schedule_in(ms(1), [&fired] { ++fired; });
    }
    sum = a + b + added;
  };
  static_assert(sizeof(grow) <= SmallFn::kInlineSize, "stored in the slot");
  loop.schedule_at(ms(1), grow);
  EXPECT_EQ(loop.run(), added + 1);
  EXPECT_EQ(sum, 42 + added);
  EXPECT_EQ(fired, static_cast<int>(added));
}

TEST(EventLoopTest, ThrowingCallbackLeavesLoopReusable) {
  for (const bool inline_closure : {true, false}) {
    EventLoop loop;
    auto token = std::make_shared<int>(1);
    const std::weak_ptr<int> watch = token;
    int later = 0;
    if (inline_closure) {
      loop.schedule_at(ms(1), [keep = std::move(token)] {
        throw std::runtime_error("inline");
      });
    } else {
      loop.schedule_at(ms(1), [big = Oversized{}, keep = std::move(token)] {
        (void)big;
        throw std::runtime_error("oversized");
      });
    }
    loop.schedule_at(ms(2), [&later] { ++later; });

    // The exception reaches run()'s caller; the event counts as run and its
    // closure is destroyed.
    EXPECT_THROW(loop.run(), std::runtime_error);
    EXPECT_TRUE(watch.expired());
    EXPECT_EQ(loop.now(), ms(1));
    EXPECT_EQ(loop.pending(), 1u);

    loop.reset();
    EXPECT_TRUE(loop.empty());
    std::vector<int> order;
    for (int i = 0; i < 3; ++i) {
      loop.schedule_in(ms(3 - i), [&order, i] { order.push_back(i); });
    }
    EXPECT_EQ(loop.run(), 3u);
    EXPECT_EQ(order, (std::vector<int>{2, 1, 0}));
    EXPECT_EQ(later, 0);
  }
}

TEST(SmallFnTest, InlineAndHeapClosuresInvoke) {
  int hits = 0;
  SmallFn small([&hits] { ++hits; });
  small();
  EXPECT_EQ(hits, 1);

  // Oversized capture forces the heap fallback.
  struct Big {
    std::uint64_t pad[16];
  };
  Big big{};
  big.pad[0] = 41;
  SmallFn large([big, &hits] { hits += static_cast<int>(big.pad[0]); });
  large();
  EXPECT_EQ(hits, 42);
}

TEST(SmallFnTest, MoveTransfersOwnership) {
  auto token = std::make_shared<int>(5);
  std::weak_ptr<int> watch = token;
  SmallFn a([keep = std::move(token)] {});
  SmallFn b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(b));
  EXPECT_FALSE(watch.expired());
  b.reset();
  EXPECT_TRUE(watch.expired());
}

TEST(SmallFnTest, MoveOnlyCapturesWork) {
  auto owned = std::make_unique<std::string>("payload");
  std::string got;
  SmallFn fn([p = std::move(owned), &got] { got = *p; });
  fn();
  EXPECT_EQ(got, "payload");
}

}  // namespace
}  // namespace vroom::sim
