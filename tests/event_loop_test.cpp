// Tests for the EventLoop internals: FIFO lanes of records keep the
// (time, seq) order of the plain heap exactly, storage reuse via
// reset()/PooledEventLoop, records whose arguments survive pool growth, a
// throwing event that leaves the loop reusable, and the SmallFn small-buffer
// callable the layer callbacks use.
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

#include "closure_table.h"
#include "sim/event_loop.h"
#include "sim/small_fn.h"
#include "sim/time.h"

namespace vroom::sim {
namespace {

using testutil::ClosureTable;

// What a script observed: every fired event as (now(), event id), every
// run() return value, and the events still pending when it stopped.
struct ScriptRun {
  std::vector<std::pair<Time, int>> fired;
  std::vector<std::size_t> run_counts;
  std::size_t pending_at_stop = 0;
};

// A seeded random event script. Events are drawn as they fire, so two runs
// of one seed draw the same events only while they fire them in the same
// order. Each event is a record posted on a lane or scheduled on the plain
// heap: with `use_lanes` false every record goes to the plain heap, with
// the same draws.
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
    const Record fire = make_record<&LaneScript::on_fire>(
        this, static_cast<std::uint32_t>(id));
    if (on_lane) {
      loop_.post(lanes_[pick], at, fire);
    } else if (relative) {
      loop_.schedule_in(at - loop_.now(), fire);
    } else {
      loop_.schedule_at(at, fire);
    }
  }

  void on_fire(std::uint32_t id, std::int64_t) {
    out_.fired.emplace_back(loop_.now(), static_cast<int>(id));
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
  const Record record = make_record<&RecordLog::hit>(&log);
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
  // goes through the heap), and one off the lane tied in time with a record
  // posted before it.
  EventLoop loop;
  RecordLog log(loop);
  const LaneId lane = loop.add_lane();
  loop.post(lane, ms(2), make_record<&RecordLog::hit>(&log, 1, -7));
  loop.post(lane, ms(5), make_record<&RecordLog::hit>(&log, 2, 1LL << 40));
  loop.post(lane, ms(3), make_record<&RecordLog::hit>(&log, 3, 0));
  loop.schedule_at(ms(2), make_record<&RecordLog::hit>(&log, 4, 4));
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
  loop.post(lane, ms(1), make_record<&RecordLog::raise>(&log, 9));
  loop.post(lane, ms(2), make_record<&RecordLog::hit>(&log, 1));
  loop.schedule_at(ms(3), make_record<&RecordLog::raise>(&log, 7));
  loop.schedule_at(ms(4), make_record<&RecordLog::hit>(&log, 2));

  // The exception reaches run()'s caller; the record counts as run, and
  // the lane's next record still fires after it. A record off the lane
  // throws the same way.
  EXPECT_THROW(loop.run(), std::runtime_error);
  EXPECT_EQ(loop.now(), ms(1));
  EXPECT_EQ(loop.pending(), 3u);
  EXPECT_THROW(loop.run(), std::runtime_error);
  EXPECT_EQ(loop.now(), ms(3));
  EXPECT_EQ(loop.pending(), 1u);
  EXPECT_EQ(loop.run(), 1u);
  using Fired = std::tuple<Time, std::uint32_t, std::int64_t>;
  EXPECT_EQ(log.fired, (std::vector<Fired>{{ms(2), 1, 0}, {ms(4), 2, 0}}));

  // A throw with records still pending, on and off the lane, then a reset:
  // none of them fires, and the pool is reused.
  loop.post(lane, ms(5), make_record<&RecordLog::raise>(&log, 8));
  loop.post(lane, ms(6), make_record<&RecordLog::hit>(&log, 3));
  loop.schedule_at(ms(7), make_record<&RecordLog::hit>(&log, 4));
  EXPECT_THROW(loop.run(), std::runtime_error);
  loop.reset();
  EXPECT_TRUE(loop.empty());
  log.fired.clear();
  const LaneId reopened = loop.add_lane();
  for (std::uint32_t i = 0; i < 3; ++i) {
    loop.post(reopened, ms(1 + i), make_record<&RecordLog::hit>(&log, i));
    loop.schedule_in(ms(3 - i), make_record<&RecordLog::hit>(&log, 10 + i));
  }
  EXPECT_EQ(loop.run(), 6u);
  EXPECT_EQ(log.fired, (std::vector<Fired>{{ms(1), 0, 0},
                                           {ms(1), 12, 0},
                                           {ms(2), 1, 0},
                                           {ms(2), 11, 0},
                                           {ms(3), 10, 0},
                                           {ms(3), 2, 0}}));
}

TEST(EventLoopResetTest, ResetRestoresFreshState) {
  EventLoop loop;
  RecordLog log(loop);
  loop.schedule_at(ms(10), make_record<&RecordLog::hit>(&log));
  loop.schedule_at(ms(20), make_record<&RecordLog::hit>(&log));
  EXPECT_EQ(loop.run(), 2u);
  EXPECT_EQ(loop.now(), ms(20));

  loop.reset();
  EXPECT_EQ(loop.now(), 0);
  EXPECT_TRUE(loop.empty());
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_EQ(loop.recorder(), nullptr);

  // A reset loop behaves exactly like a fresh one, ordering included.
  log.fired.clear();
  loop.schedule_at(ms(5), make_record<&RecordLog::hit>(&log, 1));
  loop.schedule_at(ms(5), make_record<&RecordLog::hit>(&log, 2));
  loop.schedule_at(ms(1), make_record<&RecordLog::hit>(&log, 0));
  EXPECT_EQ(loop.run(), 3u);
  using Fired = std::tuple<Time, std::uint32_t, std::int64_t>;
  EXPECT_EQ(log.fired, (std::vector<Fired>{{ms(1), 0, 0},
                                           {ms(5), 1, 0},
                                           {ms(5), 2, 0}}));
}

TEST(EventLoopResetTest, ResetDropsUnfiredCallbacks) {
  // The loop owns no closures, so a reset only forgets its records: none
  // of them fires afterwards, whether it waited in the heap or in a lane.
  EventLoop loop;
  RecordLog log(loop);
  const LaneId lane = loop.add_lane();
  loop.schedule_at(ms(1), make_record<&RecordLog::hit>(&log, 0));
  loop.schedule_at(ms(10), make_record<&RecordLog::hit>(&log, 1));
  loop.post(lane, ms(10), make_record<&RecordLog::hit>(&log, 2));
  // Waits in the lane behind its head, outside the heap.
  loop.post(lane, ms(20), make_record<&RecordLog::hit>(&log, 3));
  loop.schedule_at(ms(30), make_record<&RecordLog::hit>(&log, 4));

  EXPECT_EQ(loop.run(ms(1)), 1u);
  EXPECT_EQ(loop.pending(), 4u);
  loop.reset();
  EXPECT_TRUE(loop.empty());
  // No record survives the reset.
  EXPECT_EQ(loop.run(), 0u);
  using Fired = std::tuple<Time, std::uint32_t, std::int64_t>;
  EXPECT_EQ(log.fired, (std::vector<Fired>{{ms(1), 0, 0}}));
}

TEST(EventLoopResetTest, PooledLoopReuseIsTransparent) {
  // Two consecutive pooled loops on one thread share storage; the second
  // must still start from a pristine state.
  {
    PooledEventLoop pooled;
    RecordLog log(*pooled);
    pooled->schedule_at(ms(100), make_record<&RecordLog::hit>(&log));
    pooled->run();
    EXPECT_EQ(pooled->now(), ms(100));
  }
  {
    PooledEventLoop pooled;
    EXPECT_EQ(pooled->now(), 0);
    EXPECT_TRUE(pooled->empty());
    RecordLog log(*pooled);
    pooled->schedule_at(ms(1), make_record<&RecordLog::hit>(&log));
    EXPECT_EQ(pooled->run(), 1u);
    EXPECT_EQ(log.fired.size(), 1u);
  }
}

// While its first record runs, schedules `added` more, then reads that
// record's arguments.
struct PoolGrower {
  EventLoop& loop;
  std::size_t added;
  std::uint64_t sum = 0;
  int fired = 0;
  void grow(std::uint32_t index, std::int64_t value) {
    for (std::size_t i = 0; i < added; ++i) {
      loop.schedule_in(ms(1), make_record<&PoolGrower::count>(this));
    }
    sum = index + static_cast<std::uint64_t>(value) + added;
  }
  void count(std::uint32_t, std::int64_t) { ++fired; }
};

TEST(EventLoopTest, RecordArgumentsSurvivePoolGrowth) {
  // A record runs from a copy taken out of its node. While it runs it
  // schedules four times the pool's first capacity, which reallocates the
  // pool, then reads its own arguments: under ASan a record read from the
  // old pool is a use after free.
  EventLoop loop;
  PoolGrower grower{loop, 4 * EventLoop::kFirstPoolNodes};
  loop.schedule_at(ms(1), make_record<&PoolGrower::grow>(&grower, 7, 35));
  EXPECT_EQ(loop.run(), grower.added + 1);
  EXPECT_EQ(grower.sum, 42 + grower.added);
  EXPECT_EQ(grower.fired, static_cast<int>(grower.added));
}

// A closure too large for SmallFn's inline buffer, stored on the heap.
struct Oversized {
  std::uint64_t pad[8] = {};
};
static_assert(sizeof(Oversized) > SmallFn::kInlineSize);

TEST(EventLoopTest, ThrowingCallbackLeavesLoopReusable) {
  // Ordinary events off any lane, each a record that runs a closure of a
  // ClosureTable, with the closure stored inline and on the heap.
  for (const bool inline_closure : {true, false}) {
    EventLoop loop;
    ClosureTable table(loop);
    auto token = std::make_shared<int>(1);
    const std::weak_ptr<int> watch = token;
    int later = 0;
    if (inline_closure) {
      table.schedule_at(ms(1), [keep = std::move(token)] {
        throw std::runtime_error("inline");
      });
    } else {
      table.schedule_at(ms(1), [big = Oversized{}, keep = std::move(token)] {
        (void)big;
        throw std::runtime_error("oversized");
      });
    }
    table.schedule_at(ms(2), [&later] { ++later; });

    // The exception reaches run()'s caller; the event counts as run and its
    // closure is destroyed as the exception leaves it.
    EXPECT_THROW(loop.run(), std::runtime_error);
    EXPECT_TRUE(watch.expired());
    EXPECT_EQ(loop.now(), ms(1));
    EXPECT_EQ(loop.pending(), 1u);

    loop.reset();
    EXPECT_TRUE(loop.empty());
    std::vector<int> order;
    for (int i = 0; i < 3; ++i) {
      table.schedule_in(ms(3 - i), [&order, i] { order.push_back(i); });
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
