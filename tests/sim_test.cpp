#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

#include "sim/event_loop.h"
#include "sim/random.h"
#include "sim/time.h"

namespace vroom::sim {
namespace {

TEST(TimeTest, Conversions) {
  EXPECT_EQ(ms(1), 1000);
  EXPECT_EQ(seconds(1), 1'000'000);
  EXPECT_EQ(hours(1), 3'600'000'000LL);
  EXPECT_EQ(days(2), 2 * 86'400'000'000LL);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(3)), 3.0);
  EXPECT_EQ(from_seconds(1.5), 1'500'000);
  EXPECT_EQ(from_seconds(0.0000005), 1);  // rounds to nearest microsecond
}

TEST(EventLoopTest, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(ms(30), [&] { order.push_back(3); });
  loop.schedule_at(ms(10), [&] { order.push_back(1); });
  loop.schedule_at(ms(20), [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), ms(30));
}

TEST(EventLoopTest, SimultaneousEventsRunInInsertionOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.schedule_at(ms(5), [&order, i] { order.push_back(i); });
  }
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoopTest, ScheduleInIsRelative) {
  EventLoop loop;
  Time fired = -1;
  loop.schedule_at(ms(10), [&] {
    loop.schedule_in(ms(25), [&] { fired = loop.now(); });
  });
  loop.run();
  EXPECT_EQ(fired, ms(35));
}

TEST(EventLoopTest, PastSchedulingClampsToNow) {
  EventLoop loop;
  Time fired = -1;
  loop.schedule_at(ms(10), [&] {
    loop.schedule_at(ms(1), [&] { fired = loop.now(); });
  });
  loop.run();
  EXPECT_EQ(fired, ms(10));
}

TEST(EventLoopTest, RunUntilStopsEarly) {
  EventLoop loop;
  int count = 0;
  loop.schedule_at(ms(10), [&] { ++count; });
  loop.schedule_at(ms(50), [&] { ++count; });
  loop.run(ms(20));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(loop.pending(), 1u);
  loop.run();
  EXPECT_EQ(count, 2);
}

TEST(EventLoopTest, EventsCanScheduleMoreEvents) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) loop.schedule_in(ms(1), chain);
  };
  loop.schedule_in(ms(1), chain);
  loop.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(loop.now(), ms(100));
}

TEST(RandomTest, DeterministicPerSeed) {
  Rng a(123, "x"), b(123, "x"), c(123, "y");
  const double va = a.uniform(), vb = b.uniform(), vc = c.uniform();
  EXPECT_DOUBLE_EQ(va, vb);
  EXPECT_NE(va, vc);
}

TEST(RandomTest, DeriveSeedDecorrelatesPurposes) {
  EXPECT_NE(derive_seed(1, "a"), derive_seed(1, "b"));
  EXPECT_NE(derive_seed(1, "a"), derive_seed(2, "a"));
  EXPECT_EQ(derive_seed(7, "p"), derive_seed(7, "p"));
}

TEST(RandomTest, UniformIntInRange) {
  Rng rng(99, "t");
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
  }
}

TEST(RandomTest, LognormalMedianApproximatelyCorrect) {
  Rng rng(4, "ln");
  std::vector<double> v;
  for (int i = 0; i < 20000; ++i) v.push_back(rng.lognormal(1000, 0.8));
  std::sort(v.begin(), v.end());
  const double med = v[v.size() / 2];
  EXPECT_NEAR(med, 1000, 60);
}

TEST(RandomTest, ChanceExtremes) {
  Rng rng(5, "c");
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(RandomTest, WeightedRespectsZeroWeight) {
  Rng rng(6, "w");
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(rng.weighted({0.0, 1.0, 0.0}), 1u);
  }
}

TEST(RandomTest, StreamHeadMatchesMt19937_64) {
  // Outputs 0..400 cross the switch to the full engine at output 156.
  std::vector<std::uint64_t> seeds = {0, 1, ~std::uint64_t{0}};
  for (std::uint64_t i = 0; i < 100000; ++i) seeds.push_back(derive_seed(9, i));
  for (const std::uint64_t seed : seeds) {
    std::mt19937_64 engine(seed);
    Mt64Lazy lazy(seed);
    for (int k = 0; k <= 400; ++k) {
      ASSERT_EQ(lazy(), engine()) << "seed " << seed << " output " << k;
    }
  }
}

// Batches below, at and past the eight interleaved chains, and a batch
// long enough that every lane position meets many seeds.
TEST(RandomTest, BatchedFirstWordsMatchMt19937_64) {
  for (const std::size_t n : {0, 1, 7, 8, 9, 1000}) {
    std::vector<std::uint64_t> seeds;
    for (std::size_t i = 0; i < n; ++i) seeds.push_back(derive_seed(5, i));
    if (n > 0) seeds.front() = 0;
    if (n > 1) seeds.back() = ~std::uint64_t{0};
    std::vector<std::uint64_t> words = seeds;
    mt64_first_words(words);
    ASSERT_EQ(words.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(words[i], std::mt19937_64(seeds[i])())
          << "batch " << n << ", seed " << seeds[i];
    }
  }
}

TEST(RandomTest, DrawsOverStreamHeadMatchRng) {
  // The population's trait draws (weighted, then chance) and a domain's
  // RTT draw (lognormal, whose normal draw may reject and draw again).
  const std::vector<double> weights = {0.45, 0.30, 0.25};
  for (std::uint64_t user = 0; user < 2000; ++user) {
    const std::uint64_t seed = derive_seed(42, user);
    Rng rng(seed);
    Mt64Lazy lazy(seed);
    ASSERT_EQ(weighted(lazy, weights), rng.weighted(weights));
    ASSERT_EQ(chance(lazy, 0.55), rng.chance(0.55));
    // A few streams draw long enough to reach the full engine.
    const int draws = user < 20 ? 100 : 3;
    for (int draw = 0; draw < draws; ++draw) {
      ASSERT_EQ(lognormal(lazy, 55000.0, 0.6), rng.lognormal(55000.0, 0.6))
          << "seed " << seed;
    }
  }
  Mt64Lazy lazy(1);
  EXPECT_THROW(weighted(lazy, {0.0, 0.0}), std::invalid_argument);
}

}  // namespace
}  // namespace vroom::sim
