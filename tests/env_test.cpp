// harness::Env — the single parse point for every VROOM_* variable. Parsing
// must re-read the environment each call, reject malformed integers with a
// warning (not a crash or a silent garbage value), and keep each knob's
// documented default when unset.
#include "harness/env.h"

#include <string>

#include <gtest/gtest.h>

#include "scoped_env.h"

namespace vroom {
namespace {

using testutil::ScopedEnv;

// Clears every variable Env reads, so one test's environment can't leak into
// another's expectations (the surrounding shell may set any of them).
struct CleanEnv {
  ScopedEnv jobs{"VROOM_JOBS", nullptr};
  ScopedEnv trace{"VROOM_TRACE", nullptr};
  ScopedEnv out{"VROOM_OUT_DIR", nullptr};
  ScopedEnv metrics{"VROOM_METRICS", nullptr};
  ScopedEnv profile{"VROOM_PROFILE", nullptr};
};

TEST(Env, DefaultsWhenUnset) {
  CleanEnv clean;
  const harness::Env env = harness::Env::from_environment();
  EXPECT_EQ(env.jobs, 0);
  EXPECT_EQ(env.trace_dir, "");
  EXPECT_EQ(env.out_dir, "");
  EXPECT_FALSE(env.trace_enabled());
  EXPECT_EQ(env.metrics_dir, "");
  EXPECT_FALSE(env.metrics_enabled());
  EXPECT_FALSE(env.profile);
}

TEST(Env, MetricsAndProfileKnobs) {
  CleanEnv clean;
  {
    ScopedEnv metrics("VROOM_METRICS", "/tmp/vroom-metrics");
    const harness::Env env = harness::Env::from_environment();
    EXPECT_EQ(env.metrics_dir, "/tmp/vroom-metrics");
    EXPECT_TRUE(env.metrics_enabled());
  }
  {
    // "0" and "" stay off; any other value turns profiling on.
    ScopedEnv profile("VROOM_PROFILE", "0");
    EXPECT_FALSE(harness::Env::from_environment().profile);
  }
  {
    ScopedEnv profile("VROOM_PROFILE", "");
    EXPECT_FALSE(harness::Env::from_environment().profile);
  }
  for (const char* on : {"1", "yes", "true"}) {
    ScopedEnv profile("VROOM_PROFILE", on);
    EXPECT_TRUE(harness::Env::from_environment().profile)
        << "VROOM_PROFILE=\"" << on << '"';
  }
}

TEST(Env, ParsesEveryVariable) {
  CleanEnv clean;
  ScopedEnv jobs("VROOM_JOBS", "4");
  ScopedEnv trace("VROOM_TRACE", "/tmp/vroom-traces");
  ScopedEnv out("VROOM_OUT_DIR", "/tmp/vroom-out");
  const harness::Env env = harness::Env::from_environment();
  EXPECT_EQ(env.jobs, 4);
  EXPECT_EQ(env.trace_dir, "/tmp/vroom-traces");
  EXPECT_EQ(env.out_dir, "/tmp/vroom-out");
  EXPECT_TRUE(env.trace_enabled());
}

TEST(Env, ReReadsEnvironmentEachCall) {
  CleanEnv clean;
  EXPECT_EQ(harness::Env::from_environment().jobs, 0);
  {
    ScopedEnv jobs("VROOM_JOBS", "3");
    EXPECT_EQ(harness::Env::from_environment().jobs, 3);
  }
  EXPECT_EQ(harness::Env::from_environment().jobs, 0);
}

TEST(Env, MalformedIntegersIgnoredWithDefault) {
  CleanEnv clean;
  for (const char* bad : {"", "abc", "-2", "0", "3.5", "4x", " 4", "4 "}) {
    ScopedEnv jobs("VROOM_JOBS", bad);
    EXPECT_EQ(harness::Env::from_environment().jobs, 0)
        << "VROOM_JOBS=\"" << bad << '"';
  }
}

TEST(Env, HugeIntegerOutOfRangeIgnored) {
  CleanEnv clean;
  ScopedEnv jobs("VROOM_JOBS", "99999999999999999999");
  EXPECT_EQ(harness::Env::from_environment().jobs, 0);
}

}  // namespace
}  // namespace vroom
