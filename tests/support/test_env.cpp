// Typed MCFUSER_* env-knob parsing (support/env.hpp).
//
// The contract under test: unset/empty means the default silently; a
// well-formed in-range value is honoured; anything malformed or
// out-of-range is rejected loudly back to the default — a typo'd knob
// must never be silently half-applied.
#include "support/env.hpp"

#include <cstdlib>
#include <string>

#include "gtest/gtest.h"
#include "scoped_env.hpp"

namespace mcf {
namespace {

constexpr const char* kName = "MCFUSER_TEST_ENV_KNOB";

TEST(Env, UnsetYieldsDefault) {
  ScopedEnv e(kName, nullptr);
  EXPECT_EQ(env::int64(kName, 7, 0, 100), 7);
  EXPECT_EQ(env::real(kName, 2.5, 0.0, 10.0), 2.5);
  EXPECT_EQ(env::str(kName, "dflt"), "dflt");
  EXPECT_TRUE(env::bool_flag(kName, true));
  EXPECT_FALSE(env::bool_flag(kName, false));
  EXPECT_EQ(env::raw(kName), nullptr);
}

TEST(Env, ValidValuesAreHonoured) {
  ScopedEnv e(kName, "42");
  EXPECT_EQ(env::int64(kName, 7, 0, 100), 42);
  EXPECT_EQ(env::real(kName, 2.5, 0.0, 100.0), 42.0);
  EXPECT_EQ(env::str(kName, "dflt"), "42");
  EXPECT_EQ(env::size(kName, 7), 42u);
}

TEST(Env, MalformedIntegerRejectsToDefault) {
  for (const char* bad : {"banana", "12abc", "4.5", "0x10"}) {
    ScopedEnv e(kName, bad);
    EXPECT_EQ(env::int64(kName, 7, 0, 100), 7) << "value '" << bad << "'";
  }
}

TEST(Env, OutOfRangeIntegerRejectsToDefault) {
  {
    ScopedEnv e(kName, "101");
    EXPECT_EQ(env::int64(kName, 7, 0, 100), 7);
  }
  {
    ScopedEnv e(kName, "-1");
    EXPECT_EQ(env::int64(kName, 7, 0, 100), 7);
  }
  {
    // Beyond int64 range entirely (ERANGE path).
    ScopedEnv e(kName, "99999999999999999999999999");
    EXPECT_EQ(env::int64(kName, 7, 0, 100), 7);
  }
}

TEST(Env, MalformedRealRejectsToDefault) {
  for (const char* bad : {"fast", "1.5x", "", "nan"}) {
    ScopedEnv e(kName, bad);
    EXPECT_EQ(env::real(kName, 2.5, 0.0, 10.0), 2.5) << "value '" << bad << "'";
  }
}

TEST(Env, RealRangeIsEnforced) {
  {
    ScopedEnv e(kName, "10.5");
    EXPECT_EQ(env::real(kName, 2.5, 0.0, 10.0), 2.5);
  }
  {
    ScopedEnv e(kName, "0.25");
    EXPECT_EQ(env::real(kName, 2.5, 0.0, 10.0), 0.25);
  }
}

TEST(Env, BoolFlagSemantics) {
  {
    ScopedEnv e(kName, "0");
    EXPECT_FALSE(env::bool_flag(kName, true));
  }
  {
    ScopedEnv e(kName, "1");
    EXPECT_TRUE(env::bool_flag(kName, false));
  }
  {
    // Any non-"0" value is truthy (mirrors the pre-consolidation
    // behaviour of the scattered hand-rolled parsers).
    ScopedEnv e(kName, "yes");
    EXPECT_TRUE(env::bool_flag(kName, false));
  }
  {
    // Empty string = unset.
    ScopedEnv e(kName, "");
    EXPECT_TRUE(env::bool_flag(kName, true));
    EXPECT_FALSE(env::bool_flag(kName, false));
  }
}

TEST(Env, SizeClampsItsMaximum) {
  ScopedEnv e(kName, "5000");
  EXPECT_EQ(env::size(kName, 7, /*max=*/4096), 7u);  // out of range -> default
}

}  // namespace
}  // namespace mcf
