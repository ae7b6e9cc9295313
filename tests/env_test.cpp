// The shared EIGENMAPS_* knob parser: unset/empty mean default, anything
// malformed or out of range fails loudly instead of silently defaulting.
#include <cstdlib>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "support/env.h"

namespace {

using namespace eigenmaps;

/// Sets an environment variable for one test and restores the previous
/// value on destruction, so knob tests cannot leak into each other.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_value_ = old != nullptr;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_value_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_value_ = false;
};

TEST(EnvKnobs, UnsetAndEmptyMeanDefault) {
  ScopedEnv unset("EIGENMAPS_TEST_KNOB", nullptr);
  EXPECT_FALSE(support::env_size("EIGENMAPS_TEST_KNOB", 0).has_value());
  EXPECT_EQ(support::env_size_or("EIGENMAPS_TEST_KNOB", 7, 0), 7u);

  ScopedEnv empty("EIGENMAPS_TEST_KNOB", "");
  EXPECT_FALSE(support::env_size("EIGENMAPS_TEST_KNOB", 0).has_value());
}

TEST(EnvKnobs, ParsesInRangeValues) {
  ScopedEnv env("EIGENMAPS_TEST_KNOB", "12");
  EXPECT_EQ(support::env_size("EIGENMAPS_TEST_KNOB", 1).value(), 12u);
}

TEST(EnvKnobs, MalformedValuesThrow) {
  for (const char* bad : {"abc", "12abc", "1.5.2", " "}) {
    ScopedEnv env("EIGENMAPS_TEST_KNOB", bad);
    EXPECT_THROW(support::env_size("EIGENMAPS_TEST_KNOB", 0),
                 std::invalid_argument)
        << bad;
  }
}

TEST(EnvKnobs, OutOfRangeValuesThrow) {
  // strtoull skips any leading whitespace, then negates: a sign behind a
  // tab, newline or vertical tab must not wrap to a huge count.
  for (const char* negative : {"-4", "\t-1", "\n-4", "\v-2"}) {
    ScopedEnv env("EIGENMAPS_TEST_KNOB", negative);
    EXPECT_THROW(support::env_size("EIGENMAPS_TEST_KNOB", 0),
                 std::invalid_argument)
        << negative;
  }
  {
    ScopedEnv env("EIGENMAPS_TEST_KNOB", "0");
    EXPECT_THROW(support::env_size("EIGENMAPS_TEST_KNOB", 1),
                 std::invalid_argument);
  }
}

TEST(EnvKnobs, ChoiceMatchesExactSpellingOrThrowsNamingTheVariable) {
  {
    ScopedEnv unset("EIGENMAPS_TEST_KNOB", nullptr);
    EXPECT_FALSE(support::env_choice("EIGENMAPS_TEST_KNOB",
                                     {"debug", "info", "warn"})
                     .has_value());
  }
  {
    ScopedEnv empty("EIGENMAPS_TEST_KNOB", "");
    EXPECT_FALSE(support::env_choice("EIGENMAPS_TEST_KNOB",
                                     {"debug", "info", "warn"})
                     .has_value());
  }
  {
    ScopedEnv env("EIGENMAPS_TEST_KNOB", "warn");
    EXPECT_EQ(support::env_choice("EIGENMAPS_TEST_KNOB",
                                  {"debug", "info", "warn"})
                  .value(),
              2u);
  }
  // Wrong spelling, wrong case, surrounding whitespace: all loud, and the
  // message names the variable so a misconfigured deployment is findable.
  for (const char* bad : {"verbose", "Info", " info", "info "}) {
    ScopedEnv env("EIGENMAPS_TEST_KNOB", bad);
    try {
      support::env_choice("EIGENMAPS_TEST_KNOB", {"debug", "info", "warn"});
      ADD_FAILURE() << bad << " should have thrown";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("EIGENMAPS_TEST_KNOB"),
                std::string::npos)
          << error.what();
    }
  }
}

}  // namespace
