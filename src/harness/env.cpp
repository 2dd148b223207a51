#include "harness/env.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace vroom::harness {

namespace {

// Strict positive-integer parse shared by every numeric knob: the whole
// value must be digits (std::from_chars, no leading sign/space, no suffix)
// and > 0. Anything else warns once per parse and reads as "unset".
int parse_positive_int(const char* name, const char* value) {
  if (value == nullptr) return 0;
  int parsed = 0;
  const char* end = value + std::strlen(value);
  const auto [ptr, ec] = std::from_chars(value, end, parsed);
  if (ec == std::errc() && ptr == end && parsed > 0) return parsed;
  std::fprintf(stderr,
               "[env] warning: ignoring invalid %s=\"%s\" "
               "(want a positive integer)\n",
               name, value);
  return 0;
}

std::string string_or_empty(const char* value) {
  return value != nullptr ? std::string(value) : std::string();
}

}  // namespace

Env Env::from_environment() {
  Env env;
  env.jobs = parse_positive_int("VROOM_JOBS", std::getenv("VROOM_JOBS"));
  env.trace_dir = trace_dir_from_environment();
  env.out_dir = string_or_empty(std::getenv("VROOM_OUT_DIR"));
  env.metrics_dir = string_or_empty(std::getenv("VROOM_METRICS"));
  const char* profile = std::getenv("VROOM_PROFILE");
  env.profile = profile != nullptr && *profile != '\0' &&
                std::strcmp(profile, "0") != 0;
  return env;
}

std::string Env::trace_dir_from_environment() {
  return string_or_empty(std::getenv("VROOM_TRACE"));
}

}  // namespace vroom::harness
