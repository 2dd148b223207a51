#include "harness/env.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <optional>
#include <string>

namespace vroom::harness {

namespace {

// Strict positive-integer parse of VROOM_JOBS: the whole value must be
// digits (std::from_chars, no leading sign/space, no suffix) and > 0.
// Anything else reads as "unset" and warns, unless the previous parse saw
// the same malformed value: a program's environment does not change, so
// its runs re-parsing the knob warn once between them.
int parse_jobs(const char* value) {
  int parsed = 0;
  bool malformed = false;
  if (value != nullptr) {
    const char* end = value + std::strlen(value);
    const auto [ptr, ec] = std::from_chars(value, end, parsed);
    malformed = ec != std::errc() || ptr != end || parsed <= 0;
  }
  static std::mutex mu;
  static std::optional<std::string> last_warned;
  const std::lock_guard<std::mutex> lock(mu);
  if (!malformed) {
    last_warned.reset();
    return parsed;
  }
  if (last_warned != value) {
    last_warned = value;
    std::fprintf(stderr,
                 "[env] warning: ignoring invalid VROOM_JOBS=\"%s\" "
                 "(want a positive integer)\n",
                 value);
  }
  return 0;
}

std::string string_or_empty(const char* value) {
  return value != nullptr ? std::string(value) : std::string();
}

}  // namespace

Env Env::from_environment() {
  Env env;
  env.jobs = parse_jobs(std::getenv("VROOM_JOBS"));
  env.trace_dir = trace_dir_from_environment();
  env.out_dir = string_or_empty(std::getenv("VROOM_OUT_DIR"));
  const char* profile = std::getenv("VROOM_PROFILE");
  env.profile = profile != nullptr && *profile != '\0' &&
                std::strcmp(profile, "0") != 0;
  return env;
}

std::string Env::trace_dir_from_environment() {
  return string_or_empty(std::getenv("VROOM_TRACE"));
}

}  // namespace vroom::harness
