#include "bench.h"

#include <time.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

namespace perfbench {

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

int SpanLog::begin(std::string name, int parent, std::int64_t load) {
  Span s;
  s.name = std::move(name);
  s.start_s = std::chrono::duration<double>(Clock::now() - origin_).count();
  s.parent = parent;
  s.load = load;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size() - 1);
}

double SpanLog::end(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_s = std::chrono::duration<double>(Clock::now() - origin_).count();
  return s.end_s - s.start_s;
}

bool SpanLog::write_json(const std::string& path) const {
  std::error_code ec;
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  char buf[128];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "\"ph\":\"X\",\"pid\":1,\"tid\":%lld,\"ts\":%.3f,"
                  "\"dur\":%.3f",
                  static_cast<long long>(s.load + 1), s.start_s * 1e6,
                  (s.end_s - s.start_s) * 1e6);
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name << "\"," << buf
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
