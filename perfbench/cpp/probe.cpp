#include "probe.h"

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

extern char** environ;

namespace perfbench {
namespace {

// One thread's share: pointer chasing over a 1 MiB permutation, hash-map
// updates and lookups over 60k keys, and building and sorting URL strings:
// the kinds of work the simulator's event loop, interners and tables do,
// over a working set of a few MiB, about what one fleet worker touches.
// Under an induced memory-bandwidth hog this probe slowed by the same
// share as a sweep pass; a probe with a 20 MiB working set slowed twice
// as much and over-corrected.
std::uint64_t probe_work(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint32_t> next(1u << 18);
  std::iota(next.begin(), next.end(), 0u);
  std::shuffle(next.begin(), next.end(), rng);
  std::uint64_t acc = 0;
  std::uint32_t at = 0;
  for (int i = 0; i < 2400000; ++i) {
    at = next[at];
    acc += at;
  }
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  for (int i = 0; i < 300000; ++i) {
    map[rng() % 60000] += static_cast<std::uint64_t>(i);
  }
  for (int i = 0; i < 600000; ++i) {
    const auto it = map.find(rng() % 60000);
    if (it != map.end()) acc ^= it->second;
  }
  std::vector<std::string> words;
  for (int round = 0; round < 6; ++round) {
    words.clear();
    for (int i = 0; i < 15000; ++i) {
      words.push_back("https://origin" + std::to_string(rng() % 512) +
                      ".example/r" + std::to_string(rng() % 100000) + ".js");
    }
    std::sort(words.begin(), words.end());
    for (const std::string& w : words) acc += w.size();
  }
  return acc;
}

}  // namespace

int run_probe_child(int threads) {
  std::vector<std::uint64_t> out(static_cast<std::size_t>(threads));
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&out, t] {
      out[static_cast<std::size_t>(t)] =
          probe_work(0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(t + 1));
    });
  }
  for (std::thread& thread : pool) thread.join();
  // Keeps the work observable, so it cannot be optimized away.
  std::uint64_t acc = 0;
  for (const std::uint64_t v : out) acc ^= v;
  return acc == 0x5eed ? 1 : 0;
}

double probe_cpu_seconds(int threads) {
  const std::string count = std::to_string(threads);
  char exe[] = "/proc/self/exe";
  char flag[] = "--probe";
  std::vector<char> arg(count.begin(), count.end());
  arg.push_back('\0');
  char* argv[] = {exe, flag, arg.data(), nullptr};
  pid_t pid = 0;
  if (posix_spawn(&pid, exe, nullptr, nullptr, argv, environ) != 0) {
    return -1;
  }
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) return -1;
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return -1;
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

}  // namespace perfbench
