// Benchmark program: runs one workload for a fixed wall-clock budget and
// prints its metrics, or (--trace 1) measures it layer by layer.
//
//   perfbench --workload <sweep_status_quo|sweep_vroom|deploy_day>
//             [--seed N] [--seconds S] [--trace 0|1] [--reference HEX]
//             [--span-file PATH] [--commit ID] [--tiny]
//   perfbench --probe THREADS   (the host-speed probe's child process)
//
// Human-readable lines start with '#'; the last line of stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"}. Every pass's output
// digest must equal the first pass's and, when given, --reference.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "digest.h"
#include "harness/stats.h"
#include "probe.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

// Knobs that change what the simulator computes or writes. The benchmark
// sizes and pins everything itself, so any of these being set is an error.
const char* const kRefusedEnv[] = {
    "VROOM_RESULT_CACHE",        "VROOM_BENCH_PAGES",
    "VROOM_DEPLOY_ARRIVALS",     "VROOM_DEPLOY_WINDOW_HOURS",
    "VROOM_TRACE",               "VROOM_METRICS",
    "VROOM_PROFILE",             "VROOM_OUT_DIR",
    "VROOM_CACHE_MAX_BYTES",
};

bool refused_env_set() {
  bool refused = false;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    const std::string name = entry.substr(0, entry.find('='));
    bool bad = name.rfind("VROOM_SHARD", 0) == 0;
    for (const char* r : kRefusedEnv) bad = bad || name == r;
    if (bad) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n",
                   name.c_str());
      refused = true;
    }
  }
  return refused;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--reference HEX] "
               "[--span-file PATH] [--commit ID] [--tiny]\n",
               why);
  std::exit(2);
}

// Set-ups per run; the first is cold (about 3x slower), so the median
// reads a warm one. Each holds one pass, which varies by about 10%; the
// median of nine keeps the set-up figure about as steady as a run's
// median pass.
constexpr int kSetups = 9;

struct Args {
  Options options;
  std::string commit = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  // One fleet worker per core, at most four: the figures in
  // PREDICTIONS.md were measured with four.
  const unsigned hw = std::thread::hardware_concurrency();
  a.options.workers = std::clamp(static_cast<int>(hw), 1, 4);
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      a.options.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.options.workload = value;
    } else if (flag == "--seed") {
      a.options.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      a.options.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || a.options.seconds < 0) {
        usage("--seconds takes a non-negative number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      a.options.trace = value == "1";
    } else if (flag == "--reference") {
      a.options.reference = value;
    } else if (flag == "--span-file") {
      a.options.span_file = value;
    } else if (flag == "--commit") {
      a.commit = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.options.workload.empty()) usage("--workload is required");
  return a;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

void print_fingerprint(const Args& a) {
  std::printf(
      "# host {\"nproc\": %u, \"cpu\": %s, \"build\": %s, \"compiler\": %s, "
      "\"commit\": %s, \"workers\": %d}\n",
      std::thread::hardware_concurrency(), json_string(cpu_model()).c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(),
      json_string(std::string("gcc ") + __VERSION__).c_str(),
      json_string(a.commit).c_str(), a.options.workers);
}

void print_metric(const Metric& m) {
  std::printf("# %-28s %16.6g %-6s (n=%zu)\n", m.name.c_str(), m.value,
              m.unit.c_str(), m.samples);
}

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// Digest bookkeeping shared by every pass of a run.
struct DigestCheck {
  std::string reference;
  bool have_first = false;
  std::uint64_t first = 0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void check(std::uint64_t digest) {
    if (!have_first) {
      have_first = true;
      first = digest;
    }
    ++attempted;
    if (digest != first || (!reference.empty() && hex64(digest) != reference)) {
      ++failed;
    }
  }
};

int run(const Args& args) {
  const Options& opt = args.options;
  std::unique_ptr<Workload> workload = make_workload(opt.workload, opt);
  if (!workload) usage(("unknown workload " + opt.workload).c_str());
  if (refused_env_set()) return 2;
  // run_deployment sizes its pool from VROOM_JOBS; fleet sweeps take the
  // count from FleetOptions. Both get the same pinned value.
  setenv("VROOM_JOBS", std::to_string(opt.workers).c_str(), 1);
  print_fingerprint(args);

  DigestCheck digests;
  digests.reference = opt.reference;
  // Every timed set-up and pass is preceded by a host-speed probe; CPU
  // times are reported in units of the run's median probe (probe.h).
  std::vector<double> probes;
  const auto probe = [&opt, &probes] {
    const double cpu_s = probe_cpu_seconds(opt.workers);
    if (cpu_s <= 0) {
      std::fprintf(stderr, "perfbench: the host-speed probe did not run\n");
      std::exit(2);
    }
    probes.push_back(cpu_s);
  };
  // Set-up: generate the inputs and run one untimed warm-up pass, several
  // times; the median is the set-up cost.
  std::vector<double> setup_cpu_s;
  std::vector<double> setup_wall_s;
  std::vector<double> corpus_s;
  for (int i = 0; i < kSetups; ++i) {
    probe();
    const Stopwatch clock;
    corpus_s.push_back(workload->build_inputs());
    digests.check(workload->run_pass().digest);
    setup_cpu_s.push_back(clock.cpu_s());
    setup_wall_s.push_back(clock.wall_s());
  }

  std::vector<PassOutcome> passes;
  const Clock::time_point t0 = Clock::now();
  const std::size_t min_passes = opt.trace ? 3 : 5;
  while (passes.size() < min_passes ||
         (!opt.trace && seconds_since(t0) < opt.seconds)) {
    probe();
    passes.push_back(workload->run_pass());
    digests.check(passes.back().digest);
  }
  std::vector<double> wall;
  std::vector<double> cpu;
  std::vector<double> rate;
  std::vector<double> events_rate;
  for (const PassOutcome& p : passes) {
    wall.push_back(p.wall_s);
    cpu.push_back(p.cpu_s);
    rate.push_back(p.work / p.work_wall_s);
    events_rate.push_back(static_cast<double>(p.sim_events) / p.wall_s);
  }
  using vroom::harness::median;
  const double pass_s = median(wall);
  std::printf("# workload %s seed %llu: %zu passes, digest %s%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              passes.size(), hex64(digests.first).c_str(),
              opt.reference.empty() ? " (no reference for this seed)" : "");

  std::vector<Metric> metrics;
  if (opt.trace) {
    SpanLog log;
    TraceCheck check;
    metrics = workload->measure_layers(log, corpus_s, pass_s, check);
    std::printf("# traced vs untraced: %lld results compared, %lld differ\n",
                static_cast<long long>(check.compared),
                static_cast<long long>(check.mismatches));
    ++digests.attempted;
    if (check.compared == 0 || check.mismatches != 0) ++digests.failed;
    if (!opt.span_file.empty() && !log.write_json(opt.span_file)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   opt.span_file.c_str());
    }
  } else {
    const std::size_t n = passes.size();
    const double probe_s = median(probes);
    const auto normalized = [&](double cpu_s) {
      return normalized_cpu_s(cpu_s, probe_s, opt.workers);
    };
    metrics = {
        {"setup_s", normalized(median(setup_cpu_s)), "s", setup_cpu_s.size()},
        {"pass_cpu_s", normalized(median(cpu)), "s", n},
        {"peak_rss_mb", peak_rss_mb(), "MB", 1},
    };
    // Raw figures, for the summary only: they follow the host's speed, so
    // they are not gated. Wall time also shows how well the workers
    // overlap, which CPU time does not (fleet.parallel_efficiency traces
    // it).
    std::vector<Metric> raw = {
        {"setup_wall_s", median(setup_wall_s), "s", setup_wall_s.size()},
        {"setup_raw_cpu_s", median(setup_cpu_s), "s", setup_cpu_s.size()},
        {"pass_s", pass_s, "s", n},
        {"pass_raw_cpu_s", median(cpu), "s", n},
        {"probe_cpu_s", probe_s, "s", probes.size()},
    };
    if (opt.workload == "deploy_day") {
      raw.push_back({"serves_per_s", median(rate), "1/s", n});
    } else {
      raw.push_back({"loads_per_s", median(rate), "1/s", n});
      raw.push_back({"sim_events_per_s", median(events_rate), "1/s", n});
    }
    for (const Metric& m : raw) print_metric(m);
  }
  const double failed_frac = static_cast<double>(digests.failed) /
                             static_cast<double>(digests.attempted);
  for (const Metric& m : metrics) print_metric(m);
  print_metric({"failed_frac", failed_frac, "ratio",
                static_cast<std::size_t>(digests.attempted)});
  print_result(digests.failed == 0, digests.attempted, digests.failed,
               metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc == 3 && std::string(argv[1]) == "--probe") {
    return perfbench::run_probe_child(std::atoi(argv[2]));
  }
  return perfbench::run(perfbench::parse_args(argc, argv));
}
