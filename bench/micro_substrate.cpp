// Substrate micro-benchmarks (google-benchmark): simulator throughput for
// the pieces every experiment leans on. These guard against performance
// regressions that would make the corpus sweeps impractically slow.
//
// BM_LoadsPerSecond is the tracked end-to-end baseline:
// scripts/bench_substrate.sh runs this binary and records the JSON report
// (loads/sec as items_per_second, simulated events/sec and peak RSS as
// counters) in BENCH_substrate.json for cross-commit comparison.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>

#include "baselines/strategies.h"
#include "core/accuracy.h"
#include "core/offline_resolver.h"
#include "deploy/scenario.h"
#include "harness/env.h"
#include "harness/experiment.h"
#include "net/tcp.h"
#include "obs/metrics.h"
#include "obs/phase_profiler.h"
#include "web/corpus.h"
#include "web/page_generator.h"

namespace {

using namespace vroom;

// Peak resident set size (VmHWM, reported by the kernel in kB) in bytes.
// Returns -1.0 when /proc is unavailable or has no VmHWM line, so consumers
// (scripts/bench_smoke.sh) can tell "unmeasurable" from a genuine zero.
double peak_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1.0;
  char line[256];
  bool found = false;
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      found = true;
      break;
    }
  }
  std::fclose(f);
  return found ? kb * 1024.0 : -1.0;
}

void BM_EventLoopScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventLoop loop;
    for (int i = 0; i < 1000; ++i) {
      loop.schedule_at(i, [] {});
    }
    benchmark::DoNotOptimize(loop.run());
  }
}
BENCHMARK(BM_EventLoopScheduleRun);

void BM_TcpBulkTransfer(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventLoop loop;
    net::Network net(loop, net::NetworkConfig::lte(), 1);
    net::TcpConnection conn(net, "a.com", false);
    conn.connect([&] {
      net::TcpConnection::Chunk c;
      c.bytes = state.range(0);
      conn.send_chunk(std::move(c));
    });
    loop.run();
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TcpBulkTransfer)->Arg(100'000)->Arg(2'000'000);

void BM_PageGeneration(benchmark::State& state) {
  std::uint32_t id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        web::generate_page(42, id++, web::PageClass::News));
  }
}
BENCHMARK(BM_PageGeneration);

void BM_PageInstanceRealization(benchmark::State& state) {
  const web::PageModel page = web::generate_page(42, 7, web::PageClass::News);
  web::LoadIdentity id;
  id.wall_time = sim::days(45);
  id.device = web::nexus6();
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    id.nonce = nonce++;
    benchmark::DoNotOptimize(web::PageInstance(page, id));
  }
}
BENCHMARK(BM_PageInstanceRealization);

void BM_StableSetResolution(benchmark::State& state) {
  const web::PageModel page = web::generate_page(42, 7, web::PageClass::News);
  // Fresh resolver and crawl time per iteration: the resolver memoizes
  // crawl intersections, so a fixed (resolver, now) pair would measure one
  // map lookup instead of the resolution itself. The stable set is then
  // realized as URL strings, as a caller that lists it does.
  sim::Time now = sim::days(45);
  for (auto _ : state) {
    core::OfflineResolver resolver(page, {});
    now += sim::hours(1);
    benchmark::DoNotOptimize(core::stable_urls(
        page, resolver.stable_set(now, web::nexus6(), page.first_party(), 1)));
  }
}
BENCHMARK(BM_StableSetResolution);

void BM_FullPageLoad(benchmark::State& state) {
  const web::PageModel page = web::generate_page(42, 7, web::PageClass::News);
  const harness::RunOptions opt;
  const baselines::Strategy strategy =
      state.range(0) == 0 ? baselines::http2_baseline() : baselines::vroom();
  for (auto _ : state) {
    benchmark::DoNotOptimize(harness::run_page_load(page, strategy, opt, 1));
  }
}
BENCHMARK(BM_FullPageLoad)->Arg(0)->Arg(1);

// The tracked end-to-end throughput baseline: full simulated page loads per
// wall-clock second, one representative page per corpus class, under the
// status-quo browser and under Vroom, on the LTE profile. Each iteration is
// one complete load (fresh world; nonces cycle through a small window so
// per-load churn varies and one atypical realization can't skew the rate).
void BM_LoadsPerSecond(benchmark::State& state) {
  const auto cls = static_cast<web::PageClass>(state.range(0));
  const web::PageModel page = web::generate_page(42, 7, cls);
  const baselines::Strategy strategy =
      state.range(1) == 0 ? baselines::http2_baseline() : baselines::vroom();
  const harness::RunOptions opt;
  std::int64_t events = 0;
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    const auto r = harness::run_page_load(page, strategy, opt, ++nonce & 63);
    events += r.sim_events;
    benchmark::DoNotOptimize(&r);
  }
  state.SetItemsProcessed(state.iterations());  // items/sec == loads/sec
  state.counters["sim_events_per_sec"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["peak_rss_bytes"] = peak_rss_bytes();
}
BENCHMARK(BM_LoadsPerSecond)
    ->ArgNames({"class", "vroom"})
    ->ArgsProduct({{static_cast<int>(web::PageClass::Top100),
                    static_cast<int>(web::PageClass::News),
                    static_cast<int>(web::PageClass::Sports),
                    static_cast<int>(web::PageClass::Mixed400)},
                   {0, 1}});

// The tracked deployment-macro throughput baseline: arrivals replayed per
// wall-clock second through the shared front-end + origin-link contention
// pass. Manual time is the scenario's own macro wall clock, so the micro
// PLT table each iteration rebuilds does not dilute the rate —
// items_per_second IS macro serves/sec, the number ext_deployment prints
// to stderr and bench_regression.sh gates.
void BM_DeployMacroServesPerSecond(benchmark::State& state) {
  const web::Corpus corpus = web::Corpus::mixed400_sample(42, 6);
  deploy::ScenarioConfig cfg;
  cfg.seed = 42;
  cfg.population.window = sim::hours(1);
  cfg.offered_levels = {0.5, 2.0};
  cfg.stale_ages = {sim::hours(1)};
  std::int64_t arrivals = 0;
  for (auto _ : state) {
    const deploy::DeploymentReport r = deploy::run_deployment(corpus, cfg);
    arrivals += r.macro_arrivals;
    state.SetIterationTime(std::max(r.macro_wall_seconds, 1e-9));
  }
  state.SetItemsProcessed(arrivals);
  state.counters["peak_rss_bytes"] = peak_rss_bytes();
}
BENCHMARK(BM_DeployMacroServesPerSecond)->UseManualTime()->Iterations(3);

void BM_AccuracyMeasurement(benchmark::State& state) {
  const web::PageModel page = web::generate_page(42, 7, web::PageClass::News);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::measure_accuracy(
        page, sim::days(45), web::nexus6(), 1,
        core::ResolutionMode::OfflinePlusOnline, {}));
  }
}
BENCHMARK(BM_AccuracyMeasurement);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): flips the obs gates from the
// environment before the benchmarks run, then records the metrics snapshot
// (VROOM_METRICS=<dir>) and phase-profile table (VROOM_PROFILE=1) that
// scripts/bench_substrate.sh archives next to BENCH_substrate.json.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  namespace obs = vroom::obs;
  const vroom::harness::Env env = vroom::harness::Env::from_environment();
  obs::set_metrics_enabled(env.metrics_enabled());
  obs::set_profiling_enabled(env.profile);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (env.profile) {
    // No external worker-time measurement here; 0 skips the coverage line.
    std::fputs(
        obs::format_phase_profile(obs::collect_phase_profile(), 0.0).c_str(),
        stderr);
  }
  if (env.metrics_enabled()) obs::registry().export_to(env.metrics_dir);
  return 0;
}
