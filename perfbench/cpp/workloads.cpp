#include "workloads.h"

#include <optional>
#include <utility>

#include "baselines/strategies.h"
#include "deploy/scenario.h"
#include "digest.h"
#include "fleet/fleet.h"
#include "harness/experiment.h"
#include "layers.h"
#include "web/corpus.h"

namespace perfbench {

using namespace vroom;

namespace {

// Each page is loaded this many times per strategy; load k runs under its
// own seed, so every load's full result comes back from the fleet.
constexpr int kLoadsPerPage = 3;

std::uint64_t load_seed(std::uint64_t seed, int k) {
  // splitmix64 finalizer over (seed, k).
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(
                                                       k + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// The deployment scenario at a few pages and a short window: the tiny
// deploy_day of the self-test.
deploy::ScenarioConfig small_scenario(std::uint64_t seed) {
  deploy::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.offered_levels = {0.2, 0.8};
  cfg.stale_ages = {sim::hours(1)};
  cfg.population.window = sim::hours(6);
  return cfg;
}

class SweepWorkload final : public Workload {
 public:
  SweepWorkload(const Options& options,
                std::vector<baselines::Strategy> strategies)
      : options_(options), strategies_(std::move(strategies)) {}

  double build_inputs() override {
    const Clock::time_point t0 = Clock::now();
    corpora_.clear();
    if (options_.tiny) {
      corpora_.push_back(web::Corpus::smoke(options_.seed, 2));
      corpora_.push_back(web::Corpus::mixed400_sample(options_.seed, 2));
    } else {
      corpora_.push_back(web::Corpus::news_sports(options_.seed));
      corpora_.push_back(web::Corpus::top100(options_.seed));
    }
    const double corpus_s = seconds_since(t0);
    // Cells point into corpora_, which is not touched again until the next
    // build_inputs replaces the plan too.
    plan_ = fleet::SweepPlan{};
    for (const web::Corpus& corpus : corpora_) {
      for (const baselines::Strategy& strategy : strategies_) {
        for (int k = 0; k < kLoadsPerPage; ++k) {
          plan_.add(corpus, strategy, cell_options(k),
                    corpus.name() + ":" + strategy.name + ":load" +
                        std::to_string(k));
        }
      }
    }
    return corpus_s;
  }

  PassOutcome run_pass() override {
    PassOutcome out;
    const Stopwatch clock;
    const std::vector<harness::CorpusResult> results =
        fleet::run_plan(plan_, fleet::FleetOptions{options_.workers, nullptr});
    out.wall_s = clock.wall_s();
    out.cpu_s = clock.cpu_s();
    out.work_wall_s = out.wall_s;
    Hasher h;
    hash_corpus_results(h, results);
    out.digest = h.value();
    for (const harness::CorpusResult& r : results) {
      out.work += static_cast<double>(r.loads.size());
      for (const browser::LoadResult& load : r.loads) {
        out.sim_events += load.sim_events;
      }
    }
    return out;
  }

  std::vector<Metric> measure_layers(
      SpanLog& log, const std::vector<double>& corpus_build_s,
      double parallel_pass_s, TraceCheck& check) override {
    std::vector<LoadJob> jobs;
    for (const fleet::SweepCell& cell : plan_.cells) {
      for (const web::PageModel& page : cell.corpus->pages()) {
        jobs.push_back({&page, &cell.strategy, cell.options,
                        harness::derive_load_nonce(cell.options.seed,
                                                   page.page_id(), 0)});
      }
    }
    LoadLayerStats loads;
    measure_loads(log, loads, check, jobs);
    for (const web::Corpus& corpus : corpora_) {
      for (const web::PageModel& page : corpus.pages()) {
        measure_revisit(log, loads, page, strategies_.front(),
                        cell_options(0), sim::hours(1));
      }
    }
    // The sweeps never reach the deploy layer: its metrics stay 0.
    return layer_metrics(loads, DeployLayerStats{}, corpus_build_s,
                         parallel_pass_s, options_.workers);
  }

 private:
  harness::RunOptions cell_options(int k) const {
    harness::RunOptions o;
    o.seed = load_seed(options_.seed, k);
    o.loads_per_page = 1;
    return o;
  }

  Options options_;
  std::vector<baselines::Strategy> strategies_;
  std::vector<web::Corpus> corpora_;
  fleet::SweepPlan plan_;
};

class DeployWorkload final : public Workload {
 public:
  explicit DeployWorkload(const Options& options) : options_(options) {}

  double build_inputs() override {
    const Clock::time_point t0 = Clock::now();
    corpus_ = options_.tiny
                  ? web::Corpus::mixed400_sample(options_.seed, 4)
                  : web::Corpus::mixed400_sample(options_.seed, 30);
    const double corpus_s = seconds_since(t0);
    if (options_.tiny) {
      cfg_ = small_scenario(options_.seed);
    } else {
      cfg_ = deploy::ScenarioConfig{};
      cfg_.seed = options_.seed;
    }
    return corpus_s;
  }

  PassOutcome run_pass() override {
    PassOutcome out;
    const Stopwatch clock;
    const deploy::DeploymentReport report =
        deploy::run_deployment(*corpus_, cfg_);
    out.wall_s = clock.wall_s();
    out.cpu_s = clock.cpu_s();
    out.work = static_cast<double>(report.macro_arrivals);
    out.work_wall_s = report.macro_wall_seconds;
    Hasher h;
    hash_deployment(h, report);
    out.digest = h.value();
    return out;
  }

  std::vector<Metric> measure_layers(
      SpanLog& log, const std::vector<double>& corpus_build_s,
      double /*parallel_pass_s*/, TraceCheck& check) override {
    // The scenario's micro table, load by load: every (device, hint
    // condition, page) cell with the options run_deployment gives it.
    const std::vector<deploy::DeviceShare> mix =
        cfg_.population.device_mix.empty() ? deploy::default_device_mix()
                                           : cfg_.population.device_mix;
    std::vector<baselines::Strategy> conditions = {
        baselines::vroom_stale_hints(0)};
    for (const sim::Time age : cfg_.stale_ages) {
      conditions.push_back(baselines::vroom_stale_hints(age));
    }
    conditions.push_back(baselines::http2_baseline());
    std::vector<LoadJob> jobs;
    for (const deploy::DeviceShare& share : mix) {
      harness::RunOptions o = cfg_.micro;
      o.seed = cfg_.seed;
      o.device = share.device;
      o.loads_per_page = 1;
      for (const baselines::Strategy& condition : conditions) {
        for (const web::PageModel& page : corpus_->pages()) {
          jobs.push_back({&page, &condition, o,
                          harness::derive_load_nonce(cfg_.seed,
                                                     page.page_id(), 0)});
        }
      }
    }
    LoadLayerStats loads;
    measure_loads(log, loads, check, jobs);
    harness::RunOptions warm = cfg_.micro;
    warm.seed = cfg_.seed;
    warm.device = mix.front().device;
    for (const web::PageModel& page : corpus_->pages()) {
      measure_revisit(log, loads, page, conditions.front(), warm,
                      cfg_.revisit_gap);
    }
    DeployLayerStats deploy;
    measure_deploy(log, deploy, check, *corpus_, cfg_);
    // The micro table is the part of the pass that runs page loads on the
    // fleet: the serial loads above against its wall time.
    return layer_metrics(loads, deploy, corpus_build_s, deploy.micro_s(),
                         options_.workers);
  }

 private:
  Options options_;
  std::optional<web::Corpus> corpus_;
  deploy::ScenarioConfig cfg_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Options& options) {
  if (name == "sweep_status_quo") {
    return std::make_unique<SweepWorkload>(
        options, std::vector<baselines::Strategy>{baselines::http2_baseline(),
                                                  baselines::http11()});
  }
  if (name == "sweep_vroom") {
    return std::make_unique<SweepWorkload>(
        options, std::vector<baselines::Strategy>{
                     baselines::vroom(), baselines::vroom_first_party_only(),
                     baselines::vroom_stale_hints(sim::hours(1))});
  }
  if (name == "deploy_day") return std::make_unique<DeployWorkload>(options);
  return nullptr;
}

}  // namespace perfbench
