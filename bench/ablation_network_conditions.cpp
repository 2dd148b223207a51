// Network-condition sensitivity (the §4.3 caveat: Vroom's scheduler is
// tailored to LTE where the CPU is the bottleneck; other regimes move the
// bottleneck). Sweeps WiFi / LTE / loaded-cell / 3G profiles, then adds the
// pieces the paper's good-signal replay excluded: segment loss (HTTP/2's
// single connection suffers most — related work [24]) and LTE RRC radio
// promotion.
#include "bench_common.h"

int main() {
  using namespace vroom;
  bench::banner("Ablation: network conditions",
                "access-network sensitivity of Vroom's gains");
  const web::Corpus ns = web::Corpus::news_sports(bench::kSeed);

  net::NetworkConfig lossy = net::NetworkConfig::lte();
  lossy.loss_rate = 0.01;
  net::NetworkConfig rrc = net::NetworkConfig::lte();
  rrc.radio_promotion = sim::ms(250);
  const std::vector<std::pair<const char*, net::NetworkConfig>> networks = {
      {"WiFi (40 Mbps, 10 ms)", net::NetworkConfig::wifi()},
      {"LTE, good signal (paper setting)", net::NetworkConfig::lte()},
      {"LTE, loaded cell (3 Mbps, 90 ms)", net::NetworkConfig::lte_loaded()},
      {"3G (1.6 Mbps, 150 ms)", net::NetworkConfig::threeg()},
      {"LTE with 1% segment loss", lossy},
      {"LTE with RRC idle promotion (250 ms)", rrc},
  };
  const std::vector<baselines::Strategy> strategies = {
      baselines::vroom(), baselines::http2_baseline(), baselines::http11()};

  // Every (network, strategy) cell in one plan, so the whole ablation
  // shares one pool and one manifest.
  fleet::SweepPlan plan;
  for (const auto& network : networks) {
    harness::RunOptions opt = bench::default_options();
    opt.network = network.second;
    opt.loads_per_page = 1;
    plan.add_matrix(ns, strategies, opt);
  }
  const auto results = bench::run_plan(plan);

  for (std::size_t n = 0; n < networks.size(); ++n) {
    std::vector<harness::Series> series;
    for (std::size_t s = 0; s < strategies.size(); ++s) {
      const harness::CorpusResult& r = results[n * strategies.size() + s];
      series.push_back({r.strategy, r.plt_seconds()});
    }
    harness::print_quartile_bars(networks[n].first, "seconds PLT", series);
  }
  return 0;
}
