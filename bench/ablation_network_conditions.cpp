// Network-condition sensitivity (the §4.3 caveat: Vroom's scheduler is
// tailored to LTE where the CPU is the bottleneck; other regimes move the
// bottleneck). Sweeps WiFi / LTE / loaded-cell / 3G profiles, then adds the
// pieces the paper's good-signal replay excluded: segment loss (HTTP/2's
// single connection suffers most — related work [24]) and LTE RRC radio
// promotion.
#include "bench_common.h"

namespace {

using namespace vroom;

void sweep(const char* label, const net::NetworkConfig& cfg,
           const web::Corpus& corpus) {
  harness::RunOptions opt = bench::default_options();
  opt.network = cfg;
  opt.loads_per_page = 1;
  const auto results = bench::run_matrix(
      corpus,
      {baselines::vroom(), baselines::http2_baseline(), baselines::http11()},
      opt);
  std::vector<harness::Series> series;
  for (const auto& r : results) series.push_back({r.strategy, r.plt_seconds()});
  harness::print_quartile_bars(label, "seconds PLT", series);
}

}  // namespace

int main() {
  bench::banner("Ablation: network conditions",
                "access-network sensitivity of Vroom's gains");
  const web::Corpus ns = web::Corpus::news_sports(bench::kSeed);

  sweep("WiFi (40 Mbps, 10 ms)", net::NetworkConfig::wifi(), ns);
  sweep("LTE, good signal (paper setting)", net::NetworkConfig::lte(), ns);
  sweep("LTE, loaded cell (3 Mbps, 90 ms)", net::NetworkConfig::lte_loaded(),
        ns);
  sweep("3G (1.6 Mbps, 150 ms)", net::NetworkConfig::threeg(), ns);

  net::NetworkConfig lossy = net::NetworkConfig::lte();
  lossy.loss_rate = 0.01;
  sweep("LTE with 1% segment loss", lossy, ns);

  net::NetworkConfig rrc = net::NetworkConfig::lte();
  rrc.radio_promotion = sim::ms(250);
  sweep("LTE with RRC idle promotion (250 ms)", rrc, ns);
  return 0;
}
