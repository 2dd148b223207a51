// Figure 20: Vroom keeps helping when the browser cache is warm — repeat
// loads back-to-back, one day later, and one week later.
#include "bench_common.h"

int main() {
  using namespace vroom;
  bench::banner("Figure 20", "warm-cache repeat loads");
  const harness::RunOptions opt = bench::default_options();
  const web::Corpus ns = web::Corpus::news_sports(bench::kSeed);
  const std::size_t n = ns.size();

  const struct {
    const char* label;
    sim::Time gap;
  } scenarios[] = {{"Back-to-back", sim::minutes(1)},
                   {"1 Day Later", sim::days(1)},
                   {"1 Week Later", sim::days(7)}};
  const baselines::Strategy strategies[] = {baselines::vroom(),
                                            baselines::http2_baseline()};

  // One return visit per (gap, strategy, page), each writing its revisit
  // PLT into its own slot.
  std::vector<double> plt(std::size(scenarios) * std::size(strategies) * n);
  fleet::run_tasks(plt.size(), [&](std::size_t i) {
    const harness::Revisit visit = harness::run_page_revisit(
        ns.page(i % n), strategies[i / n % std::size(strategies)], opt,
        scenarios[i / n / std::size(strategies)].gap);
    plt[i] = sim::to_seconds(visit.revisit.plt);
  });

  auto series = [&](std::size_t row) {
    return std::vector<double>(plt.begin() + row * n,
                               plt.begin() + (row + 1) * n);
  };
  for (std::size_t g = 0; g < std::size(scenarios); ++g) {
    harness::print_quartile_bars(
        std::string("Page Load Time, ") + scenarios[g].label, "seconds",
        {{"Vroom", series(2 * g)}, {"HTTP/2 Baseline", series(2 * g + 1)}});
  }
  bench::export_manifest("fig20_warm_cache", n);
  return 0;
}
