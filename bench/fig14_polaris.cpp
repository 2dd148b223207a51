// Figure 14: Vroom versus Polaris (client-side reprioritization with a
// precomputed fine-grained dependency graph) on News + Sports pages.
#include "bench_common.h"

int main() {
  using namespace vroom;
  bench::banner("Figure 14", "Vroom vs Polaris");
  const harness::RunOptions opt = bench::default_options();
  const web::Corpus ns = web::Corpus::news_sports(bench::kSeed);

  // Both strategies share one fleet queue so neither serializes behind the
  // other.
  const auto results = bench::run_matrix(
      ns, {baselines::vroom(), baselines::polaris()}, opt);

  harness::print_cdf_table(
      "Page Load Time", "seconds",
      {{results[0].strategy, results[0].plt_seconds()},
       {results[1].strategy, results[1].plt_seconds()}});
  return 0;
}
