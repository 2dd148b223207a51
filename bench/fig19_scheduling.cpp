// Figure 19: judicious coordinated scheduling of pushes and hint-driven
// fetches is key; "Push All, Fetch ASAP" congests the access link and gives
// up most of the gains.
#include "bench_common.h"

int main() {
  using namespace vroom;
  bench::banner("Figure 19", "utility of cooperative request scheduling");
  const harness::RunOptions opt = bench::default_options();
  const web::Corpus ns = web::Corpus::news_sports(bench::kSeed);

  const auto results = bench::run_matrix(
      ns,
      {baselines::lower_bound_network(), baselines::lower_bound_cpu(),
       baselines::vroom(), baselines::push_all_fetch_asap(),
       baselines::http2_baseline()},
      opt);
  const auto& lb_net = results[0];
  const auto& lb_cpu = results[1];
  std::vector<double> bound;
  for (std::size_t i = 0; i < lb_net.loads.size(); ++i) {
    bound.push_back(std::max(sim::to_seconds(lb_net.loads[i].plt),
                             sim::to_seconds(lb_cpu.loads[i].plt)));
  }

  harness::print_quartile_bars(
      "Page Load Time", "seconds",
      {{"Lower Bound", bound},
       {results[2].strategy, results[2].plt_seconds()},
       {results[3].strategy, results[3].plt_seconds()},
       {"No Push, No Hints", results[4].plt_seconds()}});
  return 0;
}
