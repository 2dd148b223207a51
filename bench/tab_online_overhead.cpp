// §4.1.2 text result: server-side on-the-fly HTML parsing adds a median
// delay of ~100 ms across popular landing pages.
#include "web/html_scanner.h"
#include "web/page_instance.h"

#include "bench_common.h"

int main() {
  using namespace vroom;
  bench::banner("Online-analysis overhead", "on-the-fly HTML parse delay");
  std::vector<double> cost_ms;
  // A top-1000-like mix: mostly average pages plus the complex News/Sports.
  for (const web::Corpus& corpus :
       {web::Corpus::top100(bench::kSeed),
        web::Corpus::news_sports(bench::kSeed),
        web::Corpus::mixed400_sample(bench::kSeed)}) {
    for (const auto& page : corpus.pages()) {
      web::LoadIdentity id;
      id.wall_time = sim::days(45);
      id.device = web::nexus6();
      id.nonce = 1;
      const web::PageInstance inst(page, id);
      cost_ms.push_back(sim::to_ms(web::scan_cost(inst.resource(0).size)));
    }
  }
  harness::print_cdf_table("HTML scan cost", "ms", {{"All pages", cost_ms}});
  harness::print_stat("median scan cost", harness::median(cost_ms), "ms");
  bench::export_manifest("tab_online_overhead", cost_ms.size());
  return 0;
}
