// Incremental deployment (§6.1): what does a single organization gain by
// adopting Vroom on its own domains while every third party stays plain
// HTTP/2?
//
//   $ ./example_incremental_deployment [num_pages]
//
// num_pages (default 20) must parse whole as an integer of at least 1, the
// rule vroom_cli applies to --pages; anything else prints the usage line
// and exits with status 2.
#include <charconv>
#include <cstdio>
#include <cstring>

#include "baselines/strategies.h"
#include "fleet/fleet.h"
#include "harness/experiment.h"
#include "harness/stats.h"
#include "web/corpus.h"

int main(int argc, char** argv) {
  using namespace vroom;
  int pages = 20;
  if (argc > 1) {
    const char* end = argv[1] + std::strlen(argv[1]);
    const auto [ptr, ec] = std::from_chars(argv[1], end, pages);
    if (ec != std::errc() || ptr != end || pages < 1) {
      std::fprintf(stderr, "usage: %s [num_pages >= 1]\n", argv[0]);
      return 2;
    }
  }

  web::Corpus corpus("news+sports", 42);
  corpus.add_pages(web::PageClass::News, pages / 2);
  corpus.add_pages(web::PageClass::Sports, pages - pages / 2, 100);

  harness::RunOptions opt;
  opt.loads_per_page = 1;

  std::printf("Comparing deployment levels across %d News/Sports pages…\n\n",
              pages);
  const std::vector<baselines::Strategy> levels = {
      baselines::http2_baseline(),
      baselines::vroom_first_party_only(),
      baselines::vroom(),
  };
  // All three deployment levels fan through one shared worker pool instead
  // of one pool (and one straggler tail) per level.
  fleet::Telemetry telemetry;
  fleet::FleetOptions fo;
  fo.telemetry = &telemetry;
  const auto results = fleet::run_matrix(corpus, levels, opt, fo);
  telemetry.print(stderr);
  std::printf("%-28s %10s %10s %10s\n", "deployment", "p25(s)", "median(s)",
              "p75(s)");
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const auto q = harness::quartiles(results[i].plt_seconds());
    std::printf("%-28s %10.2f %10.2f %10.2f\n", levels[i].name.c_str(), q.p25,
                q.p50, q.p75);
  }
  std::printf(
      "\nTakeaway: the first party alone captures most of Vroom's benefit —\n"
      "it serves the root HTML, so its hints cover third-party resources\n"
      "even when those third parties never change a line of code.\n");
  return 0;
}
