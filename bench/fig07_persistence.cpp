// Figure 7: fraction of each top-100 page's resources that persist across
// one hour, one day, and one week.
#include "core/accuracy.h"

#include "bench_common.h"

int main() {
  using namespace vroom;
  bench::banner("Figure 7", "resource persistence over time");
  const web::Corpus top = web::Corpus::top100(bench::kSeed);

  std::vector<double> hour, day, week;
  for (const web::PageModel& p : top.pages()) {
    hour.push_back(core::persistence_fraction(p, sim::days(45), web::nexus6(),
                                              1, sim::hours(1)));
    day.push_back(core::persistence_fraction(p, sim::days(45), web::nexus6(),
                                             1, sim::days(1)));
    week.push_back(core::persistence_fraction(p, sim::days(45), web::nexus6(),
                                              1, sim::days(7)));
  }
  harness::print_cdf_table("Fraction of persistent resources", "fraction",
                           {{"One Hour", hour},
                            {"One Day", day},
                            {"One Week", week}});
  bench::export_manifest("fig07_persistence", top.size());
  return 0;
}
