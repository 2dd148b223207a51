// Figure 9: intersection-over-union of each page's stable resource set when
// loaded on a Nexus 6 versus on other devices.
#include "core/offline_resolver.h"

#include "bench_common.h"

int main() {
  using namespace vroom;
  bench::banner("Figure 9", "stable-set similarity across devices");
  const web::Corpus top = web::Corpus::top100(bench::kSeed);

  std::vector<double> oneplus, tablet, nexus5;
  for (const web::PageModel& p : top.pages()) {
    core::OfflineResolver resolver(p, {});
    oneplus.push_back(
        resolver.device_iou(sim::days(45), web::nexus6(), web::oneplus3()));
    tablet.push_back(
        resolver.device_iou(sim::days(45), web::nexus6(), web::nexus10()));
    nexus5.push_back(
        resolver.device_iou(sim::days(45), web::nexus6(), web::nexus5()));
  }
  harness::print_cdf_table(
      "Intersection over Union (compared to a Nexus 6)", "IoU",
      {{"OnePlus 3", oneplus}, {"Nexus 10", tablet}, {"Nexus 5", nexus5}});
  bench::export_manifest("fig09_device_similarity", top.size());
  return 0;
}
