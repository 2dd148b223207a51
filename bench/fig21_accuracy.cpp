// Figure 21: accuracy of server-side dependency resolution over 265
// News/Sports pages and four cookie-seeded users: (a) the predictable
// subset's share of resources and bytes, (b) false negatives, (c) false
// positives — for Vroom, offline-only, and online-only resolution.
#include "core/accuracy.h"

#include "bench_common.h"

int main() {
  using namespace vroom;
  bench::banner("Figure 21", "server-side dependency-resolution accuracy");
  const web::Corpus acc = web::Corpus::accuracy_set(bench::kSeed);
  const core::OfflineConfig off;
  constexpr core::ResolutionMode modes[] = {
      core::ResolutionMode::OfflinePlusOnline,
      core::ResolutionMode::OfflineOnly, core::ResolutionMode::OnlineOnly};
  constexpr std::size_t kUsers = 4, kModes = std::size(modes);

  // One sample per (page, user, mode), in that nesting order, each written
  // into its own slot.
  std::vector<core::AccuracySample> samples(acc.size() * kUsers * kModes);
  fleet::run_tasks(samples.size(), [&](std::size_t i) {
    const auto user = static_cast<std::uint32_t>(i / kModes % kUsers) + 1;
    samples[i] = core::measure_accuracy(
        acc.page(i / (kUsers * kModes)), sim::days(45), web::nexus6(), user,
        modes[i % kModes], off);
  });

  std::vector<double> pred_count, pred_bytes;
  std::vector<double> fn_vroom, fn_offline, fn_online;
  std::vector<double> fp_vroom, fp_offline, fp_online;
  for (std::size_t i = 0; i < samples.size(); i += kModes) {
    const core::AccuracySample& v = samples[i];
    const core::AccuracySample& o = samples[i + 1];
    const core::AccuracySample& ol = samples[i + 2];
    pred_count.push_back(v.predictable_count_frac);
    pred_bytes.push_back(v.predictable_bytes_frac);
    fn_vroom.push_back(v.false_negative_frac);
    fn_offline.push_back(o.false_negative_frac);
    fn_online.push_back(ol.false_negative_frac);
    fp_vroom.push_back(v.false_positive_frac);
    fp_offline.push_back(o.false_positive_frac);
    fp_online.push_back(ol.false_positive_frac);
  }

  harness::print_cdf_table("(a) Predictable resources / total", "fraction",
                           {{"Count", pred_count}, {"Bytes", pred_bytes}});
  harness::print_cdf_table("(b) False negatives (fraction of predictable)",
                           "fraction",
                           {{"Online Only", fn_online},
                            {"Vroom", fn_vroom},
                            {"Offline Only", fn_offline}});
  harness::print_cdf_table("(c) False positives (fraction of predictable)",
                           "fraction",
                           {{"Vroom", fp_vroom},
                            {"Offline Only", fp_offline},
                            {"Online Only", fp_online}});
  bench::export_manifest("fig21_accuracy", acc.size());
  return 0;
}
