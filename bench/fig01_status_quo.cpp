// Figure 1: page load times on today's mobile web — CDF across the Alexa
// top-100 versus the top-50 News + top-50 Sports sites, loaded over LTE with
// the status-quo protocol mix (HTTP/1.1-dominant in 2017).
#include "bench_common.h"

int main() {
  using namespace vroom;
  bench::banner("Figure 1", "PLT on today's mobile web (status quo)");
  const harness::RunOptions opt = bench::default_options();

  const web::Corpus top = web::Corpus::top100(bench::kSeed);
  const web::Corpus ns = web::Corpus::news_sports(bench::kSeed);
  const baselines::Strategy today = baselines::http11();

  // Both corpora ride one SweepPlan pool rather than sweeping back-to-back.
  fleet::SweepPlan plan;
  plan.add(top, today, opt).add(ns, today, opt);
  const auto results = bench::run_plan(plan);

  harness::print_cdf_table(
      "Page Load Time", "seconds",
      {{"Top 100 Overall", results[0].plt_seconds()},
       {"Top 50 News + Top 50 Sports", results[1].plt_seconds()}});
  return 0;
}
