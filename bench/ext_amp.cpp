// §8 AMP comparison: how much of Vroom's benefit does an AMP-style page
// rewrite capture, and does Vroom still help AMP pages? (The paper: "VROOM
// can speed up the loads of legacy web pages [and] can also improve the
// performance of AMP-based pages by enabling asynchronous fetches earlier
// using server-provided hints.")
#include "web/amp.h"

#include "bench_common.h"

int main() {
  using namespace vroom;
  bench::banner("AMP comparison", "legacy vs AMP-transformed pages");
  const harness::RunOptions opt = bench::default_options();
  const web::Corpus ns = web::Corpus::news_sports(bench::kSeed);
  web::Corpus amp("amp", bench::kSeed);
  for (const web::PageModel& page : ns.pages()) {
    amp.add_page(web::amp_transform(page));
  }

  fleet::SweepPlan plan;
  plan.add(ns, baselines::http2_baseline(), opt, "Legacy, HTTP/2")
      .add(ns, baselines::vroom(), opt, "Legacy, Vroom")
      .add(amp, baselines::http2_baseline(), opt, "AMP, HTTP/2")
      .add(amp, baselines::vroom(), opt, "AMP, Vroom");
  std::vector<harness::Series> rows;
  for (const harness::CorpusResult& cell : bench::run_plan(plan)) {
    rows.emplace_back(cell.strategy, cell.plt_seconds());
  }
  harness::print_quartile_bars("Page Load Time", "seconds", rows);
  harness::print_stat("median AMP improvement under HTTP/2",
                      harness::median(rows[0].second) -
                          harness::median(rows[2].second),
                      "s");
  harness::print_stat("median Vroom improvement on AMP pages",
                      harness::median(rows[2].second) -
                          harness::median(rows[3].second),
                      "s");
  return 0;
}
