// vroom-sim command-line driver: run custom sweeps without writing C++.
//
//   vroom_cli [--class news|sports|top100|mixed400] [--pages N] [--seed S]
//             [--strategy NAME]... [--network lte|wifi|3g|loaded]
//             [--loss RATE] [--rrc MS] [--loads N]
//             [--trace FILE]        # load one page from a trace instead
//             [--dump-trace FILE]   # write the first generated page and exit
//             [--csv FILE]          # also write per-page PLTs as CSV
//             [--list]              # list strategy names and exit
//
// Examples:
//   vroom_cli --class news --pages 25 --strategy vroom --strategy http2
//   vroom_cli --network 3g --loss 0.01 --strategy vroom
//   vroom_cli --dump-trace page.trace && vim page.trace
//   vroom_cli --trace page.trace --strategy vroom --strategy http2
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/strategies.h"
#include "harness/experiment.h"
#include "harness/export.h"
#include "harness/report.h"
#include "web/corpus.h"
#include "web/trace_io.h"

namespace {

using namespace vroom;

struct NamedStrategy {
  const char* name;
  baselines::Strategy (*make)();
};

const NamedStrategy kStrategies[] = {
    {"http1", baselines::http11},
    {"http2", baselines::http2_baseline},
    {"push-all-static", baselines::push_all_static},
    {"vroom", baselines::vroom},
    {"vroom-first-party", baselines::vroom_first_party_only},
    {"vroom-prev-load", baselines::vroom_prev_load_deps},
    {"vroom-offline-only", baselines::vroom_offline_only},
    {"vroom-online-only", baselines::vroom_online_only},
    {"push-high-prio", baselines::push_high_prio_no_hints},
    {"push-all", baselines::push_all_no_hints},
    {"push-all-fetch-asap", baselines::push_all_fetch_asap},
    {"polaris", baselines::polaris},
    {"vroom-polaris", baselines::vroom_plus_polaris},
    {"lower-bound-net", baselines::lower_bound_network},
    {"lower-bound-cpu", baselines::lower_bound_cpu},
};

std::optional<baselines::Strategy> strategy_by_name(const std::string& n) {
  for (const auto& s : kStrategies) {
    if (n == s.name) return s.make();
  }
  return std::nullopt;
}

std::optional<web::PageClass> class_by_name(const std::string& n) {
  if (n == "top100") return web::PageClass::Top100;
  if (n == "news") return web::PageClass::News;
  if (n == "sports") return web::PageClass::Sports;
  if (n == "mixed400") return web::PageClass::Mixed400;
  return std::nullopt;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--class C] [--pages N] [--seed S] [--strategy "
               "NAME]... [--network lte|wifi|3g|loaded] [--loss RATE] "
               "[--rrc MS] [--loads N] [--trace FILE] [--dump-trace FILE] "
               "[--csv FILE] [--list]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  web::PageClass cls = web::PageClass::News;
  int pages = 20;
  std::uint64_t seed = 42;
  std::vector<baselines::Strategy> strategies;
  net::NetworkConfig network = net::NetworkConfig::lte();
  harness::RunOptions opt;
  std::string trace_file, dump_trace, csv_file;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--list") {
      for (const auto& s : kStrategies) std::printf("%s\n", s.name);
      return 0;
    } else if (arg == "--class") {
      const char* v = next();
      auto c = v ? class_by_name(v) : std::nullopt;
      if (!c) return usage(argv[0]);
      cls = *c;
    } else if (arg == "--pages") {
      const char* v = next();
      if (!v || (pages = std::atoi(v)) <= 0) return usage(argv[0]);
    } else if (arg == "--seed") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--strategy") {
      const char* v = next();
      auto s = v ? strategy_by_name(v) : std::nullopt;
      if (!s) {
        std::fprintf(stderr, "unknown strategy; try --list\n");
        return 2;
      }
      strategies.push_back(*s);
    } else if (arg == "--network") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      const std::string n = v;
      if (n == "lte") network = net::NetworkConfig::lte();
      else if (n == "wifi") network = net::NetworkConfig::wifi();
      else if (n == "3g") network = net::NetworkConfig::threeg();
      else if (n == "loaded") network = net::NetworkConfig::lte_loaded();
      else return usage(argv[0]);
    } else if (arg == "--loss") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      network.loss_rate = std::atof(v);
    } else if (arg == "--rrc") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      network.radio_promotion = sim::ms(std::atoi(v));
    } else if (arg == "--loads") {
      const char* v = next();
      if (!v || (opt.loads_per_page = std::atoi(v)) <= 0) return usage(argv[0]);
    } else if (arg == "--trace") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      trace_file = v;
    } else if (arg == "--dump-trace") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      dump_trace = v;
    } else if (arg == "--csv") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      csv_file = v;
    } else {
      return usage(argv[0]);
    }
  }
  if (strategies.empty()) {
    strategies = {baselines::vroom(), baselines::http2_baseline()};
  }
  opt.seed = seed;
  opt.network = network;

  // Assemble the page set.
  std::vector<web::PageModel> page_set;
  if (!trace_file.empty()) {
    std::ifstream f(trace_file);
    if (!f) {
      std::fprintf(stderr, "cannot open %s\n", trace_file.c_str());
      return 1;
    }
    std::stringstream buf;
    buf << f.rdbuf();
    std::string error;
    auto page = web::page_from_trace(buf.str(), &error);
    if (!page) {
      std::fprintf(stderr, "trace parse error: %s\n", error.c_str());
      return 1;
    }
    page_set.push_back(std::move(*page));
  } else {
    for (int i = 0; i < pages; ++i) {
      page_set.push_back(
          web::generate_page(seed, static_cast<std::uint32_t>(i), cls));
    }
  }

  if (!dump_trace.empty()) {
    std::ofstream f(dump_trace);
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", dump_trace.c_str());
      return 1;
    }
    web::write_trace(f, page_set.front());
    std::printf("wrote %s (%zu resources)\n", dump_trace.c_str(),
                page_set.front().size());
    return 0;
  }

  std::vector<harness::Series> plt_series;
  for (const auto& strategy : strategies) {
    std::vector<double> plts;
    for (const auto& page : page_set) {
      const auto r = harness::run_page_median(page, strategy, opt);
      plts.push_back(sim::to_seconds(r.plt));
    }
    plt_series.emplace_back(strategy.name, std::move(plts));
  }
  harness::print_cdf_table("Page Load Time", "seconds", plt_series);
  harness::print_quartile_bars("Page Load Time", "seconds", plt_series);

  if (!csv_file.empty()) {
    if (harness::write_csv(csv_file, harness::series_to_csv(plt_series))) {
      std::printf("\nwrote %s\n", csv_file.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", csv_file.c_str());
      return 1;
    }
  }
  return 0;
}
