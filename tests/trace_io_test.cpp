#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/strategies.h"
#include "harness/experiment.h"
#include "harness/export.h"
#include "web/page_generator.h"
#include "web/trace_io.h"

namespace vroom::web {
namespace {

class TraceRoundTrip : public ::testing::TestWithParam<PageClass> {};

TEST_P(TraceRoundTrip, EveryFieldSurvives) {
  const PageModel page = generate_page(42, 8, GetParam());
  std::string error;
  auto parsed = page_from_trace(page_to_trace(page), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->size(), page.size());
  EXPECT_EQ(parsed->page_id(), page.page_id());
  EXPECT_EQ(parsed->page_class(), page.page_class());
  EXPECT_EQ(parsed->first_party(), page.first_party());
  EXPECT_EQ(parsed->first_party_group(), page.first_party_group());
  for (std::size_t i = 0; i < page.size(); ++i) {
    const Resource& a = page.resource(i);
    const Resource& b = parsed->resource(i);
    EXPECT_EQ(a.parent, b.parent) << i;
    EXPECT_EQ(a.type, b.type) << i;
    EXPECT_EQ(a.via, b.via) << i;
    EXPECT_NEAR(a.discovery_offset, b.discovery_offset, 1e-6) << i;
    EXPECT_EQ(a.base_size, b.base_size) << i;
    EXPECT_EQ(a.domain, b.domain) << i;
    EXPECT_EQ(a.volatility, b.volatility) << i;
    EXPECT_EQ(a.rotation_period, b.rotation_period) << i;
    EXPECT_EQ(a.rotation_phase, b.rotation_phase) << i;
    EXPECT_EQ(a.is_iframe_doc, b.is_iframe_doc) << i;
    EXPECT_EQ(a.in_iframe, b.in_iframe) << i;
    EXPECT_EQ(a.async, b.async) << i;
    EXPECT_EQ(a.blocks_parser, b.blocks_parser) << i;
    EXPECT_EQ(a.cacheable, b.cacheable) << i;
    EXPECT_EQ(a.max_age, b.max_age) << i;
    EXPECT_EQ(a.above_fold, b.above_fold) << i;
    EXPECT_NEAR(a.visual_weight, b.visual_weight, 1e-6) << i;
    EXPECT_EQ(a.device_axis, b.device_axis) << i;
    EXPECT_EQ(a.post_onload, b.post_onload) << i;
    EXPECT_EQ(a.blocks_onload, b.blocks_onload) << i;
    EXPECT_EQ(a.first_party_personalized, b.first_party_personalized) << i;
    EXPECT_EQ(a.url_page_override, b.url_page_override) << i;
  }
}

TEST_P(TraceRoundTrip, ReimportedPageLoadsIdentically) {
  const PageModel page = generate_page(42, 8, GetParam());
  auto parsed = page_from_trace(page_to_trace(page));
  ASSERT_TRUE(parsed.has_value());
  harness::RunOptions opt;
  const auto a =
      harness::run_page_load(page, baselines::http2_baseline(), opt, 1);
  const auto b =
      harness::run_page_load(*parsed, baselines::http2_baseline(), opt, 1);
  EXPECT_EQ(a.plt, b.plt);
  EXPECT_EQ(a.bytes_fetched, b.bytes_fetched);
  EXPECT_EQ(a.requests, b.requests);
}

INSTANTIATE_TEST_SUITE_P(AllClasses, TraceRoundTrip,
                         ::testing::Values(PageClass::Top100, PageClass::News,
                                           PageClass::Sports,
                                           PageClass::Mixed400),
                         [](const auto& info) {
                           return std::string(page_class_name(info.param));
                         });

TEST(TraceErrors, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(page_from_trace("", &error).has_value());
  EXPECT_FALSE(page_from_trace("res id=0\n", &error).has_value());
  EXPECT_EQ(error.find("res before page"), 0u);
  EXPECT_FALSE(
      page_from_trace("page id=1 class=bogus first_party=x.com\n", &error)
          .has_value());
  // Non-dense ids.
  const char* gap =
      "page id=1 class=news first_party=x.com\n"
      "res id=0 parent=-1 type=html via=tag off=0 size=1000 domain=x.com "
      "vol=hourly period=100 phase=0\n"
      "res id=2 parent=0 type=js via=tag off=0.5 size=100 domain=x.com "
      "vol=stable period=100 phase=0\n";
  EXPECT_FALSE(page_from_trace(gap, &error).has_value());
  // Parent after child.
  const char* bad_parent =
      "page id=1 class=news first_party=x.com\n"
      "res id=0 parent=-1 type=html via=tag off=0 size=1000 domain=x.com "
      "vol=hourly period=100 phase=0\n"
      "res id=1 parent=1 type=js via=tag off=0.5 size=100 domain=x.com "
      "vol=stable period=100 phase=0\n";
  EXPECT_FALSE(page_from_trace(bad_parent, &error).has_value());
  // Unknown flag.
  const char* bad_flag =
      "page id=1 class=news first_party=x.com\n"
      "res id=0 parent=-1 type=html via=tag off=0 size=1000 domain=x.com "
      "vol=hourly period=100 phase=0 flags=bogus\n";
  EXPECT_FALSE(page_from_trace(bad_flag, &error).has_value());
  // Root must be HTML.
  const char* bad_root =
      "page id=1 class=news first_party=x.com\n"
      "res id=0 parent=-1 type=js via=tag off=0 size=1000 domain=x.com "
      "vol=stable period=100 phase=0\n";
  EXPECT_FALSE(page_from_trace(bad_root, &error).has_value());
  // A domain with a '/' would realize URLs that parse back wrong.
  const char* slash_domain =
      "page id=1 class=news first_party=x.com\n"
      "res id=0 parent=-1 type=html via=tag off=0 size=1000 domain=x.com/a "
      "vol=stable period=100 phase=0\n";
  EXPECT_FALSE(page_from_trace(slash_domain, &error).has_value());
  // A token without '=' is not silently skipped.
  const char* stray =
      "page id=1 class=news first_party=x.com\n"
      "res id=0 parent=-1 type=html via=tag off=0 size=1000 domain=x.com "
      "vol=hourly period=100 phase=0 stray\n";
  EXPECT_FALSE(page_from_trace(stray, &error).has_value());
  EXPECT_NE(error.find("stray"), std::string::npos) << error;
  // A repeated key does not silently overwrite the earlier value: this page
  // would otherwise load as a 5-byte document.
  const char* repeated =
      "page id=1 class=news first_party=x.com\n"
      "res id=0 parent=-1 type=html via=tag off=0 size=91234 domain=x.com "
      "vol=hourly period=100 phase=0 size=5\n";
  EXPECT_FALSE(page_from_trace(repeated, &error).has_value());
  EXPECT_NE(error.find("repeated key 'size'"), std::string::npos) << error;
  // Same rule on the page header.
  EXPECT_FALSE(page_from_trace("page id=1 id=2 class=news first_party=x.com\n",
                               &error)
                   .has_value());
  // A second page header would drop the first page and its resources.
  const char* two_pages =
      "page id=1 class=news first_party=x.com\n"
      "res id=0 parent=-1 type=html via=tag off=0 size=1000 domain=x.com "
      "vol=hourly period=100 phase=0\n"
      "page id=2 class=top100 first_party=y.com\n"
      "res id=0 parent=-1 type=html via=tag off=0 size=2000 domain=y.com "
      "vol=hourly period=100 phase=0\n";
  EXPECT_FALSE(page_from_trace(two_pages, &error).has_value());
  EXPECT_NE(error.find("second page header"), std::string::npos) << error;
  // Resource 0 is the root, and every other resource hangs below an earlier
  // one: an orphan would load as a page that never fetches it.
  const auto two_resources = [](const char* root_parent, const char* parent) {
    return std::string("page id=1 class=news first_party=x.com\n"
                       "res id=0 parent=") +
           root_parent +
           " type=html via=tag off=0 size=1000 domain=x.com vol=hourly "
           "period=100 phase=0\n"
           "res id=1 parent=" +
           parent +
           " type=js via=tag off=0.5 size=100 domain=x.com vol=stable "
           "period=100 phase=0\n";
  };
  for (const char* orphan : {"-1", "-5"}) {
    EXPECT_FALSE(
        page_from_trace(two_resources("-1", orphan), &error).has_value())
        << orphan;
    EXPECT_NE(error.find("parent"), std::string::npos) << error;
  }
  EXPECT_FALSE(page_from_trace(two_resources("-2", "0"), &error).has_value());
  EXPECT_NE(error.find("parent"), std::string::npos) << error;
  EXPECT_TRUE(page_from_trace(two_resources("-1", "0"), &error).has_value())
      << error;
  // A device axis outside [-1, kNumDeviceAxes) names no axis; 300 used to
  // wrap to 44.
  for (const char* axis : {"-2", "3", "7", "300"}) {
    const std::string text =
        "page id=1 class=news first_party=x.com\n"
        "res id=0 parent=-1 type=html via=tag off=0 size=1000 domain=x.com "
        "vol=hourly period=100 phase=0 device_axis=" +
        std::string(axis) + "\n";
    EXPECT_FALSE(page_from_trace(text, &error).has_value()) << axis;
    EXPECT_NE(error.find("device_axis"), std::string::npos) << error;
  }
}

// Numeric fields follow the strict whole-value contract (harness/env.cpp):
// the float path used std::stod, which silently accepted trailing garbage,
// hex floats, and inf/nan.
TEST(TraceErrors, RejectsPartiallyParsedNumbers) {
  const auto page_with_off = [](const char* off) {
    return std::string("page id=1 class=news first_party=x.com\n"
                       "res id=0 parent=-1 type=html via=tag off=") +
           off + " size=1000 domain=x.com vol=hourly period=100 phase=0\n";
  };
  std::string error;
  EXPECT_FALSE(page_from_trace(page_with_off("0.5x"), &error).has_value());
  EXPECT_FALSE(page_from_trace(page_with_off("inf"), &error).has_value());
  EXPECT_FALSE(page_from_trace(page_with_off("nan"), &error).has_value());
  EXPECT_FALSE(page_from_trace(page_with_off("0x1"), &error).has_value());
  EXPECT_FALSE(page_from_trace(page_with_off("."), &error).has_value());
  // Plain and scientific notation still parse.
  EXPECT_TRUE(page_from_trace(page_with_off("0.25"), &error).has_value());
  EXPECT_TRUE(page_from_trace(page_with_off("2.5e-1"), &error).has_value());

  // A present optional field parses whole too, or the parse fails naming
  // it: the integer parse used to keep "60" of "max_age=60x", and the
  // others read malformed values as 0.
  const auto page_with = [](const std::string& field) {
    return "page id=1 class=news first_party=x.com\n"
           "res id=0 parent=-1 type=html via=tag off=0 size=1000 "
           "domain=x.com vol=hourly " +
           field + "\n";
  };
  const char* const base = "period=100 phase=0";
  for (const auto& [field, bad] :
       std::vector<std::pair<std::string, std::string>>{
           {"period", "phase=0 period=100x"},
           {"phase", "period=100 phase=abc"},
           {"max_age", std::string(base) + " max_age=60x"},
           {"weight", std::string(base) + " weight=0.5x"},
           {"weight", std::string(base) + " weight=nan"},
           {"device_axis", std::string(base) + " device_axis=1x"},
           {"page_override", std::string(base) + " page_override=-1"},
           {"page_override", std::string(base) + " page_override=7y"}}) {
    EXPECT_FALSE(page_from_trace(page_with(bad), &error).has_value()) << bad;
    EXPECT_NE(error.find("bad " + field), std::string::npos)
        << bad << ": " << error;
  }
  const auto good = page_from_trace(
      page_with(std::string(base) +
                " max_age=60 weight=0.5 device_axis=2 page_override=7"),
      &error);
  ASSERT_TRUE(good.has_value()) << error;
  const Resource& root = good->root();
  EXPECT_EQ(root.max_age, 60);
  EXPECT_EQ(root.visual_weight, 0.5);
  EXPECT_EQ(root.device_axis, 2);
  EXPECT_EQ(root.url_page_override, 7u);
}

TEST(TraceErrors, AcceptsCommentsAndHandwrittenMinimalPage) {
  const char* text =
      "# tiny page\n"
      "page id=9 class=top100 first_party=tiny.com\n"
      "res id=0 parent=-1 type=html via=tag off=0 size=20000 domain=tiny.com "
      "vol=hourly period=1800000000 phase=0 flags=above_fold\n"
      "res id=1 parent=0 type=css via=tag off=0.1 size=5000 domain=tiny.com "
      "vol=stable period=864000000000 phase=0 flags=cacheable\n";
  auto page = page_from_trace(text);
  ASSERT_TRUE(page.has_value());
  EXPECT_EQ(page->size(), 2u);
  harness::RunOptions opt;
  auto r = harness::run_page_load(*page, baselines::vroom(), opt, 1);
  EXPECT_TRUE(r.finished);
}

TEST(ExportTest, SlugifyAndCsvShape) {
  EXPECT_EQ(harness::slugify("Figure 13 (a) Page Load Time"),
            "figure_13_a_page_load_time");
  EXPECT_EQ(harness::slugify("***"), "untitled");
  const std::string csv = harness::series_to_csv(
      {{"A", {1.0, 2.0}}, {"B", {3.0}}});
  EXPECT_EQ(csv, "\"A\",\"B\"\n1,3\n2,\n");
}

TEST(ExportTest, CsvDoublesRoundTripExactly) {
  // The default stream precision (6 significant digits) truncated PLT/AFT
  // series; max_digits10 output must parse back to the identical double.
  const std::vector<double> values = {
      1.0 / 3.0, 0.1, 123456.78901234567, 1e-9, 98765.4321,
      sim::to_seconds(sim::ms(1234567) + 89)};
  const std::string csv = harness::series_to_csv({{"plt_s", values}});
  std::istringstream is(csv);
  std::string line;
  ASSERT_TRUE(std::getline(is, line));  // header
  for (double expected : values) {
    ASSERT_TRUE(std::getline(is, line));
    EXPECT_EQ(std::strtod(line.c_str(), nullptr), expected) << line;
  }
}

TEST(ExportTest, TimingsCsvHasHeaderAndRows) {
  const PageModel page = generate_page(42, 8, PageClass::Top100);
  harness::RunOptions opt;
  auto r = harness::run_page_load(page, baselines::vroom(), opt, 1);
  const std::string csv = harness::timings_to_csv(r);
  EXPECT_NE(csv.find("url,referenced"), std::string::npos);
  EXPECT_GT(std::count(csv.begin(), csv.end(), '\n'), 20);
}

}  // namespace
}  // namespace vroom::web
