// Page corpora mirroring the paper's evaluation sets.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "web/page_generator.h"
#include "web/page_model.h"

namespace vroom::web {

class Corpus {
 public:
  Corpus(std::string name, std::uint64_t seed) : name_(std::move(name)),
                                                 seed_(seed) {}

  const std::string& name() const { return name_; }
  std::uint64_t seed() const { return seed_; }
  const std::vector<PageModel>& pages() const { return pages_; }
  std::size_t size() const { return pages_.size(); }
  const PageModel& page(std::size_t i) const { return pages_[i]; }

  // Appends `count` generated pages with ids first_id, first_id + 1, ...;
  // throws std::invalid_argument for a negative count.
  void add_pages(PageClass cls, int count, std::uint32_t first_id = 0);
  void add_page(PageModel page) { pages_.push_back(std::move(page)); }

  // Alexa US top-100 landing pages (Figures 1, 7, 9).
  static Corpus top100(std::uint64_t seed);
  // Top-50 News + top-50 Sports landing pages (most figures).
  static Corpus news_sports(std::uint64_t seed);
  // 100 random pages from the top 400 (§6.1).
  static Corpus mixed400_sample(std::uint64_t seed, int count = 100);
  // 265 pages from News/Sports sites spanning page types (§6.2, Fig 21).
  static Corpus accuracy_set(std::uint64_t seed, int count = 265);
  // A small smoke corpus for tests.
  static Corpus smoke(std::uint64_t seed, int count = 4);

 private:
  std::string name_;
  std::uint64_t seed_;
  std::vector<PageModel> pages_;
};

}  // namespace vroom::web
