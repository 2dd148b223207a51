#include "web/corpus.h"

#include <stdexcept>
#include <string>

namespace vroom::web {

void Corpus::add_pages(PageClass cls, int count, std::uint32_t first_id) {
  if (count < 0) {
    throw std::invalid_argument("Corpus::add_pages: negative count " +
                                std::to_string(count));
  }
  pages_.reserve(pages_.size() + static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    pages_.push_back(
        generate_page(seed_, first_id + static_cast<std::uint32_t>(i), cls));
  }
}

Corpus Corpus::top100(std::uint64_t seed) {
  Corpus c("top100", seed);
  c.add_pages(PageClass::Top100, 100);
  return c;
}

Corpus Corpus::news_sports(std::uint64_t seed) {
  Corpus c("news+sports", seed);
  c.add_pages(PageClass::News, 50);
  c.add_pages(PageClass::Sports, 50, /*first_id=*/100);
  return c;
}

Corpus Corpus::mixed400_sample(std::uint64_t seed, int count) {
  Corpus c("mixed400", seed);
  c.add_pages(PageClass::Mixed400, count, /*first_id=*/200);
  return c;
}

Corpus Corpus::accuracy_set(std::uint64_t seed, int count) {
  Corpus c("accuracy265", seed);
  const int news = count / 2;
  c.add_pages(PageClass::News, news, /*first_id=*/1000);
  c.add_pages(PageClass::Sports, count - news,
              /*first_id=*/1000 + static_cast<std::uint32_t>(news));
  return c;
}

Corpus Corpus::smoke(std::uint64_t seed, int count) {
  Corpus c("smoke", seed);
  c.add_pages(PageClass::News, count, /*first_id=*/9000);
  return c;
}

}  // namespace vroom::web
