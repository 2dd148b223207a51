// Deterministic random streams for reproducible experiments.
//
// Every experiment derives independent generators from a root seed plus a
// string "purpose" tag (e.g. "page:news:17:layout"), so adding a new draw in
// one module never perturbs the stream consumed by another. This property is
// what makes the per-figure benches stable as the codebase grows.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <random>
#include <span>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace vroom::sim {

// 64-bit FNV-1a; stable across platforms, good enough for seed derivation.
// `h` continues a hash: hash64(b, hash64(a)) == hash64(a + b).
std::uint64_t hash64(std::string_view s,
                     std::uint64_t h = 14695981039346656037ULL);

// Mixes a root seed with a purpose tag into a child seed (splitmix64 finalizer).
std::uint64_t derive_seed(std::uint64_t root, std::string_view purpose);

// derive_seed(root, prefix + suffix), without building the joined string.
std::uint64_t derive_seed(std::uint64_t root, std::string_view prefix,
                          std::string_view suffix);

// Mixes a root seed with a numeric child id (page id, load index, user
// id). The root passes through the splitmix64 finalizer *before* the
// child is folded in, so distinct (root, child) pairs land in unrelated
// streams — unlike a bare `root ^ child`, which collides for every pair of
// inputs with the same XOR (e.g. (seed, page) and (seed ^ d, page ^ d)).
std::uint64_t derive_seed(std::uint64_t root, std::uint64_t child);

// Engine-generic draws: the one definition of uniform, chance, weighted and
// lognormal. Rng's methods are these over its std::mt19937_64, so any other
// engine that yields the same words (Mt64Lazy) yields the same values.

// Uniform real in [lo, hi).
template <typename Engine>
double uniform(Engine& engine, double lo, double hi) {
  std::uniform_real_distribution<double> d(lo, hi);
  return d(engine);
}

// True with probability p; draws nothing when p <= 0 or p >= 1.
template <typename Engine>
bool chance(Engine& engine, double p) {
  if (p <= 0) return false;
  if (p >= 1) return true;
  return uniform(engine, 0.0, 1.0) < p;
}

// Picks an index in [0, weights.size()) proportionally to weights.
template <typename Engine>
std::size_t weighted(Engine& engine, const std::vector<double>& weights) {
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  if (total <= 0) throw std::invalid_argument("weighted: non-positive total");
  double x = uniform(engine, 0.0, total);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (x < weights[i]) return i;
    x -= weights[i];
  }
  return weights.size() - 1;
}

// Log-normal parameterized by the *median* and sigma of the underlying
// normal — resource sizes and RTTs on the web are classically log-normal.
template <typename Engine>
double lognormal(Engine& engine, double median, double sigma) {
  std::lognormal_distribution<double> d(std::log(median), sigma);
  return d(engine);
}

// Replaces each seed in `words` with output 0 of std::mt19937_64(seed),
// the one word a single draw from a fresh engine reads. Each output is the
// end of a 156-step seeding chain of dependent multiplies; one chain
// leaves the multiplier idle while each step waits on the last, so eight
// seeds' chains run interleaved and their multiplies overlap.
void mt64_first_words(std::span<std::uint64_t> words);

// Exactly the output stream of std::mt19937_64(seed), for a stream drawn
// from only a few times. The engine seeds all 312 state words and then
// regenerates all 312 on its first draw; output k < 156 of a fresh engine,
// though, only twists seeded words k, k+1 and k+156. So the first draw runs
// the standard's seeding recurrence ([rand.eng.mers]) to word 156 and each
// later draw one word further. The recurrence is a chain of dependent
// multiplies, and the first draw's 156 steps are the cost of a short
// stream: seed_to keeps the previous word in a register instead of
// reloading it from the ring (a caller that needs only output 0 of many
// seeds batches them through mt64_first_words instead). A stream that
// reaches output 156 builds the full engine once, discards the outputs
// already drawn and continues from it, so any number of draws (a rejection
// loop's, say) stays exact.
class Mt64Lazy {
 public:
  using result_type = std::uint64_t;

  explicit Mt64Lazy(std::uint64_t seed) : seed_(seed) { words_[0] = seed; }

  static constexpr result_type min() { return std::mt19937_64::min(); }
  static constexpr result_type max() { return std::mt19937_64::max(); }

  result_type operator()() {
    if (next_ >= kShift) return from_engine();
    if (seeded_ <= next_ + kShift) seed_to(next_ + kShift + 1);
    return twist(next_++);
  }

 private:
  static constexpr std::size_t kShift = std::mt19937_64::shift_size;  // 156
  // Output k reads seeded words k, k+1 and k+kShift, so the last kShift+1
  // seeded words suffice: word i lives at i % kWords, and word k+kShift+1,
  // seeded for output k+1, takes the place of word k.
  static constexpr std::size_t kWords = kShift + 1;

  // Seeds words [seeded_, end).
  void seed_to(std::size_t end) {
    using Mt = std::mt19937_64;
    std::size_t slot = seeded_ % kWords;
    std::uint64_t prev = words_[slot == 0 ? kWords - 1 : slot - 1];
    for (std::size_t i = seeded_; i < end; ++i) {
      prev = Mt::initialization_multiplier *
                 (prev ^ (prev >> (Mt::word_size - 2))) +
             i;
      words_[slot] = prev;
      if (++slot == kWords) slot = 0;
    }
    seeded_ = end;
  }
  // Output k < kShift from seeded words k, k+1 and k+kShift.
  result_type twist(std::size_t k) const;
  result_type from_engine();

  std::uint64_t seed_;
  std::array<std::uint64_t, kWords> words_{};
  std::size_t seeded_ = 1;  // words [0, seeded_) have been seeded
  std::size_t next_ = 0;    // index of the next output
  std::unique_ptr<std::mt19937_64> engine_;  // from output kShift on
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}
  Rng(std::uint64_t root, std::string_view purpose)
      : engine_(derive_seed(root, purpose)) {}

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  // Uniform real in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0);
  bool chance(double p);

  // See sim::lognormal.
  double lognormal(double median, double sigma);

  double exponential(double mean);
  double normal(double mean, double stddev);

  // Picks an index in [0, weights.size()) proportionally to weights.
  std::size_t weighted(const std::vector<double>& weights);

 private:
  std::mt19937_64 engine_;
};

}  // namespace vroom::sim
