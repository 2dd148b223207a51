// Deterministic random streams for reproducible experiments.
//
// Every experiment derives independent generators from a root seed plus a
// string "purpose" tag (e.g. "page:news:17:layout"), so adding a new draw in
// one module never perturbs the stream consumed by another. This property is
// what makes the per-figure benches stable as the codebase grows.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace vroom::sim {

// 64-bit FNV-1a; stable across platforms, good enough for seed derivation.
std::uint64_t hash64(std::string_view s);

// Mixes a root seed with a purpose tag into a child seed (splitmix64 finalizer).
std::uint64_t derive_seed(std::uint64_t root, std::string_view purpose);

// Mixes a root seed with a numeric child id (page id, load index, user
// id). The root passes through the splitmix64 finalizer *before* the
// child is folded in, so distinct (root, child) pairs land in unrelated
// streams — unlike a bare `root ^ child`, which collides for every pair of
// inputs with the same XOR (e.g. (seed, page) and (seed ^ d, page ^ d)).
std::uint64_t derive_seed(std::uint64_t root, std::uint64_t child);

// Engine-generic draws: the one definition of uniform, chance and weighted.
// Rng's methods are these over its std::mt19937_64, so any other engine
// that yields the same words (Mt64Head) yields the same values.

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

// The first two outputs of std::mt19937_64(seed), without its 312-word
// state. Output k twists seeded words k, k+1 and k+156, so running the
// standard's seeding recurrence ([rand.eng.mers]) to word 157 and twisting
// two words gives the same values as the engine, which seeds all 312 words
// and then regenerates all 312 on its first draw. For a stream that is
// drawn from at most twice, such as a user's traits.
class Mt64Head {
 public:
  using result_type = std::uint64_t;

  explicit Mt64Head(std::uint64_t seed);

  static constexpr result_type min() { return std::mt19937_64::min(); }
  static constexpr result_type max() { return std::mt19937_64::max(); }

  // Throws std::out_of_range on a third draw.
  result_type operator()() {
    if (next_ == out_.size()) {
      throw std::out_of_range("Mt64Head: only two outputs");
    }
    return out_[next_++];
  }

 private:
  std::array<result_type, 2> out_{};
  std::size_t next_ = 0;
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

  // Log-normal parameterized by the *median* and sigma of the underlying
  // normal — resource sizes and RTTs on the web are classically log-normal.
  double lognormal(double median, double sigma);

  // Bounded Pareto, for heavy-tailed object counts/sizes.
  double pareto(double scale, double shape, double cap);

  double exponential(double mean);
  double normal(double mean, double stddev);

  // Picks an index in [0, weights.size()) proportionally to weights.
  std::size_t weighted(const std::vector<double>& weights);

  template <typename It>
  void shuffle(It first, It last) {
    std::shuffle(first, last, engine_);
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace vroom::sim
