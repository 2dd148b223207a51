// Deterministic random streams for reproducible experiments.
//
// Every experiment derives independent generators from a root seed plus a
// string "purpose" tag (e.g. "page:news:17:layout"), so adding a new draw in
// one module never perturbs the stream consumed by another. This property is
// what makes the per-figure benches stable as the codebase grows.
#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
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
