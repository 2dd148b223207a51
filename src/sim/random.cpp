#include "sim/random.h"

#include <algorithm>
#include <cmath>

namespace vroom::sim {

std::uint64_t hash64(std::string_view s, std::uint64_t h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

namespace {

// splitmix64 finalizer — a bijective mix that decorrelates nearby inputs.
std::uint64_t splitmix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t root, std::string_view purpose) {
  return splitmix64(root ^ hash64(purpose));
}

std::uint64_t derive_seed(std::uint64_t root, std::string_view prefix,
                          std::string_view suffix) {
  return splitmix64(root ^ hash64(suffix, hash64(prefix)));
}

std::uint64_t derive_seed(std::uint64_t root, std::uint64_t child) {
  // Finalize the root first so the fold with `child` is not a raw XOR of
  // caller-controlled values (those collide whenever root1^child1 ==
  // root2^child2).
  return splitmix64(splitmix64(root) ^ child);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  std::uniform_int_distribution<std::int64_t> d(lo, hi);
  return d(engine_);
}

double Rng::uniform(double lo, double hi) {
  return sim::uniform(engine_, lo, hi);
}

bool Rng::chance(double p) { return sim::chance(engine_, p); }

double Rng::lognormal(double median, double sigma) {
  return sim::lognormal(engine_, median, sigma);
}

double Rng::pareto(double scale, double shape, double cap) {
  const double u = uniform(0.0, 1.0);
  const double v = scale / std::pow(1.0 - u, 1.0 / shape);
  return std::min(v, cap);
}

double Rng::exponential(double mean) {
  std::exponential_distribution<double> d(1.0 / mean);
  return d(engine_);
}

double Rng::normal(double mean, double stddev) {
  std::normal_distribution<double> d(mean, stddev);
  return d(engine_);
}

std::size_t Rng::weighted(const std::vector<double>& weights) {
  return sim::weighted(engine_, weights);
}

Mt64Lazy::result_type Mt64Lazy::twist(std::size_t k) const {
  using Mt = std::mt19937_64;
  // The first regeneration's word k, then the output tempering.
  constexpr std::uint64_t upper = ~std::uint64_t{0} << Mt::mask_bits;
  const std::uint64_t y = (words_[k] & upper) | (words_[k + 1] & ~upper);
  std::uint64_t z = words_[(k + kShift) % kWords] ^ (y >> 1) ^
                    ((y & 1) ? Mt::xor_mask : 0);
  z ^= (z >> Mt::tempering_u) & Mt::tempering_d;
  z ^= (z << Mt::tempering_s) & Mt::tempering_b;
  z ^= (z << Mt::tempering_t) & Mt::tempering_c;
  z ^= z >> Mt::tempering_l;
  return z;
}

Mt64Lazy::result_type Mt64Lazy::from_engine() {
  if (engine_ == nullptr) {
    engine_ = std::make_unique<std::mt19937_64>(seed_);
    engine_->discard(next_);
  }
  return (*engine_)();
}

}  // namespace vroom::sim
