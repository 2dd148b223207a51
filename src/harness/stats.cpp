#include "harness/stats.h"

#include <algorithm>
#include <cmath>

namespace vroom::harness {

namespace {

// The two order statistics a percentile interpolates between, and the
// weight of the upper one.
struct Rank {
  std::size_t lo = 0, hi = 0;
  double frac = 0;
};

Rank rank_of(std::size_t n, double p) {
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(n - 1);
  Rank r;
  r.lo = static_cast<std::size_t>(std::floor(rank));
  r.hi = static_cast<std::size_t>(std::ceil(rank));
  r.frac = rank - static_cast<double>(r.lo);
  return r;
}

}  // namespace

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  if (values.size() == 1) return values[0];
  // Selection, not a sort: nth_element puts the lo-th order statistic in
  // place with nothing smaller after it, so the hi-th (= lo+1-th) is the
  // least of what follows. The same two values as the sorted copy's.
  const Rank r = rank_of(values.size(), p);
  const auto lo = values.begin() + static_cast<std::ptrdiff_t>(r.lo);
  std::nth_element(values.begin(), lo, values.end());
  const double hi =
      r.hi == r.lo ? *lo : *std::min_element(lo + 1, values.end());
  return *lo * (1.0 - r.frac) + hi * r.frac;
}

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  if (sorted.size() == 1) return sorted[0];
  const Rank r = rank_of(sorted.size(), p);
  return sorted[r.lo] * (1.0 - r.frac) + sorted[r.hi] * r.frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

Quartiles quartiles(const std::vector<double>& values) {
  return Quartiles{percentile(values, 25.0), percentile(values, 50.0),
                   percentile(values, 75.0)};
}

}  // namespace vroom::harness
