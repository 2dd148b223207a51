// Small statistics helpers shared by benches and tests.
#pragma once

#include <vector>

namespace vroom::harness {

// Linear-interpolated percentile; `p` in [0, 100]. Returns 0 for empty input.
// Selects the two order statistics it interpolates between in linear time
// instead of sorting; the value is percentile_sorted's over a sorted copy.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

// Same interpolation over already-sorted input.
double percentile_sorted(const std::vector<double>& sorted, double p);

struct Quartiles {
  double p25 = 0, p50 = 0, p75 = 0;
};
Quartiles quartiles(const std::vector<double>& values);

}  // namespace vroom::harness
