#include "deploy/population.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "sim/random.h"

namespace vroom::deploy {

namespace {

// The largest page count and device mix build_population accepts: Arrival
// narrows page and device indices to these field widths.
constexpr int kMaxPages =
    std::numeric_limits<decltype(Arrival::page)>::max() + 1;
constexpr int kMaxDevices =
    std::numeric_limits<decltype(Arrival::device)>::max() + 1;

// Zipf-style sampler over n ranks with exponent s: weight(r) = 1/(r+1)^s.
// Rng::weighted is O(n) per draw; at population scale (10^4 users, 10^5
// arrivals) that is quadratic, so precompute cumulative weights once and
// binary-search per draw.
class ZipfSampler {
 public:
  ZipfSampler(int n, double s) {
    const std::vector<double> w = zipf_weights(n, s);
    cum_.reserve(w.size());
    double total = 0.0;
    for (const double v : w) {
      total += v;
      cum_.push_back(total);
    }
  }

  int draw(sim::Rng& rng) const {
    const double u = rng.uniform(0.0, cum_.back());
    const auto it = std::upper_bound(cum_.begin(), cum_.end(), u);
    return static_cast<int>(it - cum_.begin());
  }

 private:
  std::vector<double> cum_;
};

// Scales a profile to mean 1.0: sum in order, then multiply each entry by
// size / sum.
std::vector<double> normalized_profile(std::vector<double> p) {
  double sum = 0.0;
  for (double v : p) {
    if (!std::isfinite(v) || v < 0) {
      throw std::invalid_argument(
          "diurnal: entries must be finite and non-negative");
    }
    sum += v;
  }
  if (!(sum > 0) || !std::isfinite(sum)) {
    throw std::invalid_argument("diurnal: sum must be positive and finite");
  }
  for (double& v : p) v *= static_cast<double>(p.size()) / sum;
  return p;
}

}  // namespace

std::vector<double> zipf_weights(int n, double s) {
  std::vector<double> w(static_cast<std::size_t>(std::max(0, n)));
  for (int r = 0; r < n; ++r) {
    w[static_cast<std::size_t>(r)] =
        1.0 / std::pow(static_cast<double>(r + 1), s);
  }
  return w;
}

std::vector<DeviceShare> default_device_mix() {
  return {
      {web::nexus6(), 0.45},
      {web::nexus5(), 0.30},
      {web::nexus10(), 0.25},
  };
}

std::vector<double> default_diurnal_profile() {
  // Hand-shaped weekday curve: overnight trough (hours 1-5), morning ramp,
  // midday plateau, evening peak around hour 20.
  return normalized_profile({
      0.45, 0.30, 0.22, 0.18, 0.18, 0.25,  // 00-05
      0.45, 0.75, 1.05, 1.20, 1.25, 1.30,  // 06-11
      1.35, 1.30, 1.25, 1.20, 1.25, 1.35,  // 12-17
      1.55, 1.75, 1.85, 1.65, 1.20, 0.72,  // 18-23
  });
}

std::vector<Arrival> build_population(int num_pages,
                                      const PopulationConfig& cfg,
                                      std::uint64_t seed) {
  const std::vector<DeviceShare> mix =
      cfg.device_mix.empty() ? default_device_mix() : cfg.device_mix;
  // Arrival narrows the page and device indices, and the warm-visit key
  // packs the page into 16 bits: an index past the field would alias.
  if (num_pages > kMaxPages) {
    throw std::invalid_argument("build_population: more than " +
                                std::to_string(kMaxPages) + " pages");
  }
  if (mix.size() > static_cast<std::size_t>(kMaxDevices)) {
    throw std::invalid_argument("build_population: more than " +
                                std::to_string(kMaxDevices) +
                                " device classes");
  }
  const std::vector<double> profile =
      cfg.diurnal.empty() ? default_diurnal_profile()
                          : normalized_profile(cfg.diurnal);

  std::vector<Arrival> arrivals;
  if (num_pages <= 0 || cfg.users <= 0 || cfg.window <= 0 ||
      !(cfg.mean_arrivals_per_sec > 0.0)) {
    return arrivals;
  }

  double max_mult = 1.0;
  for (double v : profile) max_mult = std::max(max_mult, v);
  const auto hour_of = [&profile](sim::Time t) {
    return static_cast<std::size_t>((t / sim::hours(1)) %
                                    static_cast<sim::Time>(profile.size()));
  };
  // The expected arrival count: the rate integrated over the window.
  double expected = 0.0;
  for (sim::Time start = 0; start < cfg.window;) {
    const sim::Time span = std::min(sim::hours(1), cfg.window - start);
    expected += profile[hour_of(start)] * sim::to_seconds(span);
    start += span;
  }
  expected *= cfg.mean_arrivals_per_sec;
  // Four standard deviations of headroom: the stream practically never
  // outgrows the reserve, so it never pays a doubling copy.
  const double reserve = expected + 4.0 * std::sqrt(expected) + 16.0;
  arrivals.reserve(static_cast<std::size_t>(
      std::min(reserve, static_cast<double>(arrivals.max_size()))));

  std::vector<double> mix_weights;
  mix_weights.reserve(mix.size());
  for (const DeviceShare& share : mix) mix_weights.push_back(share.weight);

  // Independent streams per concern, so e.g. changing how devices are
  // assigned never shifts which users arrive when.
  const std::uint64_t root = sim::derive_seed(seed, "deploy:population");
  sim::Rng arrival_rng(root, "arrivals");
  sim::Rng who_rng(root, "users");
  sim::Rng page_rng(root, "pages");

  const ZipfSampler user_sampler(cfg.users, cfg.user_skew);
  const ZipfSampler page_sampler(num_pages, cfg.page_skew);

  // Per-user traits are a pure function of (root, user), drawn on the
  // user's first arrival, so they do not depend on arrival order or on
  // where the window ends. They are the device and cookie draws of the
  // stream std::mt19937_64(derive_seed(root, user)), whose first two words
  // Mt64Lazy yields without building the engine.
  struct UserTraits {
    std::uint8_t device = 0;
    bool cookie = false;
    bool drawn = false;
  };
  std::vector<UserTraits> traits(static_cast<std::size_t>(cfg.users));

  // Warm-cache bookkeeping: last visit time per (user, page).
  std::unordered_map<std::uint64_t, sim::Time> last_visit;

  // Thinning (Lewis-Shedler): candidates from a homogeneous process at the
  // peak rate, accepted with probability rate(t)/peak.
  const double peak_rate = cfg.mean_arrivals_per_sec * max_mult;
  sim::Time t = 0;
  while (true) {
    t += sim::from_seconds(arrival_rng.exponential(1.0 / peak_rate));
    if (t >= cfg.window) break;
    if (!arrival_rng.chance(profile[hour_of(t)] / max_mult)) continue;

    Arrival a;
    a.at = t;
    a.user = static_cast<std::uint32_t>(user_sampler.draw(who_rng));
    a.page = static_cast<std::uint16_t>(page_sampler.draw(page_rng));
    UserTraits& ut = traits[a.user];
    if (!ut.drawn) {
      sim::Mt64Lazy stream(
          sim::derive_seed(root, static_cast<std::uint64_t>(a.user)));
      ut.device =
          static_cast<std::uint8_t>(sim::weighted(stream, mix_weights));
      ut.cookie = sim::chance(stream, cfg.cookie_frac);
      ut.drawn = true;
    }
    a.device = ut.device;
    a.cookie = ut.cookie;

    const std::uint64_t visit_key =
        (static_cast<std::uint64_t>(a.user) << 16) | a.page;
    const auto seen = last_visit.find(visit_key);
    a.warm = seen != last_visit.end() && t - seen->second <= cfg.warm_ttl;
    last_visit[visit_key] = t;

    arrivals.push_back(a);
  }
  return arrivals;
}

}  // namespace vroom::deploy
