#include "deploy/population.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory_resource>
#include <stdexcept>
#include <string>

#include "sim/arena.h"
#include "sim/random.h"

namespace vroom::deploy {

namespace {

// The largest page count and device mix build_population accepts: Arrival
// narrows page and device indices to these field widths.
constexpr int kMaxPages =
    std::numeric_limits<decltype(Arrival::page)>::max() + 1;
constexpr int kMaxDevices =
    std::numeric_limits<decltype(Arrival::device)>::max() + 1;

double zipf_weight(int rank, double s) {
  return 1.0 / std::pow(static_cast<double>(rank + 1), s);
}

// Zipf-style sampler over n ranks with exponent s: weight(r) = 1/(r+1)^s.
// Rng::weighted is O(n) per draw; at population scale (10^5 users, 10^5
// arrivals) that is quadratic, so precompute cumulative weights once. A
// draw of u returns the first rank whose cumulative weight exceeds u
// (upper_bound's index, n for u >= total). It starts from a guide table of
// n equal buckets over [0, total): guide_[b] is the first rank whose
// cumulative weight lies in bucket b or later. Every rank before it lies in
// an earlier bucket, so below any u of bucket b (bucket() is monotone), and
// stepping forward from it finds upper_bound's index exactly, a rank or two
// into the tail instead of a 17-step binary search. Both tables live on the
// caller's arena.
class ZipfSampler {
 public:
  ZipfSampler(int n, double s, std::pmr::memory_resource* mem)
      : cum_(mem), guide_(static_cast<std::size_t>(n), 0, mem) {
    cum_.reserve(static_cast<std::size_t>(n) + 1);
    for (int r = 0; r < n; ++r) {
      total_ += zipf_weight(r, s);
      cum_.push_back(total_);
    }
    // Stops a draw of u >= total at index n, where upper_bound stops.
    cum_.push_back(std::numeric_limits<double>::infinity());
    scale_ = static_cast<double>(n) / total_;
    std::uint32_t r = 0;
    for (std::size_t b = 0; b < guide_.size(); ++b) {
      while (r < static_cast<std::uint32_t>(n) && bucket(cum_[r]) < b) ++r;
      guide_[b] = r;
    }
  }

  int draw(sim::Rng& rng) const {
    const double u = rng.uniform(0.0, total_);
    std::size_t i = guide_[bucket(u)];
    while (cum_[i] <= u) ++i;
    return static_cast<int>(i);
  }

 private:
  std::size_t bucket(double u) const {
    return std::min(static_cast<std::size_t>(u * scale_), guide_.size() - 1);
  }

  std::pmr::vector<double> cum_;
  std::pmr::vector<std::uint32_t> guide_;
  double total_ = 0.0;
  double scale_ = 0.0;
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
    w[static_cast<std::size_t>(r)] = zipf_weight(r, s);
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
  // Arrival narrows the page and device indices: an index past the field
  // would alias.
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

  // Scratch of both passes, on the thread's pooled arena: a level task's
  // later worlds reuse its chunks, where a per-call vector's freed
  // megabytes stay resident in the allocator's per-thread heaps.
  sim::PooledArena arena;
  const ZipfSampler user_sampler(cfg.users, cfg.user_skew, arena.get());
  const ZipfSampler page_sampler(num_pages, cfg.page_skew, arena.get());

  // Pass 1, in arrival order: when, who and which page. Thinning
  // (Lewis-Shedler): candidates from a homogeneous process at the peak
  // rate, accepted with probability rate(t)/peak.
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
    arrivals.push_back(a);
  }

  // Pass 2, in user order. A stable counting sort groups arrival indices
  // by user, each group in arrival (= time) order: after placement,
  // group_end[u] is where user u's group ends and user u+1's begins.
  const auto users = static_cast<std::size_t>(cfg.users);
  std::pmr::vector<std::uint32_t> group_end(users + 1, 0, arena.get());
  for (const Arrival& a : arrivals) ++group_end[a.user + 1];
  for (std::size_t u = 1; u < users; ++u) group_end[u] += group_end[u - 1];
  std::pmr::vector<std::uint32_t> by_user(arrivals.size(), 0, arena.get());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    by_user[group_end[arrivals[i].user]++] = static_cast<std::uint32_t>(i);
  }

  // A user's device is a pure function of (root, user), so drawing it in
  // user order gives each user the device a draw on their first arrival
  // would: the first draw of std::mt19937_64(derive_seed(root, user)),
  // whose first word Mt64Lazy yields without building the engine. Only
  // users with arrivals draw. An arrival is warm when the same user's
  // previous visit to the page, in time order within the user's group, is
  // at most warm_ttl before it; the page-indexed table holds the last
  // visit and the user it belongs to, so no user's visits leak into the
  // next group.
  struct LastVisit {
    std::uint32_t user = std::numeric_limits<std::uint32_t>::max();  // none
    sim::Time at = 0;
  };
  std::pmr::vector<LastVisit> last_visit(static_cast<std::size_t>(num_pages),
                                         LastVisit{}, arena.get());
  std::uint32_t begin = 0;
  for (std::uint32_t u = 0; u < users; ++u) {
    const std::uint32_t end = group_end[u];
    if (begin == end) continue;
    sim::Mt64Lazy stream(sim::derive_seed(root, std::uint64_t{u}));
    const auto device =
        static_cast<std::uint8_t>(sim::weighted(stream, mix_weights));
    for (std::uint32_t j = begin; j < end; ++j) {
      Arrival& a = arrivals[by_user[j]];
      a.device = device;
      LastVisit& last = last_visit[a.page];
      a.warm = last.user == u && a.at - last.at <= cfg.warm_ttl;
      last = LastVisit{u, a.at};
    }
    begin = end;
  }
  return arrivals;
}

}  // namespace vroom::deploy
