#include "deploy/population.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory_resource>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>

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

// The engine of one precomputed word: a sim::weighted draw reads exactly
// one word (uniform_real_distribution<double> takes ceil(53 / 64) = 1 word
// from a 64-bit engine), so handing it output 0 of std::mt19937_64(seed)
// draws what the engine itself would.
struct OneWord {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return std::mt19937_64::min(); }
  static constexpr result_type max() { return std::mt19937_64::max(); }
  result_type operator()() const { return word; }
  result_type word;
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

// A NaN skew would reach the samplers' float-to-index cast, and an
// infinite rate the stream's reserve.
void check_finite(const PopulationConfig& cfg) {
  const std::pair<const char*, double> fields[] = {
      {"user_skew", cfg.user_skew},
      {"page_skew", cfg.page_skew},
      {"mean_arrivals_per_sec", cfg.mean_arrivals_per_sec}};
  for (const auto& [name, value] : fields) {
    if (!std::isfinite(value)) {
      throw std::invalid_argument(std::string(name) + ": must be finite");
    }
  }
}

}  // namespace

ZipfSampler::ZipfSampler(int n, double s, std::pmr::memory_resource* mem)
    : cum_(mem), guide_(static_cast<std::size_t>(std::max(0, n)), 0, mem),
      s_(s) {
  cum_.reserve(guide_.size() + 1);
  for (int r = 0; r < n; ++r) {
    total_ += zipf_weight(r, s);
    cum_.push_back(total_);
  }
  if (!std::isfinite(total_)) {
    throw std::invalid_argument("ZipfSampler: weights of exponent " +
                                std::to_string(s) +
                                " have no finite total");
  }
  // Stops a draw of u >= total at index n, where upper_bound stops.
  cum_.push_back(std::numeric_limits<double>::infinity());
  if (n <= 0) return;
  scale_ = static_cast<double>(n) / total_;
  std::uint32_t r = 0;
  for (std::size_t b = 0; b < guide_.size(); ++b) {
    while (r < static_cast<std::uint32_t>(n) && bucket(cum_[r]) < b) ++r;
    guide_[b] = r;
  }
}

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
                                      std::uint64_t seed,
                                      const ZipfSampler& user_sampler) {
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
  check_finite(cfg);
  if (user_sampler.size() != std::max(0, cfg.users) ||
      user_sampler.exponent() != cfg.user_skew) {
    throw std::invalid_argument(
        "build_population: the user table is not ZipfSampler(users, "
        "user_skew)");
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
  const ZipfSampler page_sampler(num_pages, cfg.page_skew, arena.get());

  // Pass 1, in arrival order: when, who and which page. Thinning
  // (Lewis-Shedler): candidates from a homogeneous process at the peak
  // rate, accepted with probability rate(t)/peak. Each accepted arrival
  // takes one user draw and one page draw from streams of their own, so
  // drawing every time first, then the whole user column, then the whole
  // page column gives each stream the sequence an interleaved loop gives
  // it, with one stream's state and one table per loop.
  const double peak_rate = cfg.mean_arrivals_per_sec * max_mult;
  sim::Time t = 0;
  while (true) {
    t += sim::from_seconds(arrival_rng.exponential(1.0 / peak_rate));
    if (t >= cfg.window) break;
    if (!arrival_rng.chance(profile[hour_of(t)] / max_mult)) continue;
    Arrival a;
    a.at = t;
    arrivals.push_back(a);
  }
  for (Arrival& a : arrivals) {
    a.user = static_cast<std::uint32_t>(user_sampler.draw(who_rng));
  }
  for (Arrival& a : arrivals) {
    a.page = static_cast<std::uint16_t>(page_sampler.draw(page_rng));
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
  // which reads only the engine's output 0. Only users with arrivals draw,
  // and their first words are seeded in one batch. An arrival is warm when
  // the same user's previous visit to the page, in time order within the
  // user's group, is at most warm_ttl before it; the page-indexed table
  // holds the last visit and the user it belongs to, so no user's visits
  // leak into the next group.
  std::pmr::vector<std::uint64_t> device_words(arena.get());
  device_words.reserve(std::min(users, arrivals.size()));
  for (std::uint32_t u = 0; u < users; ++u) {
    if (group_end[u] != (u == 0 ? 0 : group_end[u - 1])) {
      device_words.push_back(sim::derive_seed(root, std::uint64_t{u}));
    }
  }
  sim::mt64_first_words(device_words);
  struct LastVisit {
    std::uint32_t user = std::numeric_limits<std::uint32_t>::max();  // none
    sim::Time at = 0;
  };
  std::pmr::vector<LastVisit> last_visit(static_cast<std::size_t>(num_pages),
                                         LastVisit{}, arena.get());
  const std::uint64_t* word = device_words.data();
  std::uint32_t begin = 0;
  for (std::uint32_t u = 0; u < users; ++u) {
    const std::uint32_t end = group_end[u];
    if (begin == end) continue;
    OneWord stream{*word++};
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

std::vector<Arrival> build_population(int num_pages,
                                      const PopulationConfig& cfg,
                                      std::uint64_t seed) {
  // Checked before the table is built from the skew.
  check_finite(cfg);
  sim::PooledArena arena;
  return build_population(
      num_pages, cfg, seed,
      ZipfSampler(cfg.users, cfg.user_skew, arena.get()));
}

}  // namespace vroom::deploy
