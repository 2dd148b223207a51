// User population model for deployment-scale simulation.
//
// Turns "millions of users against a shared Vroom front-end" into a
// deterministic arrival stream: every arrival carries a user, a page, a
// device class and a warm-cache flag. The process is a non-homogeneous
// Poisson process (thinning against a diurnal rate profile), user activity
// and page popularity are Zipf-distributed, and warm-cache arrivals emerge
// from the revisit history (a user returning to a page within the cache
// TTL arrives warm). Everything derives from one
// seed through the sim::derive_seed chain, so the stream is bit-identical
// on every machine and at any VROOM_JOBS. The expensive per-condition page
// loads run on the fleet. Each offered-load level builds its own stream
// serially on its own task, in two passes: one in arrival order (a few
// draws per candidate arrival, then a guide-table step per Zipf draw, one
// random stream per loop), one in user order (a stable counting sort, a
// device draw per user with arrivals from a batch-seeded first word, and a
// page-indexed last-visit check per arrival). The user Zipf table is the
// caller's, shared by every level of a run; the pass's scratch lives on the
// thread's pooled arena.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory_resource>
#include <vector>

#include "sim/random.h"
#include "sim/time.h"
#include "web/device.h"

namespace vroom::deploy {

// One device class of the population with its traffic share.
struct DeviceShare {
  web::DeviceProfile device;
  double weight = 1.0;
};

// Phone-heavy default mix (weights normalized at sampling time).
std::vector<DeviceShare> default_device_mix();

struct PopulationConfig {
  int users = 100000;          // distinct users behind the arrival stream
  double user_skew = 0.8;      // Zipf exponent of per-user activity
  double page_skew = 0.9;      // Zipf exponent of page popularity
  sim::Time window = sim::hours(24);   // traffic window length
  double mean_arrivals_per_sec = 1.0;  // time-averaged offered load
  // Rate multiplier per hour of day, cycled over the window. build_population
  // scales it to mean 1.0, so mean_arrivals_per_sec stays the average over
  // whole days; entries must be finite and non-negative with a positive
  // sum. Empty = default_diurnal_profile().
  std::vector<double> diurnal;
  // A user re-arriving at the same page within this gap has a warm browser
  // cache (their previous visit's cacheable resources are still fresh).
  sim::Time warm_ttl = sim::hours(12);
  // Device classes and traffic shares. Empty = default_device_mix().
  std::vector<DeviceShare> device_mix;
};

// The two-peak weekday profile (quiet overnight trough, midday plateau,
// evening peak); 24 per-hour multipliers with mean 1.0.
std::vector<double> default_diurnal_profile();

// Unnormalized Zipf weights over n ranks: weight(r) = 1/(r+1)^s. The one
// definition of "which ranks are hot" shared by the population's user/page
// samplers and the scenario's origin-link auto-sizing — the macro pass and
// the link sizing must agree on page popularity, so neither keeps a copy.
// Callers cumulative-sum or normalize as needed (in rank order, so every
// caller's floating-point story stays exactly what it was).
std::vector<double> zipf_weights(int n, double s);

struct Arrival {
  sim::Time at = 0;            // within [0, window)
  std::uint32_t user = 0;
  std::uint16_t page = 0;      // corpus page index
  std::uint8_t device = 0;     // index into the device mix
  bool warm = false;           // revisit within warm_ttl => warm cache

  bool operator==(const Arrival& o) const {
    return at == o.at && user == o.user && page == o.page &&
           device == o.device && warm == o.warm;
  }
};

// Zipf-style sampler over n ranks with exponent s: weight(r) = 1/(r+1)^s,
// the zipf_weights above. Rng::weighted is O(n) per draw; at population
// scale (10^5 users, 10^5 arrivals) that is quadratic, so the cumulative
// weights are summed once. A draw of u returns the first rank whose
// cumulative weight exceeds u (upper_bound's index, n for u >= total). It
// starts from a guide table of n equal buckets over [0, total): guide_[b]
// is the first rank whose cumulative weight lies in bucket b or later.
// Every rank before it lies in an earlier bucket, so below any u of bucket
// b (bucket() is monotone), and stepping forward from it finds
// upper_bound's index exactly, a rank or two into the tail instead of a
// 17-step binary search. Both tables live on `mem`; draws only read them,
// so threads may draw from one sampler at once.
class ZipfSampler {
 public:
  // Throws std::invalid_argument when the weights do not sum to a finite
  // total (a NaN exponent, or a negative one large enough to overflow).
  ZipfSampler(int n, double s,
              std::pmr::memory_resource* mem = std::pmr::get_default_resource());

  int size() const { return static_cast<int>(guide_.size()); }
  double exponent() const { return s_; }

  // One draw from `rng`'s next uniform; size() must be positive.
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
  double s_ = 0.0;
  double total_ = 0.0;
  double scale_ = 0.0;
};

// Generates the full arrival stream over `cfg.window`, sorted by time.
// Deterministic in (num_pages, cfg, seed) only. `users` is the user
// activity table, ZipfSampler(cfg.users, cfg.user_skew) (or of 0 ranks for
// no users): one table serves every stream of that population. Throws
// std::invalid_argument for more than 65,536 pages or 256 device classes
// (the widths of Arrival::page and Arrival::device), for a non-finite
// user_skew, page_skew or mean_arrivals_per_sec, for a `users` table of
// another size or exponent, for a malformed diurnal profile, and (from the
// first device draw) for device weights with a non-positive total.
std::vector<Arrival> build_population(int num_pages,
                                      const PopulationConfig& cfg,
                                      std::uint64_t seed,
                                      const ZipfSampler& users);

// The same stream with a user table of its own.
std::vector<Arrival> build_population(int num_pages,
                                      const PopulationConfig& cfg,
                                      std::uint64_t seed);

}  // namespace vroom::deploy
