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
// draws per candidate arrival, a guide-table step per Zipf draw), one in
// user order (a stable counting sort, one device draw per user with
// arrivals, and a page-indexed last-visit check per arrival). Its scratch
// lives on the thread's pooled arena.
#pragma once

#include <cstdint>
#include <vector>

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

// Generates the full arrival stream over `cfg.window`, sorted by time.
// Deterministic in (num_pages, cfg, seed) only. Throws
// std::invalid_argument for more than 65,536 pages or 256 device classes
// (the widths of Arrival::page and Arrival::device), for a malformed
// diurnal profile, and (from the first device draw) for device weights with
// a non-positive total.
std::vector<Arrival> build_population(int num_pages,
                                      const PopulationConfig& cfg,
                                      std::uint64_t seed);

}  // namespace vroom::deploy
