// Typed metrics registry (DESIGN.md §12): the quantitative self-view of a
// run, split into two planes.
//
//   * The *virtual* plane holds metrics whose values are a pure function of
//     the simulated world — deploy macro PLT distributions, front-end
//     cache hit counts, fleet job totals. Counters add, gauges take maxima,
//     and histograms bucket into *fixed* log-linear boundaries, so every
//     aggregation commutes and the exported text is byte-identical at any
//     VROOM_JOBS. Virtual-plane exports are part of a run's frozen output.
//
//   * The *wall* plane is the explicitly nondeterministic sidecar: job
//     wall-time distributions, worker counts. It exports to a separate file
//     (`wall_sidecar.prom`) that no byte-identity check ever covers.
//     (Phase-profile seconds stay in the printed VROOM_PROFILE table.)
//
// Metric names follow `layer.subsystem.name` (three or more lowercase
// dot-separated segments; enforced here and by scripts/check_metric_names.sh,
// which also rejects a name registered from two source sites). Handles
// returned by the registry are stable for the process lifetime — reset()
// zeroes values but never invalidates references, so instrumentation sites
// may cache `static obs::Counter&` safely.
//
// Recording is gated by a process-global switch (set_metrics_enabled,
// flipped by fleet::run_plan on when VROOM_OUT_DIR names the run's artifact
// directory): with it off, instrumentation sites skip their atomic writes
// and a run's observable behaviour is bit-for-bit unchanged. This library
// is environment-free; harness::Env owns the VROOM_OUT_DIR knob, and
// obs::export_run (obs/manifest.h) writes the export beside the run's
// manifest.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace vroom::obs {

// Which export plane a metric belongs to (see file comment).
enum class Plane : std::uint8_t { Virtual, Wall };

// Process-global recording switch. Off by default: every record call is a
// single relaxed bool load away from free.
bool metrics_enabled();
void set_metrics_enabled(bool on);

// `layer.subsystem.name`: >= 3 dot-separated segments of [a-z0-9_]+.
bool valid_metric_name(std::string_view name);

// Monotonic counter. Relaxed atomic adds: sums commute, so totals are
// order- and worker-count-independent.
class Counter {
 public:
  void add(std::int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class Registry;
  void reset() { value_.store(0, std::memory_order_relaxed); }
  std::atomic<std::int64_t> value_{0};
};

// High-water gauge. Only the max-merge form is order-independent, so that
// is the only mutator: virtual-plane gauges stay deterministic across
// worker counts by construction.
class Gauge {
 public:
  void set_max(std::int64_t v) {
    std::int64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class Registry;
  void reset() { value_.store(0, std::memory_order_relaxed); }
  std::atomic<std::int64_t> value_{0};
};

// Mergeable log-linear histogram over non-negative int64 values (negative
// records clamp to 0).
//
// Bucket boundaries are fixed by construction — HdrHistogram-style
// log-linear: values below kSubBuckets get exact unit buckets; above, each
// octave splits into kSubBuckets sub-buckets, so relative bucket width is
// <= 1/kSubBuckets (~3%). Fixed boundaries make merges plain bucket-count
// additions: order-independent, associative, and byte-identical however the
// records were sharded across workers.
class Histogram {
 public:
  static constexpr int kSubBits = 5;
  static constexpr std::int64_t kSubBuckets = std::int64_t{1} << kSubBits;
  // Max exponent for int64 inputs: index(v) for v = 2^62..2^63-1.
  static constexpr int kBucketCount =
      static_cast<int>(kSubBuckets) * (64 - kSubBits);

  // Bucket index for a value; total order preserving.
  static int bucket_index(std::int64_t v);
  // Inclusive lower / exclusive upper bound of a bucket.
  static std::int64_t bucket_lower(int index);
  static std::int64_t bucket_upper(int index);
  // Width of the bucket containing `v` — the resolution at that magnitude,
  // and the agreement tolerance between histogram and exact percentiles.
  static std::int64_t bucket_width_at(std::int64_t v) {
    const int i = bucket_index(v);
    return bucket_upper(i) - bucket_lower(i);
  }

  void record(std::int64_t v, std::int64_t count = 1);
  // Adds `other`'s buckets into this histogram (commutative, associative).
  void merge(const Histogram& other);

  std::int64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::int64_t bucket_count(int index) const {
    return buckets_[static_cast<std::size_t>(index)].load(
        std::memory_order_relaxed);
  }

  // Rank-interpolated percentile (p in [0,100]); mirrors
  // harness::percentile's rank convention, then interpolates uniformly
  // inside the landing bucket. Agrees with the exact sorted-values
  // percentile to within one bucket width at that magnitude. Returns 0 for
  // an empty histogram.
  double percentile(double p) const;

 private:
  friend class Registry;
  void reset();
  std::atomic<std::int64_t> buckets_[kBucketCount] = {};
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
};

// One registered metric, for enumeration/export.
struct MetricInfo {
  std::string name;
  Plane plane = Plane::Virtual;
  enum class Kind : std::uint8_t { Counter, Gauge, Histogram } kind =
      Kind::Counter;
  const Counter* counter = nullptr;
  const Gauge* gauge = nullptr;
  const Histogram* histogram = nullptr;
};

// Name-keyed typed registry. Get-or-create: the same site may re-register
// on every call (handles are cached with function-local statics anyway).
// Registering an existing name as a *different* kind or plane is a
// programmer error and aborts — silently aliasing two meanings of one name
// would poison every export downstream.
class Registry {
 public:
  Counter& counter(std::string_view name, Plane plane = Plane::Virtual);
  Gauge& gauge(std::string_view name, Plane plane = Plane::Virtual);
  Histogram& histogram(std::string_view name, Plane plane = Plane::Virtual);

  // Snapshot of registered metrics, name-sorted (export determinism).
  std::vector<MetricInfo> list(Plane plane) const;

  // `name,kind,count,sum,p50,p90,p99,p999,value` rows, name-sorted.
  std::string to_csv(Plane plane) const;
  // Prometheus-style text exposition ("vroom_" prefix, dots -> underscores;
  // histograms emit cumulative non-empty buckets + sum + count).
  std::string to_exposition(Plane plane) const;
  // FNV-1a digest (sim::hash64) of to_exposition(plane); recorded in run
  // manifests so a committed number can be matched to the exact metric
  // snapshot behind it.
  std::uint64_t digest(Plane plane) const;

  // Zeroes every value. Handles stay valid: metrics are never deallocated.
  void reset();

 private:
  struct Entry {
    Plane plane;
    MetricInfo::Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Entry& entry_for(std::string_view name, Plane plane, MetricInfo::Kind kind);

  mutable std::mutex mu_;
  std::map<std::string, Entry, std::less<>> entries_;
};

// The process-global registry every instrumentation site records into.
Registry& registry();

}  // namespace vroom::obs
