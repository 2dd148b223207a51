#include "obs/metrics.h"

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "sim/random.h"

namespace vroom::obs {

namespace {

std::atomic<bool> g_metrics_enabled{false};

const char* kind_name(MetricInfo::Kind kind) {
  switch (kind) {
    case MetricInfo::Kind::Counter: return "counter";
    case MetricInfo::Kind::Gauge: return "gauge";
    case MetricInfo::Kind::Histogram: return "histogram";
  }
  return "?";
}

// "deploy.macro.plt_us" -> "vroom_deploy_macro_plt_us".
std::string exposition_name(const std::string& name) {
  std::string out = "vroom_";
  for (const char c : name) out.push_back(c == '.' ? '_' : c);
  return out;
}

// Doubles in exports print with enough digits to round-trip exactly, minus
// trailing noise: %.17g keeps byte-stability tied to the value alone.
void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

}  // namespace

bool metrics_enabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

void set_metrics_enabled(bool on) {
  g_metrics_enabled.store(on, std::memory_order_relaxed);
}

bool valid_metric_name(std::string_view name) {
  int segments = 0;
  std::size_t seg_len = 0;
  for (const char c : name) {
    if (c == '.') {
      if (seg_len == 0) return false;
      ++segments;
      seg_len = 0;
      continue;
    }
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_';
    if (!ok) return false;
    ++seg_len;
  }
  if (seg_len == 0) return false;
  return segments + 1 >= 3;
}

// --- Histogram -------------------------------------------------------------

int Histogram::bucket_index(std::int64_t v) {
  if (v < 0) v = 0;
  if (v < kSubBuckets) return static_cast<int>(v);
  // v >= 2^kSubBits: octave e >= 1, kSubBuckets sub-buckets per octave.
  const int e =
      std::bit_width(static_cast<std::uint64_t>(v)) - kSubBits;  // >= 1
  const std::int64_t sub = (v >> (e - 1)) - kSubBuckets;         // [0, kSub)
  return static_cast<int>(static_cast<std::int64_t>(e) * kSubBuckets + sub);
}

std::int64_t Histogram::bucket_lower(int index) {
  if (index < kSubBuckets) return index;
  const int e = index / static_cast<int>(kSubBuckets);  // >= 1
  const std::int64_t sub = index % kSubBuckets;
  return (kSubBuckets + sub) << (e - 1);
}

std::int64_t Histogram::bucket_upper(int index) {
  if (index < kSubBuckets) return index + 1;
  const int e = index / static_cast<int>(kSubBuckets);
  // The very top bucket's upper bound is 2^63, which does not fit in int64;
  // compute unsigned and saturate so width math stays well-defined.
  const std::uint64_t upper = static_cast<std::uint64_t>(bucket_lower(index)) +
                              (std::uint64_t{1} << (e - 1));
  constexpr std::uint64_t kMax =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
  return upper > kMax ? std::numeric_limits<std::int64_t>::max()
                      : static_cast<std::int64_t>(upper);
}

void Histogram::record(std::int64_t v, std::int64_t count) {
  if (count <= 0) return;
  if (v < 0) v = 0;
  buckets_[static_cast<std::size_t>(bucket_index(v))].fetch_add(
      count, std::memory_order_relaxed);
  count_.fetch_add(count, std::memory_order_relaxed);
  sum_.fetch_add(v * count, std::memory_order_relaxed);
}

void Histogram::merge(const Histogram& other) {
  for (int i = 0; i < kBucketCount; ++i) {
    const std::int64_t n = other.buckets_[static_cast<std::size_t>(i)].load(
        std::memory_order_relaxed);
    if (n != 0) {
      buckets_[static_cast<std::size_t>(i)].fetch_add(
          n, std::memory_order_relaxed);
    }
  }
  count_.fetch_add(other.count(), std::memory_order_relaxed);
  sum_.fetch_add(other.sum(), std::memory_order_relaxed);
}

double Histogram::percentile(double p) const {
  const std::int64_t total = count();
  if (total <= 0) return 0;
  if (p < 0) p = 0;
  if (p > 100) p = 100;
  // harness::percentile's rank convention over N sorted values.
  const double rank = p / 100.0 * static_cast<double>(total - 1);
  std::int64_t seen = 0;
  for (int i = 0; i < kBucketCount; ++i) {
    const std::int64_t n =
        buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
    if (n == 0) continue;
    const double first = static_cast<double>(seen);
    seen += n;
    if (rank < static_cast<double>(seen) || seen == total) {
      // Interpolate uniformly across the bucket's rank span.
      const double frac =
          n > 1 ? (rank - first) / static_cast<double>(n - 1) : 0.5;
      const double lo = static_cast<double>(bucket_lower(i));
      const double hi = static_cast<double>(bucket_upper(i) - 1);
      const double clamped = frac < 0 ? 0 : (frac > 1 ? 1 : frac);
      return lo + (hi - lo) * clamped;
    }
  }
  return 0;  // unreachable for total > 0
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

// --- Registry --------------------------------------------------------------

Registry::Entry& Registry::entry_for(std::string_view name, Plane plane,
                                     MetricInfo::Kind kind) {
  if (!valid_metric_name(name)) {
    std::fprintf(stderr,
                 "[obs] fatal: metric name \"%.*s\" violates "
                 "layer.subsystem.name (>=3 lowercase dot segments)\n",
                 static_cast<int>(name.size()), name.data());
    std::abort();
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry entry;
    entry.plane = plane;
    entry.kind = kind;
    switch (kind) {
      case MetricInfo::Kind::Counter:
        entry.counter = std::make_unique<Counter>();
        break;
      case MetricInfo::Kind::Gauge:
        entry.gauge = std::make_unique<Gauge>();
        break;
      case MetricInfo::Kind::Histogram:
        entry.histogram = std::make_unique<Histogram>();
        break;
    }
    it = entries_.emplace(std::string(name), std::move(entry)).first;
  } else if (it->second.kind != kind || it->second.plane != plane) {
    std::fprintf(stderr,
                 "[obs] fatal: metric \"%s\" re-registered as %s/%s "
                 "(was %s/%s)\n",
                 it->first.c_str(), kind_name(kind),
                 plane == Plane::Virtual ? "virtual" : "wall",
                 kind_name(it->second.kind),
                 it->second.plane == Plane::Virtual ? "virtual" : "wall");
    std::abort();
  }
  return it->second;
}

Counter& Registry::counter(std::string_view name, Plane plane) {
  return *entry_for(name, plane, MetricInfo::Kind::Counter).counter;
}

Gauge& Registry::gauge(std::string_view name, Plane plane) {
  return *entry_for(name, plane, MetricInfo::Kind::Gauge).gauge;
}

Histogram& Registry::histogram(std::string_view name, Plane plane) {
  return *entry_for(name, plane, MetricInfo::Kind::Histogram).histogram;
}

std::vector<MetricInfo> Registry::list(Plane plane) const {
  std::vector<MetricInfo> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, entry] : entries_) {
    if (entry.plane != plane) continue;
    MetricInfo info;
    info.name = name;
    info.plane = entry.plane;
    info.kind = entry.kind;
    info.counter = entry.counter.get();
    info.gauge = entry.gauge.get();
    info.histogram = entry.histogram.get();
    out.push_back(info);
  }
  return out;  // std::map iteration => already name-sorted
}

std::string Registry::to_csv(Plane plane) const {
  std::string out = "name,kind,count,sum,p50,p90,p99,p999,value\n";
  for (const MetricInfo& m : list(plane)) {
    out += m.name;
    out += ',';
    out += kind_name(m.kind);
    out += ',';
    if (m.kind == MetricInfo::Kind::Histogram) {
      const Histogram& h = *m.histogram;
      out += std::to_string(h.count());
      out += ',';
      out += std::to_string(h.sum());
      out += ',';
      append_double(out, h.percentile(50));
      out += ',';
      append_double(out, h.percentile(90));
      out += ',';
      append_double(out, h.percentile(99));
      out += ',';
      append_double(out, h.percentile(99.9));
      out += ",\n";
    } else {
      const std::int64_t v = m.kind == MetricInfo::Kind::Counter
                                 ? m.counter->value()
                                 : m.gauge->value();
      out += ",,,,,," + std::to_string(v) + "\n";
    }
  }
  return out;
}

std::string Registry::to_exposition(Plane plane) const {
  std::string out;
  for (const MetricInfo& m : list(plane)) {
    const std::string prom = exposition_name(m.name);
    out += "# TYPE " + prom + " ";
    out += kind_name(m.kind);
    out += '\n';
    if (m.kind == MetricInfo::Kind::Histogram) {
      const Histogram& h = *m.histogram;
      std::int64_t cum = 0;
      for (int i = 0; i < Histogram::kBucketCount; ++i) {
        const std::int64_t n = h.bucket_count(i);
        if (n == 0) continue;
        cum += n;
        out += prom + "_bucket{le=\"" +
               std::to_string(Histogram::bucket_upper(i) - 1) + "\"} " +
               std::to_string(cum) + "\n";
      }
      out += prom + "_bucket{le=\"+Inf\"} " + std::to_string(h.count()) + "\n";
      out += prom + "_sum " + std::to_string(h.sum()) + "\n";
      out += prom + "_count " + std::to_string(h.count()) + "\n";
    } else {
      const std::int64_t v = m.kind == MetricInfo::Kind::Counter
                                 ? m.counter->value()
                                 : m.gauge->value();
      out += prom + " " + std::to_string(v) + "\n";
    }
  }
  return out;
}

std::uint64_t Registry::digest(Plane plane) const {
  return sim::hash64(to_exposition(plane));
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, entry] : entries_) {
    switch (entry.kind) {
      case MetricInfo::Kind::Counter: entry.counter->reset(); break;
      case MetricInfo::Kind::Gauge: entry.gauge->reset(); break;
      case MetricInfo::Kind::Histogram: entry.histogram->reset(); break;
    }
  }
}

Registry& registry() {
  static Registry* instance = new Registry();  // leaked: handles never die
  return *instance;
}

}  // namespace vroom::obs
