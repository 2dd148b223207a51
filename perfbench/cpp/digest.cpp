#include "digest.h"

#include <cstdio>
#include <cstring>

namespace perfbench {

using namespace vroom;

void Hasher::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 1099511628211ULL;
  }
}

void Hasher::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

void Hasher::add(std::string_view s) {
  add(static_cast<std::uint64_t>(s.size()));
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 1099511628211ULL;
  }
}

void hash_corpus_results(Hasher& h,
                         const std::vector<harness::CorpusResult>& rs) {
  h.add(static_cast<std::uint64_t>(rs.size()));
  for (const harness::CorpusResult& r : rs) {
    h.add(std::string_view(harness::serialize_corpus_result(r)));
  }
}

namespace {

void hash_times(Hasher& h, const std::vector<sim::Time>& v) {
  h.add(static_cast<std::uint64_t>(v.size()));
  for (const sim::Time t : v) h.add(t);
}

void hash_front_end(Hasher& h, const deploy::FrontEndStats& s) {
  h.add(s.serves);
  h.add(s.cache_hits);
  h.add(s.cache_misses);
  h.add(s.stale_serves);
  h.add(s.hintless_serves);
  h.add(s.generations);
  h.add(s.total_queue_wait);
  h.add(s.total_staleness);
}

}  // namespace

void hash_deployment(Hasher& h, const deploy::DeploymentReport& r) {
  h.add(r.pages);
  h.add(static_cast<std::uint64_t>(r.device_names.size()));
  for (const std::string& name : r.device_names) h.add(name);
  h.add(r.origin_link_mbps);
  h.add(r.effective_recrawl);
  h.add(r.window);
  hash_times(h, r.micro.ages);
  h.add(static_cast<std::uint64_t>(r.micro.plt.size()));
  for (const auto& device : r.micro.plt) {
    h.add(static_cast<std::uint64_t>(device.size()));
    for (const auto& bucket : device) hash_times(h, bucket);
  }
  h.add(static_cast<std::uint64_t>(r.micro.warm_plt.size()));
  for (const auto& device : r.micro.warm_plt) hash_times(h, device);
  h.add(static_cast<std::uint64_t>(r.levels.size()));
  for (const deploy::LevelReport& l : r.levels) {
    h.add(l.offered_per_sec);
    h.add(l.arrivals);
    h.add(l.timeouts);
    h.add(l.served_per_sec);
    h.add(l.p50_plt_s);
    h.add(l.p99_plt_s);
    h.add(l.hist_p50_plt_s);
    h.add(l.hist_p99_plt_s);
    h.add(l.mean_origin_wait_s);
    h.add(l.mean_fe_wait_ms);
    h.add(l.max_link_utilization);
    h.add(l.hit_ratio);
    h.add(l.stale_frac);
    h.add(l.hintless_frac);
    h.add(l.mean_staleness_s);
    hash_front_end(h, l.front_end);
    h.add(static_cast<std::uint64_t>(l.plt_seconds.size()));
    for (const double v : l.plt_seconds) h.add(v);
  }
  h.add(static_cast<std::uint64_t>(r.stale_buckets.size()));
  for (const deploy::StaleBucketReport& b : r.stale_buckets) {
    h.add(b.age);
    h.add(b.persistence);
    h.add(b.serves);
    h.add(b.mean_micro_plt_s);
  }
  h.add(r.macro_arrivals);
}

std::uint64_t digest_load(browser::LoadResult r) {
  r.trace_counters.clear();
  Hasher h;
  h.add(std::string_view(browser::serialize_load_result(r)));
  return h.value();
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace perfbench
