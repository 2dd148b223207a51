// Shared Vroom front-end: one hint server for an entire user population.
//
// The paper evaluates Vroom one load at a time, with the origin resolving
// dependencies against its freshest crawls. At deployment scale the hint
// path is a shared service with real capacity limits, and three effects
// appear that per-load evaluation cannot show:
//
//   * a size-capped hint cache — hot pages hit, the long tail misses;
//   * finite hint-generation throughput — misses queue behind a small
//     worker pool, and when the queue exceeds the serve deadline the
//     front-end ships the page with NO hints rather than stall it;
//   * a crawl/recrawl scheduler with finite crawl throughput — hints are
//     generated from the latest crawl *snapshot*, so every served hint set
//     is somewhat stale, and cache hits can be staler still.
//
// FrontEnd models all three deterministically on top of the existing
// core::VroomProvider (generation really resolves the crawl-time instance;
// the hint count and header bytes are the real advice, not a constant).
// A front end owns its cache, worker pool and stats; the resolved counts
// live in a GenerationMemo, its own or one shared by every front end of a
// deployment scenario (see GenerationMemo).
// The deployment scenario prices the resulting staleness through the
// hint_age micro benchmarks (see scenario.h).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/vroom_provider.h"
#include "sim/time.h"
#include "trace/trace.h"
#include "web/corpus.h"
#include "web/device.h"

namespace vroom::deploy {

struct FrontEndConfig {
  // Hint cache entries, keyed by (page, device rendering class). Small by
  // design: the interesting regime is the tail missing.
  int hint_cache_entries = 64;
  // Hint-generation worker pool and per-request cost model.
  int gen_workers = 2;
  sim::Time gen_base_cost = sim::ms(40);
  sim::Time gen_per_hint_cost = sim::ms(2);
  // Budget the front-end will spend (queueing + generation) before giving
  // up and serving the page without hints.
  sim::Time serve_deadline = sim::ms(250);
  // Crawler: target refresh period and per-page crawl cost. The effective
  // period is max(recrawl_period, pages * crawl_cost) — a slow crawler
  // stretches the cycle, and hint staleness grows accordingly.
  sim::Time recrawl_period = sim::hours(1);
  sim::Time crawl_cost = sim::minutes(10);
  // How the front-end resolves dependencies from its crawls. The default
  // OfflineOnly is forced in the constructor: a front-end has no online
  // path (it is not the origin rendering the page).
  core::VroomProviderConfig provider;
};

// What kind of hint set a serve produced.
enum class HintSource : std::uint8_t {
  Fresh,   // generated on this request from the latest crawl snapshot
  Cached,  // cache hit, entry still matches the latest snapshot
  Stale,   // cache hit, but a newer crawl exists (stale-while-revalidate)
  None,    // generation would blow the serve deadline; shipped hintless
};

const char* hint_source_name(HintSource s);

// The front-end's answer for one page view.
struct ServeDecision {
  HintSource source = HintSource::None;
  bool cache_hit = false;
  // Extra latency the hint path added to this page view (queueing plus
  // generation when generated synchronously; 0 for cache hits and for
  // deadline-exceeded hintless serves).
  sim::Time queue_wait = 0;
  // Age of the crawl snapshot behind the served hints (serve time minus
  // snapshot time). Meaningless when source == None.
  sim::Time staleness = 0;
  int hints = 0;
};

struct FrontEndStats {
  std::int64_t serves = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t stale_serves = 0;   // subset of cache_hits
  std::int64_t hintless_serves = 0;
  std::int64_t generations = 0;    // synchronous + background revalidations
  sim::Time total_queue_wait = 0;  // summed over serves
  sim::Time total_staleness = 0;   // summed over hint-carrying serves

  double hit_ratio() const {
    const std::int64_t total = cache_hits + cache_misses;
    return total > 0 ? static_cast<double>(cache_hits) / total : 0.0;
  }
};

// The hint counts of crawl snapshots, for every front end built on it. A
// count is the expensive step the cache and the worker pool exist to
// amortize: resolving a crawl-time instance of the page. It is a pure
// function of (page, device, snapshot) once the corpus, FrontEndConfig,
// seed and crawl clock are fixed: the crawl nonce derives from (seed, page,
// snapshot) alone, so repeat generations of one snapshot rebuild an
// identical crawl world. The memo therefore owns those inputs, and a front
// end built on it takes them from it; front ends sharing one memo
// (run_deployment's load levels) cannot disagree about a count, and the
// memo's key (page, snapshot, device) needs nothing else. Only the
// simulator shortcut is shared: each front end still counts and charges
// every generation.
//
// Thread-safe: lookups and inserts take one mutex, resolutions run outside
// it. Two racing misses of one key resolve the same count, and the first
// insert wins.
class GenerationMemo {
 public:
  // `corpus` must outlive the memo. `seed` feeds crawl-nonce derivation
  // only. `day0` is the crawl clock: the wall-clock time of virtual time 0,
  // so a snapshot at virtual time t crawls the page as of day0 + t, as a
  // load at RunOptions::when sees it. The front-end resolves from its
  // crawls only, so the config's provider is forced to OfflineOnly with no
  // hint age.
  GenerationMemo(const web::Corpus& corpus, FrontEndConfig config,
                 std::uint64_t seed, sim::Time day0);

  // The hint count of (page, device) resolved from the crawl snapshot at
  // virtual time `crawl_t`.
  int hints(int page_index, const web::DeviceProfile& device,
            sim::Time crawl_t);

  // Distinct counts resolved so far.
  std::size_t size() const;

  const web::Corpus& corpus() const { return corpus_; }
  const FrontEndConfig& config() const { return config_; }

 private:
  int resolve(int page_index, const web::DeviceProfile& device,
              sim::Time crawl_t) const;

  const web::Corpus& corpus_;
  const FrontEndConfig config_;
  const std::uint64_t seed_;
  const sim::Time day0_;
  mutable std::mutex mu_;
  // Keyed by (page, full device identity, crawl_t); bounded by the
  // distinct snapshots of the traffic windows served.
  std::unordered_map<std::uint64_t, int> counts_;
};

class FrontEnd {
 public:
  // A front end with a memo of its own, crawling on the harness's default
  // load clock (RunOptions::when). `corpus` must outlive it. `seed` feeds
  // crawl-nonce derivation only; all scheduling is deterministic
  // arithmetic.
  FrontEnd(const web::Corpus& corpus, FrontEndConfig config,
           std::uint64_t seed);
  // A front end on a shared memo, serving the memo's corpus with its
  // config, seed and crawl clock.
  explicit FrontEnd(std::shared_ptr<GenerationMemo> memo);

  // Serves one page view arriving at virtual time `now`. `recorder` may be
  // nullptr; with one attached, fe.cache_hit / fe.cache_miss /
  // fe.stale_serve / fe.recrawl events are emitted on the Deploy layer.
  ServeDecision serve(sim::Time now, int page_index,
                      const web::DeviceProfile& device,
                      trace::Recorder* recorder = nullptr);

  // Virtual time of the latest completed crawl of `page_index` at `now`.
  // May be negative: the crawler has been cycling since before the window.
  sim::Time last_crawl(sim::Time now, int page_index) const;

  // Effective crawl refresh period (>= recrawl_period when the crawler is
  // throughput-bound).
  sim::Time effective_recrawl_period() const;

  const FrontEndStats& stats() const { return stats_; }
  const FrontEndConfig& config() const { return memo_->config(); }

 private:
  struct CacheEntry {
    std::uint64_t key = 0;
    sim::Time snapshot = 0;  // crawl virtual time the hints derive from
    int hints = 0;
  };

  // One model generation of (page, device) at snapshot `crawl_t`: counted
  // in stats_.generations whether or not the memo already holds its count
  // (callers charge the worker pool per call too); returns the count.
  int generate(int page_index, const web::DeviceProfile& device,
               sim::Time crawl_t);

  // Charges one generation to the least-busy worker; returns the queueing
  // delay before it could start.
  sim::Time charge_worker(sim::Time now, sim::Time cost);

  CacheEntry* cache_find(std::uint64_t key);
  void cache_insert(CacheEntry entry);

  std::shared_ptr<GenerationMemo> memo_;
  FrontEndStats stats_;

  std::vector<sim::Time> worker_busy_until_;
  // LRU: most-recent at front; map points into the list.
  std::list<CacheEntry> lru_;
  std::unordered_map<std::uint64_t, std::list<CacheEntry>::iterator> index_;
};

}  // namespace vroom::deploy
