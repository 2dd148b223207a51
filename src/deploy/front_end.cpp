#include "deploy/front_end.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "harness/experiment.h"
#include "server/replay_store.h"
#include "sim/arena.h"
#include "sim/random.h"
#include "web/page_instance.h"

namespace vroom::deploy {

namespace {

// A front-end resolves from its crawls only — it never renders the page at
// serve time, so the online modes make no sense here — and staleness is
// modelled by snapshot time, not by the provider's hint age.
FrontEndConfig crawl_only(FrontEndConfig config) {
  config.provider.mode = core::ResolutionMode::OfflineOnly;
  config.provider.hint_age = 0;
  return config;
}

}  // namespace

const char* hint_source_name(HintSource s) {
  switch (s) {
    case HintSource::Fresh: return "fresh";
    case HintSource::Cached: return "cached";
    case HintSource::Stale: return "stale";
    case HintSource::None: return "none";
  }
  return "?";
}

GenerationMemo::GenerationMemo(const web::Corpus& corpus,
                               FrontEndConfig config, std::uint64_t seed,
                               sim::Time day0)
    : corpus_(corpus),
      config_(crawl_only(std::move(config))),
      seed_(seed),
      day0_(day0) {}

int GenerationMemo::hints(int page_index, const web::DeviceProfile& device,
                          sim::Time crawl_t) {
  // Memo key over everything the resolution can observe: the page, the
  // snapshot time, and the device's full identity (name and cpu_scale
  // included — cheaper to hash than to prove they cannot matter).
  std::uint64_t cpu_bits = 0;
  static_assert(sizeof cpu_bits == sizeof device.cpu_scale);
  std::memcpy(&cpu_bits, &device.cpu_scale, sizeof cpu_bits);
  std::uint64_t fingerprint = sim::hash64(device.name);
  fingerprint = sim::derive_seed(
      fingerprint, static_cast<std::uint64_t>(device.screen * 9 +
                                              device.dpi * 3 + device.width));
  fingerprint = sim::derive_seed(fingerprint, cpu_bits);
  const std::uint64_t key = sim::derive_seed(
      sim::derive_seed(static_cast<std::uint64_t>(page_index),
                       static_cast<std::uint64_t>(crawl_t)),
      fingerprint);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (const auto it = counts_.find(key); it != counts_.end()) {
      return it->second;
    }
  }
  const int count = resolve(page_index, device, crawl_t);
  const std::lock_guard<std::mutex> lock(mu_);
  counts_.emplace(key, count);
  return count;
}

std::size_t GenerationMemo::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return counts_.size();
}

int GenerationMemo::resolve(int page_index, const web::DeviceProfile& device,
                            sim::Time crawl_t) const {
  const web::PageModel& model =
      corpus_.page(static_cast<std::size_t>(page_index));
  // The crawl's load identity: wall time of the snapshot, the arrival's
  // rendering class (the front-end emulates the client device, §4.1.2),
  // no cookie, and a nonce derived from (seed, page, snapshot) so repeat
  // generations of the same snapshot see the same instance.
  web::LoadIdentity id;
  id.wall_time = day0_ + crawl_t;
  id.device = device;
  id.user = 0;
  id.nonce = sim::derive_seed(
      sim::derive_seed(seed_, "deploy:crawl"),
      sim::derive_seed(static_cast<std::uint64_t>(model.page_id()),
                       static_cast<std::uint64_t>(crawl_t)));
  // Crawl world on the pooled per-thread arena: built, advised on, and
  // discarded — the same per-load lifetime as a live load's world.
  sim::PooledArena arena;
  const web::PageInstance crawl(model, id, arena.get());
  const server::ReplayStore store(crawl);
  core::VroomProvider provider(store, config_.provider);

  http::Request root;
  root.url = crawl.resource(0).url;
  root.url_id = 0;
  root.priority = 100;
  root.device = device;
  const server::DependencyAdvice advice =
      provider.advise(model.first_party(), root);
  return static_cast<int>(advice.hints.hints.size());
}

FrontEnd::FrontEnd(const web::Corpus& corpus, FrontEndConfig config,
                   std::uint64_t seed)
    : FrontEnd(std::make_shared<GenerationMemo>(
          corpus, std::move(config), seed, harness::RunOptions().when)) {}

FrontEnd::FrontEnd(std::shared_ptr<GenerationMemo> memo)
    : memo_(std::move(memo)) {
  worker_busy_until_.assign(
      static_cast<std::size_t>(std::max(1, config().gen_workers)), 0);
}

sim::Time FrontEnd::effective_recrawl_period() const {
  const auto pages = static_cast<sim::Time>(memo_->corpus().size());
  return std::max(config().recrawl_period, pages * config().crawl_cost);
}

sim::Time FrontEnd::last_crawl(sim::Time now, int page_index) const {
  // One crawler cycles the corpus round-robin, spending crawl_cost per
  // page; it has been running since before the window, so every page has a
  // well-defined latest crawl (possibly at negative virtual time) and the
  // window starts with staleness already spread over [0, period).
  const sim::Time period = effective_recrawl_period();
  const sim::Time phase = static_cast<sim::Time>(page_index) *
                          config().crawl_cost;
  // Largest phase + k*period <= now, for any integer k (floor division
  // that is correct for negative numerators too).
  sim::Time k = (now - phase) / period;
  if ((now - phase) % period < 0) --k;
  return phase + k * period;
}

int FrontEnd::generate(int page_index, const web::DeviceProfile& device,
                       sim::Time crawl_t) {
  ++stats_.generations;
  return memo_->hints(page_index, device, crawl_t);
}

sim::Time FrontEnd::charge_worker(sim::Time now, sim::Time cost) {
  auto it = std::min_element(worker_busy_until_.begin(),
                             worker_busy_until_.end());
  const sim::Time wait = std::max<sim::Time>(0, *it - now);
  *it = now + wait + cost;
  return wait;
}

FrontEnd::CacheEntry* FrontEnd::cache_find(std::uint64_t key) {
  const auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);  // touch
  return &*it->second;
}

void FrontEnd::cache_insert(CacheEntry entry) {
  const auto it = index_.find(entry.key);
  if (it != index_.end()) {
    *it->second = entry;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(entry);
  index_[entry.key] = lru_.begin();
  while (lru_.size() >
         static_cast<std::size_t>(std::max(1, config().hint_cache_entries))) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
}

ServeDecision FrontEnd::serve(sim::Time now, int page_index,
                              const web::DeviceProfile& device,
                              trace::Recorder* recorder) {
  ++stats_.serves;
  const sim::Time snapshot = last_crawl(now, page_index);
  // Hints depend on the rendering class, so the cache is keyed by it too.
  const std::uint64_t key = sim::derive_seed(
      static_cast<std::uint64_t>(page_index),
      static_cast<std::uint64_t>(device.screen * 9 + device.dpi * 3 +
                                 device.width));
  const std::string& page_label =
      memo_->corpus().page(static_cast<std::size_t>(page_index)).first_party();
  const auto trace_serve = [&](const char* name, const ServeDecision& d) {
    if (recorder == nullptr) return;
    recorder->instant(
        trace::Layer::Deploy, "frontend", "serve", name,
        {trace::arg("page", page_label),
         trace::arg("source", hint_source_name(d.source)),
         trace::arg("staleness_ms", sim::to_ms(d.staleness)),
         trace::arg("wait_ms", sim::to_ms(d.queue_wait))});
  };

  ServeDecision d;
  if (CacheEntry* entry = cache_find(key)) {
    ++stats_.cache_hits;
    d.cache_hit = true;
    d.hints = entry->hints;
    d.staleness = now - entry->snapshot;
    if (entry->snapshot >= snapshot) {
      d.source = HintSource::Cached;
      trace_serve("fe.cache_hit", d);
    } else {
      // Stale-while-revalidate: serve the old hints immediately and charge
      // a background regeneration so future serves catch up. Under load
      // the workers fall behind and stale serves dominate — the effect the
      // deployment report prices.
      d.source = HintSource::Stale;
      ++stats_.stale_serves;
      const int hints = generate(page_index, device, snapshot);
      charge_worker(now, config().gen_base_cost +
                             static_cast<sim::Time>(hints) *
                                 config().gen_per_hint_cost);
      entry->snapshot = snapshot;
      entry->hints = hints;
      trace_serve("fe.stale_serve", d);
      if (recorder != nullptr) {
        recorder->instant(trace::Layer::Deploy, "frontend", "crawler",
                          "fe.recrawl",
                          {trace::arg("page", page_label),
                           trace::arg("hints", hints)});
      }
    }
    stats_.total_staleness += d.staleness;
  } else {
    ++stats_.cache_misses;
    // Synchronous generation: the page view blocks on the hint path. If
    // the worker queue alone already blows the deadline, ship hintless —
    // a front-end must degrade to "no Vroom", never to "slower page".
    const sim::Time queue =
        std::max<sim::Time>(0, *std::min_element(worker_busy_until_.begin(),
                                                 worker_busy_until_.end()) -
                                   now);
    if (queue > config().serve_deadline) {
      d.source = HintSource::None;
      ++stats_.hintless_serves;
      trace_serve("fe.cache_miss", d);
    } else {
      const int hints = generate(page_index, device, snapshot);
      const sim::Time cost = config().gen_base_cost +
                             static_cast<sim::Time>(hints) *
                                 config().gen_per_hint_cost;
      const sim::Time wait = charge_worker(now, cost) + cost;
      if (wait > config().serve_deadline) {
        // Generation ran (the entry is still cached for later arrivals)
        // but this page view could not wait for it.
        d.source = HintSource::None;
        ++stats_.hintless_serves;
      } else {
        d.source = HintSource::Fresh;
        d.queue_wait = wait;
        d.hints = hints;
        d.staleness = now - snapshot;
        stats_.total_staleness += d.staleness;
      }
      cache_insert(CacheEntry{key, snapshot, hints});
      trace_serve("fe.cache_miss", d);
      if (recorder != nullptr) {
        recorder->instant(trace::Layer::Deploy, "frontend", "crawler",
                          "fe.recrawl",
                          {trace::arg("page", page_label),
                           trace::arg("hints", hints)});
      }
    }
  }
  stats_.total_queue_wait += d.queue_wait;
  return d;
}

}  // namespace vroom::deploy
