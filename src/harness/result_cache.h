// Content-keyed on-disk cache of browser::LoadResult.
//
// Every figure bench recomputes the same (seed, page, strategy, load) jobs —
// the exact redundancy Mahimahi-style record-and-replay exists to remove.
// With `VROOM_RESULT_CACHE=<dir>` set (off by default), the fleet consults
// this cache before simulating a job and stores each fresh result after, so
// regenerating the full figure set costs roughly one pass of unique jobs.
//
// The key is the job's complete causal identity: corpus seed, page id, load
// nonce, the strategy's canonical fingerprint() (every knob that affects
// simulation), a device + network profile hash, the run's wall time / user /
// timeout, and a code-version salt (kResultCacheSaltVersion) bumped whenever
// simulation behaviour changes. This is only sound because the keyed
// computation is reproducible: median selection is stable, nonces derive
// from (seed, page, load) without collisions, and fleet output is
// bit-identical at any worker count.
//
// Storage is one file per key under the cache directory, named by a 128-bit
// hash of the key string; the file embeds the full key and is verified on
// read, so hash collisions degrade to misses, never to wrong results.
// Writes go to a unique temp file and rename() into place, so concurrent
// workers (or concurrent processes — the cache is the shared substrate of a
// sharded sweep, DESIGN.md §14) racing on the same key are safe — the
// loser's identical bytes simply win.
//
// The cache grows one file per unique job forever unless collected:
// cache_gc() below prunes stale salt generations and enforces an LRU size
// cap (entry files are mtime-bumped on every verified hit).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "baselines/strategies.h"
#include "browser/metrics.h"
#include "harness/env.h"
#include "harness/experiment.h"

namespace vroom::harness {

// Code-version salt folded into every cache key. Bump on ANY change that can
// alter simulated results (browser model, network model, seed derivation,
// LoadResult fields, ...) so stale entries miss instead of lying.
inline constexpr int kResultCacheSaltVersion = 6;

// A cache key with its 64-bit content hash computed once at construction.
// get() and put() both need the hash (it names the entry file); carrying it
// in the key type means a miss-then-store pair — and the hit path — hash
// the key string exactly once instead of once per call.
class CacheKey {
 public:
  explicit CacheKey(std::string key);

  const std::string& str() const { return key_; }
  std::uint64_t hash() const { return hash_; }

 private:
  std::string key_;
  std::uint64_t hash_ = 0;
};

// Canonical key for one (strategy, options, page, load-nonce) job. The key
// string is human-readable on purpose: it is embedded in cache files for
// verification and makes mismatches debuggable. It starts with the salt
// generation ("v<N>|"), which is what cache_gc's generation sweep parses.
CacheKey result_cache_key(const baselines::Strategy& strategy,
                          const RunOptions& options, std::uint32_t page_id,
                          std::uint64_t nonce);

// Whether results under these options may be cached at all. Warm-cache runs
// (options.cache) depend on load order, and traced runs (VROOM_TRACE or
// options.trace_sink) emit per-load artifacts a cache hit cannot replay —
// both bypass the cache. The Env overload is the primary: callers holding a
// plan-level snapshot (fleet::run_plan) pass it so one plan sees one
// consistent knob set; the other re-reads the environment per call.
bool result_cache_usable(const RunOptions& options, const Env& env);
bool result_cache_usable(const RunOptions& options);

struct ResultCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
  // Unreadable / corrupt / key-mismatched entries (counted as misses too).
  std::uint64_t errors = 0;
};

class ResultCache {
 public:
  // Creates `dir` (mkdir -p) lazily on first put. Thread-safe: get/put may
  // be called concurrently from any number of fleet workers.
  explicit ResultCache(std::string dir);

  // Reads VROOM_RESULT_CACHE from `env` (or, for the legacy overload, from
  // a fresh environment snapshot); returns nullptr when unset or empty
  // (the default: caching off).
  static std::unique_ptr<ResultCache> from_env(const Env& env);
  static std::unique_ptr<ResultCache> from_env();

  // Cache lookup. A verified hit returns the stored result and bumps the
  // entry file's mtime (the LRU clock cache_gc evicts by); corrupt or
  // mismatched entries count as misses.
  std::optional<browser::LoadResult> get(const CacheKey& key);

  // Stores `result` under `key` (atomic temp-file + rename publish).
  // Failures warn on stderr once per cache and are otherwise ignored — the
  // cache is an accelerator, never a correctness dependency.
  void put(const CacheKey& key, const browser::LoadResult& result);

  ResultCacheStats stats() const;
  const std::string& dir() const { return dir_; }

 private:
  std::string path_for(const CacheKey& key) const;

  std::string dir_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> stores_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<bool> warned_{false};
  std::atomic<std::uint64_t> temp_seq_{0};
};

// --- Garbage collection (DESIGN.md §14) --------------------------------
//
// The cache is append-only during runs; GC is a separate pass (invoked by
// fleet::run_plan after a cached sweep when VROOM_CACHE_MAX_BYTES is set,
// or directly by tooling). Two mechanisms, applied in order:
//
//   1. Salt-generation sweep: entries whose embedded key carries a salt
//      generation != current_salt_version can never hit again (the key
//      comparison would fail) — they are dead weight and are deleted first.
//   2. Size cap: when the surviving entries still exceed max_bytes, the
//      least-recently-used entries (oldest mtime; get() bumps mtime on
//      every verified hit) are evicted until the total fits. Because stale
//      generations are swept first, the current generation is never evicted
//      to make room while dead entries remain.
//
// Concurrent-safe against readers/writers: deletion of an entry a reader
// holds open is harmless on POSIX, and a racing put() simply re-creates it.
struct GcPolicy {
  std::string dir;              // cache directory to collect
  std::int64_t max_bytes = 0;   // size cap; 0 = no cap (sweep only)
  int current_salt_version = kResultCacheSaltVersion;
  bool sweep_stale_generations = true;
};

struct GcStats {
  std::uint64_t scanned = 0;          // entry files examined
  std::uint64_t scanned_bytes = 0;    // their total size before GC
  std::uint64_t stale_deleted = 0;    // wrong-generation entries removed
  std::uint64_t evicted = 0;          // size-cap LRU evictions
  std::uint64_t errors = 0;           // unparseable entries (removed too)
  std::uint64_t deleted_bytes = 0;    // bytes reclaimed
  std::uint64_t remaining_bytes = 0;  // total size after GC
};

GcStats cache_gc(const GcPolicy& policy);

}  // namespace vroom::harness
