#include "harness/result_cache.h"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <system_error>
#include <vector>

#include "harness/env.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "sim/random.h"

namespace vroom::harness {

namespace {

constexpr char kMagic[4] = {'V', 'R', 'C', '1'};

// Registry mirrors of the per-cache stats (DESIGN.md §12). Counters add,
// so the totals stay order-independent however fleet workers interleave;
// handles are cached once — registration never sits on the hot path.
void count_cache_event(const char* which) {
  if (!obs::metrics_enabled()) return;
  static obs::Counter& hits = obs::registry().counter("cache.result.hits");
  static obs::Counter& misses =
      obs::registry().counter("cache.result.misses");
  static obs::Counter& stores =
      obs::registry().counter("cache.result.stores");
  static obs::Counter& errors =
      obs::registry().counter("cache.result.errors");
  switch (which[0]) {
    case 'h': hits.add(); break;
    case 'm': misses.add(); break;
    case 's': stores.add(); break;
    case 'e': errors.add(); break;
  }
}

// Canonical text for the device folded into the key. Exhaustive field list:
// a knob that is not here would silently alias two different worlds.
void append_device(std::ostringstream& os, const web::DeviceProfile& d) {
  os << "dev{" << d.name << ';' << d.screen << ';' << d.dpi << ';' << d.width
     << ';' << d.cpu_scale << "}";
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

CacheKey::CacheKey(std::string key)
    : key_(std::move(key)), hash_(sim::hash64(key_)) {}

CacheKey result_cache_key(const baselines::Strategy& strategy,
                          const RunOptions& options, std::uint32_t page_id,
                          std::uint64_t nonce) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "v" << kResultCacheSaltVersion << "|seed=" << options.seed
     << "|page=" << page_id << "|nonce=" << nonce << "|when=" << options.when
     << "|user=" << options.user << "|timeout=" << options.timeout << "|"
     << effective_network(strategy, options).fingerprint() << "|";
  append_device(os, options.device);
  os << "|" << strategy.fingerprint();
  return CacheKey(os.str());
}

bool result_cache_usable(const RunOptions& options, const Env& env) {
  if (options.cache != nullptr) return false;  // order-dependent warm cache
  if (options.trace_sink) return false;        // per-load side effects
  if (env.trace_enabled()) return false;       // ditto (JSON per load)
  return true;
}

bool result_cache_usable(const RunOptions& options) {
  return result_cache_usable(options, Env::from_environment());
}

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {}

std::unique_ptr<ResultCache> ResultCache::from_env(const Env& env) {
  if (env.result_cache_dir.empty()) return nullptr;
  return std::make_unique<ResultCache>(env.result_cache_dir);
}

std::unique_ptr<ResultCache> ResultCache::from_env() {
  return from_env(Env::from_environment());
}

std::string ResultCache::path_for(const CacheKey& key) const {
  // 128 bits of key hash: two independent purpose-tagged derivations of the
  // same FNV digest (precomputed once in the CacheKey). The full key inside
  // the file disambiguates residual collisions.
  const std::uint64_t h = key.hash();
  return dir_ + "/" + hex16(sim::derive_seed(h, "cache-file-a")) +
         hex16(sim::derive_seed(h, "cache-file-b")) + ".vrc";
}

std::optional<browser::LoadResult> ResultCache::get(const CacheKey& key) {
  const std::string path = path_for(key);
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    count_cache_event("miss");
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  const std::string bytes = buf.str();
  const auto corrupt = [this]() -> std::optional<browser::LoadResult> {
    errors_.fetch_add(1, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
    count_cache_event("error");
    count_cache_event("miss");
    return std::nullopt;
  };
  if (bytes.size() < sizeof kMagic + 4 ||
      bytes.compare(0, sizeof kMagic, kMagic, sizeof kMagic) != 0) {
    return corrupt();
  }
  std::size_t pos = sizeof kMagic;
  std::uint32_t key_len = 0;
  for (int i = 0; i < 4; ++i) {
    key_len |= static_cast<std::uint32_t>(
                   static_cast<unsigned char>(bytes[pos + static_cast<
                       std::size_t>(i)]))
               << (8 * i);
  }
  pos += 4;
  if (bytes.size() - pos < key_len ||
      bytes.compare(pos, key_len, key.str()) != 0) {
    return corrupt();  // hash collision or foreign file: treat as a miss
  }
  pos += key_len;
  browser::LoadResult result;
  if (!browser::deserialize_load_result(
          std::string_view(bytes).substr(pos), &result)) {
    return corrupt();
  }
  // LRU clock for cache_gc: a hit makes the entry "recently used". Best
  // effort — a failed bump only makes the entry look older than it is.
  std::error_code ec;
  std::filesystem::last_write_time(
      path, std::filesystem::file_time_type::clock::now(), ec);
  hits_.fetch_add(1, std::memory_order_relaxed);
  count_cache_event("hit");
  return result;
}

void ResultCache::put(const CacheKey& key,
                      const browser::LoadResult& result) {
  const auto warn_once = [this](const std::string& what) {
    if (!warned_.exchange(true, std::memory_order_relaxed)) {
      std::fprintf(stderr,
                   "[cache] warning: %s; result caching degraded to "
                   "pass-through\n",
                   what.c_str());
    }
  };
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  // (A failed mkdir surfaces as the open failure below.)
  const std::string final_path = path_for(key);
  // Unique temp name per (process, put): concurrent writers — even across
  // processes — never share a temp file, and rename() publishes atomically.
  const std::string tmp_path =
      final_path + ".tmp-" + std::to_string(::getpid()) + "-" +
      std::to_string(temp_seq_.fetch_add(1, std::memory_order_relaxed));
  {
    std::ofstream f(tmp_path, std::ios::binary | std::ios::trunc);
    if (f) {
      f.write(kMagic, sizeof kMagic);
      const std::uint32_t key_len =
          static_cast<std::uint32_t>(key.str().size());
      char len_bytes[4];
      for (int i = 0; i < 4; ++i) {
        len_bytes[i] = static_cast<char>(key_len >> (8 * i));
      }
      f.write(len_bytes, 4);
      f.write(key.str().data(),
              static_cast<std::streamsize>(key.str().size()));
      const std::string payload = browser::serialize_load_result(result);
      f.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    }
    if (!f) {
      warn_once("could not write \"" + tmp_path + "\"");
      std::filesystem::remove(tmp_path, ec);
      return;
    }
  }
  std::filesystem::rename(tmp_path, final_path, ec);
  if (ec) {
    warn_once("could not publish \"" + final_path + "\": " + ec.message());
    std::filesystem::remove(tmp_path, ec);
    return;
  }
  stores_.fetch_add(1, std::memory_order_relaxed);
  count_cache_event("store");
}

ResultCacheStats ResultCache::stats() const {
  ResultCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.stores = stores_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  return s;
}

namespace {

// Reads the salt generation embedded in an entry file's key: the header is
// magic + key length + key, and every key starts "v<digits>|". Returns
// nullopt for anything that does not parse — such a file can never be a hit
// and GC removes it as garbage.
std::optional<int> entry_generation(const std::filesystem::path& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return std::nullopt;
  char header[sizeof kMagic + 4];
  if (!f.read(header, sizeof header) ||
      std::memcmp(header, kMagic, sizeof kMagic) != 0) {
    return std::nullopt;
  }
  // The generation prefix fits in a handful of bytes; 24 is generous.
  char prefix[24];
  f.read(prefix, sizeof prefix);
  const std::streamsize got = f.gcount();
  if (got < 3 || prefix[0] != 'v') return std::nullopt;
  int version = 0;
  const auto [ptr, ec] =
      std::from_chars(prefix + 1, prefix + got, version);
  if (ec != std::errc() || ptr == prefix + 1 || ptr >= prefix + got ||
      *ptr != '|') {
    return std::nullopt;
  }
  return version;
}

}  // namespace

GcStats cache_gc(const GcPolicy& policy) {
  GcStats stats;
  std::error_code ec;
  std::filesystem::directory_iterator it(policy.dir, ec);
  if (ec) return stats;  // no directory = nothing to collect

  struct Entry {
    std::filesystem::path path;
    std::uint64_t bytes = 0;
    std::filesystem::file_time_type mtime;
  };
  std::vector<Entry> live;
  std::int64_t live_bytes = 0;

  const auto remove_entry = [&stats](const Entry& e) {
    std::error_code rec;
    std::filesystem::remove(e.path, rec);
    // A failed unlink (already-raced delete) just means nothing reclaimed.
    if (!rec) stats.deleted_bytes += e.bytes;
  };

  for (const auto& dirent : it) {
    if (!dirent.is_regular_file(ec) || ec) continue;
    Entry e;
    e.path = dirent.path();
    if (e.path.extension() != ".vrc") continue;  // temp files, foreign files
    e.bytes = static_cast<std::uint64_t>(dirent.file_size(ec));
    if (ec) continue;
    e.mtime = dirent.last_write_time(ec);
    if (ec) continue;
    ++stats.scanned;
    stats.scanned_bytes += e.bytes;
    const std::optional<int> generation = entry_generation(e.path);
    if (!generation.has_value()) {
      ++stats.errors;  // unreadable/corrupt: can never hit, reclaim now
      remove_entry(e);
      continue;
    }
    if (policy.sweep_stale_generations &&
        *generation != policy.current_salt_version) {
      ++stats.stale_deleted;
      remove_entry(e);
      continue;
    }
    live_bytes += static_cast<std::int64_t>(e.bytes);
    live.push_back(std::move(e));
  }

  if (policy.max_bytes > 0 && live_bytes > policy.max_bytes) {
    // LRU: oldest mtime evicts first (get() bumps mtime on every verified
    // hit). Path breaks mtime ties so the eviction order is deterministic
    // on coarse-granularity filesystems.
    std::sort(live.begin(), live.end(), [](const Entry& a, const Entry& b) {
      return a.mtime != b.mtime ? a.mtime < b.mtime : a.path < b.path;
    });
    for (const Entry& e : live) {
      if (live_bytes <= policy.max_bytes) break;
      ++stats.evicted;
      remove_entry(e);
      live_bytes -= static_cast<std::int64_t>(e.bytes);
    }
  }
  stats.remaining_bytes = static_cast<std::uint64_t>(live_bytes);
  return stats;
}

}  // namespace vroom::harness
