// Browser engine model: the page-load state machine.
//
// Reproduces the dependency structure of Figure 5: the client fetches the
// root HTML, parses it on a single-threaded CPU, discovers children at
// their document positions, blocks the parser on synchronous scripts,
// executes scripts to reveal JS-generated resources, and fires onload when
// every referenced resource is fetched and processed. Fetch *policy* —
// when discovered/hinted resources are actually requested — is pluggable,
// which is where the status quo, Polaris, and Vroom's staged client
// scheduler differ.
//
// Hot-path bookkeeping runs on interned ids (web/intern.h): fetch state is
// a dense vector indexed by UrlId, endpoints route by DomainId, and the
// per-URL facts (type, priority, processability) come from the interner's
// cached UrlInfo instead of re-parsing. URL strings appear only at the
// edges (trace events, result timings, the cross-load cache).
//
// Per-load tables — the dense fetch table, the touch-order shadow map, doc
// parser states, CSSOM waiters and the main-thread task queue — allocate
// from the page world's arena (instance.memory(), see sim/arena.h and
// DESIGN.md §13): they live exactly one load and are reclaimed wholesale
// when the fleet worker resets its arena. LoadResult is the exception — it
// escapes the load, so it stays on owned heap storage; take_result() moves
// it out. Task bodies and waiters are SmallFns of `this` and ids.
#pragma once

#include <cstdint>
#include <memory>
#include <memory_resource>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "browser/cache.h"
#include "browser/cpu_model.h"
#include "browser/critical_path.h"
#include "browser/metrics.h"
#include "browser/task_queue.h"
#include "http/connection_pool.h"
#include "sim/small_fn.h"
#include "web/page_instance.h"

namespace vroom::browser {

class Browser;

enum class FetchReason : std::uint8_t {
  Document,     // the navigation itself
  Parser,       // discovered while parsing/executing
  Hint,         // dependency-hint preload
  Speculative,  // client-side predicted (Polaris-style)
};

// Pluggable client-side fetch scheduling. Policies speak interned UrlIds;
// `b.url_of(id)` recovers the string when one is needed at an edge.
class FetchPolicy {
 public:
  virtual ~FetchPolicy() = default;
  // The engine needs the resource (parser/exec discovery). The default
  // requests it immediately — today's browser behaviour.
  virtual void on_discovered(Browser& b, web::UrlId url, bool processable);
  // Dependency hints arrived in a response's headers.
  virtual void on_hints(Browser&, const http::HintSet&) {}
  // Any fetch finished (used by staged schedulers to advance stages). Runs
  // as a main-thread task, so a busy CPU delays it (§5.2).
  virtual void on_fetch_complete(Browser&, web::UrlId /*url*/) {}
};

struct LoadConfig {
  CpuCosts cpu = CpuCosts::nexus6();
  // Network-bottleneck lower bound: all URLs known and fetched at t=0, no
  // evaluation (Figure 2's modified-HTML experiment).
  bool know_all_upfront = false;
  Cache* cache = nullptr;         // optional persistent cache (warm loads)
  FetchPolicy* policy = nullptr;  // nullptr => status-quo policy
};

class Browser {
 public:
  Browser(net::Network& net, http::ConnectionPool& pool,
          const web::PageInstance& instance, LoadConfig config);

  // Begins the navigation. Drive the event loop to completion afterwards.
  void start();

  bool finished() const { return result_.finished; }
  LoadResult take_result() { return std::move(result_); }  // once, at end

  // ---- API for policies and push wiring ----

  sim::EventLoop& loop() { return net_.loop(); }
  const web::PageInstance& instance() const { return *instance_; }
  TaskQueue& tasks() { return tasks_; }

  // Interns a URL in the page world's interner (hints carry strings).
  web::UrlId intern(std::string_view url) {
    return instance_->interner().url_id(url);
  }
  // View of the interner's arena copy; valid for the life of the load.
  std::string_view url_of(web::UrlId id) const {
    return instance_->interner().url(id);
  }

  // Issues a network fetch; dedups against in-flight, completed, pushed and
  // cached copies. Safe to call with URLs foreign to the current instance
  // (stale hints become "ghost" fetches counted as wasted bytes).
  void fetch_url(web::UrlId id, int priority, FetchReason reason);

  bool url_complete(web::UrlId id) const;
  bool url_outstanding(web::UrlId id) const;

  // Records that the client learned the URL from a dependency hint even if
  // it has not been requested yet (discovery-latency accounting, Figure 16).
  void note_hinted(web::UrlId id);

  // True if `url` is a processable type (HTML/CSS/JS) per its extension.
  static bool url_processable(std::string_view url);
  // Interned variant reading the cached UrlInfo.
  bool processable(web::UrlId id) const {
    return instance_->interner().info(id).processable;
  }
  // Browser-native request priority for an interned URL.
  int native_priority(web::UrlId id) const {
    return instance_->interner().info(id).native_priority;
  }

  // Push events (wired from the connection pool's PushObserver).
  void on_push_promise(const std::string& url, std::int64_t bytes);
  void on_push_complete(const std::string& url, std::int64_t bytes);

 private:
  enum class FetchStateKind : std::uint8_t { Idle, InFlight, Complete };

  struct FetchState {
    FetchStateKind state = FetchStateKind::Idle;
    bool touched = false;  // slot initialized (dense vector, lazy init)
    std::optional<std::uint32_t> template_id;
    bool referenced = false;
    bool gates_onload = false;
    bool hinted = false;
    bool pushed = false;
    bool from_cache = false;
    bool processing_scheduled = false;
    bool processed = false;
    std::int64_t bytes = 0;
    sim::Time discovered = sim::kNever;
    sim::Time requested = sim::kNever;
    sim::Time complete_t = sim::kNever;
    sim::Time processed_t = sim::kNever;
    std::vector<sim::SmallFn> on_complete_waiters;
  };

  struct DocState {
    // Allocator-aware so docs_[id] places `children` on the same arena as
    // the map's nodes (uses-allocator construction).
    using allocator_type = std::pmr::polymorphic_allocator<std::byte>;
    DocState() = default;
    explicit DocState(const allocator_type& alloc) : children(alloc) {}

    std::pmr::vector<std::uint32_t> children;  // HtmlTag children by offset
    std::size_t next = 0;
    double pos = 0.0;
    sim::Time parse_total = 0;
    bool started = false;
  };

  FetchState& state_for(web::UrlId id);
  const FetchState* find_state(web::UrlId id) const;

  void handle_headers(http::ResponseMeta& meta);
  void finish_fetch(web::UrlId id, std::int64_t bytes, bool from_cache,
                    bool not_modified);
  // The record that ends a fresh cache hit's lookup latency.
  void finish_cache_hit(web::UrlId id, std::int64_t);

  // Marks the resource as needed by the page. `how` records the discovery
  // provenance for trace events (navigation / parser / preload-scan /
  // js-exec / css-ref).
  void reference(std::uint32_t template_id, const char* how = "parser");
  void maybe_process(web::UrlId id);
  void schedule_processing(web::UrlId id, std::uint32_t template_id);
  void after_processed(web::UrlId id, std::uint32_t template_id);

  // CSSOM dependency: script execution waits until every discovered
  // render-blocking stylesheet of the main document has been fetched and
  // parsed. Returns true if `resume` was queued (caller must not proceed).
  bool blocked_on_css(sim::SmallFn resume);

  void start_document(std::uint32_t doc_id);
  void advance_parser(std::uint32_t doc_id);
  void on_doc_done(std::uint32_t doc_id);
  void exec_sync_script(std::uint32_t doc_id, std::uint32_t script_id);

  void discover_children_via(std::uint32_t parent,
                             web::DiscoveryVia via);
  void record_paint(double weight);
  void maybe_finish();
  void finalize_result();

  sim::Time abs_now() const {
    return instance_->identity().wall_time + net_.loop().now();
  }

  net::Network& net_;
  http::ConnectionPool& pool_;
  const web::PageInstance* instance_;
  LoadConfig config_;
  TaskQueue tasks_;
  NetWaitTracker net_wait_;
  std::unique_ptr<FetchPolicy> default_policy_;
  FetchPolicy* policy_;

  // Dense, indexed by UrlId. Instance resources occupy ids 0..N-1; foreign
  // URLs (stale hints) get ids as they intern. Arena-backed: the table's
  // buffer comes from the page world's arena; element destructors (waiter
  // vectors) still run when the browser dies, before any arena reset.
  std::pmr::vector<FetchState> fetches_;
  // Enumeration order of the fetch table is load-bearing: iframe documents
  // pending at root-done start in this order, which shifts task timing.
  // The table used to BE a string-keyed unordered_map, so its enumeration
  // (libstdc++ hash-bucket order) is frozen into every recorded result.
  // This shadow map replays the same key/insertion history — one insert per
  // first-touched URL — so enumeration stays bit-identical. Keys view into
  // the interner's stable storage; nodes come from the same arena (the
  // allocator cannot perturb libstdc++'s bucket order — DESIGN.md §13).
  std::pmr::unordered_map<std::string_view, web::UrlId> touch_order_;
  std::pmr::unordered_map<std::uint32_t, DocState> docs_;
  int referenced_incomplete_ = 0;
  int outstanding_ = 0;
  int css_blocking_ = 0;  // render-blocking stylesheets not yet parsed
  std::pmr::vector<sim::SmallFn> css_waiters_;
  bool root_done_ = false;
  bool started_ = false;

  std::vector<std::pair<sim::Time, double>> paints_;
  sim::Time aft_ = 0;

  LoadResult result_;
};

}  // namespace vroom::browser
