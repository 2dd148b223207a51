#include "browser/browser.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <utility>

#include "trace/trace.h"
#include "web/url.h"

namespace vroom::browser {

namespace {

const char* reason_name(FetchReason r) {
  switch (r) {
    case FetchReason::Document: return "document";
    case FetchReason::Parser: return "parser";
    case FetchReason::Hint: return "hint";
    case FetchReason::Speculative: return "speculative";
  }
  return "?";
}

// The first HtmlTag child at or after `id` in processing order.
std::uint32_t markup_from(const web::PageModel& model, std::uint32_t id) {
  while (id != web::PageModel::kNoResource &&
         model.resource(id).via != web::DiscoveryVia::HtmlTag) {
    id = model.next_sibling(id);
  }
  return id;
}

}  // namespace

void FetchPolicy::on_discovered(Browser& b, web::UrlId url,
                                bool /*processable*/) {
  // Status quo: request every resource the moment the engine needs it.
  b.fetch_url(url, b.native_priority(url), FetchReason::Parser);
}

namespace {
class StatusQuoPolicy final : public FetchPolicy {};
}  // namespace

Browser::Browser(net::Network& net, http::ConnectionPool& pool,
                 const web::PageInstance& instance, LoadConfig config)
    : net_(net),
      pool_(pool),
      instance_(&instance),
      config_(config),
      tasks_(net.loop(), instance.memory()),
      net_wait_(net.loop()),
      fetches_(instance.memory()),
      touch_order_(instance.memory()),
      docs_(instance.memory()),
      css_waiters_(instance.memory()) {
  if (config_.policy == nullptr) {
    default_policy_ = std::make_unique<StatusQuoPolicy>();
    policy_ = default_policy_.get();
  } else {
    policy_ = config_.policy;
  }
  tasks_.set_state_observer([this](bool busy) { net_wait_.set_cpu_busy(busy); });
  // Every instance resource is pre-interned with id == resource index, so
  // most loads never grow this again (foreign hint URLs are the exception).
  fetches_.resize(instance.interner().url_count());
}

bool Browser::url_processable(std::string_view url) {
  auto parsed = web::parse_url(url);
  if (!parsed) return false;
  return web::is_processable(web::type_from_ext(parsed->ext));
}

Browser::FetchState& Browser::state_for(web::UrlId id) {
  if (id >= fetches_.size()) fetches_.resize(id + 1);
  FetchState& fs = fetches_[id];
  if (!fs.touched) {
    fs.touched = true;
    fs.template_id = instance_->template_of(id);
    touch_order_.emplace(instance_->interner().url(id), id);
  }
  return fs;
}

const Browser::FetchState* Browser::find_state(web::UrlId id) const {
  if (id >= fetches_.size() || !fetches_[id].touched) return nullptr;
  return &fetches_[id];
}

bool Browser::url_complete(web::UrlId id) const {
  const FetchState* fs = find_state(id);
  return fs && fs->state == FetchStateKind::Complete;
}

bool Browser::url_outstanding(web::UrlId id) const {
  const FetchState* fs = find_state(id);
  return fs && fs->state == FetchStateKind::InFlight;
}

void Browser::note_hinted(web::UrlId id) {
  FetchState& fs = state_for(id);
  fs.hinted = true;
  fs.discovered = std::min(fs.discovered, net_.loop().now());
}

void Browser::start() {
  assert(!started_);
  started_ = true;
  if (config_.know_all_upfront) {
    // Figure 2's network-bound experiment: the root HTML was rewritten to
    // list every resource; the browser fetches all of them but evaluates
    // nothing.
    for (const auto& ir : instance_->resources()) {
      if (instance_->model().in_post_onload_subtree(ir.template_id)) continue;
      FetchState& fs = state_for(ir.url_id);
      fs.referenced = true;
      fs.discovered = 0;
      ++referenced_incomplete_;
      const bool processable = this->processable(ir.url_id);
      fetch_url(ir.url_id, processable ? 1 : 0, FetchReason::Document);
    }
    return;
  }
  reference(0, "navigation");
}

void Browser::reference(std::uint32_t template_id, const char* how) {
  const web::Resource& res = instance_->model().resource(template_id);
  if (res.post_onload) {
    // Injected after the load event; outside the measurement window.
    return;
  }
  const web::InstanceResource& ir = instance_->resource(template_id);
  FetchState& fs = state_for(ir.url_id);
  if (fs.referenced) return;
  fs.referenced = true;
  fs.discovered = std::min(fs.discovered, net_.loop().now());
  if (trace::Recorder* tr = trace::of(net_.loop())) {
    tr->instant(trace::Layer::Browser, "browser", "loader", "discover",
                {trace::arg("url", ir.url), trace::arg("via", how)});
    tr->counters().add("browser.discoveries");
    if (std::strcmp(how, "preload-scan") == 0) {
      tr->counters().add("browser.preload_scan_discoveries");
    }
  }
  const web::Resource& r = instance_->model().resource(template_id);
  fs.gates_onload = r.blocks_onload;
  if (fs.gates_onload) ++referenced_incomplete_;
  if (r.type == web::ResourceType::Css && !r.in_iframe && !r.async) {
    ++css_blocking_;  // released in after_processed()
  }
  policy_->on_discovered(*this, ir.url_id, web::is_processable(r.type));
  if (url_complete(ir.url_id)) maybe_process(ir.url_id);
}

void Browser::fetch_url(web::UrlId id, int priority, FetchReason reason) {
  FetchState& fs = state_for(id);
  if (fs.state != FetchStateKind::Idle) return;  // dedup
  if (reason == FetchReason::Hint) fs.hinted = true;

  const web::UrlInfo& info = instance_->interner().info(id);
  const std::string_view url = url_of(id);

  const sim::Time now_abs = abs_now();
  if (config_.cache != nullptr && config_.cache->fresh(url, now_abs)) {
    fs.state = FetchStateKind::InFlight;
    fs.from_cache = true;
    fs.requested = net_.loop().now();
    ++result_.cache_hits;
    if (trace::Recorder* tr = trace::of(net_.loop())) {
      tr->instant(trace::Layer::Cache, "browser", "cache", "cache.hit",
                  {trace::arg("url", url)});
      tr->counters().add("cache.hits");
    }
    // Memory/disk cache lookup latency.
    net_.loop().schedule_in(
        sim::us(500), sim::make_record<&Browser::finish_cache_hit>(this, id));
    return;
  }

  fs.state = FetchStateKind::InFlight;
  fs.requested = net_.loop().now();
  ++outstanding_;
  ++result_.requests;
  net_wait_.fetch_started();
  if (trace::Recorder* tr = trace::of(net_.loop())) {
    tr->instant(trace::Layer::Browser, "browser", "loader", "request",
                {trace::arg("url", url), trace::arg("priority", priority),
                 trace::arg("reason", reason_name(reason))});
    tr->counters().add("browser.requests");
    if (config_.cache != nullptr) {
      tr->instant(trace::Layer::Cache, "browser", "cache", "cache.miss",
                  {trace::arg("url", url)});
      tr->counters().add("cache.misses");
    }
  }

  http::Request req;
  req.url = url;
  req.url_id = id;
  req.priority = priority;
  req.device = instance_->identity().device;
  req.user = instance_->identity().user;
  req.conditional = config_.cache != nullptr && config_.cache->has(url);

  http::ResponseHandlers handlers;
  handlers.on_headers = [this](http::ResponseMeta& meta) {
    handle_headers(meta);
  };
  handlers.on_complete = [this](const http::ResponseMeta& meta) {
    finish_fetch(meta.url_id, meta.body_bytes, /*from_cache=*/false,
                 meta.not_modified);
  };
  pool_.endpoint(info.domain, instance_->interner().domain(info.domain))
      .fetch(std::move(req), std::move(handlers));
}

void Browser::finish_cache_hit(web::UrlId id, std::int64_t) {
  finish_fetch(id, 0, /*from_cache=*/true, /*not_modified=*/false);
}

void Browser::handle_headers(http::ResponseMeta& meta) {
  if (result_.ttfb == sim::kNever && instance_->size() > 0 &&
      meta.url_id == instance_->resource(0).url_id) {
    result_.ttfb = net_.loop().now();
    if (trace::Recorder* tr = trace::of(net_.loop())) {
      tr->instant(trace::Layer::Browser, "browser", "main-thread", "ttfb");
    }
  }
  if (meta.hints.empty()) return;
  if (trace::Recorder* tr = trace::of(net_.loop())) {
    const auto n = static_cast<std::int64_t>(meta.hints.hints.size());
    tr->instant(trace::Layer::Vroom, "browser", "scheduler", "hints.received",
                {trace::arg("url", meta.url), trace::arg("count", n)});
    tr->counters().add("vroom.hints_received", n);
  }
  // The request scheduler examines hint headers on the main thread; a busy
  // CPU delays it (§5.2).
  tasks_.post(config_.cpu.task_overhead, TaskPriority::Scheduler,
              [this, hints = std::move(meta.hints)] {
                policy_->on_hints(*this, hints);
              });
}

void Browser::finish_fetch(web::UrlId id, std::int64_t bytes, bool from_cache,
                           bool not_modified) {
  FetchState& fs = state_for(id);
  assert(fs.state == FetchStateKind::InFlight);
  fs.state = FetchStateKind::Complete;
  fs.complete_t = net_.loop().now();
  if (!from_cache) {
    fs.bytes = not_modified ? http::k304Bytes
                            : bytes + http::kResponseHeaderBytes;
    result_.bytes_fetched += fs.bytes;
    --outstanding_;
    net_wait_.fetch_finished();
  }
  if (trace::Recorder* tr = trace::of(net_.loop())) {
    tr->complete(trace::Layer::Browser, "browser", "loader", "fetch",
                 fs.requested,
                 {trace::arg("url", url_of(id)), trace::arg("bytes", fs.bytes),
                  trace::arg("via", from_cache  ? "cache"
                                    : fs.pushed ? "push"
                                                : "network")});
  }

  // Store in cache using the model's cacheability metadata.
  if (config_.cache != nullptr) {
    const web::UrlInfo& info = instance_->interner().info(id);
    if (info.parse_ok && info.resource_id < instance_->model().size()) {
      const web::Resource& r = instance_->model().resource(info.resource_id);
      if (r.cacheable) {
        const std::int64_t size =
            fs.template_id ? instance_->resource(*fs.template_id).size : bytes;
        config_.cache->insert(url_of(id), size, abs_now(), r.max_age);
      }
    }
  }

  if (!fs.template_id.has_value() && !from_cache) {
    // Ghost fetch: a stale or extraneous hint; pure overhead for this load.
    result_.wasted_bytes += fs.bytes;
    if (trace::Recorder* tr = trace::of(net_.loop())) {
      tr->instant(trace::Layer::Browser, "browser", "loader", "ghost_fetch",
                  {trace::arg("url", url_of(id)),
                   trace::arg("bytes", fs.bytes)});
      tr->counters().add("browser.ghost_fetches");
      tr->counters().add("browser.ghost_bytes", fs.bytes);
    }
  }

  if (config_.know_all_upfront) {
    if (fs.referenced && !fs.processed) {
      fs.processed = true;
      fs.processed_t = fs.complete_t;
      --referenced_incomplete_;
    }
  } else if (fs.referenced) {
    // Preload scanner: the moment an HTML document's bytes are in, every
    // resource visible in its markup is discovered and requested — ahead of
    // (and regardless of) where the blocking parser is. Script-generated
    // and stylesheet-referenced resources still require execution/parsing.
    if (fs.template_id.has_value()) {
      const web::Resource& r = instance_->model().resource(*fs.template_id);
      if (r.type == web::ResourceType::Html) {
        discover_children_via(*fs.template_id, web::DiscoveryVia::HtmlTag);
      }
    }
    maybe_process(id);
  }

  auto waiters = std::move(fetches_[id].on_complete_waiters);
  fetches_[id].on_complete_waiters.clear();
  for (auto& w : waiters) w();

  if (!result_.finished) {
    tasks_.post(config_.cpu.task_overhead, TaskPriority::Scheduler,
                [this, id] { policy_->on_fetch_complete(*this, id); });
  }
  maybe_finish();
}

void Browser::maybe_process(web::UrlId id) {
  FetchState& fs = state_for(id);
  if (fs.state != FetchStateKind::Complete || !fs.referenced ||
      fs.processing_scheduled || fs.processed) {
    return;
  }
  assert(fs.template_id.has_value());
  const std::uint32_t tid = *fs.template_id;
  const web::Resource& r = instance_->model().resource(tid);

  if (r.type == web::ResourceType::Js && r.blocks_parser) {
    return;  // execution is driven by the parser, in document order
  }
  fs.processing_scheduled = true;

  if (r.type == web::ResourceType::Html) {
    if (tid == 0 || root_done_) {
      start_document(tid);
    }
    // Iframe documents wait for the root document to finish parsing
    // (footnote 4 of the paper); on_doc_done(0) starts them.
    return;
  }
  schedule_processing(id, tid);
}

bool Browser::blocked_on_css(sim::SmallFn resume) {
  if (css_blocking_ == 0) return false;
  if (trace::Recorder* tr = trace::of(net_.loop())) {
    tr->instant(trace::Layer::Browser, "browser", "main-thread",
                "block.cssom",
                {trace::arg("pending_stylesheets", css_blocking_)});
    tr->counters().add("browser.cssom_blocks");
  }
  css_waiters_.push_back(std::move(resume));
  return true;
}

void Browser::schedule_processing(web::UrlId id, std::uint32_t template_id) {
  const web::Resource& r = instance_->model().resource(template_id);
  if (r.type == web::ResourceType::Js && !r.in_iframe &&
      blocked_on_css([this, id, template_id] {
        schedule_processing(id, template_id);
      })) {
    return;  // CSSOM not ready; execution resumes when stylesheets land
  }
  const std::int64_t size = instance_->resource(template_id).size;
  TaskPriority prio = TaskPriority::ImageDecode;
  if (r.type == web::ResourceType::Css) {
    prio = TaskPriority::Parse;
  } else if (r.type == web::ResourceType::Js) {
    prio = TaskPriority::AsyncScript;
  }
  const sim::Time cost =
      config_.cpu.process_cost(r.type, size) + config_.cpu.task_overhead;
  tasks_.post(cost, prio,
              [this, id, template_id] { after_processed(id, template_id); });
}

void Browser::after_processed(web::UrlId id, std::uint32_t template_id) {
  FetchState& fs = state_for(id);
  assert(!fs.processed);
  fs.processed = true;
  fs.processed_t = net_.loop().now();
  const web::Resource& r = instance_->model().resource(template_id);
  if (r.type == web::ResourceType::Js) {
    discover_children_via(template_id, web::DiscoveryVia::JsExec);
  } else if (r.type == web::ResourceType::Css) {
    discover_children_via(template_id, web::DiscoveryVia::CssRef);
    if (!r.in_iframe && !r.async && --css_blocking_ == 0) {
      auto waiters = std::move(css_waiters_);
      css_waiters_.clear();
      for (auto& w : waiters) w();
    }
  }
  if (r.above_fold) {
    const double weight =
        r.visual_weight > 0
            ? r.visual_weight
            : std::sqrt(static_cast<double>(std::max<std::int64_t>(
                  instance_->resource(template_id).size, 1)));
    record_paint(weight);
  }
  if (fs.gates_onload) --referenced_incomplete_;
  maybe_finish();
}

void Browser::start_document(std::uint32_t doc_id) {
  DocState& d = docs_[doc_id];
  if (d.started) return;
  d.started = true;
  const web::PageModel& model = instance_->model();
  d.next = markup_from(model, model.first_child(doc_id));
  d.parse_total = config_.cpu.process_cost(
      web::ResourceType::Html, instance_->resource(doc_id).size);
  advance_parser(doc_id);
}

void Browser::advance_parser(std::uint32_t doc_id) {
  DocState& d = docs_[doc_id];
  const web::PageModel& model = instance_->model();
  if (d.next == web::PageModel::kNoResource) {
    // Final segment to the end of the document.
    const auto remaining = static_cast<sim::Time>(
        (1.0 - d.pos) * static_cast<double>(d.parse_total));
    tasks_.post(remaining + config_.cpu.task_overhead, TaskPriority::Parse,
                [this, doc_id] { on_doc_done(doc_id); });
    return;
  }
  const std::uint32_t child = d.next;
  const double offset = model.resource(child).discovery_offset;
  const auto segment = static_cast<sim::Time>(
      std::max(0.0, offset - d.pos) * static_cast<double>(d.parse_total));
  tasks_.post(
      segment + config_.cpu.task_overhead, TaskPriority::Parse,
      [this, doc_id, child, offset] {
        DocState& dd = docs_[doc_id];
        const web::PageModel& m = instance_->model();
        dd.pos = offset;
        dd.next = markup_from(m, m.next_sibling(child));
        const web::Resource& cr = m.resource(child);
        reference(child);
        if (cr.type == web::ResourceType::Js && cr.blocks_parser) {
          const web::UrlId curl = instance_->resource(child).url_id;
          FetchState& cfs = state_for(curl);
          if (cfs.state == FetchStateKind::Complete) {
            exec_sync_script(doc_id, child);
          } else {
            // Parser blocks until the script arrives — the classic
            // network-delays-CPU dependency of Figure 5(a).
            if (trace::Recorder* tr = trace::of(net_.loop())) {
              const sim::Time blocked_at = net_.loop().now();
              tr->instant(trace::Layer::Browser, "browser", "main-thread",
                          "parser_block.script",
                          {trace::arg("url", url_of(curl))});
              tr->counters().add("browser.parser_blocks");
              cfs.on_complete_waiters.push_back([this, blocked_at] {
                if (trace::Recorder* t2 = trace::of(net_.loop())) {
                  t2->counters().add("browser.parser_block_us",
                                     net_.loop().now() - blocked_at);
                }
              });
            }
            cfs.on_complete_waiters.push_back(
                [this, doc_id, child] { exec_sync_script(doc_id, child); });
          }
          return;
        }
        advance_parser(doc_id);
      });
}

void Browser::exec_sync_script(std::uint32_t doc_id, std::uint32_t script_id) {
  if (!instance_->model().resource(script_id).in_iframe &&
      blocked_on_css(
          [this, doc_id, script_id] { exec_sync_script(doc_id, script_id); })) {
    return;  // script waits for CSSOM; the parser stays blocked behind it
  }
  const web::UrlId url = instance_->resource(script_id).url_id;
  FetchState& fs = state_for(url);
  fs.processing_scheduled = true;
  const sim::Time cost =
      config_.cpu.process_cost(web::ResourceType::Js,
                               instance_->resource(script_id).size) +
      config_.cpu.task_overhead;
  tasks_.post(cost, TaskPriority::Parse, [this, doc_id, script_id, url] {
    after_processed(url, script_id);
    advance_parser(doc_id);
  });
}

void Browser::on_doc_done(std::uint32_t doc_id) {
  const web::UrlId url = instance_->resource(doc_id).url_id;
  after_processed(url, doc_id);  // paints the document, may fire onload
  if (doc_id == 0) {
    root_done_ = true;
    result_.dom_content_loaded = net_.loop().now();
    if (trace::Recorder* tr = trace::of(net_.loop())) {
      tr->instant(trace::Layer::Browser, "browser", "main-thread",
                  "dom_content_loaded");
    }
    // Start any iframe documents that were waiting on the root parse, in
    // the fetch table's frozen enumeration order (see touch_order_).
    for (const auto& [u, id] : touch_order_) {
      const FetchState& fs = fetches_[id];
      if (!fs.template_id || !fs.referenced) continue;
      const web::Resource& r = instance_->model().resource(*fs.template_id);
      if (r.type == web::ResourceType::Html && *fs.template_id != 0 &&
          fs.state == FetchStateKind::Complete &&
          !docs_.count(*fs.template_id)) {
        start_document(*fs.template_id);
      }
    }
    // after_processed() above checked onload while root_done_ was still
    // false. Re-check now: when the root is the last onload-gating item,
    // nothing else will.
    maybe_finish();
  }
}

void Browser::discover_children_via(std::uint32_t parent,
                                    web::DiscoveryVia via) {
  // HtmlTag children reached through this path were found by the preload
  // scanner (markup scanned as soon as the document's bytes are in); the
  // blocking parser re-references them later as a no-op.
  const char* how = via == web::DiscoveryVia::HtmlTag ? "preload-scan"
                    : via == web::DiscoveryVia::JsExec ? "js-exec"
                                                       : "css-ref";
  for (std::uint32_t c : instance_->model().children(parent)) {
    if (instance_->model().resource(c).via == via) reference(c, how);
  }
}

void Browser::on_push_promise(web::UrlId id, std::int64_t /*bytes*/) {
  FetchState& fs = state_for(id);
  if (fs.state != FetchStateKind::Idle) {
    if (trace::Recorder* tr = trace::of(net_.loop())) {
      // The client got there first; the promise is redundant.
      tr->counters().add("browser.push_promises_raced");
    }
    return;  // already requested
  }
  fs.state = FetchStateKind::InFlight;
  fs.pushed = true;
  fs.discovered = std::min(fs.discovered, net_.loop().now());
  fs.requested = net_.loop().now();
  ++outstanding_;
  net_wait_.fetch_started();
  if (trace::Recorder* tr = trace::of(net_.loop())) {
    tr->instant(trace::Layer::Browser, "browser", "loader",
                "push.promise_accepted", {trace::arg("url", url_of(id))});
    tr->counters().add("browser.push_promises_accepted");
  }
}

void Browser::on_push_complete(web::UrlId id, std::int64_t bytes) {
  FetchState& fs = state_for(id);
  if (!fs.pushed || fs.state != FetchStateKind::InFlight) {
    return;  // client independently requested it; that fetch wins
  }
  finish_fetch(id, bytes, /*from_cache=*/false, /*not_modified=*/false);
}

void Browser::record_paint(double weight) {
  const sim::Time now = net_.loop().now();
  if (result_.first_paint == sim::kNever) {
    result_.first_paint = now;
    if (trace::Recorder* tr = trace::of(net_.loop())) {
      tr->instant(trace::Layer::Browser, "browser", "main-thread",
                  "first_paint", {trace::arg("weight", weight)});
    }
  }
  paints_.emplace_back(now, weight);
  aft_ = std::max(aft_, now);
}

void Browser::maybe_finish() {
  if (!started_ || result_.finished) return;
  if (referenced_incomplete_ > 0) return;
  if (!config_.know_all_upfront && !root_done_) return;
  finalize_result();
}

void Browser::finalize_result() {
  result_.finished = true;
  result_.plt = net_.loop().now();
  result_.aft = aft_;
  result_.speed_index_ms = speed_index_ms(paints_);
  net_wait_.stop();
  result_.net_wait = net_wait_.net_wait();
  result_.cpu_busy = tasks_.total_busy();
  if (trace::Recorder* tr = trace::of(net_.loop())) {
    tr->instant(trace::Layer::Browser, "browser", "main-thread", "onload",
                {trace::arg("plt_ms", sim::to_ms(result_.plt))});
    for (const auto& [u, id] : touch_order_) {
      const FetchState& fs = fetches_[id];
      if (fs.pushed && !fs.referenced) {
        tr->instant(trace::Layer::Browser, "browser", "loader",
                    "push.wasted",
                    {trace::arg("url", url_of(id)),
                     trace::arg("bytes", fs.bytes)});
        tr->counters().add("browser.pushes_wasted");
        tr->counters().add("browser.push_bytes_wasted", fs.bytes);
      }
    }
  }

  sim::Time all_disc = 0, all_fetch = 0, hp_disc = 0, hp_fetch = 0;
  // Exact sizes, as the result outlives the load (a view assigned to an
  // empty string would reserve 30).
  result_.timings.reserve(touch_order_.size());
  for (const auto& [u, id] : touch_order_) {
    const FetchState& fs = fetches_[id];
    ResourceTiming t;
    t.url = std::string(url_of(id));
    t.template_id = fs.template_id;
    t.referenced = fs.referenced;
    t.processable = instance_->interner().info(id).processable;
    if (fs.template_id) {
      t.in_iframe = instance_->model().resource(*fs.template_id).in_iframe;
    }
    t.hinted = fs.hinted;
    t.pushed = fs.pushed;
    t.from_cache = fs.from_cache;
    t.bytes = fs.bytes;
    t.discovered = fs.discovered;
    t.requested = fs.requested;
    t.complete = fs.complete_t;
    t.processed = fs.processed_t;
    result_.timings.push_back(std::move(t));

    // Discovery/fetch-latency metrics cover the resources the load event
    // waits for (beacons may legitimately still be in flight at onload).
    if (fs.referenced && fs.gates_onload) {
      all_disc = std::max(all_disc, fs.discovered);
      all_fetch = std::max(all_fetch, fs.complete_t);
      if (result_.timings.back().processable) {
        hp_disc = std::max(hp_disc, fs.discovered);
        hp_fetch = std::max(hp_fetch, fs.complete_t);
      }
    }
  }
  result_.all_discovered = all_disc;
  result_.all_fetched = all_fetch;
  result_.high_prio_discovered = hp_disc;
  result_.high_prio_fetched = hp_fetch;
}

}  // namespace vroom::browser
