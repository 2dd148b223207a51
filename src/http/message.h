// HTTP request/response message model and the client/server interfaces the
// protocol sessions bridge. A request's URL views storage that outlives its
// Exchange record (DESIGN.md §10): for the browser, the page's interner.
// Hints and pushes carry the page world's interned UrlIds; a push also
// views the interner's copy of its URL, for traces and the cache digest.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory_resource>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "http/headers.h"
#include "sim/time.h"
#include "web/device.h"
#include "web/intern.h"

namespace vroom::http {

// HTTP/1.1 sends headers uncompressed (UA, accept lists, cookies) on every
// request. HTTP/2's HPACK indexes repeated fields into a per-connection
// dynamic table: the first request pays close to full price, subsequent
// ones only the non-repeating bytes (path, a few varying fields).
constexpr std::int64_t kH1RequestHeaderBytes = 1100;
constexpr std::int64_t kH2RequestHeaderBytesFirst = 450;
constexpr std::int64_t kH2RequestHeaderBytesIndexed = 120;
constexpr std::int64_t kResponseHeaderBytesFirst = 350;
constexpr std::int64_t kResponseHeaderBytesIndexed = 180;
// Legacy alias used by sizing arithmetic that predates the HPACK model.
constexpr std::int64_t kResponseHeaderBytes = kResponseHeaderBytesFirst;
constexpr std::int64_t k304Bytes = 250;  // revalidation "Not Modified"

struct Request {
  std::string_view url;
  // Interned id in the page world's interner (kInvalidId when the caller
  // does not intern, e.g. protocol-level tests). Servers and sessions pass
  // it through so the client never re-hashes the URL string.
  web::UrlId url_id = web::kInvalidId;
  int priority = 0;          // larger = more urgent (client-side queueing)
  web::DeviceProfile device;
  std::uint32_t user = 0;    // cookie identity for the *target* domain only
  bool conditional = false;  // If-None-Match revalidation of a cached copy
};

struct ResponseMeta {
  std::string_view url;                 // the request's
  web::UrlId url_id = web::kInvalidId;  // copied from the request
  std::int64_t body_bytes = 0;
  HintSet hints;
  bool not_modified = false;  // 304 — body_bytes is zero
};

struct ResponseHandlers {
  // Fires when the response headers reach the client (hints become visible
  // here, before the body finishes). May move `hints` out.
  std::function<void(ResponseMeta&)> on_headers;
  // Fires when the full body has been received.
  std::function<void(const ResponseMeta&)> on_complete;
};

// Server-push callbacks surfaced to the page loader.
struct PushObserver {
  // PUSH_PROMISE: client now knows the URL is on its way.
  std::function<void(web::UrlId url, std::int64_t bytes)> on_promise;
  std::function<void(web::UrlId url, std::int64_t bytes)> on_complete;
};

struct PushItem {
  web::UrlId url_id = web::kInvalidId;
  std::string_view url;  // the interner's copy of url_id's URL
  std::int64_t body_bytes = 0;
  // HTML, CSS or JS: the pushed stream's priority class. The origin sets it
  // from the interned URL's facts.
  bool processable = false;
};

// What the origin decides to send back for one request.
struct ServerReply {
  std::int64_t body_bytes = 0;
  HintSet hints;
  std::vector<PushItem> pushes;   // same-domain content pushes, in order
  sim::Time extra_delay = 0;      // e.g. on-the-fly HTML analysis (§4.1.2)
  bool not_modified = false;
};

// What the client sees of `reply` to `req`; takes the reply's hints.
inline ResponseMeta response_meta(const Request& req, ServerReply& reply) {
  return {.url = req.url,
          .url_id = req.url_id,
          .body_bytes = reply.not_modified ? 0 : reply.body_bytes,
          .hints = std::move(reply.hints),
          .not_modified = reply.not_modified};
}

// One request and its response, owned by the session that carries it.
struct Exchange {
  Request req;
  ResponseHandlers handlers;
  ResponseMeta meta = {};
  std::vector<PushItem> pushes = {};  // HTTP/2: moved out of the reply
  sim::Time queued = 0;               // fetch() called
  sim::Time requested = 0;            // sent on the connection
  sim::Time responded = 0;   // HTTP/2: written by the origin, with its pushes
  std::uint32_t stream = 0;  // HTTP/2: the response's; its pushes follow it
  std::uint32_t open = 0;    // HTTP/2: undelivered body and pushes
};

// A session's exchanges by index, each record reused once released. A
// deque, so adding a record never moves another: a handler may fetch while
// it reads its own record's meta.
class ExchangePool {
 public:
  explicit ExchangePool(std::pmr::memory_resource* memory)
      : records_(memory), free_(memory) {}

  std::uint32_t add(Request req, ResponseHandlers handlers, sim::Time now);
  void release(std::uint32_t ex) { free_.push_back(ex); }
  Exchange& operator[](std::uint32_t ex) { return records_[ex]; }
  std::uint32_t size() const {
    return static_cast<std::uint32_t>(records_.size());
  }

 private:
  std::pmr::deque<Exchange> records_;
  std::pmr::vector<std::uint32_t> free_;  // released, latest first
};

// Implemented by server/OriginServer.
class RequestHandler {
 public:
  virtual ~RequestHandler() = default;
  virtual ServerReply handle(const Request& req) = 0;
};

// Client-side view of one domain (an HTTP/1.1 connection group or an HTTP/2
// session).
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  virtual void fetch(Request req, ResponseHandlers handlers) = 0;
};

}  // namespace vroom::http
