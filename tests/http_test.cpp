#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "http/connection_pool.h"
#include "http/http1.h"
#include "http/http2.h"

namespace vroom::http {
namespace {

// A scripted origin for protocol tests.
class FakeServer : public RequestHandler {
 public:
  ServerReply handle(const Request& req) override {
    requests.emplace_back(req.url);
    ServerReply r = next;
    if (req.conditional && serve_304) r.not_modified = true;
    return r;
  }
  std::vector<std::string> requests;
  ServerReply next = [] {
    ServerReply r;
    r.body_bytes = 10'000;
    return r;
  }();
  bool serve_304 = false;
};

// "a.com/p1/r<i>v1.<ext>" for i in [0, n). A Request views its URL, so a
// test keeps these alive until its loop has run.
std::vector<std::string> numbered_urls(int n, const std::string& ext) {
  std::vector<std::string> urls;
  for (int i = 0; i < n; ++i) {
    urls.push_back("a.com/p1/r" + std::to_string(i) + "v1." + ext);
  }
  return urls;
}

class HttpTest : public ::testing::Test {
 protected:
  HttpTest() : net_(loop_, net::NetworkConfig::lte(), 1) {
    net_.set_rtt("a.com", sim::ms(100));
  }
  sim::EventLoop loop_;
  net::Network net_;
  FakeServer server_;
};

TEST_F(HttpTest, Http2SingleFetchDeliversHeadersThenBody) {
  Http2Session session(net_, "a.com", server_, {});
  sim::Time headers_at = -1, body_at = -1;
  ResponseHandlers h;
  h.on_headers = [&](const ResponseMeta& m) {
    headers_at = loop_.now();
    EXPECT_EQ(m.body_bytes, 10'000);
  };
  h.on_complete = [&](const ResponseMeta&) { body_at = loop_.now(); };
  Request req;
  req.url = "a.com/p1/r0v1.html";
  session.fetch(req, std::move(h));
  loop_.run();
  EXPECT_GT(headers_at, sim::ms(225));  // after DNS + TCP + TLS
  EXPECT_GT(body_at, headers_at);
  EXPECT_EQ(server_.requests.size(), 1u);
}

TEST_F(HttpTest, Http2MultiplexesOnOneConnection) {
  Http2Session session(net_, "a.com", server_, {});
  int done = 0;
  const std::vector<std::string> urls = numbered_urls(8, "js");
  for (int i = 0; i < 8; ++i) {
    Request req;
    req.url = urls[i];
    ResponseHandlers h;
    h.on_complete = [&](const ResponseMeta&) { ++done; };
    session.fetch(req, std::move(h));
  }
  loop_.run();
  EXPECT_EQ(done, 8);
  // All eight went to the same origin object with no per-request handshake:
  // total bytes ~ 8 * (10350) and far less wall time than 8 serial setups.
  EXPECT_EQ(server_.requests.size(), 8u);
}

TEST_F(HttpTest, Http2ResponsesArriveInRequestOrder) {
  Http2Session session(net_, "a.com", server_, {});
  std::vector<int> order;
  const std::vector<std::string> urls = numbered_urls(4, "js");
  for (int i = 0; i < 4; ++i) {
    Request req;
    req.url = urls[i];
    ResponseHandlers h;
    h.on_complete = [&order, i](const ResponseMeta&) { order.push_back(i); };
    session.fetch(req, std::move(h));
  }
  loop_.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST_F(HttpTest, Http2PushPromiseAndContent) {
  PushObserver obs;
  std::vector<std::string> promised, pushed;
  sim::Time promise_at = -1;
  obs.on_promise = [&](const std::string& url, std::int64_t) {
    promised.push_back(url);
    promise_at = loop_.now();
  };
  obs.on_complete = [&](const std::string& url, std::int64_t) {
    pushed.push_back(url);
  };
  Http2Session session(net_, "a.com", server_, obs);
  server_.next.pushes = {PushItem{"a.com/p1/r5v1.css", 4000},
                         PushItem{"a.com/p1/r6v1.js", 6000}};
  sim::Time html_done = -1;
  Request req;
  req.url = "a.com/p1/r0v1.html";
  ResponseHandlers h;
  h.on_complete = [&](const ResponseMeta&) { html_done = loop_.now(); };
  session.fetch(req, std::move(h));
  loop_.run();
  ASSERT_EQ(promised.size(), 2u);
  EXPECT_LT(promise_at, html_done);  // promises ride with the headers
  ASSERT_EQ(pushed.size(), 2u);
  EXPECT_EQ(pushed[0], "a.com/p1/r5v1.css");  // pushed in listed order
}

TEST_F(HttpTest, Http2HintsVisibleAtHeaders) {
  Http2Session session(net_, "a.com", server_, {});
  server_.next.hints.add("b.com/p1/r9v1.js", HintPriority::Preload, 0);
  bool saw = false;
  Request req;
  req.url = "a.com/p1/r0v1.html";
  ResponseHandlers h;
  h.on_headers = [&](const ResponseMeta& m) {
    saw = !m.hints.empty();
    EXPECT_EQ(m.hints.hints[0].url, "b.com/p1/r9v1.js");
  };
  session.fetch(req, std::move(h));
  loop_.run();
  EXPECT_TRUE(saw);
}

TEST_F(HttpTest, Http2ConditionalGets304) {
  Http2Session session(net_, "a.com", server_, {});
  server_.serve_304 = true;
  bool nm = false;
  Request req;
  req.url = "a.com/p1/r0v1.html";
  req.conditional = true;
  ResponseHandlers h;
  h.on_complete = [&](const ResponseMeta& m) { nm = m.not_modified; };
  session.fetch(req, std::move(h));
  loop_.run();
  EXPECT_TRUE(nm);
}

TEST_F(HttpTest, Http2ExtraDelayDefersResponse) {
  Http2Session fast(net_, "a.com", server_, {});
  sim::Time t_fast = -1, t_slow = -1;
  {
    Request req;
    req.url = "a.com/p1/r0v1.html";
    ResponseHandlers h;
    h.on_complete = [&](const ResponseMeta&) { t_fast = loop_.now(); };
    fast.fetch(req, std::move(h));
    loop_.run();
  }
  sim::EventLoop loop2;
  net::Network net2(loop2, net::NetworkConfig::lte(), 1);
  net2.set_rtt("a.com", sim::ms(100));
  FakeServer slow_server;
  slow_server.next.extra_delay = sim::ms(100);
  Http2Session slow(net2, "a.com", slow_server, {});
  {
    Request req;
    req.url = "a.com/p1/r0v1.html";
    ResponseHandlers h;
    h.on_complete = [&](const ResponseMeta&) { t_slow = loop2.now(); };
    slow.fetch(req, std::move(h));
    loop2.run();
  }
  EXPECT_EQ(t_slow - t_fast, sim::ms(100));
}

TEST_F(HttpTest, Http1LimitsParallelismToSixConnections) {
  Http1Group group(net_, "a.com", server_);
  int done = 0;
  std::vector<sim::Time> completions;
  const std::vector<std::string> urls = numbered_urls(12, "js");
  for (int i = 0; i < 12; ++i) {
    Request req;
    req.url = urls[i];
    ResponseHandlers h;
    h.on_complete = [&](const ResponseMeta&) {
      ++done;
      completions.push_back(loop_.now());
    };
    group.fetch(req, std::move(h));
  }
  loop_.run();
  EXPECT_EQ(done, 12);
  // With only 6 lanes the last completions come distinctly later than the
  // first ones (two serialized waves).
  std::sort(completions.begin(), completions.end());
  EXPECT_GT(completions.back(), completions.front() + sim::ms(50));
}

TEST_F(HttpTest, Http1HigherPriorityJumpsQueue) {
  Http1Group group(net_, "a.com", server_);
  std::vector<std::string> completed;
  auto submit = [&](std::string_view url, int prio) {
    Request req;
    req.url = url;
    req.priority = prio;
    ResponseHandlers h;
    h.on_complete = [&completed, url](const ResponseMeta&) {
      completed.emplace_back(url);
    };
    group.fetch(req, std::move(h));
  };
  // Fill all six lanes plus queue, then add a high-priority request; it must
  // finish before the earlier-queued low-priority ones.
  const std::vector<std::string> urls = numbered_urls(8, "jpg");
  for (int i = 0; i < 8; ++i) submit(urls[i], 0);
  submit("a.com/p1/r99v1.js", 5);
  loop_.run();
  auto pos = [&](const std::string& u) {
    return std::find(completed.begin(), completed.end(), u) -
           completed.begin();
  };
  EXPECT_LT(pos("a.com/p1/r99v1.js"), pos("a.com/p1/r7v1.jpg"));
}

// Replies with a body size derived from the request's url_id; the reply
// to url_id 0 also pushes one resource.
class SizedServer : public RequestHandler {
 public:
  ServerReply handle(const Request& req) override {
    ServerReply r;
    r.body_bytes = 1'000 + 500 * static_cast<std::int64_t>(req.url_id);
    if (req.url_id == 0) r.pushes = {PushItem{"a.com/p1/r50v1.css", 3'000}};
    return r;
  }
};

// Fetches url ids 0..6 on one endpoint, each but the first from inside
// another exchange's on_headers or on_complete handler.
class Refetcher {
 public:
  explicit Refetcher(Endpoint& ep) : ep_(ep) {}

  void fetch(web::UrlId id) {
    Request req;
    req.url = urls_[id];
    req.url_id = id;
    ResponseHandlers h;
    h.on_headers = [this, id](const ResponseMeta& m) {
      EXPECT_EQ(m.url_id, id);
      ++headers;
      if (id == 0) {
        fetch(1);
        fetch(2);
      }
      if (id == 1) fetch(3);
    };
    h.on_complete = [this, id](const ResponseMeta& m) {
      EXPECT_EQ(m.url_id, id);
      EXPECT_EQ(m.url, urls_[id]);
      EXPECT_TRUE(body_bytes.emplace(id, m.body_bytes).second) << id;
      if (id == 0) fetch(4);
      if (id == 2) {
        fetch(5);
        fetch(6);
      }
    };
    ep_.fetch(req, std::move(h));
  }

  // Every exchange completed once, with its own url_id and body size.
  void expect_all_complete() const {
    EXPECT_EQ(headers, 7);
    ASSERT_EQ(body_bytes.size(), 7u);
    for (const auto& [id, bytes] : body_bytes) {
      EXPECT_EQ(bytes, 1'000 + 500 * static_cast<std::int64_t>(id)) << id;
    }
  }

  int headers = 0;
  std::map<web::UrlId, std::int64_t> body_bytes;

 private:
  Endpoint& ep_;
  const std::vector<std::string> urls_ = numbered_urls(7, "js");
};

TEST_F(HttpTest, Http2HandlersMayFetchAgain) {
  SizedServer server;
  int promised = 0, pushed = 0;
  PushObserver obs;
  obs.on_promise = [&](const std::string&, std::int64_t) { ++promised; };
  obs.on_complete = [&](const std::string& url, std::int64_t bytes) {
    ++pushed;
    EXPECT_EQ(url, "a.com/p1/r50v1.css");
    EXPECT_EQ(bytes, 3'000);
  };
  Http2Session session(net_, "a.com", server, obs);
  Refetcher client(session);
  client.fetch(0);
  loop_.run();
  client.expect_all_complete();
  EXPECT_EQ(promised, 1);
  EXPECT_EQ(pushed, 1);
}

TEST_F(HttpTest, Http1HandlersMayFetchAgain) {
  SizedServer server;
  Http1Group group(net_, "a.com", server);
  Refetcher client(group);
  client.fetch(0);
  loop_.run();
  client.expect_all_complete();
}

TEST_F(HttpTest, PoolCreatesOneEndpointPerDomain) {
  FakeServer s2;
  ConnectionPool pool(
      net_,
      [&](const std::string& d) -> RequestHandler& {
        return d == "a.com" ? static_cast<RequestHandler&>(server_)
                            : static_cast<RequestHandler&>(s2);
      },
      Protocol::Http2, {});
  Endpoint& a1 = pool.endpoint(0, "a.com");
  Endpoint& a2 = pool.endpoint(0, "a.com");
  Endpoint& b = pool.endpoint(1, "b.com");
  EXPECT_EQ(&a1, &a2);
  EXPECT_NE(static_cast<Endpoint*>(&a1), &b);
}

// A hint costs its header bytes whatever its priority class.
TEST(HintSetTest, ByPriorityAndHeaderBytes) {
  HintSet hs;
  EXPECT_EQ(hs.header_bytes(), 0);
  hs.add("a.com/p1/r1v1.js", HintPriority::Preload, 0);
  EXPECT_EQ(hs.header_bytes(), 60);
  hs.add("a.com/p1/r2v1.jpg", HintPriority::Unimportant, 0);
  hs.add("a.com/p1/r3v1.js", HintPriority::SemiImportant, 0);
  EXPECT_EQ(hs.header_bytes(), 180);
}

}  // namespace
}  // namespace vroom::http
