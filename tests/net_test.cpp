#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "net/link.h"
#include "net/network.h"
#include "net/tcp.h"
#include "sim/random.h"
#include "web/intern.h"
#include "web/page_generator.h"

namespace vroom::net {
namespace {

// Records when a link's completion record fires.
struct Delivered {
  explicit Delivered(sim::EventLoop& l) : loop(l) {}
  sim::EventLoop& loop;
  std::vector<sim::Time> at;
  void hit(std::uint32_t, std::int64_t) { at.push_back(loop.now()); }
  sim::LaneRecord record() { return sim::lane_record<&Delivered::hit>(this); }
};

TEST(LinkTest, SerializesAtLineRate) {
  sim::EventLoop loop;
  Link link(loop, 8e6);  // 1 byte/us
  Delivered done(loop);
  link.transmit(1000, done.record());
  loop.run();
  EXPECT_EQ(done.at, (std::vector<sim::Time>{1000}));
  EXPECT_EQ(link.total_bytes(), 1000);
}

TEST(LinkTest, FifoQueueing) {
  sim::EventLoop loop;
  Link link(loop, 8e6);
  Delivered done(loop);
  link.transmit(1000, done.record());
  link.transmit(500, done.record());
  loop.run();
  // The second transfer queued behind the first.
  EXPECT_EQ(done.at, (std::vector<sim::Time>{1000, 1500}));
}

TEST(LinkTest, LaterArrivalStartsWhenIdle) {
  sim::EventLoop loop;
  Link link(loop, 8e6);
  Delivered done(loop);
  loop.schedule_at(5000, [&] { link.transmit(100, done.record()); });
  loop.run();
  EXPECT_EQ(done.at, (std::vector<sim::Time>{5100}));
}

TEST(LinkTest, UtilizationAccounting) {
  sim::EventLoop loop;
  Link link(loop, 8e6);
  Delivered done(loop);
  link.transmit(1000, done.record());
  loop.schedule_at(2000, [] {});  // extend the clock to 2000us
  loop.run();
  EXPECT_NEAR(link.utilization(), 0.5, 1e-9);
}

TEST(NetworkTest, DomainRttDeterministicAndBounded) {
  sim::EventLoop loop;
  NetworkConfig cfg = NetworkConfig::lte();
  Network a(loop, cfg, 7), b(loop, cfg, 7), c(loop, cfg, 8);
  EXPECT_EQ(a.rtt("x.com"), b.rtt("x.com"));
  EXPECT_GE(a.rtt("x.com"), cfg.cellular_rtt + cfg.domain_rtt_min);
  EXPECT_LE(a.rtt("x.com"), cfg.cellular_rtt + cfg.domain_rtt_max);
  // Different seeds generally draw different wide-area legs.
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    const std::string d = "dom" + std::to_string(i) + ".com";
    if (a.rtt(d) != c.rtt(d)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(NetworkTest, SetRttOverrides) {
  sim::EventLoop loop;
  Network n(loop, NetworkConfig::lte(), 1);
  n.set_rtt("a.com", sim::ms(80));
  EXPECT_EQ(n.rtt("a.com"), sim::ms(80));
}

// For every domain of a generated page, the id-memoized RTT equals the
// string path, and both equal a draw from the stream
// sim::Rng(seed, "domain_rtt:" + domain). A set_rtt override reaches the id
// path whether it comes before the domain's first touch or after an id draw.
TEST(NetTest, RttIdPathMatchesStringPath) {
  const web::PageModel page = web::generate_page(42, 7, web::PageClass::News);
  std::set<std::string> domains;
  for (const web::Resource& r : page.resources()) domains.insert(r.domain);
  ASSERT_GT(domains.size(), 2u);
  const NetworkConfig cfg = NetworkConfig::lte();
  for (const std::uint64_t seed : {1ULL, 42ULL}) {
    sim::EventLoop loop;
    Network net(loop, cfg, seed);
    web::Interner interner;
    for (const std::string& d : domains) {
      sim::Rng stream(seed, "domain_rtt:" + d);
      const auto wide_area = static_cast<sim::Time>(stream.lognormal(
          static_cast<double>(cfg.domain_rtt_median), cfg.domain_rtt_sigma));
      const sim::Time expected =
          cfg.cellular_rtt +
          std::clamp(wide_area, cfg.domain_rtt_min, cfg.domain_rtt_max);
      const std::uint32_t id = interner.domain_id(d);
      EXPECT_EQ(net.rtt(id, d), expected) << d;
      EXPECT_EQ(net.rtt(id, d), expected) << d;
      EXPECT_EQ(net.rtt(d), expected) << d;
    }
  }
  sim::EventLoop loop;
  Network net(loop, cfg, 1);
  web::Interner interner;
  const std::string before = *domains.begin();
  const std::string after = *std::next(domains.begin());
  net.set_rtt(before, sim::ms(1));
  EXPECT_EQ(net.rtt(interner.domain_id(before), before), sim::ms(1));
  const std::uint32_t id = interner.domain_id(after);
  EXPECT_GT(net.rtt(id, after), cfg.cellular_rtt);
  net.set_rtt(after, sim::ms(2));
  EXPECT_EQ(net.rtt(id, after), sim::ms(2));
  EXPECT_EQ(net.rtt(after), sim::ms(2));
  EXPECT_EQ(net.rtt(interner.domain_id(before), before), sim::ms(1));
}

class TcpTest : public ::testing::Test {
 protected:
  TcpTest() : net_(loop_, NetworkConfig::lte(), 1) {
    net_.set_rtt("a.com", sim::ms(100));
  }
  sim::EventLoop loop_;
  Network net_;
};

TEST_F(TcpTest, HandshakeTakesDnsPlusRtts) {
  TcpConnection conn(net_, "a.com", /*needs_dns=*/true);
  sim::Time established = -1;
  conn.connect([&] { established = loop_.now(); });
  loop_.run();
  // DNS (25ms) + TCP handshake (100ms) + 2 TLS RTTs (TLS 1.2, 200ms).
  EXPECT_EQ(established, sim::ms(325));
  EXPECT_TRUE(conn.established());
}

TEST_F(TcpTest, NoDnsSkipsLookup) {
  TcpConnection conn(net_, "a.com", /*needs_dns=*/false);
  sim::Time established = -1;
  conn.connect([&] { established = loop_.now(); });
  loop_.run();
  EXPECT_EQ(established, sim::ms(300));
}

TEST_F(TcpTest, SmallResponseIsLatencyBound) {
  TcpConnection conn(net_, "a.com", false);
  sim::Time done = -1;
  conn.connect([&] {
    TcpConnection::Chunk c;
    c.bytes = 1000;  // one segment
    c.on_delivered = [&] { done = loop_.now(); };
    conn.send_chunk(std::move(c));
  });
  loop_.run();
  // Established at 300ms; then half RTT + serialization (~0.8ms at 10Mbps).
  EXPECT_GT(done, sim::ms(350));
  EXPECT_LT(done, sim::ms(352));
}

TEST_F(TcpTest, LargeTransferApproachesLinkRate) {
  TcpConnection conn(net_, "a.com", false);
  const std::int64_t bytes = 3'000'000;
  sim::Time done = -1;
  conn.connect([&] {
    TcpConnection::Chunk c;
    c.bytes = bytes;
    c.on_delivered = [&] { done = loop_.now(); };
    conn.send_chunk(std::move(c));
  });
  loop_.run();
  const double secs = sim::to_seconds(done - sim::ms(300));
  const double ideal = bytes * 8.0 / 10e6;
  EXPECT_GT(secs, ideal);           // slow start costs something
  EXPECT_LT(secs, ideal * 1.5);     // but the link ends up well utilized
}

TEST_F(TcpTest, SlowStartMakesSmallTransfersRoundTripBound) {
  // 64 KB needs ~3 windows at init cwnd 10*1460: observable extra RTTs.
  TcpConnection conn(net_, "a.com", false);
  sim::Time done = -1;
  conn.connect([&] {
    TcpConnection::Chunk c;
    c.bytes = 64'000;
    c.on_delivered = [&] { done = loop_.now(); };
    conn.send_chunk(std::move(c));
  });
  loop_.run();
  const sim::Time after_setup = done - sim::ms(300);
  // Serialization alone would be ~51ms; slow start adds at least 2 extra
  // round trips beyond the first half-RTT.
  EXPECT_GT(after_setup, sim::ms(51 + 150));
}

TEST_F(TcpTest, ChunksDeliverInOrderWithCallbacks) {
  TcpConnection conn(net_, "a.com", false);
  std::vector<int> order;
  sim::Time first_byte_b = -1;
  conn.connect([&] {
    TcpConnection::Chunk a;
    a.bytes = 10'000;
    a.on_delivered = [&] { order.push_back(1); };
    conn.send_chunk(std::move(a));
    TcpConnection::Chunk b;
    b.bytes = 10'000;
    b.on_first_byte = [&] { first_byte_b = loop_.now(); };
    b.on_delivered = [&] { order.push_back(2); };
    conn.send_chunk(std::move(b));
  });
  loop_.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_GT(first_byte_b, 0);
}

TEST_F(TcpTest, RequestReachesServerAfterUplinkAndHalfRtt) {
  TcpConnection conn(net_, "a.com", false);
  sim::Time at_server = -1;
  conn.connect([&] {
    conn.send_request(450, [&] { at_server = loop_.now(); });
  });
  loop_.run();
  // 450B at 5Mbps = 720us, + 50ms half RTT.
  EXPECT_EQ(at_server, sim::ms(300) + 720 + sim::ms(50));
}

TEST_F(TcpTest, TwoConnectionsShareTheAccessLink) {
  net_.set_rtt("b.com", sim::ms(100));
  TcpConnection c1(net_, "a.com", false);
  TcpConnection c2(net_, "b.com", false);
  sim::Time d1 = -1, d2 = -1;
  const std::int64_t bytes = 1'000'000;
  auto send = [&](TcpConnection& c, sim::Time& out) {
    c.connect([&c, &out, bytes, this] {
      TcpConnection::Chunk ch;
      ch.bytes = bytes;
      ch.on_delivered = [&out, this] { out = loop_.now(); };
      c.send_chunk(std::move(ch));
    });
  };
  send(c1, d1);
  send(c2, d2);
  loop_.run();
  // Together they move 2 MB; the shared 10 Mbps link needs >= 1.6s.
  EXPECT_GT(std::max(d1, d2), sim::from_seconds(2 * bytes * 8.0 / 10e6));
}

// Chunk callbacks may write more chunks on their own connection, on the
// same stream and on another one. Every callback fires exactly once, each
// stream delivers its chunks in write order, and every byte is counted.
TEST(TcpReentrancyTest, ChunkCallbacksMayWriteMoreChunks) {
  for (const WriterDiscipline discipline :
       {WriterDiscipline::RoundRobin, WriterDiscipline::Ordered}) {
    sim::EventLoop loop;
    Network net(loop, NetworkConfig::lte(), 1);
    net.set_rtt("a.com", sim::ms(100));
    TcpConnection conn(net, "a.com", false, discipline);
    std::map<std::uint32_t, std::vector<std::string>> written, delivered;
    std::map<std::string, int> first_bytes, completions;
    std::int64_t bytes_written = 0;
    std::function<void(std::uint32_t, const std::string&, std::int64_t,
                       std::function<void()>, std::function<void()>)>
        write = [&](std::uint32_t stream, const std::string& name,
                    std::int64_t bytes, std::function<void()> then_first,
                    std::function<void()> then_done) {
          written[stream].push_back(name);
          bytes_written += bytes;
          TcpConnection::Chunk c;
          c.bytes = bytes;
          c.on_first_byte = [&first_bytes, name, then_first] {
            ++first_bytes[name];
            if (then_first) then_first();
          };
          c.on_delivered = [&completions, &delivered, stream, name,
                            then_done] {
            ++completions[name];
            delivered[stream].push_back(name);
            if (then_done) then_done();
          };
          conn.send_chunk(stream, 0, std::move(c));
        };
    conn.connect([&] {
      write(1, "a", 40'000,
            [&] {  // mid-chunk: its own stream and the other one
              write(1, "b", 3'000, nullptr, nullptr);
              write(2, "d", 5'000, nullptr, nullptr);
            },
            [&] {  // after its last byte
              write(1, "c", 2'000, nullptr,
                    [&] { write(2, "f", 1'000, nullptr, nullptr); });
              write(2, "e", 1'000, nullptr, nullptr);
            });
      write(2, "g", 20'000, nullptr,
            [&] { write(1, "h", 7'000, nullptr, nullptr); });
    });
    loop.run();
    EXPECT_EQ(delivered, written);
    for (const auto& [stream, names] : written) {
      for (const std::string& name : names) {
        EXPECT_EQ(first_bytes[name], 1) << name;
        EXPECT_EQ(completions[name], 1) << name;
      }
    }
    EXPECT_EQ(first_bytes.size(), 8u);
    EXPECT_EQ(conn.bytes_delivered(), bytes_written);
  }
}

}  // namespace
}  // namespace vroom::net
