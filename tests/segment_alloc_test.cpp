// The per-segment network path allocates nothing: a TCP segment's
// propagation, link completion and ACK events reuse the warm loop's slab,
// heap and lane storage, and their callbacks fit SmallFn's inline buffer.
// The binary replaces the global operator new with a counting one, so a
// transfer ten times as long must make exactly as many allocations.
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>

#include <gtest/gtest.h>

#include "net/network.h"
#include "net/tcp.h"
#include "sim/event_loop.h"
#include "sim/time.h"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }

void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace vroom::net {
namespace {

// Resets `loop`, runs one connection that delivers `bytes` in one chunk, and
// returns the number of operator new calls the whole load made.
std::size_t allocations_for_transfer(sim::EventLoop& loop,
                                     std::int64_t bytes) {
  loop.reset();
  const std::size_t before = g_allocations.load();
  {
    Network net(loop, NetworkConfig::lte(), 1);
    net.set_rtt("a.com", sim::ms(100));
    TcpConnection conn(net, "a.com", false);
    bool delivered = false;
    conn.connect([&] {
      TcpConnection::Chunk chunk;
      chunk.bytes = bytes;
      chunk.on_delivered = [&delivered] { delivered = true; };
      conn.send_chunk(std::move(chunk));
    });
    loop.run();
    EXPECT_TRUE(delivered);
    EXPECT_EQ(conn.bytes_delivered(), bytes);
  }
  return g_allocations.load() - before;
}

TEST(SegmentAllocationTest, TransferLengthDoesNotChangeAllocationCount) {
  sim::EventLoop loop;
  allocations_for_transfer(loop, 2'000'000);  // grows slab, heap and lanes
  const std::size_t short_transfer = allocations_for_transfer(loop, 200'000);
  const std::size_t long_transfer = allocations_for_transfer(loop, 2'000'000);
  EXPECT_GT(short_transfer, 0u);  // the counter sees the world's own setup
  EXPECT_EQ(long_transfer, short_transfer);
}

}  // namespace
}  // namespace vroom::net
