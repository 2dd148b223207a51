// The per-segment network path allocates nothing: a TCP segment's
// propagation, link completion and ACK events are records that reuse the
// warm loop's node pool, heap and lane storage.
// The binary replaces the global operator new with a counting one, so a
// transfer ten times as long must make exactly as many allocations.
//
// A whole load allocates per load, not per request: on a warm thread, a
// page with twice the requests may add only each request's URL string in
// the result (ResourceTiming::url). The page world writes its realized URLs
// into its arena without a temporary string.
#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "baselines/strategies.h"
#include "harness/experiment.h"
#include "net/network.h"
#include "net/tcp.h"
#include "sim/event_loop.h"
#include "sim/time.h"
#include "web/page_model.h"
#include "web/trace_io.h"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

// std::pmr's default resource allocates through the aligned overload.
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a =
      std::max(static_cast<std::size_t>(align), sizeof(void*));
  void* p = nullptr;
  if (posix_memalign(&p, a, size == 0 ? 1 : size) == 0) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }

void operator delete(void* p, std::size_t) noexcept { std::free(p); }

void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }

void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

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
  allocations_for_transfer(loop, 2'000'000);  // grows pool, heap and lanes
  const std::size_t short_transfer = allocations_for_transfer(loop, 200'000);
  const std::size_t long_transfer = allocations_for_transfer(loop, 2'000'000);
  EXPECT_GT(short_transfer, 0u);  // the counter sees the world's own setup
  EXPECT_EQ(long_transfer, short_transfer);
}

}  // namespace
}  // namespace vroom::net

namespace vroom::harness {
namespace {

// A root HTML document on tiny.com referencing `images` images, alternating
// between tiny.com and static.tiny.com.
web::PageModel tiny_page(int images) {
  const std::string stable = " vol=stable period=864000000000 phase=0\n";
  std::string trace =
      "page id=1 class=news first_party=tiny.com shards=static.tiny.com\n"
      "res id=0 parent=-1 type=html via=tag off=0 size=30000"
      " domain=tiny.com" + stable;
  for (int i = 1; i <= images; ++i) {
    trace += "res id=" + std::to_string(i) +
             " parent=0 type=image via=tag off=" +
             std::to_string(static_cast<double>(i) / (images + 1)) +
             " size=6000 domain=" +
             (i % 2 == 0 ? "tiny.com" : "static.tiny.com") + stable;
  }
  std::string error;
  std::optional<web::PageModel> page = web::page_from_trace(trace, &error);
  EXPECT_TRUE(page.has_value()) << error;
  return *page;
}

struct LoadCount {
  std::size_t allocations = 0;
  std::int64_t requests = 0;
};

LoadCount count_load(const web::PageModel& page,
                     const baselines::Strategy& strategy) {
  const std::size_t before = g_allocations.load();
  const browser::LoadResult result =
      run_page_load(page, strategy, RunOptions{}, 1);
  const std::size_t allocations = g_allocations.load() - before;
  EXPECT_TRUE(result.finished) << strategy.name;
  return {allocations, result.requests};
}

TEST(LoadAllocationTest, RequestsAddOnlyTheirUrlStrings) {
  const web::PageModel small = tiny_page(40);
  const web::PageModel large = tiny_page(80);
  for (const baselines::Strategy& strategy :
       {baselines::http2_baseline(), baselines::http11()}) {
    // Warm the thread's pooled loop and arena to the larger load's size.
    count_load(large, strategy);
    count_load(small, strategy);
    const LoadCount a = count_load(small, strategy);
    const LoadCount b = count_load(large, strategy);
    ASSERT_EQ(b.requests - a.requests, 40) << strategy.name;
    EXPECT_LE(b.allocations - a.allocations,
              static_cast<std::size_t>(b.requests - a.requests))
        << strategy.name << ": " << a.allocations << " allocations for "
        << a.requests << " requests, " << b.allocations << " for "
        << b.requests;
  }
}

}  // namespace
}  // namespace vroom::harness
