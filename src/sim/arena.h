// Bump-allocating arena for objects with per-load lifetime.
//
// A page-load world (PageInstance, interner storage, fetch tables, browser
// task state) is built, used, and torn down together: one lifetime, so one
// arena and no individual frees — the same idiom PooledEventLoop applies to
// loop storage. The arena hands out memory by bumping a pointer through
// geometrically growing chunks; deallocate is a no-op; reset() rewinds every
// chunk but keeps the memory, so a fleet worker's second load allocates its
// whole world without touching the system allocator.
//
// The arena is a std::pmr::memory_resource, so per-load containers opt in
// with std::pmr types and keep running their destructors normally — only the
// *memory* is bulk-recycled, which keeps non-trivial members (SmallFn
// waiters, std::string edges) safe without arena-awareness.
//
// Lifetime hazard (see DESIGN.md §13): pointers and string_views into the
// arena — including every interned URL — die at reset(). Nothing that
// outlives a load (LoadResult, browser::Cache entries) may hold arena-backed
// storage; they copy at the edge.
//
// Single-threaded by design, like the page world it backs: each fleet worker
// acquires its own arena (PooledArena below), so no synchronization.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <string_view>
#include <vector>

#include "sim/pooled.h"

namespace vroom::sim {

class Arena final : public std::pmr::memory_resource {
 public:
  static constexpr std::size_t kDefaultChunkBytes = 64 * 1024;

  explicit Arena(std::size_t first_chunk_bytes = kDefaultChunkBytes)
      : next_chunk_bytes_(first_chunk_bytes) {}
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Bump-allocates `bytes` aligned to `align`. Never fails short of OOM.
  void* allocate(std::size_t bytes, std::size_t align) {
    return do_allocate(bytes, align);
  }

  // Copies `s` into the arena and returns a view of the stable copy (with a
  // terminating NUL one past the end, so .data() is C-safe). The view dies
  // at reset().
  std::string_view copy_string(std::string_view s);

  // Rewinds every chunk but keeps the memory mapped, returning the arena to
  // a state indistinguishable from fresh for allocation purposes. All
  // outstanding pointers into the arena become dangling.
  void reset();

  // Bytes handed out since construction or the last reset() (including
  // alignment padding).
  std::size_t bytes_used() const { return bytes_used_; }
  // Total chunk bytes held (survives reset; the reuse the pool exists for).
  std::size_t bytes_reserved() const { return bytes_reserved_; }
  std::size_t chunk_count() const { return chunks_.size(); }

 private:
  struct Chunk {
    std::unique_ptr<char[]> data;
    std::size_t size = 0;
  };

  void* do_allocate(std::size_t bytes, std::size_t align) override;
  void do_deallocate(void*, std::size_t, std::size_t) override {}
  bool do_is_equal(const std::pmr::memory_resource& other)
      const noexcept override {
    return this == &other;
  }

  // Grows into a chunk that fits `bytes` and makes it current.
  void add_chunk(std::size_t bytes);

  std::vector<Chunk> chunks_;
  std::size_t current_ = 0;  // index into chunks_; valid iff !chunks_.empty()
  std::size_t offset_ = 0;   // bump offset within the current chunk
  std::size_t next_chunk_bytes_;
  std::size_t bytes_used_ = 0;
  std::size_t bytes_reserved_ = 0;
};

// A thread-local pooled Arena (sim/pooled.h): a fleet worker's
// consecutive loads reuse the chunks the first load grew, so steady-state
// world construction performs zero system allocations for arena-backed
// state.
using PooledArena = Pooled<Arena>;

}  // namespace vroom::sim
