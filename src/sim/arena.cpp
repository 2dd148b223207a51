#include "sim/arena.h"

#include <algorithm>
#include <cstring>

namespace vroom::sim {

namespace {

std::size_t align_up(std::size_t n, std::size_t align) {
  return (n + align - 1) & ~(align - 1);
}

}  // namespace

void Arena::add_chunk(std::size_t bytes) {
  // Reuse the first retained chunk past the current one that fits, moved
  // up to be next, so a rewound arena replaying the same allocations
  // (small ones, then a large scratch array, say) never grows; otherwise
  // grow geometrically so a world of any size settles into O(log size)
  // chunks.
  for (std::size_t k = current_ + 1; k < chunks_.size(); ++k) {
    if (chunks_[k].size < bytes) continue;
    const auto fit = chunks_.begin() + static_cast<std::ptrdiff_t>(k);
    std::rotate(chunks_.begin() + static_cast<std::ptrdiff_t>(current_ + 1),
                fit, fit + 1);
    ++current_;
    offset_ = 0;
    return;
  }
  std::size_t size = next_chunk_bytes_;
  while (size < bytes) size *= 2;
  next_chunk_bytes_ = size * 2;
  Chunk chunk;
  // Not zero-filled: the arena hands out uninitialized memory (a rewound
  // chunk holds the last world's bytes anyway), and a chunk's untouched
  // tail, up to half of a doubled chunk, never becomes resident.
  chunk.data = std::make_unique_for_overwrite<char[]>(size);
  chunk.size = size;
  bytes_reserved_ += size;
  chunks_.push_back(std::move(chunk));
  current_ = chunks_.size() - 1;
  offset_ = 0;
}

void* Arena::do_allocate(std::size_t bytes, std::size_t align) {
  if (bytes == 0) bytes = 1;
  if (chunks_.empty()) add_chunk(bytes);
  std::size_t at = align_up(offset_, align);
  if (at + bytes > chunks_[current_].size) {
    add_chunk(bytes);
    at = 0;  // chunk starts max-aligned (operator new[])
  }
  char* p = chunks_[current_].data.get() + at;
  bytes_used_ += (at - offset_) + bytes;
  offset_ = at + bytes;
  return p;
}

std::string_view Arena::copy_string(std::string_view s) {
  char* p = static_cast<char*>(do_allocate(s.size() + 1, 1));
  std::memcpy(p, s.data(), s.size());
  p[s.size()] = '\0';
  return std::string_view(p, s.size());
}

void Arena::reset() {
  current_ = 0;
  offset_ = 0;
  bytes_used_ = 0;
}

}  // namespace vroom::sim
