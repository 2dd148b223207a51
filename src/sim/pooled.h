// Thread-local pool of reusable per-load objects: acquire on construction,
// reset-and-return on destruction. Fleet workers build one simulation world
// per (page, load) job; pooling lets consecutive jobs on a worker reuse the
// storage the previous load grew (an EventLoop's node pool and heap, an
// Arena's chunks). One pool per thread and per type: workers never share
// objects, and an object acquired on a thread returns to that thread's pool.
// Reentrant — a nested world (e.g. the offline resolver crawling inside a
// live load) simply acquires a second object.
#pragma once

#include <memory>
#include <vector>

namespace vroom::sim {

// T must be default-constructible and have reset().
template <typename T>
class Pooled {
 public:
  Pooled() : item_(acquire()) {}
  ~Pooled() {
    item_->reset();
    free_list().emplace_back(item_);
  }
  Pooled(const Pooled&) = delete;
  Pooled& operator=(const Pooled&) = delete;

  T& operator*() { return *item_; }
  T* operator->() { return item_; }
  T* get() { return item_; }

 private:
  static std::vector<std::unique_ptr<T>>& free_list() {
    thread_local std::vector<std::unique_ptr<T>> list;
    return list;
  }
  static T* acquire() {
    auto& list = free_list();
    if (list.empty()) return new T();
    T* item = list.back().release();
    list.pop_back();
    return item;
  }

  T* item_;
};

}  // namespace vroom::sim
