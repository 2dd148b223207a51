// Small-buffer-optimized move-only callable for the layer callbacks.
//
// The callbacks one layer hands another — a TCP chunk's delivery callbacks,
// a connection's connect and request waiters, a browser task's body — are
// lambdas capturing a handful of pointers and small ids; std::function
// heap-allocates most of them (libstdc++'s inline buffer is 16 bytes).
// SmallFn stores captures up to kInlineSize bytes inline and only falls back
// to the heap for oversized closures (e.g. one capturing another SmallFn).
// Move-only, so closures may own move-only state. Event-loop events are
// records (sim::Record), not closures.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace vroom::sim {

class SmallFn {
 public:
  // Sized so a lambda capturing `this` plus a std::string (32 bytes in
  // libstdc++) plus an id or two stays inline.
  static constexpr std::size_t kInlineSize = 48;

  SmallFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= kInlineSize &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &inline_ops<D>;
    } else {
      heap_ = new D(std::forward<F>(f));
      ops_ = &heap_ops<D>;
    }
  }

  SmallFn(SmallFn&& other) noexcept
      : heap_(other.heap_), ops_(other.ops_) {
    if (ops_ != nullptr && heap_ == nullptr) {
      ops_->relocate(other.buf_, buf_);
    }
    other.ops_ = nullptr;
    other.heap_ = nullptr;
  }

  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      heap_ = other.heap_;
      ops_ = other.ops_;
      if (ops_ != nullptr && heap_ == nullptr) {
        ops_->relocate(other.buf_, buf_);
      }
      other.ops_ = nullptr;
      other.heap_ = nullptr;
    }
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { reset(); }

  void reset() {
    if (ops_ == nullptr) return;
    ops_->destroy(target());
    ops_ = nullptr;
    heap_ = nullptr;
  }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(target()); }

 private:
  struct Ops {
    void (*invoke)(void*);
    // Move-construct into `to` from `from`, then destroy `from`. Only used
    // for inline storage; heap storage relocates by stealing the pointer.
    void (*relocate)(void* from, void* to);
    void (*destroy)(void*);
  };

  void* target() {
    return heap_ != nullptr ? heap_ : static_cast<void*>(buf_);
  }

  template <typename D>
  static constexpr Ops inline_ops = {
      [](void* p) { (*static_cast<D*>(p))(); },
      [](void* from, void* to) {
        D* src = static_cast<D*>(from);
        ::new (to) D(std::move(*src));
        src->~D();
      },
      [](void* p) { static_cast<D*>(p)->~D(); },
  };

  template <typename D>
  static constexpr Ops heap_ops = {
      [](void* p) { (*static_cast<D*>(p))(); },
      nullptr,
      [](void* p) { delete static_cast<D*>(p); },
  };

  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
  void* heap_ = nullptr;  // non-null iff the callable lives on the heap
  const Ops* ops_ = nullptr;
};

}  // namespace vroom::sim
