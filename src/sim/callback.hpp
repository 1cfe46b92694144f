// Move-only `void()` callable with inline storage sized for packet hops.
//
// Every simulated packet hop schedules a closure: a link delivery
// captures {alive guard, direction, endpoint, frame Buffer} (72 bytes), a
// CPU-charged receive {this, edge, Buffer} (64 bytes).  std::function's
// 16-byte small-buffer storage holds none of them, so each event paid a
// heap allocation for its closure.  Callback keeps closures up to
// kInlineSize bytes in place and falls back to the heap only for larger
// (or over-aligned, or throwing-move) ones.  Being move-only it also
// accepts closures that own move-only state, which std::function cannot.
#pragma once

#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace ipop::sim {

class Callback {
 public:
  /// The largest packet-hop closure: Link::transmit's delivery lambda.
  static constexpr std::size_t kInlineSize = 72;

  Callback() noexcept = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, Callback> &&
                                        std::is_invocable_r_v<void, D&>>>
  Callback(F&& f) {  // NOLINT: intentional implicit (lambda sink)
    if constexpr (kStoredInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  Callback(Callback&& o) noexcept : ops_(o.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(buf_, o.buf_);
      o.ops_ = nullptr;
    }
  }
  Callback& operator=(Callback&& o) noexcept {
    if (this != &o) {
      reset();
      if (o.ops_ != nullptr) {
        o.ops_->relocate(buf_, o.buf_);
        ops_ = std::exchange(o.ops_, nullptr);
      }
    }
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }
  void operator()() { ops_->invoke(buf_); }

  /// Destroy the held closure (and whatever it captured) now.
  void reset() {
    if (ops_ != nullptr) std::exchange(ops_, nullptr)->destroy(buf_);
  }

  /// True when a closure of type F is stored without a heap allocation.
  template <typename F>
  static constexpr bool stores_inline() {
    return kStoredInline<std::decay_t<F>>;
  }

 private:
  struct Ops {
    void (*invoke)(void* self);
    // Move-construct into `dst` and destroy the source.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* self);
  };

  template <typename D>
  static constexpr bool kStoredInline =
      sizeof(D) <= kInlineSize && alignof(D) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<D>;

  template <typename D>
  static constexpr Ops kInlineOps{
      [](void* self) { std::invoke(*static_cast<D*>(self)); },
      [](void* dst, void* src) {
        D* from = static_cast<D*>(src);
        ::new (dst) D(std::move(*from));
        from->~D();
      },
      [](void* self) { static_cast<D*>(self)->~D(); },
  };

  template <typename D>
  static constexpr Ops kHeapOps{
      [](void* self) { std::invoke(**static_cast<D**>(self)); },
      [](void* dst, void* src) {
        *static_cast<D**>(dst) = *static_cast<D**>(src);
      },
      [](void* self) { delete *static_cast<D**>(self); },
  };

  alignas(void*) unsigned char buf_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace ipop::sim
