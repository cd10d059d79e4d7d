#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace tsim::sim {

/// Move-only callable with inline storage: the scheduler's replacement for
/// std::function<void()>. Every simulated packet schedules two events whose
/// closures capture the packet — since the PacketRef flyweight that is an
/// 8-byte handle, so the hot-path captures are [this, PacketRef] = 16 bytes.
/// Every callable lives inside the event entry itself: there is no heap
/// fallback. A closure larger than kInlineBytes, over-aligned, or not
/// nothrow-movable does not convert to a SmallCallback, so it fails to
/// compile at the schedule call instead of costing a malloc per event. The
/// usual culprit is a copy capture of a const object (a `const PacketRef&`
/// parameter, a `const` local): its member is const, so moving the closure
/// copies it. Capture such a value with an initializer (`[packet = packet]`).
class SmallCallback {
 public:
  /// Sized for [this, PacketRef, two words of context]; keeps the
  /// scheduler's Slot (callback + cancellation state) to one cache line.
  static constexpr std::size_t kInlineBytes = 40;

  /// Whether a callable of type Fn can be stored: it fits the buffer and
  /// moves without throwing (the scheduler relocates callbacks in noexcept
  /// moves).
  template <typename Fn>
  static constexpr bool kStorable = std::is_invocable_r_v<void, Fn&> &&
                                    sizeof(Fn) <= kInlineBytes &&
                                    alignof(Fn) <= alignof(std::max_align_t) &&
                                    std::is_nothrow_move_constructible_v<Fn>;

  SmallCallback() noexcept = default;

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, SmallCallback> && kStorable<std::decay_t<F>>)
  SmallCallback(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for std::function
    using Fn = std::decay_t<F>;
    ::new (static_cast<void*>(buffer_)) Fn(std::forward<F>(f));
    ops_ = &inline_ops<Fn>;
  }

  SmallCallback(SmallCallback&& other) noexcept : ops_{other.ops_} {
    if (ops_ != nullptr) {
      ops_->relocate(other.buffer_, buffer_);
      other.ops_ = nullptr;
    }
  }

  SmallCallback& operator=(SmallCallback&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(other.buffer_, buffer_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  SmallCallback(const SmallCallback&) = delete;
  SmallCallback& operator=(const SmallCallback&) = delete;

  ~SmallCallback() { reset(); }

  void operator()() { ops_->invoke(buffer_); }

  [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move-construct into dst from src, then destroy src.
    void (*relocate)(void* src, void* dst) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename Fn>
  static constexpr Ops inline_ops{
      [](void* storage) { (*std::launder(static_cast<Fn*>(storage)))(); },
      [](void* src, void* dst) noexcept {
        Fn* from = std::launder(static_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* storage) noexcept { std::launder(static_cast<Fn*>(storage))->~Fn(); }};

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buffer_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buffer_[kInlineBytes];
  const Ops* ops_{nullptr};
};

}  // namespace tsim::sim
