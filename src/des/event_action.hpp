// Type-erased one-shot callback of a pooled calendar event.
//
// EventAction is a small tagged union replacing the std::function the
// calendar used to store per event.  Process wakes are not actions at
// all: they link the process's own calendar node (ProcessHook, see
// simulation.hpp) and dispatch as audit/profiler kind kWakeKindId.  The
// three payload kinds cover every other event without touching the heap
// on the hot paths:
//
//  * kSmall  — an arbitrary callable move-constructed into a
//    kInlineSize-byte (32) inline buffer (covers every lambda the
//    library schedules).
//  * kBoxed  — the escape hatch for oversized or throwing-move callables,
//    heap-allocated as before.
//  * kStatic — a raw (function pointer, context, two u64 payloads) record
//    for components that dispatch millions of homogeneous events, e.g.
//    the packet network's link-advance/arrive events, memory-access and
//    interconnect-delivery completions: no ops table, no relocation, the
//    payload is invoked directly from the inline buffer.
//
// Invoking consumes the action: its kind is cleared and its payload
// moved to the stack before the callable runs, so the action is empty
// while its callback runs.  The dispatcher invokes it in place in its
// pooled record and recycles the record only once the callback returns.
// Oversized callables (> kInlineSize) transparently fall back to a heap
// box.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace pimsim::des {

class EventAction {
 public:
  /// Callables up to this size (and max_align_t alignment) are stored
  /// inline; anything larger falls back to a heap box.  32 bytes covers
  /// a std::function while keeping the whole EventAction at 48 bytes.
  static constexpr std::size_t kInlineSize = 32;

  EventAction() noexcept {}
  EventAction(EventAction&& other) noexcept { move_from(other); }
  EventAction& operator=(EventAction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  EventAction(const EventAction&) = delete;
  EventAction& operator=(const EventAction&) = delete;
  ~EventAction() { reset(); }

  /// Plain-function event with two word-sized payloads — the dedicated
  /// form for hot homogeneous event streams (link advances, arrivals).
  /// Cheaper than wrap(): no ops-table indirection, no relocation.
  using StaticFn = void (*)(void* ctx, std::uint64_t a, std::uint64_t b);
  static EventAction call(StaticFn fn, void* ctx, std::uint64_t a,
                          std::uint64_t b) noexcept {
    EventAction action;
    action.kind_ = Kind::kStatic;
    auto& rec = action.storage_.static_call;
    rec.fn = fn;
    rec.ctx = ctx;
    rec.a = a;
    rec.b = b;
    return action;
  }

  /// Wraps an arbitrary callable, inline when it fits.
  template <typename F>
  static EventAction wrap(F&& fn) {
    using Fn = std::decay_t<F>;
    EventAction a;
    if constexpr (sizeof(Fn) <= kInlineSize &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(a.storage_.inline_buf))
          Fn(std::forward<F>(fn));
      a.ops_ = &kSmallOps<Fn>;
      a.kind_ = Kind::kSmall;
    } else {
      a.storage_.pointer = new Fn(std::forward<F>(fn));
      a.ops_ = &kBoxedOps<Fn>;
      a.kind_ = Kind::kBoxed;
    }
    return a;
  }

  /// True while a callback is stored (empty after invoke()/reset()).
  explicit operator bool() const noexcept { return kind_ != Kind::kEmpty; }

  /// Kind id of a process wake, which is no EventAction: kind_id() never
  /// returns it, the audit chain and the profiler record it for wakes.
  static constexpr std::uint8_t kWakeKindId = 1;

  /// Stable small integer identifying the payload kind (0 = empty,
  /// 2 = small, 3 = boxed, 4 = static; 1 is kWakeKindId).  Fed into the
  /// audit hash chain so two runs dispatching different action kinds at
  /// the same (time, seq) still diverge.
  [[nodiscard]] std::uint8_t kind_id() const noexcept {
    return static_cast<std::uint8_t>(kind_);
  }

  /// Runs the callback and leaves the action empty.
  void invoke() {
    const Kind kind = std::exchange(kind_, Kind::kEmpty);
    switch (kind) {
      case Kind::kEmpty:
        return;
      case Kind::kSmall:
        ops_->invoke(storage_.inline_buf);
        return;
      case Kind::kBoxed:
        ops_->invoke(storage_.pointer);
        return;
      case Kind::kStatic: {
        // Copy to the stack first, like every other kind: the action is
        // already empty while the handler runs.
        const StaticCall rec = storage_.static_call;
        rec.fn(rec.ctx, rec.a, rec.b);
        return;
      }
    }
  }

  /// Destroys the payload without running it.
  void reset() noexcept {
    const Kind kind = std::exchange(kind_, Kind::kEmpty);
    if (kind == Kind::kSmall) {
      ops_->destroy(storage_.inline_buf);
    } else if (kind == Kind::kBoxed) {
      ops_->destroy(storage_.pointer);
    }
  }

 private:
  enum class Kind : std::uint8_t { kEmpty = 0, kSmall = 2, kBoxed = 3, kStatic = 4 };

  struct Ops {
    void (*invoke)(void* self);   // run, then destroy the stored callable
    void (*destroy)(void* self);  // destroy without running
    void (*relocate)(void* from, void* to);  // move-construct + destroy source
  };

  template <typename Fn>
  static constexpr Ops kSmallOps = {
      [](void* self) {
        // Relocate to the stack first: the stored callable is gone (and
        // destroyed exactly once, even if it throws) by the time it runs.
        Fn fn = std::move(*static_cast<Fn*>(self));
        static_cast<Fn*>(self)->~Fn();
        fn();
      },
      [](void* self) { static_cast<Fn*>(self)->~Fn(); },
      [](void* from, void* to) {
        ::new (to) Fn(std::move(*static_cast<Fn*>(from)));
        static_cast<Fn*>(from)->~Fn();
      }};

  template <typename Fn>
  static constexpr Ops kBoxedOps = {
      [](void* self) {
        std::unique_ptr<Fn> fn(static_cast<Fn*>(self));
        (*fn)();
      },
      [](void* self) { delete static_cast<Fn*>(self); },
      nullptr};

  void move_from(EventAction& other) noexcept {
    kind_ = std::exchange(other.kind_, Kind::kEmpty);
    ops_ = other.ops_;
    switch (kind_) {
      case Kind::kSmall:
        ops_->relocate(other.storage_.inline_buf, storage_.inline_buf);
        break;
      case Kind::kBoxed:
        storage_.pointer = other.storage_.pointer;
        break;
      case Kind::kStatic:
        storage_.static_call = other.storage_.static_call;
        break;
      case Kind::kEmpty:
        break;
    }
  }

  struct StaticCall {
    StaticFn fn;
    void* ctx;
    std::uint64_t a;
    std::uint64_t b;
  };
  static_assert(sizeof(StaticCall) <= kInlineSize);

  union Storage {
    void* pointer;  // kBoxed: heap callable
    StaticCall static_call;  // kStatic: fn + ctx + payload, trivially copyable
    alignas(std::max_align_t) std::byte inline_buf[kInlineSize];
  };

  Storage storage_;
  const Ops* ops_ = nullptr;
  Kind kind_ = Kind::kEmpty;
};

}  // namespace pimsim::des
