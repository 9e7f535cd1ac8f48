// The callback of a pooled calendar event: one static call.
//
// Every pooled event is a plain function pointer with a context pointer
// and two payload words, `fn(ctx, a, b)`: the packet network's link
// advances and arrivals, memory and interconnect completions, parcel
// hand-offs.  Process wakes are not actions at all: they link the
// process's own calendar node (ProcessHook, see simulation.hpp) and
// dispatch as audit/profiler kind kWakeKindId.  A component that needs
// per-event state keeps it itself and passes its index or pointer in
// `a`/`b`; the kernel stores four words and calls them.
//
// The record is trivially copyable and trivially destructible, so the
// record pool never constructs, moves or destroys a payload, and a
// cancelled event needs no cleanup.
#pragma once

#include <cstdint>
#include <type_traits>

namespace pimsim::des {

struct EventAction {
  using StaticFn = void (*)(void* ctx, std::uint64_t a, std::uint64_t b);

  /// Kind id of a process wake, which is no EventAction.
  static constexpr std::uint8_t kWakeKindId = 1;
  /// Kind id of every pooled event.  The audit hash chain and the
  /// profiler record it; ids 0, 2 and 3 are reserved and never dispatched
  /// (they named the retired empty and callable kinds, and keeping 4 here
  /// keeps every audit chain's bytes unchanged).
  static constexpr std::uint8_t kCallKindId = 4;

  StaticFn fn;
  void* ctx;
  std::uint64_t a;
  std::uint64_t b;

  void invoke() const { fn(ctx, a, b); }
};

static_assert(sizeof(EventAction) == 32, "four words, no tag");
static_assert(std::is_trivially_copyable_v<EventAction> &&
                  std::is_trivially_destructible_v<EventAction>,
              "the record pool never constructs or destroys a payload");

}  // namespace pimsim::des
