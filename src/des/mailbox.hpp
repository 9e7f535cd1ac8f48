// Awaitable message channel between processes (unbounded FIFO).
//
// This is the kernel primitive the parcel models are built on: a node's
// input queue is a Mailbox<Parcel>.  send() never blocks; receive() is an
// awaitable that completes when a message is available.
//
// Waiting receivers queue in an intrusive FIFO threaded through their
// ReceiveAwaitables (each lives in its suspended frame); messages nobody
// is waiting for queue in a buffer that grows only when such a message
// arrives, and keeps its capacity once drained.
//
// Invariant: the item queue and the waiter queue are never simultaneously
// non-empty (sends hand messages straight to the oldest waiter).
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "des/process.hpp"
#include "des/simulation.hpp"

namespace pimsim::des {

template <typename T>
class Mailbox {
 public:
  explicit Mailbox(Simulation& sim, std::string name = "mailbox")
      : sim_(sim), name_(std::move(name)) {}

  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  class [[nodiscard]] ReceiveAwaitable {
   public:
    explicit ReceiveAwaitable(Mailbox& box) : box_(box) {}

    bool await_ready() {
      if (box_.pending() == 0) return false;
      slot_ = box_.pop_item();
      return true;
    }
    void await_suspend(Process::handle_type h) noexcept {
      waiter_ = &h.promise().hook;
      (box_.tail_ != nullptr ? box_.tail_->next_ : box_.head_) = this;
      box_.tail_ = this;
      ++box_.waiting_;
    }
    T await_resume() {
      // Message built only on failure: receive is a hot path.
      ensure(slot_.has_value(), [this] {
        return "Mailbox '" + box_.name_ +
               "': resumed receiver without a message";
      });
      if (box_.sim_.tracing_enabled()) {
        box_.sim_.trace(TraceKind::kMailboxReceive, box_.trace_label());
      }
      return std::move(*slot_);
    }

   private:
    friend class Mailbox;
    Mailbox& box_;
    std::optional<T> slot_;
    // Queue node, meaningful only while suspended.
    ReceiveAwaitable* next_ = nullptr;
    ProcessHook* waiter_ = nullptr;
  };

  /// Deposits a message; wakes the oldest waiting receiver, if any.
  /// Allocation-free when a receiver is waiting: the message moves
  /// straight into the receiver's frame and the wake-up links the
  /// receiver's own calendar node.
  void send(T value) {
    // tracing_enabled() first: trace() itself is an inline branch, but
    // the lazy label interning is not free on a path this hot.
    if (sim_.tracing_enabled()) sim_.trace(TraceKind::kMailboxSend, trace_label());
    if (head_ != nullptr) {
      ReceiveAwaitable* w = head_;
      head_ = w->next_;
      if (head_ == nullptr) tail_ = nullptr;
      --waiting_;
      w->slot_ = std::move(value);
      sim_.resume_soon(*w->waiter_);
    } else {
      items_.push_back(std::move(value));
    }
  }

  /// Awaitable yielding the next message (FIFO among messages and waiters).
  [[nodiscard]] ReceiveAwaitable receive() { return ReceiveAwaitable(*this); }

  /// Non-blocking receive.
  [[nodiscard]] std::optional<T> try_receive() {
    if (pending() == 0) return std::nullopt;
    return pop_item();
  }

  [[nodiscard]] std::size_t pending() const { return items_.size() - item_head_; }
  [[nodiscard]] std::size_t waiting_receivers() const { return waiting_; }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  /// Pops the oldest queued message.  The consumed prefix is recycled
  /// when the buffer drains, or compacted away once it is the larger
  /// half, so a queue that never drains stays O(pending) in size.
  T pop_item() {
    T v = std::move(items_[item_head_]);
    if (++item_head_ == items_.size()) {
      items_.clear();
      item_head_ = 0;
    } else if (item_head_ >= 64 && 2 * item_head_ >= items_.size()) {
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(item_head_));
      item_head_ = 0;
    }
    return v;
  }

  /// Interns the mailbox name on first traced use (only reached behind a
  /// tracing_enabled() check, so the id is valid for the active tracer).
  [[nodiscard]] LabelId trace_label() const {
    if (trace_label_ == kLabelUninterned) trace_label_ = sim_.trace_label(name_);
    return trace_label_;
  }

  Simulation& sim_;
  std::string name_;
  mutable LabelId trace_label_ = kLabelUninterned;
  std::vector<T> items_;  // queued messages: [item_head_, size())
  std::size_t item_head_ = 0;
  ReceiveAwaitable* head_ = nullptr;  // oldest waiting receiver
  ReceiveAwaitable* tail_ = nullptr;
  std::size_t waiting_ = 0;
};

}  // namespace pimsim::des
