#include "des/resource.hpp"

#include "common/error.hpp"

namespace pimsim::des {

Resource::Resource(Simulation& sim, std::size_t capacity, std::string name)
    : sim_(sim), capacity_(capacity), name_(std::move(name)) {
  require(capacity > 0,
          [&] { return "Resource '" + name_ + "': capacity must be positive"; });
}

bool Resource::AcquireAwaitable::await_ready() {
  Resource& r = resource_;
  if (r.head_ == nullptr && r.capacity_ - r.in_use_ >= n_) {
    r.grant(n_);
    return true;
  }
  return false;
}

void Resource::AcquireAwaitable::await_suspend(Process::handle_type h) {
  Resource& r = resource_;
  waiter_ = &h.promise().hook;
  (r.tail_ != nullptr ? r.tail_->next_ : r.head_) = this;
  r.tail_ = this;
  ++r.queued_count_;
  // tracing_enabled() first: the mistake mailbox.hpp warns about — the
  // label lookup is not free on a hot path.
  if (r.sim_.tracing_enabled()) {
    r.sim_.trace(TraceKind::kResourceEnqueued, r.trace_label());
  }
}

Resource::AcquireAwaitable Resource::acquire(std::size_t n) {
  // Failure messages are built lazily: acquire/release are hot paths.
  require(n > 0,
          [&] { return "Resource '" + name_ + "': acquire of zero units"; });
  require(n <= capacity_, [&] {
    return "Resource '" + name_ + "': request exceeds capacity (deadlock)";
  });
  return AcquireAwaitable(*this, n);
}

bool Resource::try_acquire(std::size_t n) {
  require(n > 0 && n <= capacity_,
          [&] { return "Resource '" + name_ + "': bad try_acquire"; });
  if (head_ != nullptr || capacity_ - in_use_ < n) return false;
  grant(n);
  return true;
}

void Resource::grant(std::size_t n) {
  in_use_ += n;
  ++grants_;
  busy_.set(sim_.now(), static_cast<double>(in_use_));
  if (sim_.tracing_enabled()) sim_.trace(TraceKind::kResourceAcquire, trace_label());
}

void Resource::release(std::size_t n) {
  ensure(n <= in_use_, [&] {
    return "Resource '" + name_ + "': release of more units than in use";
  });
  in_use_ -= n;
  busy_.set(sim_.now(), static_cast<double>(in_use_));
  if (sim_.tracing_enabled()) sim_.trace(TraceKind::kResourceRelease, trace_label());
  drain_queue();
}

void Resource::drain_queue() {
  // Strict FIFO: stop at the first waiter that does not fit.  Each grant
  // wake-up links the waiter's own calendar node — no allocation.
  while (head_ != nullptr && capacity_ - in_use_ >= head_->n_) {
    AcquireAwaitable* w = head_;
    head_ = w->next_;
    if (head_ == nullptr) tail_ = nullptr;
    --queued_count_;
    grant(w->n_);
    sim_.resume_soon(*w->waiter_);
  }
}

double Resource::utilization() const {
  const double cap = static_cast<double>(capacity_);
  return busy_.mean(sim_.now()) / cap;
}

}  // namespace pimsim::des
