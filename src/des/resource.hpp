// Counted FIFO resource (the SES/Workbench "service/resource node"
// equivalent) with built-in utilization and queueing statistics.
//
// Strict FIFO: a request at the head that cannot yet be satisfied blocks
// later (even smaller) requests — no bypass, matching the queuing
// discipline of the paper's Workbench models.
//
// The wait queue is an intrusive FIFO threaded through the suspended
// AcquireAwaitables (each lives in its waiting frame), so queueing never
// allocates.
#pragma once

#include <cstddef>
#include <string>

#include "common/stats.hpp"
#include "common/units.hpp"
#include "des/process.hpp"
#include "des/simulation.hpp"

namespace pimsim::des {

class Resource {
 public:
  /// A resource with `capacity` indistinguishable units (servers, ports...).
  Resource(Simulation& sim, std::size_t capacity, std::string name = "resource");

  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  /// Awaitable that completes once `n` units have been granted to the caller.
  class [[nodiscard]] AcquireAwaitable {
   public:
    AcquireAwaitable(Resource& resource, std::size_t n)
        : resource_(resource), n_(n) {}
    bool await_ready();
    void await_suspend(Process::handle_type h);
    void await_resume() const noexcept {}

   private:
    friend class Resource;
    Resource& resource_;
    std::size_t n_;
    // Queue node, meaningful only while suspended.
    AcquireAwaitable* next_ = nullptr;
    ProcessHook* waiter_ = nullptr;
    SimTime enqueued_at_ = 0.0;
  };

  /// Requests n units (default 1); throws ConfigError if n > capacity.
  [[nodiscard]] AcquireAwaitable acquire(std::size_t n = 1);

  /// Returns n units and grants the queue head(s) if they now fit.
  void release(std::size_t n = 1);

  /// Tries to take n units without waiting; returns success.
  [[nodiscard]] bool try_acquire(std::size_t n = 1);

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t in_use() const { return in_use_; }
  [[nodiscard]] std::size_t available() const { return capacity_ - in_use_; }
  [[nodiscard]] std::size_t queue_length() const { return queued_count_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  // --- statistics -------------------------------------------------------
  /// Time-average fraction of capacity in use over [0, now].
  [[nodiscard]] double utilization() const;
  /// Time-average number of queued (not yet granted) requests.
  [[nodiscard]] double mean_queue_length() const;
  /// Waiting time statistics over granted requests.
  [[nodiscard]] const RunningStats& wait_stats() const { return wait_; }
  /// Total grants so far.
  [[nodiscard]] std::uint64_t grants() const { return grants_; }

 private:
  void grant(std::size_t n, SimTime enqueued_at);
  void drain_queue();

  /// Interns the resource name on first traced use (only reached behind a
  /// tracing_enabled() check, so the id is valid for the active tracer).
  [[nodiscard]] LabelId trace_label() const {
    if (trace_label_ == kLabelUninterned) trace_label_ = sim_.trace_label(name_);
    return trace_label_;
  }

  Simulation& sim_;
  std::size_t capacity_;
  std::size_t in_use_ = 0;
  std::string name_;
  mutable LabelId trace_label_ = kLabelUninterned;
  AcquireAwaitable* head_ = nullptr;  // oldest waiter
  AcquireAwaitable* tail_ = nullptr;
  std::size_t queued_count_ = 0;
  TimeWeighted busy_;
  TimeWeighted queued_;
  RunningStats wait_;
  std::uint64_t grants_ = 0;
};

}  // namespace pimsim::des
