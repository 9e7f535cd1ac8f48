// Coroutine process model for the simulation kernel.
//
// A model process is a C++20 coroutine returning des::Process.  Inside the
// body, the process advances simulated time and synchronizes with other
// processes by co_await-ing kernel awaitables:
//
//   des::Process worker(des::Simulation& sim, Resource& cpu) {
//     co_await des::delay(sim, 10.0);        // advance 10 cycles
//     co_await cpu.acquire();                // queue for a server
//     co_await des::delay(sim, 5.0);         // hold it for 5 cycles
//     cpu.release();
//   }
//
// Lifetime rules:
//  * a Process not passed to Simulation::spawn destroys its frame on
//    destruction (nothing ran: processes start suspended);
//  * once spawned, the Simulation owns the frame; it is destroyed when the
//    body finishes or when the Simulation is destroyed;
//  * exceptions escaping a process body are captured and rethrown from
//    Simulation::run()/run_until()/step().
#pragma once

#include <coroutine>
#include <exception>
#include <memory>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "des/simulation.hpp"

namespace pimsim::des {

/// Handle to a coroutine-based model process (move-only).
class Process {
 public:
  /// Completion state shared between the frame, joiners, and this handle.
  struct State {
    Simulation* sim = nullptr;
    bool spawned = false;
    bool done = false;
    std::vector<std::coroutine_handle<>> joiners;
  };

  struct promise_type;
  using handle_type = std::coroutine_handle<promise_type>;

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    void await_suspend(handle_type h) noexcept {
      // The frame is suspended at its final point: mark completion, wake
      // joiners through the calendar, then free the frame.
      auto state = h.promise().state;
      state->done = true;
      if (state->sim != nullptr) {
        for (auto j : state->joiners) state->sim->resume_soon(j);
        state->joiners.clear();
        state->sim->unregister_process(h.promise().hook);
      }
      h.destroy();
    }
    void await_resume() const noexcept {}
  };

  struct promise_type {
    std::shared_ptr<State> state = std::make_shared<State>();
    ProcessHook hook;  // the kernel's live-registry entry

    Process get_return_object() {
      return Process(handle_type::from_promise(*this), state);
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() {
      if (state->sim != nullptr) {
        state->sim->set_pending_exception(std::current_exception());
      } else {
        std::rethrow_exception(std::current_exception());
      }
    }
  };

  /// Awaitable returned by join(): resumes the awaiter when this process ends.
  class [[nodiscard]] JoinAwaitable {
   public:
    explicit JoinAwaitable(std::shared_ptr<State> state)
        : state_(std::move(state)) {}
    bool await_ready() const noexcept { return state_->done; }
    void await_suspend(std::coroutine_handle<> h) {
      state_->joiners.push_back(h);
    }
    void await_resume() const noexcept {}

   private:
    std::shared_ptr<State> state_;
  };

  Process(Process&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)),
        state_(std::move(other.state_)) {}
  Process& operator=(Process&& other) noexcept {
    if (this != &other) {
      destroy_if_unspawned();
      handle_ = std::exchange(other.handle_, nullptr);
      state_ = std::move(other.state_);
    }
    return *this;
  }
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;
  ~Process() { destroy_if_unspawned(); }

  /// True once the body has run to completion.
  [[nodiscard]] bool done() const { return state_ && state_->done; }

  /// Awaitable that completes when the process body finishes.
  /// Valid both before and after the process is spawned.
  [[nodiscard]] JoinAwaitable join() const { return JoinAwaitable(state_); }

  /// Used by Simulation::spawn: transfers frame ownership to the kernel.
  handle_type release_for_spawn(Simulation& sim) {
    state_->sim = &sim;
    state_->spawned = true;
    handle_.promise().hook.frame = handle_.address();
    sim.register_process(handle_.promise().hook);
    return std::exchange(handle_, nullptr);
  }

 private:
  Process(handle_type h, std::shared_ptr<State> state)
      : handle_(h), state_(std::move(state)) {}

  void destroy_if_unspawned() {
    if (handle_ && state_ && !state_->spawned) handle_.destroy();
    handle_ = nullptr;
  }

  handle_type handle_ = nullptr;
  std::shared_ptr<State> state_;
};

/// Awaitable that advances the awaiting process by `delay` cycles.
class [[nodiscard]] DelayAwaitable {
 public:
  DelayAwaitable(Simulation& sim, Cycles delay) : sim_(sim), delay_(delay) {}
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    // Allocation-free: the calendar stores the raw handle (EventAction
    // kResume), not a functor wrapping it.
    (void)sim_.resume_in(delay_, h);
  }
  void await_resume() const noexcept {}

 private:
  Simulation& sim_;
  Cycles delay_;
};

/// co_await delay(sim, t): suspend for t >= 0 cycles of simulated time.
[[nodiscard]] inline DelayAwaitable delay(Simulation& sim, Cycles t) {
  return DelayAwaitable(sim, t);
}

/// co_await yield(sim): reschedule behind already-pending same-time events.
[[nodiscard]] inline DelayAwaitable yield(Simulation& sim) {
  return DelayAwaitable(sim, 0.0);
}

/// Broadcast trigger: processes co_await wait(); fire() wakes all of them.
class Trigger {
 public:
  explicit Trigger(Simulation& sim) : sim_(sim) {}

  class [[nodiscard]] WaitAwaitable {
   public:
    explicit WaitAwaitable(Trigger& trigger) : trigger_(trigger) {}
    bool await_ready() const noexcept { return trigger_.fired_; }
    void await_suspend(std::coroutine_handle<> h) {
      trigger_.waiters_.push_back(h);
    }
    void await_resume() const noexcept {}

   private:
    Trigger& trigger_;
  };

  /// Awaitable that completes when fire() is called (immediately if already
  /// fired and the trigger is latched).
  [[nodiscard]] WaitAwaitable wait() { return WaitAwaitable(*this); }

  /// Wakes all current waiters. With latch=true (default) later waiters
  /// pass straight through; reset() re-arms the trigger.
  void fire(bool latch = true) {
    fired_ = latch;
    auto waiters = std::move(waiters_);
    waiters_.clear();
    for (auto h : waiters) sim_.resume_soon(h);
  }

  void reset() { fired_ = false; }
  [[nodiscard]] std::size_t waiting() const { return waiters_.size(); }

 private:
  Simulation& sim_;
  bool fired_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// Spawns `p` and returns an awaitable for its completion:
///   co_await spawn_join(sim, child(sim, ...));
[[nodiscard]] inline Process::JoinAwaitable spawn_join(Simulation& sim,
                                                       Process p) {
  auto join = p.join();
  sim.spawn(std::move(p));
  return join;
}

/// Countdown latch: completes waiters once count_down() was called n times.
class CountdownLatch {
 public:
  CountdownLatch(Simulation& sim, std::size_t count)
      : trigger_(sim), remaining_(count) {
    if (remaining_ == 0) trigger_.fire();
  }

  void count_down() {
    if (remaining_ == 0) return;
    if (--remaining_ == 0) trigger_.fire();
  }

  [[nodiscard]] auto wait() { return trigger_.wait(); }
  [[nodiscard]] std::size_t remaining() const { return remaining_; }

 private:
  Trigger trigger_;
  std::size_t remaining_;
};

}  // namespace pimsim::des
