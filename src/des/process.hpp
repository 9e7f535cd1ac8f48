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
//
// Allocation (see src/des/README.md, "Process lifecycle and wait
// queues"): frames come from FramePool's per-thread size-class free
// lists, a process carries no shared state unless someone join()s it,
// and every wait queue (joiners, Trigger, Resource, Mailbox) is an
// intrusive list threaded through the awaitables parked in the waiting
// frames, so a warm spawn -> wait -> finish cycle never calls malloc.
//
// Wakes: the promise embeds the process's ProcessHook, whose calendar
// node is its one pending resume.  Every kernel awaitable takes the
// awaiting Process::handle_type (so only des::Process coroutines can
// await them) and wakes it by linking that node through
// Simulation::resume_at / resume_in / resume_soon: no EventAction, no
// record.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <utility>

#include "common/error.hpp"
#include "common/units.hpp"
#include "des/simulation.hpp"

namespace pimsim::des {

/// Recycling allocator for coroutine frames (and join states).  Spawned
/// frames escape their caller, so the compiler can never elide their
/// allocation; instead each thread keeps one LIFO free list per 16-byte
/// size class up to kMaxBlock.  Retention is bounded: a thread's lists
/// hold at most kMaxRetainedBytes, and blocks freed beyond that (the
/// teardown of a large simulation) go straight back to operator delete,
/// so the pool never pins more than that much memory per thread.
class FramePool {
 public:
  static constexpr std::size_t kGranule = 16;
  static constexpr std::size_t kMaxBlock = 1024;  ///< larger: operator new
  static constexpr std::size_t kMaxRetainedBytes = std::size_t{512} << 10;

  [[nodiscard]] static void* allocate(std::size_t size);
  static void deallocate(void* block, std::size_t size) noexcept;

  /// Bytes the calling thread's free lists currently hold (diagnostic).
  [[nodiscard]] static std::size_t retained_bytes() noexcept;
};

/// Handle to a coroutine-based model process (move-only).
class Process {
 public:
  struct promise_type;
  using handle_type = std::coroutine_handle<promise_type>;
  class JoinAwaitable;

  /// Completion record of a joined process.  Created (from FramePool) by
  /// the first join(); shared by the frame and every JoinAwaitable through
  /// an intrusive count, so it outlives the frame for late joiners.
  struct JoinState {
    JoinAwaitable* head = nullptr;  ///< suspended joiners, FIFO
    JoinAwaitable* tail = nullptr;
    std::uint32_t refs = 0;
    bool done = false;

    void retain() noexcept { ++refs; }
    void release() noexcept {
      if (--refs == 0) {
        this->~JoinState();
        FramePool::deallocate(this, sizeof(JoinState));
      }
    }
    /// Marks completion and wakes the joiners through the calendar, in
    /// the order they suspended.
    void complete(Simulation& sim) noexcept;
  };

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    void await_suspend(handle_type h) noexcept {
      // The frame is suspended at its final point: mark completion, wake
      // joiners through the calendar, then free the frame.
      promise_type& p = h.promise();
      if (p.sim != nullptr) {
        if (p.join != nullptr) p.join->complete(*p.sim);
        p.sim->unregister_process(p.hook);
      }
      h.destroy();
    }
    void await_resume() const noexcept {}
  };

  struct promise_type {
    // First, so the wake node shares a cache line with the frame's resume
    // pointer more often than not.
    ProcessHook hook;             // wake node + live-registry entry
    Simulation* sim = nullptr;    // set by Simulation::spawn
    JoinState* join = nullptr;    // created by the first join()

    promise_type() = default;
    promise_type(const promise_type&) = delete;
    promise_type& operator=(const promise_type&) = delete;
    ~promise_type() {
      if (join != nullptr) join->release();
    }

    static void* operator new(std::size_t size) {
      return FramePool::allocate(size);
    }
    static void operator delete(void* frame, std::size_t size) noexcept {
      FramePool::deallocate(frame, size);
    }

    Process get_return_object() {
      return Process(handle_type::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() {
      if (sim != nullptr) {
        sim->set_pending_exception(std::current_exception());
      } else {
        std::rethrow_exception(std::current_exception());
      }
    }
  };

  /// Awaitable returned by join(): resumes the awaiter when this process
  /// ends (immediately if it already has).  While suspended it is the
  /// joiner's node in the process's intrusive joiner list.
  class [[nodiscard]] JoinAwaitable {
   public:
    explicit JoinAwaitable(JoinState& state) noexcept : state_(&state) {
      state_->retain();
    }
    JoinAwaitable(JoinAwaitable&& other) noexcept
        : state_(std::exchange(other.state_, nullptr)) {}
    JoinAwaitable& operator=(JoinAwaitable&&) = delete;
    ~JoinAwaitable() {
      if (state_ == nullptr) return;
      if (linked_) unlink();
      state_->release();
    }

    bool await_ready() const noexcept { return state_->done; }
    void await_suspend(handle_type h) noexcept {
      waiter_ = &h.promise().hook;
      linked_ = true;
      (state_->tail != nullptr ? state_->tail->next_ : state_->head) = this;
      state_->tail = this;
    }
    void await_resume() const noexcept {}

   private:
    friend struct JoinState;
    /// Only a frame torn down while still waiting gets here.
    void unlink() noexcept;

    JoinState* state_;
    JoinAwaitable* next_ = nullptr;
    ProcessHook* waiter_ = nullptr;
    bool linked_ = false;
  };

  Process(Process&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)) {}
  Process& operator=(Process&& other) noexcept {
    if (this != &other) {
      destroy_if_unspawned();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;
  ~Process() { destroy_if_unspawned(); }

  /// True once the body has run to completion.  A handle only ever holds
  /// an unspawned frame (spawn() takes it over), whose body has not run,
  /// so a spawned process's completion is observed through join().
  [[nodiscard]] bool done() const { return handle_ && handle_.done(); }

  /// Awaitable that completes when the process body finishes.  Call it
  /// before spawning (spawn() consumes the handle); the awaitable stays
  /// valid after the process finished and its frame was recycled.
  [[nodiscard]] JoinAwaitable join() const {
    ensure(static_cast<bool>(handle_),
           "Process::join: the process was already spawned or moved from");
    promise_type& p = handle_.promise();
    if (p.join == nullptr) {
      p.join = ::new (FramePool::allocate(sizeof(JoinState))) JoinState{};
      p.join->retain();  // the frame's reference
    }
    return JoinAwaitable(*p.join);
  }

  /// Used by Simulation::spawn: transfers frame ownership to the kernel.
  handle_type release_for_spawn(Simulation& sim) {
    promise_type& p = handle_.promise();
    p.sim = &sim;
    p.hook.frame = handle_.address();
    sim.register_process(p.hook);
    return std::exchange(handle_, nullptr);
  }

 private:
  explicit Process(handle_type h) : handle_(h) {}

  void destroy_if_unspawned() {
    if (handle_) handle_.destroy();
    handle_ = nullptr;
  }

  handle_type handle_ = nullptr;
};

inline void Process::JoinState::complete(Simulation& sim) noexcept {
  done = true;
  JoinAwaitable* j = std::exchange(head, nullptr);
  tail = nullptr;
  while (j != nullptr) {
    JoinAwaitable* next = j->next_;
    j->linked_ = false;
    sim.resume_soon(*j->waiter_);
    j = next;
  }
}

inline void Process::JoinAwaitable::unlink() noexcept {
  JoinAwaitable* prev = nullptr;
  for (JoinAwaitable* j = state_->head; j != nullptr; prev = j, j = j->next_) {
    if (j != this) continue;
    (prev != nullptr ? prev->next_ : state_->head) = next_;
    if (state_->tail == this) state_->tail = prev;
    break;
  }
  linked_ = false;
}

/// Awaitable that advances the awaiting process by `delay` cycles.
class [[nodiscard]] DelayAwaitable {
 public:
  DelayAwaitable(Simulation& sim, Cycles delay) : sim_(sim), delay_(delay) {}
  bool await_ready() const noexcept { return false; }
  void await_suspend(Process::handle_type h) {
    // Allocation-free: the calendar links the process's own wake node.
    sim_.resume_in(delay_, h.promise().hook);
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

/// Awaitable that wakes the awaiting process at absolute time `at`.
class [[nodiscard]] WaitUntilAwaitable {
 public:
  WaitUntilAwaitable(Simulation& sim, SimTime at) : sim_(sim), at_(at) {}
  bool await_ready() const {
    ensure(at_ >= sim_.now(), "des::wait_until: time is in the past");
    return at_ == sim_.now();
  }
  void await_suspend(Process::handle_type h) {
    sim_.resume_at(at_, h.promise().hook);
  }
  void await_resume() const noexcept {}

 private:
  Simulation& sim_;
  SimTime at_;
};

/// co_await wait_until(sim, t): suspend until absolute time t >= now().
/// Unlike delay(), t == now() does not suspend at all, so a process that
/// keeps its own clock (a lookahead loop) can meet the kernel at the time
/// it reached without a same-time yield; t < now() throws LogicError.
[[nodiscard]] inline WaitUntilAwaitable wait_until(Simulation& sim,
                                                   SimTime t) {
  return WaitUntilAwaitable(sim, t);
}

/// Broadcast trigger: processes co_await wait(); fire() wakes all of them.
/// Waiters queue in an intrusive FIFO threaded through their awaitables.
class Trigger {
 public:
  explicit Trigger(Simulation& sim) : sim_(sim) {}
  Trigger(const Trigger&) = delete;
  Trigger& operator=(const Trigger&) = delete;

  class [[nodiscard]] WaitAwaitable {
   public:
    explicit WaitAwaitable(Trigger& trigger) : trigger_(trigger) {}
    bool await_ready() const noexcept { return trigger_.fired_; }
    void await_suspend(Process::handle_type h) noexcept {
      waiter_ = &h.promise().hook;
      Trigger& t = trigger_;
      (t.tail_ != nullptr ? t.tail_->next_ : t.head_) = this;
      t.tail_ = this;
      ++t.waiting_;
    }
    void await_resume() const noexcept {}

   private:
    friend class Trigger;
    Trigger& trigger_;
    WaitAwaitable* next_ = nullptr;
    ProcessHook* waiter_ = nullptr;
  };

  /// Awaitable that completes when fire() is called (immediately if already
  /// fired and the trigger is latched).
  [[nodiscard]] WaitAwaitable wait() { return WaitAwaitable(*this); }

  /// Wakes all current waiters, in the order they suspended.  With
  /// latch=true (default) later waiters pass straight through; reset()
  /// re-arms the trigger.  The list is detached first, so a woken waiter
  /// that waits again joins the next fire(), not this one.
  void fire(bool latch = true) {
    fired_ = latch;
    WaitAwaitable* w = std::exchange(head_, nullptr);
    tail_ = nullptr;
    waiting_ = 0;
    while (w != nullptr) {
      WaitAwaitable* next = w->next_;
      sim_.resume_soon(*w->waiter_);
      w = next;
    }
  }

  void reset() { fired_ = false; }
  [[nodiscard]] std::size_t waiting() const { return waiting_; }

 private:
  Simulation& sim_;
  bool fired_ = false;
  WaitAwaitable* head_ = nullptr;
  WaitAwaitable* tail_ = nullptr;
  std::size_t waiting_ = 0;
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
