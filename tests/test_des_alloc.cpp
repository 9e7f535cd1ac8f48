// Allocation-count regression guard for the process layer.
//
// This binary replaces the global operator new with a counting one, so a
// test can assert how many heap allocations a stretch of simulation makes.
// The contract: once a thread's frame pool is warm, a steady-state
// spawn -> Resource acquire/release -> Mailbox send/receive -> Trigger
// fire -> join cycle makes no allocation at all, and a parcel system's
// allocation count is set by its size (nodes x contexts), never by how
// many messages it delivers.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <thread>

#include "des/mailbox.hpp"
#include "des/process.hpp"
#include "des/resource.hpp"
#include "des/simulation.hpp"
#include "parcel/system.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace pimsim::des {
namespace {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

struct Request {
  Trigger* reply = nullptr;
};

/// Serves requests one at a time and fires each requester's reply.
Process server(Simulation& sim, Mailbox<Request>& in) {
  for (;;) {
    const Request r = co_await in.receive();
    co_await delay(sim, 1.0);
    r.reply->fire();
  }
}

/// Holds the shared resource for a while, then makes one request.
Process worker(Simulation& sim, Resource& cpu, Mailbox<Request>& out,
               std::size_t units) {
  co_await cpu.acquire(units);
  co_await delay(sim, 2.0);
  cpu.release(units);
  Trigger reply(sim);
  out.send(Request{&reply});
  co_await reply.wait();
}

/// Each round spawns three workers (mixed resource demands, so some
/// queue) and joins all of them.
Process spawner(Simulation& sim, Resource& cpu, Mailbox<Request>& box,
                int rounds) {
  for (int i = 0; i < rounds; ++i) {
    Process a = worker(sim, cpu, box, 1);
    Process b = worker(sim, cpu, box, 2);
    Process c = worker(sim, cpu, box, 1);
    auto ja = a.join();
    auto jb = b.join();
    auto jc = c.join();
    sim.spawn(std::move(a));
    sim.spawn(std::move(b));
    sim.spawn(std::move(c));
    co_await ja;
    co_await jb;
    co_await jc;
  }
}

/// Runs the cycle; returns allocations made in (warm_until, horizon].
std::uint64_t run_cycle(double warm_until, double horizon) {
  Simulation sim;
  Resource cpu(sim, 2, "cpu");
  Mailbox<Request> box(sim, "server.in");
  sim.spawn(server(sim, box));
  sim.spawn(spawner(sim, cpu, box, 1000));
  sim.run_until(warm_until);
  const std::uint64_t before = allocations();
  sim.run_until(horizon);
  const std::uint64_t made = allocations() - before;
  EXPECT_GT(cpu.grants(), 200u);
  return made;
}

TEST(AllocationFree, SteadyStateProcessCycleMakesNoAllocation) {
  (void)run_cycle(50.0, 2000.0);  // warm-up simulation: fills the pool
  EXPECT_EQ(run_cycle(50.0, 2000.0), 0u);
}

struct SystemCount {
  std::uint64_t allocations = 0;
  std::uint64_t requests = 0;
};

/// Allocations made by one split-transaction plus one message-passing
/// run, and the remote requests (each a request and a reply message)
/// they delivered.
SystemCount count_systems(std::size_t nodes, std::size_t contexts,
                          double horizon, double nic_gap) {
  parcel::SplitTransactionParams p;
  p.nodes = nodes;
  p.parallelism = contexts;
  p.p_remote = 0.3;
  p.nic_gap = nic_gap;
  p.horizon = horizon;
  SystemCount c;
  const std::uint64_t before = allocations();
  const auto test = parcel::run_split_transaction_system(p);
  const auto control = parcel::run_message_passing_system(p);
  c.allocations = allocations() - before;
  for (const auto& n : test.nodes) c.requests += n.remote_requests;
  for (const auto& n : control.nodes) c.requests += n.remote_requests;
  return c;
}

TEST(AllocationFree, ParcelSystemAllocationsDoNotScaleWithMessages) {
  for (const double nic_gap : {0.0, 3.0}) {
    (void)count_systems(16, 8, 2000.0, nic_gap);  // warm the frame pool
    const SystemCount small = count_systems(4, 4, 2000.0, nic_gap);
    const SystemCount longer = count_systems(4, 4, 64000.0, nic_gap);
    const SystemCount bigger = count_systems(16, 8, 2000.0, nic_gap);
    EXPECT_GT(small.requests, 100u) << "nic_gap " << nic_gap;
    EXPECT_GT(longer.requests, 20 * small.requests) << "nic_gap " << nic_gap;
    // Thirty-two times the messages: a longer run can only push a few
    // high-water marks (queue depth, pending events) one doubling further.
    EXPECT_LE(longer.allocations, small.allocations + 8) << "nic_gap " << nic_gap;
    // The count follows the system's size instead.
    EXPECT_GT(bigger.allocations, small.allocations + 2 * 12)
        << "nic_gap " << nic_gap;
  }
}

// The pool tests run on a fresh thread, whose free lists start empty
// (and are released at its exit, which the leak checker watches).
template <typename F>
void on_fresh_thread(F body) {
  std::thread(body).join();
}

TEST(FramePool, RetentionStaysBounded) {
  on_fresh_thread([] {
    // Tearing down a simulation with far more live frames than the bound
    // returns the excess to the allocator instead of pinning it.
    {
      Simulation sim;
      Trigger never(sim);
      auto parked = [](Trigger& t) -> Process { co_await t.wait(); };
      for (int i = 0; i < 20000; ++i) sim.spawn(parked(never));
      sim.run();
      EXPECT_EQ(never.waiting(), 20000u);
    }
    EXPECT_GT(FramePool::retained_bytes(), FramePool::kMaxRetainedBytes / 2);
    EXPECT_LE(FramePool::retained_bytes(), FramePool::kMaxRetainedBytes);
  });
}

TEST(FramePool, RecyclesBlocksOfOneSizeClass) {
  on_fresh_thread([] {
    void* a = FramePool::allocate(100);
    FramePool::deallocate(a, 100);
    EXPECT_EQ(FramePool::retained_bytes(), 112u);
    // 97..112 bytes share a class with 100: the freed block comes back.
    const std::uint64_t before = allocations();
    void* b = FramePool::allocate(112);
    EXPECT_EQ(b, a);
    EXPECT_EQ(allocations(), before);
    EXPECT_EQ(FramePool::retained_bytes(), 0u);
    FramePool::deallocate(b, 112);
    // Oversized blocks bypass the pool.
    void* big = FramePool::allocate(FramePool::kMaxBlock + 1);
    EXPECT_EQ(allocations(), before + 1);
    FramePool::deallocate(big, FramePool::kMaxBlock + 1);
    EXPECT_EQ(FramePool::retained_bytes(), 112u);
  });
}

}  // namespace
}  // namespace pimsim::des
