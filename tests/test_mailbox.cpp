// Tests for the awaitable mailbox channel.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "closure_arena.hpp"
#include "des/mailbox.hpp"
#include "des/process.hpp"
#include "des/simulation.hpp"

namespace pimsim::des {
namespace {

Process receiver(Simulation& sim, Mailbox<int>& box,
                 std::vector<std::pair<int, double>>* received, int count) {
  for (int i = 0; i < count; ++i) {
    const int v = co_await box.receive();
    received->emplace_back(v, sim.now());
  }
}

TEST(Mailbox, DeliversQueuedMessageImmediately) {
  Simulation sim;
  Mailbox<int> box(sim);
  box.send(42);
  std::vector<std::pair<int, double>> got;
  sim.spawn(receiver(sim, box, &got, 1));
  sim.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].first, 42);
  EXPECT_DOUBLE_EQ(got[0].second, 0.0);
}

TEST(Mailbox, ReceiverBlocksUntilSend) {
  Simulation sim;
  test::ClosureArena events(sim);
  Mailbox<int> box(sim);
  std::vector<std::pair<int, double>> got;
  sim.spawn(receiver(sim, box, &got, 1));
  events.at(15.0, [&] { box.send(7); });
  sim.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].first, 7);
  EXPECT_DOUBLE_EQ(got[0].second, 15.0);
}

TEST(Mailbox, MessagesAreFifo) {
  Simulation sim;
  Mailbox<int> box(sim);
  for (int i = 0; i < 5; ++i) box.send(i);
  std::vector<std::pair<int, double>> got;
  sim.spawn(receiver(sim, box, &got, 5));
  sim.run();
  for (int i = 0; i < 5; ++i) EXPECT_EQ(got[i].first, i);
}

TEST(Mailbox, WaitersAreFifo) {
  Simulation sim;
  test::ClosureArena events(sim);
  Mailbox<int> box(sim);
  std::vector<std::pair<int, double>> got_a, got_b;
  sim.spawn(receiver(sim, box, &got_a, 1));  // first waiter
  sim.spawn(receiver(sim, box, &got_b, 1));  // second waiter
  events.at(1.0, [&] { box.send(100); });
  events.at(2.0, [&] { box.send(200); });
  sim.run();
  ASSERT_EQ(got_a.size(), 1u);
  ASSERT_EQ(got_b.size(), 1u);
  EXPECT_EQ(got_a[0].first, 100);
  EXPECT_EQ(got_b[0].first, 200);
}

TEST(Mailbox, TryReceive) {
  Simulation sim;
  Mailbox<std::string> box(sim);
  EXPECT_FALSE(box.try_receive().has_value());
  box.send("hello");
  const auto v = box.try_receive();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "hello");
  EXPECT_FALSE(box.try_receive().has_value());
}

TEST(Mailbox, PendingCountsQueuedMessages) {
  Simulation sim;
  Mailbox<int> box(sim);
  EXPECT_EQ(box.pending(), 0u);
  box.send(1);
  box.send(2);
  EXPECT_EQ(box.pending(), 2u);
}

TEST(Mailbox, ItemsAndWaitersNeverCoexist) {
  Simulation sim;
  test::ClosureArena events(sim);
  Mailbox<int> box(sim);
  std::vector<std::pair<int, double>> got;
  sim.spawn(receiver(sim, box, &got, 3));
  events.at(1.0, [&] {
    box.send(1);
    box.send(2);  // no waiter yet for this one (receiver resumes later)
  });
  events.at(2.0, [&] { box.send(3); });
  sim.run();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].first, 1);
  EXPECT_EQ(got[1].first, 2);
  EXPECT_EQ(got[2].first, 3);
}

TEST(Mailbox, CountsTrackWaitersAndQueuedMessages) {
  Simulation sim;
  Mailbox<int> box(sim);
  std::vector<std::pair<int, double>> a, b, c;
  sim.spawn(receiver(sim, box, &a, 1));
  sim.spawn(receiver(sim, box, &b, 1));
  sim.spawn(receiver(sim, box, &c, 1));
  sim.run();
  EXPECT_EQ(box.waiting_receivers(), 3u);
  box.send(1);
  box.send(2);
  EXPECT_EQ(box.waiting_receivers(), 1u);  // handed straight to a and b
  EXPECT_EQ(box.pending(), 0u);
  box.send(3);
  box.send(4);
  box.send(5);
  EXPECT_EQ(box.waiting_receivers(), 0u);
  EXPECT_EQ(box.pending(), 2u);
  sim.run();
  EXPECT_EQ(a, (std::vector<std::pair<int, double>>{{1, 0.0}}));
  EXPECT_EQ(b, (std::vector<std::pair<int, double>>{{2, 0.0}}));
  EXPECT_EQ(c, (std::vector<std::pair<int, double>>{{3, 0.0}}));
  EXPECT_EQ(box.try_receive(), 4);
  EXPECT_EQ(box.try_receive(), 5);
  EXPECT_FALSE(box.try_receive().has_value());
}

TEST(Mailbox, LongBacklogStaysFifo) {
  // The queue never drains: the consumed prefix is compacted away while
  // sends keep arriving, and order is preserved throughout.
  Simulation sim;
  Mailbox<int> box(sim);
  int next_sent = 0;
  int next_expected = 0;
  for (int round = 0; round < 500; ++round) {
    for (int i = 0; i < 3; ++i) box.send(next_sent++);
    for (int i = 0; i < 2; ++i) {
      const auto v = box.try_receive();
      ASSERT_TRUE(v.has_value());
      ASSERT_EQ(*v, next_expected++);
    }
    ASSERT_EQ(box.pending(), static_cast<std::size_t>(next_sent - next_expected));
  }
  while (const auto v = box.try_receive()) ASSERT_EQ(*v, next_expected++);
  EXPECT_EQ(next_expected, next_sent);
}

TEST(Mailbox, MoveOnlyPayloadsWork) {
  Simulation sim;
  Mailbox<std::unique_ptr<int>> box(sim);
  box.send(std::make_unique<int>(5));
  auto v = box.try_receive();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(**v, 5);
}

}  // namespace
}  // namespace pimsim::des
