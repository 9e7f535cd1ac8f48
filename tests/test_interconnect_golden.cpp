// Golden timing tests for the packet network.
//
// A mixed uniform+hotspot traffic program (golden_traffic.hpp) is pinned
// against kGolden, a recording of the engine's per-packet delivery times
// on four 16-node topologies: every packet delivered, the exact flit-hop
// totals, the latency histogram, and delivery_hash — FNV-1a over the bit
// patterns of all 384 per-packet delivery times in injection order, so
// any timing drift anywhere (arbitration order, backpressure, train
// coalescing) flips it.  Zero-load multi-flit trains are checked against
// the closed form in packet.hpp.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "closure_arena.hpp"
#include "des/process.hpp"
#include "des/simulation.hpp"
#include "golden_traffic.hpp"
#include "interconnect/network.hpp"
#include "interconnect/topology.hpp"

namespace pimsim::interconnect {
namespace {

using golden::GoldenSummary;

struct GoldenRecord {
  const char* kind;
  std::uint64_t delivered;
  std::uint64_t flit_hops;
  double max_latency;
  std::uint64_t delivery_hash;
  std::vector<double> first_deliveries;
  std::vector<std::pair<std::size_t, std::uint64_t>> hist_bins;
};

// Recorded with tests/golden_traffic.hpp at packets=24, seed=2026,
// golden_config().
const GoldenRecord kGolden[] = {
    {"flat", 384ull, 2616ull, 318, 0x541e442e4cd0be94ull,
     {10, 15, 23, 31, 35, 42, 49, 48},
     {{0, 312ull}, {1, 52ull}, {2, 20ull}}},
    {"ring", 384ull, 10485ull, 86, 0xbb90ec5f033472abull,
     {23, 170, 309, 349, 414, 500, 584, 733},
     {{0, 384ull}}},
    {"mesh2d", 384ull, 3375ull, 278, 0x70d33cb84644b0a9ull,
     {10, 19, 25, 33, 54, 32, 44, 54},
     {{0, 315ull}, {1, 64ull}, {2, 5ull}}},
    {"torus", 384ull, 2617ull, 138, 0xc802b6e91b630294ull,
     {10, 11, 17, 34, 34, 32, 51, 44},
     {{0, 374ull}, {1, 10ull}}},
};

GoldenSummary run_golden_traffic(const std::string& kind) {
  des::Simulation sim;
  PacketNetwork net(sim, golden::golden_topology(kind),
                    golden::golden_config());
  return golden::run_golden(sim, net, /*packets=*/24,
                            golden::golden_gap_scale(kind), /*seed=*/2026);
}

void expect_matches(const GoldenSummary& got, const GoldenRecord& want) {
  EXPECT_EQ(got.delivered, want.delivered) << want.kind;
  EXPECT_EQ(got.flit_hops, want.flit_hops) << want.kind;
  EXPECT_EQ(got.max_latency, want.max_latency) << want.kind;
  EXPECT_EQ(got.delivery_hash, want.delivery_hash) << want.kind;
  ASSERT_EQ(got.first_deliveries.size(), want.first_deliveries.size());
  for (std::size_t i = 0; i < want.first_deliveries.size(); ++i) {
    EXPECT_EQ(got.first_deliveries[i], want.first_deliveries[i])
        << want.kind << " packet " << i;
  }
  EXPECT_EQ(got.hist_bins, want.hist_bins) << want.kind;
}

TEST(GoldenTiming, MatchesItsShippedRecording) {
  for (const GoldenRecord& want : kGolden) {
    expect_matches(run_golden_traffic(want.kind), want);
  }
}

TEST(GoldenTiming, ZeroLoadTrainsMatchTheClosedForm) {
  // A single packet at a time admits no arbitration, so every 90-byte
  // (six-flit) message must land at exactly the closed-form zero-load
  // time: the head flit pays every hop and the body pipelines behind it
  // as one train.
  for (const char* kind : {"flat", "ring", "mesh2d", "torus"}) {
    for (NodeId src = 0; src < 16; src = static_cast<NodeId>(src + 5)) {
      for (NodeId dst = 0; dst < 16; dst = static_cast<NodeId>(dst + 3)) {
        des::Simulation sim;
        PacketNetwork net(sim, golden::golden_topology(kind),
                          golden::golden_config());
        double at = -1.0;
        net.send(src, dst, 90, &golden::stamp_now, &sim,
                 golden::stamp_slot(&at), 0);
        sim.run();
        EXPECT_EQ(at, net.zero_load_latency(src, dst, 90))
            << kind << " " << src << "->" << dst;
      }
    }
  }
}

TEST(GoldenTiming, StaggeredContentionServesTheEarlierArrivalFirst) {
  // Two packets converging on one link at different cycles: B (1->2, one
  // flit, sent at t=2) reaches the 1->2 wire while A's train (0->2, two
  // flits, sent at t=0) is still in flight toward it, so FIFO arbitration
  // must serve B first — the engine may not reserve an idle wire for a
  // train whose flits have not arrived.
  des::Simulation sim;
  test::ClosureArena events(sim);
  PacketNetwork net(sim, TopologyBuilder::mesh2d(4, 4),
                    golden::golden_config());
  double a_at = -1.0;
  double b_at = -1.0;
  net.send(0, 2, 32, &golden::stamp_now, &sim, golden::stamp_slot(&a_at), 0);
  events.in(2.0, [&] {
    net.send(1, 2, 8, &golden::stamp_now, &sim, golden::stamp_slot(&b_at), 0);
  });
  sim.run();
  EXPECT_EQ(b_at, 6.0);  // 2 + 1 hop at cost 4
  // B clears the wire at t=3, one cycle before A's head flit arrives,
  // so A still finishes at its zero-load time 2*(1+3) + 1 = 9; a wire
  // reserved early for A's train would instead push B out to t=10.
  EXPECT_EQ(a_at, 9.0);
}

// --- saturation observability --------------------------------------------

des::Process saturating_source(des::Simulation& sim, PacketNetwork& net,
                               NodeId src, int packets) {
  const auto nodes = static_cast<NodeId>(net.topology().nodes());
  for (int i = 0; i < packets; ++i) {
    net.send(src, static_cast<NodeId>((src + 1 + i) % nodes), 64);
    co_await des::delay(sim, 1.0);
  }
}

TEST(Saturation, PacketsInFlightExposesUndrainedTrafficPastSaturation) {
  // Sustained injection far beyond a wrap topology's capacity deadlocks
  // its credit cycle (the model has no virtual channels — a documented
  // limitation).  The simulation then goes quiet with traffic stuck in
  // the network, and packets_in_flight() must expose exactly that.
  for (const char* kind : {"ring", "torus"}) {
    des::Simulation sim;
    PacketNetwork net(sim, TopologyBuilder::build(kind, 16),
                      golden::golden_config());
    for (NodeId n = 0; n < 16; ++n) {
      sim.spawn(saturating_source(sim, net, n, 400));
    }
    sim.run();  // returns once the calendar drains — deadlock, not livelock
    EXPECT_EQ(net.packets_sent(), 6400u) << kind;
    EXPECT_GT(net.packets_in_flight(), 0u) << kind;
    EXPECT_EQ(net.packets_in_flight(),
              net.packets_sent() - net.packets_delivered())
        << kind;
  }
}

TEST(Saturation, TreeRoutedOverloadDrainsCompletely) {
  // The flat crossbar routes as a tree (no credit cycles), so even a
  // saturating blast drains and packets_in_flight() returns to zero —
  // the counter flags deadlock, not mere congestion.
  des::Simulation sim;
  PacketNetwork net(sim, TopologyBuilder::flat(16), golden::golden_config());
  for (NodeId n = 1; n < 16; ++n) {
    sim.spawn(saturating_source(sim, net, n, 200));
  }
  sim.run();
  EXPECT_EQ(net.packets_in_flight(), 0u);
  EXPECT_EQ(net.packets_delivered(), 3000u);
}

}  // namespace
}  // namespace pimsim::interconnect
