// Golden timing tests for the packet network rewrite.
//
// The same mixed uniform+hotspot traffic program (golden_traffic.hpp) is
// pinned against two recordings:
//
//  * kPreRewrite — captured from the PRE-REWRITE coroutine/mailbox engine
//    (PR 3) immediately before it was retired.  The rewritten engine's
//    flit-interleaved mode (PacketConfig::wormhole = false) replays that
//    engine's event cascade sequence-exactly, so every per-packet
//    delivery time, the latency histogram, and the flit-hop totals must
//    match bit for bit.
//  * kWormhole — captured from the rewritten engine's default wormhole
//    mode when it shipped.  Same deliveries and identical flit-hop totals
//    (the coalesced engine is work-conserving); contended latencies may
//    differ from the pre-rewrite model only in how same-cycle ties
//    between packets interleave, and this recording locks that behaviour
//    against regressions.
//
// delivery_hash is FNV-1a over the bit patterns of all 384 per-packet
// delivery times in injection order — any timing drift anywhere flips it.
#include <gtest/gtest.h>

#include <string>
#include <vector>

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

// Recorded from the pre-rewrite engine (PR 3 PacketNetwork) with
// tests/golden_traffic.hpp at packets=24, seed=2026, golden_config().
const GoldenRecord kPreRewrite[] = {
    {"flat", 384ull, 2616ull, 319, 0xd1b544a1f3c837e8ull,
     {12, 15, 22, 31, 35, 45, 49, 48},
     {{0, 311ull}, {1, 52ull}, {2, 21ull}}},
    {"ring", 384ull, 10485ull, 86, 0xc9fb23217e75d221ull,
     {23, 170, 309, 349, 419, 500, 584, 737},
     {{0, 384ull}}},
    {"mesh2d", 384ull, 3375ull, 277, 0x7ba93d70415cec2aull,
     {10, 19, 25, 33, 54, 32, 46, 57},
     {{0, 317ull}, {1, 63ull}, {2, 4ull}}},
    {"torus", 384ull, 2617ull, 138, 0x0cb88b7671f3a97cull,
     {10, 11, 17, 33, 38, 32, 48, 44},
     {{0, 373ull}, {1, 11ull}}},
};

// Recorded from the rewritten engine's default wormhole mode.
const GoldenRecord kWormhole[] = {
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

GoldenSummary run_golden_traffic(const std::string& kind, bool wormhole) {
  des::Simulation sim;
  PacketConfig cfg = golden::golden_config();
  cfg.wormhole = wormhole;
  PacketNetwork net(sim, golden::golden_topology(kind), cfg);
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

TEST(GoldenTiming, FlitInterleavedModeMatchesPreRewriteEngineBitExactly) {
  for (const GoldenRecord& want : kPreRewrite) {
    expect_matches(run_golden_traffic(want.kind, /*wormhole=*/false), want);
  }
}

TEST(GoldenTiming, WormholeModeMatchesItsShippedRecording) {
  for (const GoldenRecord& want : kWormhole) {
    expect_matches(run_golden_traffic(want.kind, /*wormhole=*/true), want);
  }
}

TEST(GoldenTiming, WormholeIsWorkConservingAgainstPreRewrite) {
  // Coalescing must never create or destroy traffic: both modes carry the
  // identical flit-hop totals and deliver every packet on every topology.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(kWormhole[i].delivered, kPreRewrite[i].delivered);
    EXPECT_EQ(kWormhole[i].flit_hops, kPreRewrite[i].flit_hops);
  }
}

TEST(GoldenTiming, ModesAgreeWhereverThereAreNoTies) {
  // A single packet at a time (zero load) admits no arbitration ties, so
  // the two modes must be cycle-identical, multi-flit pipelining and all.
  for (const char* kind : {"flat", "ring", "mesh2d", "torus"}) {
    const Topology topo = golden::golden_topology(kind);
    for (NodeId src = 0; src < 16; src = static_cast<NodeId>(src + 5)) {
      for (NodeId dst = 0; dst < 16; dst = static_cast<NodeId>(dst + 3)) {
        double at[2] = {-1.0, -1.0};
        for (int mode = 0; mode < 2; ++mode) {
          des::Simulation sim;
          PacketConfig cfg = golden::golden_config();
          cfg.wormhole = mode == 1;
          PacketNetwork net(sim, golden::golden_topology(kind), cfg);
          net.send(src, dst, 90, &golden::stamp_now, &sim,
                   golden::stamp_slot(&at[mode]), 0);
          sim.run();
        }
        EXPECT_EQ(at[0], at[1]) << kind << " " << src << "->" << dst;
        EXPECT_GE(at[0], 0.0);
      }
    }
  }
}

TEST(GoldenTiming, ModesAgreeUnderStaggeredContentionWithoutTies) {
  // Two packets converging on one link at different cycles: B (1->2, one
  // flit, sent at t=2) reaches the 1->2 wire while A's train (0->2, two
  // flits, sent at t=0) is still in flight toward it, so FIFO arbitration
  // must serve B first in both modes — the wormhole engine may not
  // reserve an idle wire for a train whose flits have not arrived.
  for (int mode = 0; mode < 2; ++mode) {
    des::Simulation sim;
    PacketConfig cfg = golden::golden_config();
    cfg.wormhole = mode == 1;
    PacketNetwork net(sim, TopologyBuilder::mesh2d(4, 4), cfg);
    double a_at = -1.0;
    double b_at = -1.0;
    net.send(0, 2, 32, &golden::stamp_now, &sim, golden::stamp_slot(&a_at), 0);
    sim.schedule_in(2.0, [&] {
      net.send(1, 2, 8, &golden::stamp_now, &sim, golden::stamp_slot(&b_at), 0);
    });
    sim.run();
    EXPECT_EQ(b_at, 6.0) << "mode " << mode;  // 2 + 1 hop at cost 4
    // B clears the wire at t=3, one cycle before A's head flit arrives,
    // so A still finishes at its zero-load time 2*(1+3) + 1 = 9; a wire
    // reserved early for A's train would instead push B out to t=10.
    EXPECT_EQ(a_at, 9.0) << "mode " << mode;
  }
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
