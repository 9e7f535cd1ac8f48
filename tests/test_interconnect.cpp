// Tests for the packet-level interconnect subsystem: flit segmentation,
// topology generation and routing, credit backpressure, determinism, and
// the zero-contention degeneracy to the analytic latency models.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "des/process.hpp"
#include "des/simulation.hpp"
#include "golden_traffic.hpp"
#include "interconnect/contention.hpp"
#include "interconnect/network.hpp"
#include "interconnect/packet.hpp"
#include "interconnect/topology.hpp"
#include "parcel/action.hpp"
#include "parcel/network.hpp"
#include "parcel/runtime.hpp"
#include "parcel/system.hpp"

namespace pimsim::interconnect {
namespace {

// --- flit segmentation --------------------------------------------------

TEST(FlitCount, SegmentsBytesIntoFlits) {
  EXPECT_EQ(flit_count(0, 16), 1u);  // zero-byte message: head flit only
  EXPECT_EQ(flit_count(1, 16), 1u);
  EXPECT_EQ(flit_count(16, 16), 1u);
  EXPECT_EQ(flit_count(17, 16), 2u);
  EXPECT_EQ(flit_count(32, 16), 2u);
  EXPECT_EQ(flit_count(41, 16), 3u);
  EXPECT_EQ(flit_count(100, 1), 100u);
}

TEST(PacketConfigValidate, RejectsBadValues) {
  PacketConfig cfg;
  cfg.flit_bytes = 0;
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg = PacketConfig{};
  cfg.credits = 0;
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg = PacketConfig{};
  cfg.link_latency = -1.0;
  EXPECT_THROW(cfg.validate(), ConfigError);
}

// --- topology generation ------------------------------------------------

TEST(Topology, FlatIsAStarThroughTheCrossbar) {
  const Topology t = TopologyBuilder::flat(4);
  EXPECT_EQ(t.nodes(), 4u);
  EXPECT_EQ(t.routers(), 5u);      // 4 node routers + the crossbar
  EXPECT_EQ(t.links().size(), 8u); // 4 uplinks + 4 downlinks
  for (NodeId a = 0; a < 4; ++a) {
    for (NodeId b = 0; b < 4; ++b) {
      EXPECT_EQ(t.hops(a, b), 2u);  // includes self: up and back down
    }
  }
}

TEST(Topology, RingForwardRouting) {
  const Topology t = TopologyBuilder::ring(8);
  EXPECT_EQ(t.links().size(), 8u);
  EXPECT_EQ(t.hops(0, 5), 5u);
  EXPECT_EQ(t.hops(5, 0), 3u);  // unidirectional: forward past the seam
  EXPECT_EQ(t.hops(3, 3), 0u);
  EXPECT_EQ(t.next_link(3, 3), kNoLink);
}

TEST(Topology, MeshLinkCountAndManhattanHops) {
  const Topology t = TopologyBuilder::mesh2d(3, 2);
  // Directed channels: 2*((w-1)*h) horizontal + 2*(w*(h-1)) vertical.
  EXPECT_EQ(t.links().size(), 14u);
  const parcel::Mesh2DInterconnect analytic(3, 2, 0.0, 1.0);
  for (NodeId a = 0; a < 6; ++a) {
    for (NodeId b = 0; b < 6; ++b) {
      EXPECT_EQ(static_cast<double>(t.hops(a, b)),
                analytic.one_way_latency(a, b))
          << "pair " << a << "->" << b;
    }
  }
}

TEST(Topology, TorusWrapHopsMatchAnalytic) {
  const Topology t = TopologyBuilder::torus2d(4, 4);
  EXPECT_EQ(t.links().size(), 64u);  // 4 directed channels per router
  const parcel::Torus2DInterconnect analytic(4, 4, 0.0, 1.0);
  for (NodeId a = 0; a < 16; ++a) {
    for (NodeId b = 0; b < 16; ++b) {
      EXPECT_EQ(static_cast<double>(t.hops(a, b)),
                analytic.one_way_latency(a, b))
          << "pair " << a << "->" << b;
    }
  }
}

TEST(Topology, TwoWideTorusHasNoDuplicateChannels) {
  const Topology t = TopologyBuilder::torus2d(2, 2);
  EXPECT_EQ(t.links().size(), 8u);  // one forward channel per dimension
  EXPECT_EQ(t.hops(0, 3), 2u);
  EXPECT_EQ(t.hops(3, 0), 2u);
}

TEST(Topology, DeterministicRoutingTables) {
  const Topology a = TopologyBuilder::torus2d(4, 4);
  const Topology b = TopologyBuilder::torus2d(4, 4);
  for (std::uint32_t r = 0; r < a.routers(); ++r) {
    for (NodeId d = 0; d < a.nodes(); ++d) {
      EXPECT_EQ(a.next_link(r, d), b.next_link(r, d));
    }
  }
}

TEST(TopologyBuilder, BuildByNameValidates) {
  EXPECT_EQ(TopologyBuilder::build("torus", 16).kind(), TopologyKind::kTorus2D);
  EXPECT_THROW(TopologyBuilder::build("mesh2d", 10), InvalidArgument);
  try {
    (void)TopologyBuilder::build("hypercube", 16);
    FAIL() << "accepted unknown topology";
  } catch (const InvalidArgument& e) {
    const std::string msg = e.what();
    for (const char* kind : {"flat", "ring", "mesh2d", "torus"}) {
      EXPECT_NE(msg.find(kind), std::string::npos) << msg;
    }
  }
}

// --- zero-load latency: the DES matches the closed form exactly ---------

/// Delivers one `bytes`-byte packet on an otherwise idle network and
/// returns the measured end-to-end latency.
double measure_one(const Topology& topo, const PacketConfig& cfg, NodeId src,
                   NodeId dst, std::size_t bytes) {
  des::Simulation sim;
  PacketNetwork net(sim, topo, cfg);
  double delivered_at = -1.0;
  net.send(src, dst, bytes, &golden::stamp_now, &sim,
           golden::stamp_slot(&delivered_at), 0);
  sim.run();
  EXPECT_EQ(net.packets_in_flight(), 0u);
  EXPECT_GE(delivered_at, 0.0);
  return delivered_at;
}

PacketConfig integer_config() {
  PacketConfig cfg;
  cfg.flit_bytes = 16;
  cfg.flit_cycle = 1.0;
  cfg.link_latency = 3.0;  // hop cost 4: integer arithmetic stays exact
  cfg.credits = 8;
  return cfg;
}

TEST(ZeroLoad, RingMatchesAnalyticExactly) {
  const Topology topo = TopologyBuilder::ring(6);
  const PacketConfig cfg = integer_config();
  const parcel::RingInterconnect analytic(6, 0.0, 4.0);
  for (NodeId a = 0; a < 6; ++a) {
    for (NodeId b = 0; b < 6; ++b) {
      const double measured = measure_one(topo, cfg, a, b, 8);
      EXPECT_DOUBLE_EQ(measured, analytic.one_way_latency(a, b));
    }
  }
}

TEST(ZeroLoad, MeshMatchesAnalyticExactly) {
  const Topology topo = TopologyBuilder::mesh2d(3, 3);
  const PacketConfig cfg = integer_config();
  const parcel::Mesh2DInterconnect analytic(3, 3, 0.0, 4.0);
  for (NodeId a = 0; a < 9; ++a) {
    for (NodeId b = 0; b < 9; ++b) {
      EXPECT_DOUBLE_EQ(measure_one(topo, cfg, a, b, 8),
                       analytic.one_way_latency(a, b));
    }
  }
}

TEST(ZeroLoad, TorusMatchesAnalyticExactly) {
  const Topology topo = TopologyBuilder::torus2d(4, 4);
  const PacketConfig cfg = integer_config();
  const parcel::Torus2DInterconnect analytic(4, 4, 0.0, 4.0);
  for (NodeId a = 0; a < 16; ++a) {
    for (NodeId b = 0; b < 16; ++b) {
      EXPECT_DOUBLE_EQ(measure_one(topo, cfg, a, b, 8),
                       analytic.one_way_latency(a, b));
    }
  }
}

TEST(ZeroLoad, FlatMatchesAnalyticExactly) {
  const Topology topo = TopologyBuilder::flat(5);
  PacketConfig cfg = integer_config();
  cfg.link_latency = 24.0;  // two links of 25 each way = 50 = L/2
  const parcel::FlatInterconnect analytic(100.0);
  for (NodeId a = 0; a < 5; ++a) {
    for (NodeId b = 0; b < 5; ++b) {  // includes a == b: flat charges L/2
      EXPECT_DOUBLE_EQ(measure_one(topo, cfg, a, b, 8),
                       analytic.one_way_latency(a, b));
    }
  }
}

TEST(ZeroLoad, MultiFlitPacketsPipeline) {
  // 3 flits over 2 hops: body flits stream one flit_cycle behind each
  // other, adding (F-1)*flit_cycle to the tail.
  const Topology topo = TopologyBuilder::ring(4);
  PacketConfig cfg;
  cfg.flit_bytes = 16;
  cfg.flit_cycle = 2.0;
  cfg.link_latency = 5.0;
  cfg.credits = 8;
  const double expected = 2 * (2.0 + 5.0) + 2 * 2.0;  // 18
  des::Simulation sim;
  PacketNetwork net(sim, topo, cfg);
  EXPECT_DOUBLE_EQ(net.zero_load_latency(0, 2, 40), expected);
  EXPECT_DOUBLE_EQ(measure_one(topo, cfg, 0, 2, 40), expected);
}

TEST(ZeroLoad, LocalDeliveryIsImmediate) {
  const Topology topo = TopologyBuilder::ring(4);
  EXPECT_DOUBLE_EQ(measure_one(topo, integer_config(), 2, 2, 8), 0.0);
}

// --- credit-based flow control ------------------------------------------

TEST(Credits, BackpressureSlowsABurstAndBoundsOccupancy) {
  // 40 single-flit packets blasted 0 -> 2 on a 3-ring: with one credit
  // per link the pipeline stalls on buffer slots; with plenty it streams.
  const Topology topo = TopologyBuilder::ring(3);
  auto run_with_credits = [&](std::size_t credits) {
    PacketConfig cfg = integer_config();
    cfg.credits = credits;
    des::Simulation sim;
    PacketNetwork net(sim, topo, cfg);
    for (int i = 0; i < 40; ++i) net.send(0, 2, 8);
    sim.run();
    EXPECT_EQ(net.packets_delivered(), 40u);
    for (std::uint32_t l = 0; l < topo.links().size(); ++l) {
      EXPECT_LE(net.link_stats(l).peak_occupancy,
                static_cast<double>(credits));
    }
    return net.latency_stats().max();
  };
  const double starved = run_with_credits(1);
  const double streaming = run_with_credits(8);
  EXPECT_GT(starved, streaming);
}

TEST(Credits, ContendedLinkSaturatesAndQueues) {
  // All-to-one on a flat crossbar: the single ejection link serializes
  // every flit, so its utilization approaches 1 and latencies stretch far
  // beyond zero-load — the collapse the analytic models cannot show.
  const Topology topo = TopologyBuilder::flat(8);
  PacketConfig cfg = integer_config();
  des::Simulation sim;
  PacketNetwork net(sim, topo, cfg);
  for (NodeId src = 1; src < 8; ++src) {
    for (int i = 0; i < 10; ++i) net.send(src, 0, 64);  // 4 flits each
  }
  sim.run();
  EXPECT_EQ(net.packets_delivered(), 70u);
  // Ejection link of node 0 is downlink id nodes + 0 = 8.
  const LinkStats eject = net.link_stats(8);
  EXPECT_EQ(eject.flits, 280u);
  EXPECT_GT(eject.utilization, 0.8);
  EXPECT_GT(net.latency_stats().max(), 4.0 * net.zero_load_latency(1, 0, 64));
  EXPECT_EQ(net.latency_histogram().total(), 70u);
}

// --- determinism --------------------------------------------------------

des::Process uniform_traffic(des::Simulation& sim, PacketNetwork& net, Rng rng,
                             int count) {
  const auto nodes = static_cast<std::uint64_t>(net.topology().nodes());
  for (int i = 0; i < count; ++i) {
    const auto src = static_cast<NodeId>(rng.uniform_int(0, nodes - 1));
    const auto dst = static_cast<NodeId>(rng.uniform_int(0, nodes - 1));
    net.send(src, dst, 48);
    co_await des::delay(sim, 3.0);
  }
}

TEST(Determinism, RepeatedRunsAreBitIdentical) {
  auto run_once = [] {
    des::Simulation sim;
    PacketNetwork net(sim, TopologyBuilder::torus2d(4, 4), PacketConfig{});
    sim.spawn(uniform_traffic(sim, net, Rng(42, 7), 300));
    sim.run();
    EXPECT_EQ(net.packets_in_flight(), 0u);
    return std::tuple{sim.events_dispatched(), net.flit_hops(),
                      net.latency_stats().mean(), net.latency_stats().max(),
                      net.packets_delivered()};
  };
  EXPECT_EQ(run_once(), run_once());
}

// --- ContentionInterconnect adapter -------------------------------------

TEST(ContentionInterconnect, FactoryMatchesAnalyticZeroLoadPairwise) {
  for (const char* kind : {"flat", "ring", "mesh2d", "torus"}) {
    const auto analytic = parcel::make_interconnect(kind, 16, 300.0);
    const auto packet = make_contention_interconnect(kind, 16, 300.0);
    for (NodeId a = 0; a < 16; ++a) {
      for (NodeId b = 0; b < 16; ++b) {
        EXPECT_NEAR(packet->one_way_latency(a, b),
                    analytic->one_way_latency(a, b), 1e-9)
            << kind << " pair " << a << "->" << b;
      }
    }
  }
}

TEST(ContentionInterconnect, SingleParcelDeliveryMatchesAnalytic) {
  // The acceptance degeneracy: one message in flight, measured through
  // deliver(), lands exactly when the analytic model says it should.
  for (const char* kind : {"flat", "ring", "mesh2d", "torus"}) {
    const auto analytic = parcel::make_interconnect(kind, 16, 300.0);
    for (NodeId a = 0; a < 16; a = static_cast<NodeId>(a + 3)) {
      for (NodeId b = 0; b < 16; b = static_cast<NodeId>(b + 2)) {
        const auto packet = make_contention_interconnect(kind, 16, 300.0);
        des::Simulation sim;
        double delivered_at = -1.0;
        packet->deliver(sim, a, b, 8, &golden::stamp_now, &sim,
                        golden::stamp_slot(&delivered_at), 0);
        sim.run();
        EXPECT_NEAR(delivered_at, analytic->one_way_latency(a, b), 1e-9)
            << kind << " pair " << a << "->" << b;
      }
    }
  }
}

TEST(ContentionInterconnect, RefusesASecondSimulation) {
  const auto net = make_contention_interconnect("ring", 4, 100.0);
  des::Simulation sim1;
  net->deliver(sim1, 0, 1, 8, [] {});
  sim1.run();
  des::Simulation sim2;
  EXPECT_THROW(net->deliver(sim2, 0, 1, 8, [] {}), LogicError);
}

TEST(ContentionInterconnect, ParcelMachineDegeneratesToAnalytic) {
  // The functional parcel machine issues one request at a time over both
  // interconnects; with single-flit parcels the packet-level run must
  // finish at the identical simulated time with identical results.
  auto run_machine = [](const parcel::Interconnect& net) {
    des::Simulation sim;
    parcel::ParcelMachine machine(sim, 4, net);
    machine.store(2).write(0x40, 77);
    std::uint64_t got = 0;
    auto driver = [](des::Simulation& s, parcel::ParcelMachine& m,
                     std::uint64_t* out) -> des::Process {
      for (int i = 0; i < 5; ++i) {
        parcel::Parcel p;
        p.dst = 2;
        p.target_vaddr = 0x40;
        p.action = parcel::ActionKind::kRead;
        auto h = m.request(0, p);
        co_await h.wait();
        *out += h.value();
        co_await des::delay(s, 7.0);
      }
    };
    sim.spawn(driver(sim, machine, &got));
    machine.run();
    return std::pair{sim.now(), got};
  };

  PacketConfig cfg;
  cfg.flit_bytes = 4096;  // any parcel fits one flit
  const auto analytic = parcel::make_interconnect("ring", 4, 96.0);
  const auto packet = make_contention_interconnect("ring", 4, 96.0, cfg);
  const auto [analytic_end, analytic_sum] = run_machine(*analytic);
  const auto [packet_end, packet_sum] = run_machine(*packet);
  EXPECT_EQ(analytic_sum, packet_sum);
  EXPECT_NEAR(packet_end, analytic_end, 1e-9);
}

// --- the contention knob on the split-transaction study -----------------

TEST(ContentionKnob, SplitTransactionStudyRunsUnderContention) {
  parcel::SplitTransactionParams params;
  params.nodes = 16;
  params.network = "mesh2d";
  params.horizon = 10'000.0;
  params.round_trip_latency = 200.0;
  params.parallelism = 4;
  params.contention = true;
  params.message_bytes = 32;
  const parcel::ComparisonPoint point = parcel::compare_systems(params);
  EXPECT_GT(point.test_work, 0.0);
  EXPECT_GT(point.control_work, 0.0);
  EXPECT_GT(point.work_ratio, 0.0);

  // Contention can only slow deliveries relative to the analytic run of
  // the same seed/topology, so the test system cannot do systematically
  // more work under it.  The packet model's wormhole arbitration may
  // reshuffle same-cycle deliveries versus the analytic event order,
  // which nudges the stochastic work mix by a fraction of a percent in
  // either direction — hence the 1% tolerance, not 0.1%.
  params.contention = false;
  const parcel::SystemRunResult analytic =
      parcel::run_split_transaction_system(params);
  params.contention = true;
  const parcel::SystemRunResult contended =
      parcel::run_split_transaction_system(params);
  EXPECT_LE(contended.total_work(), analytic.total_work() * 1.01);
}

}  // namespace
}  // namespace pimsim::interconnect
