// Event-kernel microbenchmark: dispatch throughput in events per second.
//
// Self-contained (no google-benchmark dependency) so the CI smoke job can
// always build it.  Nine workloads stress the kernel paths the rest of
// the repo funnels through:
//
//   dispatch    N one-shot static calls pre-loaded into the calendar
//   delayloop   a coroutine hopping through co_await delay(1.0)
//   fracdelay   64 coroutines hopping through non-integral delays: every
//               wake-up lands mid-cycle in the wheel's quarter-cycle
//               buckets (before the wheel took them, it took the heap)
//   keyed       64 network-style links: each hop reserves a seq with
//               allocate_seq (the enqueue) and materializes an older
//               reservation with schedule_static_at_seq at a fractional
//               time, so wheel inserts land at a bucket's head or middle
//   pingpong    two coroutines volleying through a pair of mailboxes
//   timerwheel  W self-rescheduling timers with staggered periods, their
//               state in a vector indexed by each event's `a` word
//   cancelheavy timeout pattern: every op arms a far-future timeout and
//               cancels it, exercising O(1) cancel + lazy compaction
//   spawnchurn  short-lived processes, spawned and joined in batches,
//               each taking a Resource and sending one Mailbox message:
//               the per-process fixed cost (frame, join, wait queues)
//   manyprocs   8192 live processes (the fig12 grid's 256 nodes x 32
//               contexts) each looping geometric delays: the cost of a
//               wake when the working set of frames is far out of cache
//
// Each workload runs `reps` times; every repetition is recorded in a
// BENCH_engine.json trajectory (best repetition is the headline number).
//
// Usage: bench_engine [events=200000] [reps=5] [csv=1]
//                     [json=BENCH_engine.json]   (json=- disables)
//                     [floors=bench/baselines.json]  (perf guard)
#include <array>
#include <chrono>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "des/mailbox.hpp"
#include "des/process.hpp"
#include "des/resource.hpp"
#include "des/simulation.hpp"

namespace {

using namespace pimsim;

struct Sample {
  std::uint64_t events = 0;
  double seconds = 0.0;
  [[nodiscard]] double events_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(events) / seconds : 0.0;
  }
};

struct WorkloadResult {
  std::string name;
  std::vector<Sample> samples;
  [[nodiscard]] const Sample& best() const {
    std::size_t best_i = 0;
    for (std::size_t i = 1; i < samples.size(); ++i) {
      if (samples[i].events_per_sec() > samples[best_i].events_per_sec()) {
        best_i = i;
      }
    }
    return samples[best_i];
  }
};

/// Times sim.run(); events = events dispatched by the kernel.
Sample timed_run(des::Simulation& sim) {
  const auto start = std::chrono::steady_clock::now();
  sim.run();
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  return Sample{sim.events_dispatched(), elapsed};
}

/// Builds a fresh simulation, applies `setup`, and times the run.
template <typename Setup>
Sample time_run(Setup&& setup) {
  des::Simulation sim;
  setup(sim);
  return timed_run(sim);
}

// --- dispatch: pre-loaded one-shot callbacks ----------------------------

void count_fire(void* fired, std::uint64_t, std::uint64_t) {
  ++*static_cast<std::uint64_t*>(fired);
}

Sample run_dispatch(std::uint64_t events) {
  std::uint64_t fired = 0;
  const Sample s = time_run([&](des::Simulation& sim) {
    for (std::uint64_t i = 0; i < events; ++i) {
      (void)sim.schedule_static_at(static_cast<double>(i), &count_fire, &fired, 0, 0);
    }
  });
  ensure(fired == events, "bench_engine: dispatch lost events");
  return s;
}

// --- delayloop: coroutine delay hops ------------------------------------

des::Process delay_loop(des::Simulation& sim, std::uint64_t hops) {
  for (std::uint64_t i = 0; i < hops; ++i) {
    co_await des::delay(sim, 1.0);
  }
}

Sample run_delayloop(std::uint64_t events) {
  return time_run(
      [&](des::Simulation& sim) { sim.spawn(delay_loop(sim, events)); });
}

// --- fracdelay: coroutines at non-integral times ------------------------

des::Process frac_loop(des::Simulation& sim, double period,
                       std::uint64_t hops) {
  // Starting at a quarter cycle and hopping by n + 0.5 keeps every wake-up
  // at a time ending in .25 or .75: never integral.
  co_await des::delay(sim, 0.25);
  for (std::uint64_t i = 1; i < hops; ++i) {
    co_await des::delay(sim, period);
  }
}

Sample run_fracdelay(std::uint64_t events) {
  constexpr std::uint64_t kProcs = 64;
  return time_run([&](des::Simulation& sim) {
    for (std::uint64_t p = 0; p < kProcs; ++p) {
      sim.spawn(frac_loop(sim, static_cast<double>(1 + p % 16) + 0.5,
                          events / kProcs));
    }
  });
}

// --- keyed: network-style deferred events under reserved seqs -----------

/// One link of the keyed workload.  Like the packet network's lazily
/// appended arrivals, a hop reserves its calendar position when the
/// flit is enqueued and schedules the wake-up under it later: each fire
/// reserves a fresh seq and materializes the one reserved kDepth hops
/// ago, kDepth being how many arrivals a link has in flight.
struct KeyedLink {
  static constexpr std::size_t kDepth = 4;
  des::Simulation* sim = nullptr;
  double hop = 0.0;
  std::uint64_t remaining = 0;
  std::array<std::uint64_t, kDepth> keys{};
  std::size_t next = 0;

  static void fire(void* ctx, std::uint64_t, std::uint64_t) {
    auto& link = *static_cast<KeyedLink*>(ctx);
    if (--link.remaining == 0) return;
    const std::uint64_t key = link.keys[link.next];
    link.keys[link.next] = link.sim->allocate_seq();
    link.next = (link.next + 1) % kDepth;
    (void)link.sim->schedule_static_at_seq(link.sim->now() + link.hop, key,
                                           &KeyedLink::fire, &link, 0, 0);
  }
};

Sample run_keyed(std::uint64_t events) {
  constexpr std::size_t kLinks = 64;
  std::vector<KeyedLink> links(kLinks);
  des::Simulation sim;
  for (std::size_t i = 0; i < kLinks; ++i) {
    KeyedLink& link = links[i];
    link.sim = &sim;
    // Fractional per-hop costs like the calibrated (L/2) / mean_hops.
    link.hop = 1.0 + 0.375 * static_cast<double>(i % 7) + 0.1 * static_cast<double>(i % 3);
    link.remaining = events / kLinks;
    for (std::uint64_t& key : link.keys) key = sim.allocate_seq();
    (void)sim.schedule_static_at(link.hop, &KeyedLink::fire, &link, 0, 0);
  }
  const Sample s = timed_run(sim);
  ensure(s.events == kLinks * (events / kLinks),
         "bench_engine: keyed links lost hops");
  return s;
}

// --- pingpong: two coroutines, two mailboxes ----------------------------

des::Process ping(des::Simulation& sim, des::Mailbox<int>& out,
                  des::Mailbox<int>& in, std::uint64_t rounds) {
  for (std::uint64_t i = 0; i < rounds; ++i) {
    out.send(static_cast<int>(i));
    (void)co_await in.receive();
    co_await des::delay(sim, 1.0);
  }
}

des::Process pong(des::Mailbox<int>& in, des::Mailbox<int>& out,
                  std::uint64_t rounds) {
  for (std::uint64_t i = 0; i < rounds; ++i) {
    out.send(co_await in.receive());
  }
}

Sample run_pingpong(std::uint64_t events) {
  const std::uint64_t rounds = events / 3;  // ~3 kernel events per round
  des::Simulation sim;
  des::Mailbox<int> a(sim, "a");
  des::Mailbox<int> b(sim, "b");
  sim.spawn(ping(sim, a, b, rounds));
  sim.spawn(pong(a, b, rounds));
  return timed_run(sim);
}

// --- timerwheel: staggered self-rescheduling timers ---------------------

/// The timers' state, indexed by each tick event's `a` word.
struct TimerWheel {
  struct Timer {
    double period;
    std::uint64_t remaining;
  };
  des::Simulation* sim = nullptr;
  std::vector<Timer> timers;
  std::uint64_t fired = 0;

  static void tick(void* ctx, std::uint64_t t, std::uint64_t) {
    auto& wheel = *static_cast<TimerWheel*>(ctx);
    Timer& timer = wheel.timers[t];
    ++wheel.fired;
    if (--timer.remaining > 0) {
      (void)wheel.sim->schedule_static_at(wheel.sim->now() + timer.period,
                                          &TimerWheel::tick, &wheel, t, 0);
    }
  }
};

Sample run_timerwheel(std::uint64_t events) {
  constexpr std::uint64_t kTimers = 256;
  const std::uint64_t per_timer = events / kTimers;
  des::Simulation sim;
  TimerWheel wheel{&sim, {}, 0};
  for (std::uint64_t t = 0; t < kTimers; ++t) {
    // Periods 1..16 cycles, staggered so the heap stays busy.
    const double period = static_cast<double>(1 + t % 16);
    wheel.timers.push_back({period, per_timer});
    (void)sim.schedule_static_at(period, &TimerWheel::tick, &wheel, t, 0);
  }
  const Sample s = timed_run(sim);
  ensure(wheel.fired == kTimers * per_timer, "bench_engine: timer wheel lost ticks");
  return s;
}

// --- cancelheavy: arm-and-cancel timeout pattern ------------------------

/// The ops' remaining counts, indexed by each step event's `a` word.
struct CancelHeavy {
  des::Simulation* sim = nullptr;
  std::vector<std::uint64_t> remaining;
  std::uint64_t timeouts_fired = 0;

  static void timeout(void* ctx, std::uint64_t, std::uint64_t) {
    ++static_cast<CancelHeavy*>(ctx)->timeouts_fired;
  }
  static void step(void* ctx, std::uint64_t op, std::uint64_t) {
    auto& c = *static_cast<CancelHeavy*>(ctx);
    // Arm a far-future timeout, do one unit of work, cancel it — the
    // calendar must not accumulate the dead entries.
    const des::EventId timeout =
        c.sim->schedule_static_at(c.sim->now() + 1e12, &CancelHeavy::timeout, &c, op, 0);
    ensure(c.sim->cancel(timeout), "bench_engine: cancel failed");
    if (--c.remaining[op] > 0) {
      (void)c.sim->schedule_static_at(c.sim->now() + 1.0, &CancelHeavy::step, &c, op, 0);
    }
  }
};

Sample run_cancelheavy(std::uint64_t events) {
  const std::uint64_t ops = events / 2;  // one fired event + one cancel per op
  des::Simulation sim;
  CancelHeavy heavy{&sim, {ops}, 0};
  (void)sim.schedule_static_at(1.0, &CancelHeavy::step, &heavy, 0, 0);
  const Sample s = timed_run(sim);
  ensure(heavy.timeouts_fired == 0, "bench_engine: cancelled timeout fired");
  return s;
}

// --- spawnchurn: short-lived processes ----------------------------------

des::Process churn_child(des::Simulation& sim, des::Resource& port,
                         des::Mailbox<int>& box, int id) {
  co_await port.acquire();
  co_await des::delay(sim, 1.0);
  port.release();
  box.send(id);
}

des::Process churn_parent(des::Simulation& sim, des::Resource& port,
                          des::Mailbox<int>& box, std::uint64_t batches,
                          std::uint64_t* children_done) {
  constexpr int kBatch = 4;  // two of each batch queue for the 2-unit port
  for (std::uint64_t b = 0; b < batches; ++b) {
    std::optional<des::Process::JoinAwaitable> joins[kBatch];
    for (int i = 0; i < kBatch; ++i) {
      des::Process child = churn_child(sim, port, box, i);
      joins[i].emplace(child.join());
      sim.spawn(std::move(child));
    }
    for (int i = 0; i < kBatch; ++i) (void)co_await box.receive();
    for (auto& join : joins) co_await std::move(*join);
    *children_done += kBatch;
  }
}

Sample run_spawnchurn(std::uint64_t events) {
  const std::uint64_t batches = events / 16;  // ~16 kernel events per batch
  std::uint64_t children_done = 0;
  des::Simulation sim;
  des::Resource port(sim, 2, "port");
  des::Mailbox<int> box(sim, "box");
  sim.spawn(churn_parent(sim, port, box, batches, &children_done));
  const Sample s = timed_run(sim);
  ensure(children_done == 4 * batches && sim.live_processes() == 0,
         "bench_engine: spawnchurn lost a process");
  return s;
}

// --- manyprocs: a large working set of looping processes ---------------

des::Process geometric_loop(des::Simulation& sim, Rng& rng, std::uint64_t hops) {
  for (std::uint64_t i = 0; i < hops; ++i) {
    co_await des::delay(sim, static_cast<double>(1 + rng.geometric(0.1)));
  }
}

Sample run_manyprocs(std::uint64_t events) {
  constexpr std::uint64_t kProcs = 256 * 32;
  Rng rng(1);
  return time_run([&](des::Simulation& sim) {
    for (std::uint64_t p = 0; p < kProcs; ++p) {
      sim.spawn(geometric_loop(sim, rng, events / kProcs));
    }
  });
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Config cfg = Config::from_args(argc, argv);
    const std::int64_t events_arg = cfg.get_int("events", 200'000);
    const std::int64_t reps_arg = cfg.get_int("reps", 5);
    const std::string json_path = cfg.get_string("json", "BENCH_engine.json");
    const std::string floors_path = cfg.get_string("floors", "");
    require(events_arg >= 1024 && reps_arg >= 1,
            "bench_engine: bad events=/reps=");
    const auto events = static_cast<std::uint64_t>(events_arg);
    const auto reps = static_cast<std::size_t>(reps_arg);

    std::vector<WorkloadResult> results;
    std::uint64_t pingpong_events_once = 0;
    for (const char* name :
         {"dispatch", "delayloop", "fracdelay", "keyed", "pingpong",
          "timerwheel", "cancelheavy", "spawnchurn", "manyprocs"}) {
      WorkloadResult r;
      r.name = name;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        Sample s;
        if (r.name == "dispatch") {
          s = run_dispatch(events);
        } else if (r.name == "delayloop") {
          s = run_delayloop(events);
        } else if (r.name == "fracdelay") {
          s = run_fracdelay(events);
        } else if (r.name == "keyed") {
          s = run_keyed(events);
        } else if (r.name == "pingpong") {
          s = run_pingpong(events);
          // Dispatch determinism smoke: every repetition of the same
          // load must dispatch the same number of events.
          if (pingpong_events_once == 0) {
            pingpong_events_once = s.events;
          }
          ensure(s.events == pingpong_events_once,
                 "bench_engine: non-deterministic ping-pong event count");
        } else if (r.name == "timerwheel") {
          s = run_timerwheel(events);
        } else if (r.name == "cancelheavy") {
          s = run_cancelheavy(events);
        } else if (r.name == "spawnchurn") {
          s = run_spawnchurn(events);
        } else {
          s = run_manyprocs(events);
        }
        r.samples.push_back(s);
      }
      results.push_back(std::move(r));
    }

    Table table("Event kernel dispatch throughput (" +
                    std::to_string(events) + " events/run, best of " +
                    std::to_string(reps) + ")",
                {"Workload", "events/run", "seconds", "events/sec"});
    for (const auto& r : results) {
      const Sample& best = r.best();
      table.add_row({r.name, static_cast<std::int64_t>(best.events),
                     best.seconds, best.events_per_sec()});
    }
    if (cfg.get_bool("csv", false)) {
      table.print_csv(std::cout);
    } else {
      table.print(std::cout);
    }

    std::vector<bench::BenchCell> cells;
    for (const auto& r : results) {
      bench::BenchCell cell{r.name, {}};
      for (const Sample& s : r.samples) {
        cell.runs.push_back(bench::BenchRun{s.events, s.seconds});
      }
      cells.push_back(std::move(cell));
    }
    if (json_path != "-") {
      const std::string header = "\"events_per_run\": " +
                                 std::to_string(events) +
                                 ", \"reps\": " + std::to_string(reps) + ",";
      bench::write_bench_json(json_path, "engine", "events", header, cells);
    }
    if (!floors_path.empty()) {
      return bench::check_floors(floors_path, "engine", cells);
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
