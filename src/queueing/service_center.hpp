// Transaction service stations in the SES/Workbench style.
//
// A ServiceCenter is a c-server FCFS station: submitted jobs queue for a
// server, hold it for a sampled service time, and depart.  A DelayCenter
// is an infinite-server ("pure delay") station.  Both collect the standard
// steady-state observables.
//
// The station measures its queue itself, around each job's acquire of a
// server: a job counts as waiting from its arrival until it resumes with
// the grant, and its wait is that span.  The resume runs at the grant's
// own instant, so the time-average queue length is the one the Resource's
// queue would give; with one server, jobs also resume in grant order, so
// the wait statistics accumulate in the same order, bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "common/stats.hpp"
#include "common/units.hpp"
#include "des/process.hpp"
#include "des/resource.hpp"
#include "des/simulation.hpp"

namespace pimsim::queueing {

/// A unit of work flowing through the network.
struct Job {
  std::uint64_t id = 0;
  SimTime created_at = 0.0;
};

/// Samples a service demand in cycles.
using ServiceTimeFn = std::function<Cycles()>;
/// Invoked when a job departs a station.
using DepartureFn = std::function<void(const Job&, SimTime departed_at)>;

/// FCFS station with `servers` identical servers.
class ServiceCenter {
 public:
  ServiceCenter(des::Simulation& sim, std::size_t servers,
                ServiceTimeFn service_time, std::string name = "center");

  /// Enqueues a job; it departs after queueing + service.
  void submit(Job job);

  /// Departure hook (e.g. to chain stations or record response times).
  void set_on_departure(DepartureFn fn) { on_departure_ = std::move(fn); }

  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  [[nodiscard]] double utilization() const { return servers_.utilization(); }
  /// Time-average number of jobs waiting for a server.
  [[nodiscard]] double mean_queue_length() const {
    return queued_.mean(sim_.now());
  }
  /// Waiting time in queue (excludes service).
  [[nodiscard]] const RunningStats& wait_stats() const { return wait_; }
  /// Sojourn time (queue + service) per job.
  [[nodiscard]] const RunningStats& response_stats() const { return response_; }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  des::Process serve(Job job);

  des::Simulation& sim_;
  des::Resource servers_;
  ServiceTimeFn service_time_;
  DepartureFn on_departure_;
  std::size_t waiting_ = 0;  // jobs between arrival and grant
  TimeWeighted queued_;      // waiting_ over time
  RunningStats wait_;
  RunningStats response_;
  std::uint64_t completed_ = 0;
  std::string name_;
};

/// Infinite-server delay station: every job is served immediately.
class DelayCenter {
 public:
  DelayCenter(des::Simulation& sim, ServiceTimeFn service_time,
              std::string name = "delay");

  void submit(Job job);
  void set_on_departure(DepartureFn fn) { on_departure_ = std::move(fn); }

  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  [[nodiscard]] const RunningStats& response_stats() const { return response_; }

 private:
  des::Process serve(Job job);

  des::Simulation& sim_;
  ServiceTimeFn service_time_;
  DepartureFn on_departure_;
  RunningStats response_;
  std::uint64_t completed_ = 0;
  std::string name_;
};

}  // namespace pimsim::queueing
