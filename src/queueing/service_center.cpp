#include "queueing/service_center.hpp"

#include "common/error.hpp"

namespace pimsim::queueing {

ServiceCenter::ServiceCenter(des::Simulation& sim, std::size_t servers,
                             ServiceTimeFn service_time, std::string name)
    : sim_(sim), servers_(sim, servers, name + ".servers"),
      service_time_(std::move(service_time)), name_(std::move(name)) {
  require(static_cast<bool>(service_time_),
          "ServiceCenter '" + name_ + "': service time sampler required");
}

void ServiceCenter::submit(Job job) { sim_.spawn(serve(job)); }

des::Process ServiceCenter::serve(Job job) {
  const SimTime arrived = sim_.now();
  queued_.set(arrived, static_cast<double>(++waiting_));
  co_await servers_.acquire();
  queued_.set(sim_.now(), static_cast<double>(--waiting_));
  wait_.add(sim_.now() - arrived);
  const Cycles demand = service_time_();
  ensure(demand >= 0.0, "ServiceCenter '" + name_ + "': negative service time");
  co_await des::delay(sim_, demand);
  servers_.release();
  ++completed_;
  response_.add(sim_.now() - arrived);
  if (on_departure_) on_departure_(job, sim_.now());
}

DelayCenter::DelayCenter(des::Simulation& sim, ServiceTimeFn service_time,
                         std::string name)
    : sim_(sim), service_time_(std::move(service_time)), name_(std::move(name)) {
  require(static_cast<bool>(service_time_),
          "DelayCenter '" + name_ + "': service time sampler required");
}

void DelayCenter::submit(Job job) { sim_.spawn(serve(job)); }

des::Process DelayCenter::serve(Job job) {
  const SimTime arrived = sim_.now();
  const Cycles demand = service_time_();
  ensure(demand >= 0.0, "DelayCenter '" + name_ + "': negative service time");
  co_await des::delay(sim_, demand);
  ++completed_;
  response_.add(sim_.now() - arrived);
  if (on_departure_) on_departure_(job, sim_.now());
}

}  // namespace pimsim::queueing
