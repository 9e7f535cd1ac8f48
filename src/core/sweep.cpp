#include "core/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <exception>
#include <memory>

#include "common/error.hpp"
#include "core/experiment.hpp"

namespace pimsim::core {

ShardSpec parse_shard(const std::string& text) {
  const auto fail = [&text]() -> ShardSpec {
    throw InvalidArgument(
        "pimsim sweep: malformed shard '" + text +
        "'; valid form: shard=i/N with integers 0 <= i < N (e.g. shard=0/4)");
  };
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= text.size()) {
    return fail();
  }
  const std::string index_text = text.substr(0, slash);
  const std::string count_text = text.substr(slash + 1);
  const auto all_digits = [](const std::string& s) {
    return std::all_of(s.begin(), s.end(), [](unsigned char c) {
      return std::isdigit(c) != 0;
    });
  };
  if (!all_digits(index_text) || !all_digits(count_text)) return fail();
  ShardSpec spec;
  try {
    spec.index = std::stoul(index_text);
    spec.count = std::stoul(count_text);
  } catch (const std::exception&) {
    return fail();
  }
  if (spec.count == 0 || spec.index >= spec.count) return fail();
  return spec;
}

std::vector<std::size_t> plan_shards(const std::vector<double>& weights,
                                     std::size_t shards) {
  require(shards >= 1, "plan_shards: shard count must be >= 1");
  // Heaviest first: LPT greedy onto the lightest bin.  Both orderings
  // break ties by index, so the plan is a pure function of its inputs.
  std::vector<std::size_t> order(weights.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return weights[a] > weights[b];
  });
  std::vector<double> load(shards, 0.0);
  std::vector<std::size_t> plan(weights.size(), 0);
  for (const std::size_t point : order) {
    std::size_t lightest = 0;
    for (std::size_t s = 1; s < shards; ++s) {
      if (load[s] < load[lightest]) lightest = s;
    }
    plan[point] = lightest;
    // Zero/negative/non-finite weights still advance the bin so equal
    // weights round-robin instead of piling onto shard 0.
    const double w = weights[point];
    load[lightest] += (std::isfinite(w) && w > 0.0) ? w : 1.0;
  }
  return plan;
}

// One parallel index loop.  Heap-allocated and shared with every queued
// runner task, so a task that drains from the queue after the batch has
// already completed finds an exhausted counter and exits without touching
// the (by then destroyed) loop body.
struct SweepRunner::Batch {
  std::size_t count = 0;
  const std::function<void(std::size_t)>* body = nullptr;  // valid while remaining > 0
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> remaining{0};
  std::atomic<bool> failed{false};
  std::mutex mutex;
  std::condition_variable done_cv;
  bool done = false;
  std::exception_ptr error;
};

SweepRunner::SweepRunner(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  workers_.reserve(threads - 1);
  for (std::size_t i = 0; i + 1 < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

SweepRunner::~SweepRunner() {
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void SweepRunner::worker_loop() {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  for (;;) {
    queue_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stop requested and nothing left to run
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    task();
    lock.lock();
  }
}

void SweepRunner::run_batch(Batch& batch) {
  for (;;) {
    const std::size_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch.count) return;
    if (!batch.failed.load(std::memory_order_relaxed)) {
      try {
        (*batch.body)(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(batch.mutex);
        if (!batch.error) batch.error = std::current_exception();
        batch.failed.store(true, std::memory_order_relaxed);
      }
    }
    if (batch.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      const std::lock_guard<std::mutex> lock(batch.mutex);
      batch.done = true;
      batch.done_cv.notify_all();
    }
  }
}

void SweepRunner::for_each(std::size_t count,
                           const std::function<void(std::size_t)>& body) {
  require(static_cast<bool>(body), "SweepRunner::for_each: empty body");
  if (count == 0) return;
  if (workers_.empty() || count == 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  auto batch = std::make_shared<Batch>();
  batch->count = count;
  batch->body = &body;
  batch->remaining.store(count, std::memory_order_relaxed);

  const std::size_t helpers = std::min(workers_.size(), count - 1);
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    for (std::size_t i = 0; i < helpers; ++i) {
      queue_.emplace_back([batch] { run_batch(*batch); });
    }
  }
  queue_cv_.notify_all();

  run_batch(*batch);  // the calling thread pulls indices too

  std::unique_lock<std::mutex> lock(batch->mutex);
  batch->done_cv.wait(lock, [&batch] { return batch->done; });
  if (batch->error) std::rethrow_exception(batch->error);
}

std::vector<Estimate> SweepRunner::sweep(
    std::size_t points, std::size_t replications, std::uint64_t base_seed,
    const std::function<double(std::size_t, std::uint64_t)>& measure) {
  require(static_cast<bool>(measure), "SweepRunner::sweep: empty measurement");
  std::vector<Estimate> out(points);
  for_each(points, [&](std::size_t i) {
    out[i] = replicate(replications, base_seed,
                       [&](std::uint64_t seed) { return measure(i, seed); });
  });
  return out;
}

}  // namespace pimsim::core
