#include "obs/profiler.hpp"

#include <iomanip>
#include <ostream>

namespace pimsim::obs {

const char* KernelProfiler::kind_name(std::size_t kind) {
  switch (kind) {
    case 0: return "empty";
    case 1: return "resume";
    case 2: return "small";
    case 3: return "boxed";
    case 4: return "static";
    default: return "unknown";
  }
}

double KernelProfiler::estimated_seconds(std::size_t kind) const {
  const KindStats& s = stats_[kind];
  if (s.sampled == 0) return 0.0;
  return s.seconds / static_cast<double>(s.sampled) * static_cast<double>(s.dispatches);
}

std::uint64_t KernelProfiler::total_dispatches() const {
  std::uint64_t n = 0;
  for (const KindStats& s : stats_) n += s.dispatches;
  return n;
}

void KernelProfiler::merge(const KernelProfiler& other) {
  for (std::size_t k = 0; k < kKinds; ++k) {
    stats_[k].dispatches += other.stats_[k].dispatches;
    stats_[k].sampled += other.stats_[k].sampled;
    stats_[k].seconds += other.stats_[k].seconds;
  }
}

// ---------------------------------------------------------------------------
// ProfileHub

void ProfileHub::absorb(const KernelProfiler& profiler) {
  absorb_with([&profiler](KernelProfiler& merged) { merged.merge(profiler); });
}

KernelProfiler ProfileHub::snapshot() const {
  return read([](const KernelProfiler& merged, std::uint64_t) { return merged; });
}

void ProfileHub::write_table(std::ostream& os) const {
  // The table sets fixed/precision/adjustment per column; restore the
  // caller's formatting afterwards so later output (e.g. the CLI's
  // "# generated in" line on the same stream) is unaffected.
  const std::ios_base::fmtflags saved_flags = os.flags();
  const std::streamsize saved_precision = os.precision();
  const KernelProfiler prof = snapshot();
  const std::uint64_t total = prof.total_dispatches();
  double total_seconds = 0.0;
  for (std::size_t k = 0; k < KernelProfiler::kKinds; ++k) {
    total_seconds += prof.estimated_seconds(k);
  }
  os << "# kernel profile: " << simulations() << " simulation(s), " << total
     << " dispatches (counts exact; seconds sampled 1/" << KernelProfiler::kSampleEvery
     << ", estimated)\n";
  os << "# " << std::left << std::setw(8) << "kind" << std::right << std::setw(14)
     << "dispatches" << std::setw(10) << "sampled" << std::setw(12) << "est_s"
     << std::setw(9) << "share\n";
  for (std::size_t k = 0; k < KernelProfiler::kKinds; ++k) {
    const auto& s = prof.stats()[k];
    if (s.dispatches == 0) continue;
    const double est = prof.estimated_seconds(k);
    const double share = total_seconds > 0.0 ? est / total_seconds * 100.0 : 0.0;
    os << "# " << std::left << std::setw(8) << KernelProfiler::kind_name(k) << std::right
       << std::setw(14) << s.dispatches << std::setw(10) << s.sampled << std::setw(12)
       << std::setprecision(4) << std::fixed << est << std::setw(8)
       << std::setprecision(1) << share << "%\n";
  }
  os.flags(saved_flags);
  os.precision(saved_precision);
}

}  // namespace pimsim::obs
