#include "des/audit.hpp"

#include <algorithm>

namespace pimsim::des {

std::optional<std::uint64_t> first_divergence(const AuditLog& a,
                                              const AuditLog& b) {
  const auto& ca = a.checkpoints();
  const auto& cb = b.checkpoints();
  const std::size_t shared = std::min(ca.size(), cb.size());
  for (std::size_t i = 0; i < shared; ++i) {
    if (ca[i] != cb[i]) {
      // Window i covers events [i * interval, (i + 1) * interval); every
      // earlier checkpoint matched, so the first difference is inside it.
      return i * AuditLog::kCheckpointInterval;
    }
  }
  if (a.events() != b.events()) {
    // Identical while both ran; the shorter run's end is the divergence.
    return std::min(a.events(), b.events());
  }
  if (a.hash() != b.hash()) {
    // Equal counts, all full checkpoints equal: the tail window differs.
    return shared * AuditLog::kCheckpointInterval;
  }
  return std::nullopt;
}

void AuditRegistry::absorb(const AuditLog& log) {
  absorb_with([&log](Summary& sum) {
    sum.events += log.events();
    sum.combined ^= log.hash();
  });
}

AuditRegistry::Summary AuditRegistry::snapshot() const {
  return read([](const Summary& sum, std::uint64_t simulations) {
    Summary out = sum;
    out.simulations = simulations;
    return out;
  });
}

}  // namespace pimsim::des
