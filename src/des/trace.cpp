#include "des/trace.hpp"

namespace pimsim::des {

const char* to_string(TraceKind kind) {
  switch (kind) {
    case TraceKind::kEventScheduled: return "event-scheduled";
    case TraceKind::kEventDispatched: return "event-dispatched";
    case TraceKind::kProcessSpawned: return "process-spawned";
    case TraceKind::kProcessFinished: return "process-finished";
    case TraceKind::kResourceAcquire: return "resource-acquire";
    case TraceKind::kResourceRelease: return "resource-release";
    case TraceKind::kResourceEnqueued: return "resource-enqueued";
    case TraceKind::kMailboxSend: return "mailbox-send";
    case TraceKind::kMailboxReceive: return "mailbox-receive";
    case TraceKind::kCounter: return "counter";
    case TraceKind::kAsyncBegin: return "async-begin";
    case TraceKind::kAsyncEnd: return "async-end";
    case TraceKind::kInstant: return "instant";
  }
  return "unknown";
}

Tracer::Tracer(Callback cb, std::size_t capacity)
    : callback_(std::move(cb)), capacity_(capacity) {
  labels_.emplace_back();  // LabelId 0 is the empty string
  index_.emplace(std::string{}, LabelId{0});
}

LabelId Tracer::intern(std::string_view name) {
  const auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  const auto id = static_cast<LabelId>(labels_.size());
  labels_.emplace_back(name);
  index_.emplace(std::string(name), id);
  return id;
}

}  // namespace pimsim::des
