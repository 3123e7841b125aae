#include "src/telemetry/collector.h"

#include <algorithm>
#include <sstream>
#include <tuple>

#include "src/common/hash.h"

namespace ibus::telemetry {

Result<std::unique_ptr<TraceCollector>> TraceCollector::Create(
    BusClient* bus, const TraceCollectorOptions& options) {
#if IBUS_TELEMETRY
  if (options.max_traces == 0) {
    return InvalidArgument("trace collector: max_traces must be positive");
  }
  auto collector = std::unique_ptr<TraceCollector>(new TraceCollector(bus, options));
  auto sub = bus->Subscribe(kTracePattern,
                            [c = collector.get()](const Message& m) { c->HandleSpan(m); });
  if (!sub.ok()) {
    return sub.status();
  }
  collector->sub_id_ = *sub;
  return collector;
#else
  (void)bus;
  (void)options;
  return FailedPrecondition("telemetry: built with IB_TELEMETRY=OFF, no spans are emitted");
#endif
}

TraceCollector::~TraceCollector() {
  if (sub_id_ != 0) {
    bus_->Unsubscribe(sub_id_);
  }
}

void TraceCollector::HandleSpan(const Message& m) {
  if (m.type_name != kHopRecordType) {
    return;  // other record types may share the namespace later
  }
  auto rec = HopRecord::Unmarshal(m.payload);
  if (!rec.ok()) {
    return;
  }
  records_received_++;
  uint64_t trace_id = rec->trace_id;
  traces_[trace_id].push_back(rec.take());
  TouchTrace(trace_id);
}

void TraceCollector::TouchTrace(uint64_t trace_id) {
  auto pos = lru_pos_.find(trace_id);
  if (pos != lru_pos_.end()) {
    lru_.erase(pos->second);
  }
  lru_.push_back(trace_id);
  lru_pos_[trace_id] = std::prev(lru_.end());
  while (traces_.size() > options_.max_traces) {
    uint64_t coldest = lru_.front();
    lru_.pop_front();
    lru_pos_.erase(coldest);
    traces_.erase(coldest);
    evictions_->Inc();
  }
}

std::vector<uint64_t> TraceCollector::trace_ids() const {
  std::vector<uint64_t> ids;
  ids.reserve(traces_.size());
  for (const auto& [id, hops] : traces_) {
    ids.push_back(id);
  }
  return ids;
}

std::vector<HopRecord> TraceCollector::Timeline(uint64_t trace_id) const {
  auto it = traces_.find(trace_id);
  if (it == traces_.end()) {
    return {};
  }
  std::vector<HopRecord> hops = it->second;
  std::sort(hops.begin(), hops.end(), [](const HopRecord& a, const HopRecord& b) {
    return std::tie(a.at_us, a.hop, a.kind, a.node, a.subject) <
           std::tie(b.at_us, b.hop, b.kind, b.node, b.subject);
  });
  return hops;
}

std::string TraceCollector::RenderTimeline(uint64_t trace_id) const {
  std::vector<HopRecord> hops = Timeline(trace_id);
  if (hops.empty()) {
    return "";
  }
  const int64_t start = hops.front().at_us;
  std::ostringstream out;
  out << "trace " << trace_id << " (" << hops.size() << " hops)\n";
  for (const HopRecord& h : hops) {
    out << "  +" << (h.at_us - start) << "us hop=" << static_cast<int>(h.hop) << " "
        << HopKindName(h.kind) << " node=" << h.node << " subject=" << h.subject;
    if (h.certified_id != 0) {
      out << " cert=" << h.certified_id;
    }
    out << "\n";
  }
  return out.str();
}

uint64_t TraceCollector::TimelineHash(uint64_t trace_id) const {
  uint64_t h = kFnvOffset;
  for (const HopRecord& rec : Timeline(trace_id)) {
    h = Fnv1a("\n", Fnv1a(rec.ToString(), h));
  }
  return h;
}

uint64_t TraceCollector::AllTracesHash() const {
  uint64_t h = kFnvOffset;
  for (const auto& [id, hops] : traces_) {
    h = Fnv1a(std::to_string(id), h);
    h ^= TimelineHash(id);
    h *= kFnvPrime;
  }
  return h;
}

std::map<HopKind, LatencyHistogram> TraceCollector::HopLatencyHistograms() const {
  std::map<HopKind, LatencyHistogram> hists;
  for (const auto& [id, unsorted] : traces_) {
    std::vector<HopRecord> hops = Timeline(id);
    for (size_t i = 1; i < hops.size(); ++i) {
      hists[hops[i].kind].Record(hops[i].at_us - hops[i - 1].at_us);
    }
  }
  return hists;
}

}  // namespace ibus::telemetry
