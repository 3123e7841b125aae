#include "src/prof/stages.h"

#include <algorithm>

namespace ibus::prof {

using telemetry::HopKind;
using telemetry::HopRecord;

const char* StageName(StageKind k) {
  switch (k) {
    case StageKind::kPublishLoopback:
      return "publish_loopback";
    case StageKind::kDaemonQueue:
      return "daemon_queue";
    case StageKind::kMediumTransit:
      return "medium_transit";
    case StageKind::kRouterForward:
      return "router_forward";
    case StageKind::kRouterRepublish:
      return "router_republish";
    case StageKind::kRetransmitRepair:
      return "retransmit_repair";
    case StageKind::kDeliverLoopback:
      return "deliver_loopback";
    case StageKind::kUnattributed:
      return "unattributed";
  }
  return "unknown";
}

std::string StageMetricName(StageKind k) { return std::string("prof.stage.") + StageName(k); }

int64_t StageBreakdown::total_us() const {
  int64_t sum = 0;
  for (size_t i = 0; i < kStageCount; ++i) {
    sum += us[i];
  }
  return sum;
}

namespace {

// Latest record of `kind` at hop level `hop` with at_us <= `bound`; among equal
// times the last in timeline order wins (the timeline is sorted, so this is
// deterministic). Returns nullptr when no such record exists.
const HopRecord* FindLatest(const std::vector<HopRecord>& timeline, HopKind kind, uint8_t hop,
                            int64_t bound) {
  const HopRecord* best = nullptr;
  for (const HopRecord& r : timeline) {
    if (r.kind == kind && r.hop == hop && r.at_us <= bound) {
      best = &r;
    }
  }
  return best;
}

}  // namespace

std::vector<PathProfile> DecomposeTimeline(const std::vector<HopRecord>& timeline,
                                           const WireSplitFn& split) {
  std::vector<PathProfile> out;
  if (timeline.empty()) {
    return out;
  }
  const HopRecord* publish = FindLatest(timeline, HopKind::kPublish, 0, INT64_MAX);
  int64_t start = publish != nullptr ? publish->at_us : timeline.front().at_us;
  for (const HopRecord& r : timeline) {
    start = std::min(start, r.at_us);
  }

  for (const HopRecord& deliver : timeline) {
    if (deliver.kind != HopKind::kDeliver) {
      continue;
    }
    PathProfile p;
    p.trace_id = deliver.trace_id;
    p.subject = deliver.subject;
    p.dest = deliver.node;
    p.hop = deliver.hop;
    p.publish_at_us = start;
    p.deliver_at_us = deliver.at_us;
    p.end_to_end_us = deliver.at_us - start;

    // Back-chain: walk breakpoints from the deliver hop toward the publish. Every
    // interval between consecutive breakpoints lands in exactly one stage, so the
    // stage vector telescopes to end_to_end_us. A missing link folds everything
    // earlier into kUnattributed instead of guessing.
    uint8_t level = deliver.hop;
    const HopRecord* dispatch = FindLatest(timeline, HopKind::kDispatch, level, deliver.at_us);
    if (dispatch == nullptr) {
      p.stages[StageKind::kUnattributed] += deliver.at_us - start;
      out.push_back(p);
      continue;
    }
    p.stages[StageKind::kDeliverLoopback] += deliver.at_us - dispatch->at_us;
    while (true) {
      const HopRecord* ws = FindLatest(timeline, HopKind::kWireSend, level, dispatch->at_us);
      if (ws == nullptr) {
        p.stages[StageKind::kUnattributed] += dispatch->at_us - start;
        break;
      }
      if (split) {
        split(*ws, *dispatch, &p.stages);
      } else {
        p.stages[StageKind::kMediumTransit] += dispatch->at_us - ws->at_us;
      }
      if (level == 0) {
        if (publish != nullptr && publish->at_us <= ws->at_us) {
          p.stages[StageKind::kPublishLoopback] += ws->at_us - publish->at_us;
        } else {
          p.stages[StageKind::kUnattributed] += ws->at_us - start;
        }
        break;
      }
      const HopRecord* rep = FindLatest(timeline, HopKind::kRouterRepublish, level, ws->at_us);
      if (rep == nullptr) {
        p.stages[StageKind::kUnattributed] += ws->at_us - start;
        break;
      }
      p.stages[StageKind::kRouterRepublish] += ws->at_us - rep->at_us;
      const HopRecord* fwd =
          FindLatest(timeline, HopKind::kRouterForward, static_cast<uint8_t>(level - 1), rep->at_us);
      if (fwd == nullptr) {
        p.stages[StageKind::kUnattributed] += rep->at_us - start;
        break;
      }
      // The WAN link crossing: forward on the near side, republish on the far side.
      p.stages[StageKind::kMediumTransit] += rep->at_us - fwd->at_us;
      const HopRecord* prev =
          FindLatest(timeline, HopKind::kDispatch, static_cast<uint8_t>(level - 2), fwd->at_us);
      if (prev == nullptr) {
        p.stages[StageKind::kUnattributed] += fwd->at_us - start;
        break;
      }
      // Local deliver to the router client + its forward processing.
      p.stages[StageKind::kRouterForward] += fwd->at_us - prev->at_us;
      dispatch = prev;
      level = static_cast<uint8_t>(level - 2);
    }
    out.push_back(p);
  }
  return out;
}

StageAccumulator::StageAccumulator(telemetry::MetricsRegistry* registry) {
  for (size_t i = 0; i < kStageCount; ++i) {
    histograms_[i] = registry->GetHistogram(StageMetricName(static_cast<StageKind>(i)));
  }
}

void StageAccumulator::Add(const PathProfile& path) {
  for (size_t i = 0; i < kStageCount; ++i) {
    int64_t us = path.stages.us[i];
    totals_[i] += us;
    if (us > 0) {
      histograms_[i]->Record(us);
    }
  }
  end_to_end_total_ += path.end_to_end_us;
  paths_++;
}

double StageAccumulator::UnattributedShare() const {
  if (end_to_end_total_ <= 0) {
    return 0.0;
  }
  return static_cast<double>(totals_[static_cast<size_t>(StageKind::kUnattributed)]) /
         static_cast<double>(end_to_end_total_);
}

}  // namespace ibus::prof
