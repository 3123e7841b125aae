// Critical-path stage taxonomy: every traced message's end-to-end latency is
// decomposed into an exact, integer-µs stage vector by back-chaining its hop
// timeline (publish → wire_send → dispatch → deliver, with router forward /
// republish pairs per WAN traversal). The decomposition telescopes: consecutive
// breakpoints partition [publish.at, deliver.at], so the stage sum equals the
// measured end-to-end latency by construction — the reconciliation invariant the
// prof tests and sim_replay_check pin. Intervals that cannot be anchored to the
// expected hop merge into an explicit kUnattributed bucket rather than being
// silently dropped. See docs/TELEMETRY.md ("Profiling").
#ifndef SRC_PROF_STAGES_H_
#define SRC_PROF_STAGES_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace ibus::prof {

// Where a microsecond of end-to-end latency was spent. Order is the rendering
// order of every report; do not renumber.
enum class StageKind : uint8_t {
  kPublishLoopback = 0,  // client->daemon loopback IPC: publish accepted -> on the wire
  kDaemonQueue = 1,      // held in daemon queues (sync hold, in-order drain, batching)
  kMediumTransit = 2,    // serialization + propagation + medium queueing (LAN or WAN)
  kRouterForward = 3,    // origin-LAN dispatch -> router sent it over the WAN link
  kRouterRepublish = 4,  // router re-injected it -> far daemon handed it to the wire
  kRetransmitRepair = 5, // lost first attempt -> the retransmission that landed
  kDeliverLoopback = 6,  // daemon->client loopback IPC: daemon matched -> handler ran
  kUnattributed = 7,     // remainder that could not be anchored to a hop
};

inline constexpr size_t kStageCount = 8;

// Stable lower-case stage name ("publish_loopback", ...), used by every report.
const char* StageName(StageKind k);

// Integer-µs stage vector for one delivery path.
struct StageBreakdown {
  int64_t us[kStageCount] = {};

  int64_t& operator[](StageKind k) { return us[static_cast<size_t>(k)]; }
  int64_t at(StageKind k) const { return us[static_cast<size_t>(k)]; }
  int64_t total_us() const;
};

// One profiled delivery: a traced message reaching one subscriber.
struct PathProfile {
  uint64_t trace_id = 0;
  std::string subject;     // application subject at the delivering hop
  std::string dest;        // delivering client (HopRecord node of the deliver hop)
  uint8_t hop = 0;         // deliver hop level (0 = origin LAN, +2 per router)
  int64_t publish_at_us = 0;
  int64_t deliver_at_us = 0;
  int64_t end_to_end_us = 0;  // deliver_at - publish_at; equals stages.total_us()
  StageBreakdown stages;
};

// Splits one wire interval [wire_send.at, dispatch.at] into stages. The default
// (hop-only) splitter charges the whole interval to kMediumTransit; the capture
// join in profiler.h substitutes an exact daemon-queue / transit / repair split.
using WireSplitFn = std::function<void(const telemetry::HopRecord& wire_send,
                                       const telemetry::HopRecord& dispatch,
                                       StageBreakdown* out)>;

// Decomposes every deliver hop of one trace timeline (collector order: sorted by
// time/hop/kind) into a PathProfile. `split` may be null for hop-only profiles.
std::vector<PathProfile> DecomposeTimeline(const std::vector<telemetry::HopRecord>& timeline,
                                           const WireSplitFn& split = nullptr);

// Streams PathProfiles into per-stage LatencyHistograms ("prof.stage.<name>" in
// `registry`) plus exact integer totals for reconciliation checks.
class StageAccumulator {
 public:
  explicit StageAccumulator(telemetry::MetricsRegistry* registry);

  void Add(const PathProfile& path);

  uint64_t paths() const { return paths_; }
  int64_t total_us(StageKind k) const { return totals_[static_cast<size_t>(k)]; }
  int64_t end_to_end_total_us() const { return end_to_end_total_; }
  const telemetry::LatencyHistogram* histogram(StageKind k) const {
    return histograms_[static_cast<size_t>(k)];
  }
  // kUnattributed share of the summed end-to-end time, in [0,1]; 0 when empty.
  double UnattributedShare() const;

 private:
  telemetry::LatencyHistogram* histograms_[kStageCount] = {};
  int64_t totals_[kStageCount] = {};
  int64_t end_to_end_total_ = 0;
  uint64_t paths_ = 0;
};

// Registry name of a stage histogram, e.g. "prof.stage.medium_transit".
std::string StageMetricName(StageKind k);

}  // namespace ibus::prof

#endif  // SRC_PROF_STAGES_H_
