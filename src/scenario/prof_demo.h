// The canonical profiling scenario: the capture demo's certified-orders workload on
// the WAN testbed (src/scenario/testbed.h) run with publish tracing on, a wire tap
// attached, and the simulator event core observed — everything busprof profiles,
// in one deterministic run. Shared by tools/busprof, the prof tests, and
// sim_replay_check's busprof scenario so the CLI output, the unit assertions, and
// the replay hashes all describe the same bytes.
#ifndef SRC_SCENARIO_PROF_DEMO_H_
#define SRC_SCENARIO_PROF_DEMO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/prof/stages.h"

namespace ibus::scenario {

struct ProfiledScenario {
  // Delivery records, hop timelines, and summary stat lines — the replay spine.
  std::vector<std::string> trace;
  // Full busprof JSON report (paths + stages + event_core + queues sections).
  std::string json;
  // Flamegraph-collapsed stacks.
  std::string collapsed;
  // FNV-1a over json then collapsed; bit-identical across replays of one seed.
  uint64_t hash = 0;
  // Per-delivery stage decompositions (empty when built with IB_TELEMETRY=OFF —
  // no spans are emitted then and the report says "telemetry":false).
  std::vector<prof::PathProfile> paths;
  bool reconciled = false;
  double unattributed_share = 0.0;
  uint64_t frames_captured = 0;
};

ProfiledScenario RunProfiledWanScenario(uint64_t seed);

}  // namespace ibus::scenario

#endif  // SRC_SCENARIO_PROF_DEMO_H_
