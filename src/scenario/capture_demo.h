// The canonical capture scenario: the certified-orders workload on the WAN testbed
// (src/scenario/testbed.h) with a wire tap attached for the whole run. Shared by
// tools/buscap (--demo), the capture tests, and sim_replay_check's wire-capture
// scenario — one definition so the golden reports, the replay hashes, and the CLI
// all describe the same bytes.
#ifndef SRC_SCENARIO_CAPTURE_DEMO_H_
#define SRC_SCENARIO_CAPTURE_DEMO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/network.h"

namespace ibus::scenario {

// Runs the scenario with `tap` attached to the network from the first frame
// (nullptr runs untapped). Returns the delivery/stat trace lines the replay gate
// hashes; on setup failure the trace carries a single "error: ..." line.
std::vector<std::string> RunCertifiedWanCaptureScenario(uint64_t seed, NetworkTap* tap);

}  // namespace ibus::scenario

#endif  // SRC_SCENARIO_CAPTURE_DEMO_H_
