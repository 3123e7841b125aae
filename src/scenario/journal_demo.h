// Crash/recovery scenario family shared by `busjournal --demo`, the journal tests,
// and sim_replay_check scenarios 7-9. Each scenario drives certified traffic over a
// journaled ledger, kills components mid-flight, recovers from the surviving device,
// and returns a deterministic text trace (deliveries, recovery health events,
// component stats, and the journal verify report) whose hash must be bit-identical
// across replays of the same seed.
#ifndef SRC_SCENARIO_JOURNAL_DEMO_H_
#define SRC_SCENARIO_JOURNAL_DEMO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/stable_store.h"

namespace ibus::scenario {

// Daemon crash mid-retire: a certified publisher (group-commit journal on `device`)
// loses its daemon, client, and journal handle while retires are in flight; the
// device survives, the publisher's host reboots, and recovery re-arms what the
// ledger still holds. The surviving consumer dedups redeliveries, so the scenario
// also exercises the raced-retire idempotency fix. `device` must be empty.
std::vector<std::string> RunDaemonCrashScenario(uint64_t seed, StableStore* device);

// Router crash with queued certified WAN traffic: both WAN routers die while
// certified messages and acks are queued across them; the publisher crashes and
// recovers from its journal during the outage, the routers reconnect, and the
// retransmit machinery drains everything to the far LAN.
std::vector<std::string> RunRouterCrashScenario(uint64_t seed, StableStore* device);

// Ledger-tail truncation fuzzing: a run leaves a journal with pending certified
// messages; the device tail is then truncated mid-block at seed-derived offsets
// (three cuts), each reopened journal must stop at the last valid LSN and repair,
// and the final cut is recovered on the bus end-to-end.
std::vector<std::string> RunTailTruncationScenario(uint64_t seed);

}  // namespace ibus::scenario

#endif  // SRC_SCENARIO_JOURNAL_DEMO_H_
