// Codec and matching replay for the per-layer run: the medium frames captured by the
// tracer, and the messages, subjects and objects inside them, are pushed again through
// the library's public codec and match functions, each timed on its own.
#ifndef PERFBENCH_SRC_REPLAY_H_
#define PERFBENCH_SRC_REPLAY_H_

#include <cstddef>
#include <vector>

#include "src/common/bytes.h"
#include "src/workloads.h"

namespace perfbench {

struct ReplayResult {
  // Host nanoseconds per call (median over repeated passes).
  double parse_frame_ns = 0;
  double frame_message_ns = 0;
  double packet_unmarshal_ns = 0;
  double message_unmarshal_ns = 0;
  double message_marshal_ns = 0;
  double match_ns = 0;
  double unmarshal_object_ns = 0;
  double marshal_object_ns = 0;
  double allocs_per_unmarshal = 0;
  double patterns_per_daemon = 0;
  size_t frames = 0, packets = 0, messages = 0, match_calls = 0, objects = 0;
  size_t decode_errors = 0;  // captured bytes the codecs rejected (must stay 0)
};

ReplayResult Replay(const std::vector<ibus::Bytes>& frames,
                    const std::vector<Subscription>& subscriptions);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REPLAY_H_
