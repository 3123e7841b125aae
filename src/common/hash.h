// 64-bit FNV-1a: the one content hash behind every replay-stable digest in the repo
// (capture records, busprof/busstat/busmon reports, flight-recorder dumps, trace
// timelines). Printed hashes are pinned by goldens, so the constants never change.
#ifndef SRC_COMMON_HASH_H_
#define SRC_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

namespace ibus {

inline constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
inline constexpr uint64_t kFnvPrime = 1099511628211ULL;

// Folds the bytes of `s` into `h`; pass a previous result as `h` to hash a sequence.
inline uint64_t Fnv1a(std::string_view s, uint64_t h = kFnvOffset) {
  for (char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace ibus

#endif  // SRC_COMMON_HASH_H_
