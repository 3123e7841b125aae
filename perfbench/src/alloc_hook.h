// Process-wide heap-allocation counter. alloc_hook.cc replaces the global operator
// new/delete of any executable that links it (only perfbench's own binaries do), in
// the same way as bench/hot_path_allocs.cc. The simulator is single-threaded, so the
// counter is a plain integer.
#ifndef PERFBENCH_SRC_ALLOC_HOOK_H_
#define PERFBENCH_SRC_ALLOC_HOOK_H_

#include <cstdint>

namespace perfbench {

// Global operator new / new[] calls since process start.
uint64_t AllocCount();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_ALLOC_HOOK_H_
