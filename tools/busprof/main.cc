// busprof: critical-path latency profiler for the simulated bus. Replays the
// canonical certified-WAN demo scenario (src/scenario/prof_demo.cc) with publish
// tracing on, a wire tap attached, and the simulator event core observed, then
// decomposes every traced delivery's end-to-end latency into the exact stage
// taxonomy of src/prof (publish_loopback / daemon_queue / medium_transit /
// router_forward / router_republish / retransmit_repair / deliver_loopback /
// unattributed). The stage sums reconcile exactly — integer microseconds —
// against the measured end-to-end latency, and every output is bit-identical
// across replays of one seed.
//
//   busprof --json                  # full JSON report (paths, stages, queues, event core)
//   busprof --collapsed             # flamegraph-collapsed stacks (stackcollapse format)
//   busprof --seed 7 --json         # different replay
//   busprof --hash                  # one line: paths + reconciliation + hash
//   busprof --json --out prof.json  # write instead of printing
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/scenario/prof_demo.h"

using namespace ibus;  // NOLINT: tool brevity

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seed N] (--json | --collapsed | --hash) [--out FILE]\n"
               "  --seed N     demo RNG seed (default 42)\n"
               "outputs (default --json):\n"
               "  --json       deterministic JSON report (schema BUSPROF_1)\n"
               "  --collapsed  flamegraph-collapsed stacks: bus;dest;subject;stage us\n"
               "  --hash       one line: 'paths=N reconciled=B hash=H'\n"
               "  --trace      scenario trace lines (deliveries, timelines, stats)\n"
               "  --out FILE   write the selected report to FILE\n",
               argv0);
  return 2;
}

int WriteOrPrint(const std::string& out_path, const std::string& text) {
  if (out_path.empty()) {
    std::fwrite(text.data(), 1, text.size(), stdout);
    return 0;
  }
  std::FILE* f = std::fopen(out_path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "busprof: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false, collapsed = false, hash_only = false, trace = false;
  uint64_t seed = 42;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--collapsed") == 0) {
      collapsed = true;
    } else if (std::strcmp(argv[i], "--hash") == 0) {
      hash_only = true;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      return Usage(argv[0]);
    }
  }
  if (!json && !collapsed && !hash_only && !trace) {
    json = true;
  }
  if (json && collapsed) {
    std::fprintf(stderr, "busprof: pick one of --json / --collapsed\n");
    return Usage(argv[0]);
  }

  scenario::ProfiledScenario run = scenario::RunProfiledWanScenario(seed);
  if (!run.trace.empty() && run.trace.front().rfind("error:", 0) == 0) {
    std::fprintf(stderr, "busprof: demo scenario failed: %s\n", run.trace.front().c_str());
    return 1;
  }
  if (!run.reconciled) {
    // The decomposition guarantees this by construction; failing loudly here
    // turns any future regression into a red CLI (and a red smoke test).
    std::fprintf(stderr, "busprof: stage sums do not reconcile with end-to-end latency\n");
    return 1;
  }

  if (trace) {
    std::string lines;
    for (const std::string& line : run.trace) {
      lines += line + "\n";
    }
    return WriteOrPrint(out_path, lines);
  }
  if (hash_only) {
    std::printf("paths=%zu reconciled=%d hash=%llu\n", run.paths.size(),
                run.reconciled ? 1 : 0, static_cast<unsigned long long>(run.hash));
    return 0;
  }
  if (collapsed) {
    return WriteOrPrint(out_path, run.collapsed);
  }
  return WriteOrPrint(out_path, run.json + "\n");
}
