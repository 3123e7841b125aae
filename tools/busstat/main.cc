// busstat: fleet stats console for the scale-ready telemetry plane. Replays the
// canonical busstat WAN scenario (src/scenario/busstat_demo.cc: two LANs joined by
// an information-router pair, plain pub/sub workload, trace sampling on, a
// BusStatReporter beside every daemon and router) and renders the StatsAggregator's
// merged fleet view: summed counters, merged log-bucket quantiles, top-k
// heavy-hitter tables, and the telemetry plane's self-measured overhead ratio.
// Every output is bit-identical across replays of one seed — that's the contract
// the replay gate pins.
//
//   busstat --json                  # merged fleet view (schema BUSSTAT_1)
//   busstat --table                 # operator console rendering
//   busstat --sample 64             # trace sampling period (1=all, 0=off)
//   busstat --hash                  # one line: samples + overhead + hash
//   busstat --trace                 # scenario trace lines (deliveries, samples)
//   busstat --json --out stats.json # write instead of printing
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/scenario/busstat_demo.h"

using namespace ibus;  // NOLINT: tool brevity

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seed N] [--sample N] (--json | --table | --hash | --trace) "
               "[--out FILE]\n"
               "  --seed N     demo RNG seed (default 42)\n"
               "  --sample N   trace sampling period: 1=trace all, 64=default 1/64, 0=off\n"
               "outputs (default --json):\n"
               "  --json       deterministic merged fleet view (schema BUSSTAT_1)\n"
               "  --table      operator console: nodes, overhead, top-k tables\n"
               "  --hash       one line: 'samples=N overhead=R hash=H'\n"
               "  --trace      scenario trace lines (deliveries, per-node samples)\n"
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
    std::fprintf(stderr, "busstat: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false, table = false, hash_only = false, trace = false;
  uint64_t seed = 42;
  scenario::BusStatScenarioOptions options;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--sample") == 0 && i + 1 < argc) {
      options.sample_period = static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--table") == 0) {
      table = true;
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
  if (!json && !table && !hash_only && !trace) {
    json = true;
  }
  if (json && table) {
    std::fprintf(stderr, "busstat: pick one of --json / --table\n");
    return Usage(argv[0]);
  }

  scenario::BusStatScenario run = scenario::RunBusstatWanScenario(seed, options);
  if (!run.trace.empty() && run.trace.front().rfind("error:", 0) == 0) {
    std::fprintf(stderr, "busstat: demo scenario failed: %s\n", run.trace.front().c_str());
    return 1;
  }
  if (run.samples_consumed == 0) {
    // Six reporters publish from t=750ms on; an aggregator that decoded nothing
    // means the stats plane is broken, not idle.
    std::fprintf(stderr, "busstat: aggregator decoded no time-series samples\n");
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
    std::printf("samples=%llu overhead=%.6f hash=%llu\n",
                static_cast<unsigned long long>(run.samples_consumed), run.overhead_ratio,
                static_cast<unsigned long long>(run.hash));
    return 0;
  }
  if (table) {
    return WriteOrPrint(out_path, run.table);
  }
  return WriteOrPrint(out_path, run.json);
}
