// buscap: wire-level capture analysis for the simulated bus — the tcpdump/tshark
// companion to busmon's live console. It either replays the canonical certified-WAN
// demo scenario (src/scenario/capture_demo.cc) with a tap attached (--demo) or
// loads a capture file (--in), then renders deterministic reports: a text report
// with per-frame dissections, reliable-stream reassembly (retransmits attributed
// to the drops that caused them), and the per-segment bandwidth breakdown; a JSONL
// stream for machines; a pcap export for Wireshark; or just the capture hash for
// replay comparison.
//
//   buscap --demo --report                 # capture the demo run, full text report
//   buscap --demo --seed 7 --out run.ibcp  # save the raw capture file
//   buscap --in run.ibcp --jsonl           # machine-readable report
//   buscap --demo --filter 'orders.>' --report   # application-traffic view
//   buscap --demo --pcap run.pcap          # LINKTYPE_USER0 pcap with sim metadata
//   buscap --demo --hash                   # one line: records + capture hash
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/capture/capture.h"
#include "src/capture/pcap.h"
#include "src/capture/report.h"
#include "src/scenario/capture_demo.h"

using namespace ibus;  // NOLINT: tool brevity

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--demo [--seed N] | --in FILE) [outputs...]\n"
      "source:\n"
      "  --demo            run the certified-WAN demo scenario with a tap attached\n"
      "  --seed N          demo RNG seed (default 42)\n"
      "  --in FILE         load a capture file written with --out\n"
      "  --filter PAT      keep only frames carrying a subject matching PAT\n"
      "outputs (default --report):\n"
      "  --report          text report: frames, reassembly, bandwidth\n"
      "  --trees           include full protocol trees in the text report\n"
      "  --max-frames N    cap per-frame lines in the text report\n"
      "  --jsonl           JSONL report (records + reassembly + bandwidth + hash)\n"
      "  --out FILE        write the capture file\n"
      "  --pcap FILE       export pcap (LINKTYPE_USER0, sim-metadata pseudo-header)\n"
      "  --hash            print 'records=N hash=H' only\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool demo = false, report = false, jsonl = false, hash_only = false;
  uint64_t seed = 42;
  std::string in_path, out_path, pcap_path, filter;
  capture::ReportOptions opts;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--demo") == 0) {
      demo = true;
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--in") == 0 && i + 1 < argc) {
      in_path = argv[++i];
    } else if (std::strcmp(argv[i], "--filter") == 0 && i + 1 < argc) {
      filter = argv[++i];
    } else if (std::strcmp(argv[i], "--report") == 0) {
      report = true;
    } else if (std::strcmp(argv[i], "--trees") == 0) {
      opts.with_trees = true;
    } else if (std::strcmp(argv[i], "--max-frames") == 0 && i + 1 < argc) {
      opts.max_frames = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--jsonl") == 0) {
      jsonl = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--pcap") == 0 && i + 1 < argc) {
      pcap_path = argv[++i];
    } else if (std::strcmp(argv[i], "--hash") == 0) {
      hash_only = true;
    } else {
      return Usage(argv[0]);
    }
  }
  if (demo == !in_path.empty()) {
    std::fprintf(stderr, "buscap: pick exactly one source (--demo or --in FILE)\n");
    return Usage(argv[0]);
  }

  capture::CaptureBuffer buffer;
  if (!filter.empty()) {
    Status s = buffer.SetFilter(filter);
    if (!s.ok()) {
      std::fprintf(stderr, "buscap: bad --filter: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  std::vector<CapturedFrame> frames;
  if (demo) {
    std::vector<std::string> trace =
        scenario::RunCertifiedWanCaptureScenario(seed, &buffer);
    if (!trace.empty() && trace.front().rfind("error:", 0) == 0) {
      std::fprintf(stderr, "buscap: demo scenario failed: %s\n",
                   trace.front().c_str());
      return 1;
    }
    frames = buffer.frames();
  } else {
    auto loaded = capture::ReadCaptureFile(in_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "buscap: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    if (filter.empty()) {
      frames = loaded.take();
    } else {
      // Re-run the loaded records through the filtering buffer.
      for (const CapturedFrame& f : *loaded) {
        buffer.OnFrame(f);
      }
      frames = buffer.frames();
    }
  }

  if (!out_path.empty()) {
    Status s = capture::WriteCaptureFile(out_path, frames);
    if (!s.ok()) {
      std::fprintf(stderr, "buscap: %s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "buscap: wrote %zu records to %s\n", frames.size(),
                 out_path.c_str());
  }
  if (!pcap_path.empty()) {
    Status s = capture::WritePcapFile(pcap_path, frames);
    if (!s.ok()) {
      std::fprintf(stderr, "buscap: %s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "buscap: wrote pcap with %zu packets to %s\n",
                 frames.size(), pcap_path.c_str());
  }
  if (hash_only) {
    std::printf("records=%zu hash=%llu\n", frames.size(),
                static_cast<unsigned long long>(
                    capture::CaptureBuffer::CaptureHash(frames)));
  }
  if (jsonl) {
    std::fputs(capture::JsonlReport(frames).c_str(), stdout);
  }
  const bool did_something =
      !out_path.empty() || !pcap_path.empty() || hash_only || jsonl;
  if (report || !did_something) {
    std::fputs(capture::TextReport(frames, opts).c_str(), stdout);
  }
  return 0;
}
