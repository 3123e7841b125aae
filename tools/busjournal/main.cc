// busjournal: offline inspector for write-ahead ledger devices (src/journal) — the
// fsck/debugfs companion to the in-process journal. It dumps ledger records as
// JSONL, verifies block integrity (magic, CRCs, LSN continuity, segment order)
// without touching the file, compacts retired history in place, or replays the
// daemon-crash demo scenario (src/scenario/journal_demo.cc) against a real ledger
// file.
//
//   busjournal --demo --out run.ledger     # crash/recovery demo onto a real file
//   busjournal --verify run.ledger         # read-only integrity report (exit 1 if dirty)
//   busjournal --dump run.ledger           # JSONL: one line per ledger record
//   busjournal --compact run.ledger        # drop fully-retired closed segments
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/journal/format.h"
#include "src/journal/journal.h"
#include "src/scenario/journal_demo.h"
#include "src/sim/stable_store.h"

using namespace ibus;  // NOLINT: tool brevity

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--demo [--seed N] [--out FILE] | --dump FILE | --verify FILE |\n"
      "           --compact FILE [--retire-below LSN])\n"
      "modes:\n"
      "  --demo            run the daemon-crash scenario against a real ledger file,\n"
      "                    print its trace, then self-verify the surviving device\n"
      "  --seed N          demo RNG seed (default 42)\n"
      "  --out FILE        demo ledger path (default busjournal_demo.ledger; replaced)\n"
      "  --dump FILE       JSONL: one line per record, then a summary line (read-only)\n"
      "  --verify FILE     integrity report; exit 0 only when the device is clean\n"
      "  --compact FILE    open, drop retired closed segments, rewrite the file\n"
      "  --retire-below N  compaction horizon (default: everything acked, i.e. next LSN)\n",
      argv0);
  return 2;
}

// A read-only image of a FileStableStore log: whole device records plus whether
// the file ended in a torn or corrupt tail.
struct DeviceImage {
  std::vector<Bytes> blocks;
  bool torn_tail = false;
};

// Reads the store's on-disk framing (u32 len | u32 crc32(payload) | payload,
// little-endian) directly. Deliberately NOT FileStableStore::Open: opening the
// store repairs damage by rewriting the file, and --dump/--verify must never
// modify what they inspect.
bool LoadDeviceImage(const std::string& path, DeviceImage* img) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "busjournal: cannot open %s\n", path.c_str());
    return false;
  }
  uint8_t header[8];
  while (true) {
    size_t got = std::fread(header, 1, sizeof header, f);
    if (got == 0) {
      break;
    }
    if (got < sizeof header) {
      img->torn_tail = true;
      break;
    }
    auto read_u32 = [](const uint8_t* p) {
      return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
             static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
    };
    uint32_t len = read_u32(header);
    uint32_t crc = read_u32(header + 4);
    if (len > 64u * 1024 * 1024) {
      img->torn_tail = true;
      break;
    }
    Bytes payload(len);
    if (len != 0 && std::fread(payload.data(), 1, len, f) < len) {
      img->torn_tail = true;
      break;
    }
    if (Crc32(payload) != crc) {
      img->torn_tail = true;
      break;
    }
    img->blocks.push_back(std::move(payload));
  }
  std::fclose(f);
  return true;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out;
}

// Printable-ASCII preview of a record payload, capped; everything else becomes '.'
// so the output needs no further JSON escaping.
std::string Preview(const Bytes& payload) {
  std::string out;
  for (size_t i = 0; i < payload.size() && i < 32; ++i) {
    char c = static_cast<char>(payload[i]);
    bool printable = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
                     (c >= 'A' && c <= 'Z') || c == ' ' || c == '.' || c == '_' || c == '-';
    out.push_back(printable ? c : '.');
  }
  if (payload.size() > 32) {
    out += "...";
  }
  return out;
}

int Dump(const std::string& path) {
  DeviceImage img;
  if (!LoadDeviceImage(path, &img)) {
    return 1;
  }
  size_t records = 0, valid_blocks = 0, invalid_tail = 0;
  for (size_t i = 0; i < img.blocks.size(); ++i) {
    journal::BlockHeader h;
    std::vector<journal::Record> recs;
    Status s = journal::DecodeBlock(img.blocks[i], &h, &recs);
    if (!s.ok()) {
      // Journal semantics: damage is a hard stop, the rest of the device is tail.
      std::printf("{\"block\": %zu, \"error\": \"%s\"}\n", i,
                  JsonEscape(s.message()).c_str());
      invalid_tail = img.blocks.size() - i;
      break;
    }
    ++valid_blocks;
    for (const journal::Record& r : recs) {
      std::printf("{\"lsn\": %llu, \"segment\": %u, \"len\": %zu, \"crc32\": %u, "
                  "\"preview\": \"%s\"}\n",
                  static_cast<unsigned long long>(r.lsn), r.segment, r.payload.size(),
                  Crc32(r.payload), Preview(r.payload).c_str());
      ++records;
    }
  }
  std::printf("{\"summary\": {\"blocks\": %zu, \"records\": %zu, "
              "\"invalid_tail_blocks\": %zu, \"device_torn_tail\": %s}}\n",
              valid_blocks, records, invalid_tail, img.torn_tail ? "true" : "false");
  return 0;
}

int Verify(const std::string& path) {
  DeviceImage img;
  if (!LoadDeviceImage(path, &img)) {
    return 1;
  }
  // Stage the image in a memory store so the shared verifier runs against the
  // file's exact contents without any chance of repairing it.
  MemoryStableStore staged;
  for (const Bytes& b : img.blocks) {
    (void)staged.Append(b);
  }
  journal::VerifyReport rep = journal::VerifyDevice(staged);
  if (img.torn_tail) {
    rep.problems.push_back("device framing: torn or corrupt record tail");
  }
  std::printf("%s\n", rep.ToString().c_str());
  return rep.clean() ? 0 : 1;
}

int Compact(const std::string& path, bool have_horizon, journal::Lsn horizon) {
  auto store = FileStableStore::Open(path);
  if (!store.ok()) {
    std::fprintf(stderr, "busjournal: %s\n", store.status().ToString().c_str());
    return 1;
  }
  auto j = journal::Journal::Open(store->get());
  if (!j.ok()) {
    std::fprintf(stderr, "busjournal: %s\n", j.status().ToString().c_str());
    return 1;
  }
  const size_t blocks_before = static_cast<size_t>((*store)->NextSeq());
  const journal::Lsn retire_below = have_horizon ? horizon : (*j)->next_lsn();
  Status s = (*j)->Compact(retire_below);
  if (!s.ok()) {
    std::fprintf(stderr, "busjournal: %s\n", s.ToString().c_str());
    return 1;
  }
  auto live = (*store)->ReadFrom(0);
  if (!live.ok()) {
    std::fprintf(stderr, "busjournal: %s\n", live.status().ToString().c_str());
    return 1;
  }
  const journal::Lsn first = (*j)->first_lsn();
  const journal::Lsn next = (*j)->next_lsn();
  j->reset();
  store->reset();  // close the handle before replacing the file

  // FileStableStore only trims logically; make the compaction physical by
  // rewriting the surviving blocks beside the log and swapping it in.
  const std::string tmp = path + ".compact.tmp";
  std::remove(tmp.c_str());
  {
    auto out = FileStableStore::Open(tmp);
    if (!out.ok()) {
      std::fprintf(stderr, "busjournal: %s\n", out.status().ToString().c_str());
      return 1;
    }
    for (const Bytes& b : *live) {
      auto seq = (*out)->Append(b);
      if (!seq.ok()) {
        std::fprintf(stderr, "busjournal: %s\n", seq.status().ToString().c_str());
        return 1;
      }
    }
    Status synced = (*out)->Sync();
    if (!synced.ok()) {
      std::fprintf(stderr, "busjournal: %s\n", synced.ToString().c_str());
      return 1;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::fprintf(stderr, "busjournal: cannot replace %s\n", path.c_str());
    return 1;
  }
  std::printf("busjournal: compacted %s below lsn %llu: blocks %zu -> %zu, lsn=[%llu,%llu)\n",
              path.c_str(), static_cast<unsigned long long>(retire_below), blocks_before,
              live->size(), static_cast<unsigned long long>(first),
              static_cast<unsigned long long>(next));
  return 0;
}

int Demo(uint64_t seed, const std::string& out_path) {
  std::remove(out_path.c_str());  // the scenario requires an empty device
  auto store = FileStableStore::Open(out_path);
  if (!store.ok()) {
    std::fprintf(stderr, "busjournal: %s\n", store.status().ToString().c_str());
    return 1;
  }
  std::vector<std::string> trace = scenario::RunDaemonCrashScenario(seed, store->get());
  for (const std::string& line : trace) {
    std::printf("%s\n", line.c_str());
  }
  if (!trace.empty() && trace.front().rfind("error:", 0) == 0) {
    std::fprintf(stderr, "busjournal: demo scenario failed\n");
    return 1;
  }
  journal::VerifyReport rep = journal::VerifyDevice(**store);
  std::printf("%s\n", rep.ToString().c_str());
  if (!rep.clean()) {
    std::fprintf(stderr, "busjournal: demo left a dirty device\n");
    return 1;
  }
  std::fprintf(stderr, "busjournal: wrote demo ledger to %s\n", out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool demo = false, have_horizon = false;
  uint64_t seed = 42;
  journal::Lsn horizon = 0;
  std::string dump_path, verify_path, compact_path;
  std::string out_path = "busjournal_demo.ledger";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--demo") == 0) {
      demo = true;
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--dump") == 0 && i + 1 < argc) {
      dump_path = argv[++i];
    } else if (std::strcmp(argv[i], "--verify") == 0 && i + 1 < argc) {
      verify_path = argv[++i];
    } else if (std::strcmp(argv[i], "--compact") == 0 && i + 1 < argc) {
      compact_path = argv[++i];
    } else if (std::strcmp(argv[i], "--retire-below") == 0 && i + 1 < argc) {
      have_horizon = true;
      horizon = std::strtoull(argv[++i], nullptr, 10);
    } else {
      return Usage(argv[0]);
    }
  }
  const int modes = (demo ? 1 : 0) + (dump_path.empty() ? 0 : 1) +
                    (verify_path.empty() ? 0 : 1) + (compact_path.empty() ? 0 : 1);
  if (modes != 1) {
    std::fprintf(stderr, "busjournal: pick exactly one mode\n");
    return Usage(argv[0]);
  }
  if (demo) {
    return Demo(seed, out_path);
  }
  if (!dump_path.empty()) {
    return Dump(dump_path);
  }
  if (!verify_path.empty()) {
    return Verify(verify_path);
  }
  return Compact(compact_path, have_horizon, horizon);
}
