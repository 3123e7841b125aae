// wirecheck CLI: walks the given paths (relative to --root), builds the
// whole-program codec model from `// wirecheck: codec(...)` annotations,
// proves Encode/Decode symmetry, runs the decode-safety rules, and gates the
// golden schemas under --schemas DIR. The scanned file set *is* the program.
//
//   wirecheck --root /path/to/repo --schemas schemas src/wire src/bus ...
//
// Flags:
//   --schemas DIR   compare each codec against DIR/<codec>.wire; wire-safe
//                   drift asks for a regen, wire-breaking drift additionally
//                   demands a version bump.
//   --update        rewrite the goldens instead of failing on drift (only
//                   when the analysis itself is clean).
//   --list-codecs   print the annotated codec names and exit.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "src/wirecheck/wirecheck.h"

namespace fs = std::filesystem;

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  fs::path schemas_dir;
  bool update = false;
  bool list_codecs = false;
  std::vector<std::string> targets;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--schemas" && i + 1 < argc) {
      schemas_dir = argv[++i];
    } else if (arg == "--update") {
      update = true;
    } else if (arg == "--list-codecs") {
      list_codecs = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: wirecheck [--root DIR] [--schemas DIR] [--update] "
                   "[--list-codecs] PATH...\n";
      return 0;
    } else {
      targets.push_back(arg);
    }
  }
  if (targets.empty()) {
    std::cerr << "wirecheck: no paths given (try: wirecheck --root REPO "
                 "--schemas schemas src/wire src/bus)\n";
    return 2;
  }

  std::vector<ibus::lintcore::SourceFile> sources;
  if (!ibus::lintcore::LoadSources("wirecheck", root, targets, &sources)) {
    return 2;
  }

  ibus::wirecheck::Program program = ibus::wirecheck::BuildProgram(sources);
  if (list_codecs) {
    for (const std::string& name : ibus::wirecheck::CodecNames(program)) {
      std::cout << name << "\n";
    }
    return 0;
  }

  std::vector<ibus::wirecheck::Diagnostic> findings =
      ibus::wirecheck::Analyze(program);
  for (const auto& d : findings) {
    std::cout << d.ToString() << "\n";
  }

  int golden_failures = 0;
  int updated = 0;
  if (!schemas_dir.empty() && findings.empty()) {
    fs::path dir = schemas_dir.is_absolute() ? schemas_dir : root / schemas_dir;
    for (const ibus::wirecheck::Codec& codec : program.codecs) {
      std::string current = ibus::wirecheck::RenderSchema(codec);
      fs::path golden_path = dir / (codec.name + ".wire");
      std::string golden;
      if (!ibus::lintcore::ReadFile(golden_path, &golden)) {
        if (update) {
          fs::create_directories(dir);
          std::ofstream out(golden_path, std::ios::binary);
          out << current;
          ++updated;
          std::cout << "wirecheck: wrote " << golden_path.string() << "\n";
          continue;
        }
        std::cout << "wirecheck: [golden] no golden schema for codec '"
                  << codec.name << "' — run wirecheck --update to pin "
                  << golden_path.string() << "\n";
        ++golden_failures;
        continue;
      }
      ibus::wirecheck::SchemaDiff diff =
          ibus::wirecheck::DiffSchema(golden, current);
      if (diff.kind == ibus::wirecheck::SchemaDiff::kSame) {
        continue;
      }
      if (diff.kind == ibus::wirecheck::SchemaDiff::kWireBreaking &&
          diff.new_version <= diff.old_version) {
        std::cout << "wirecheck: [golden] WIRE-BREAKING change to codec '"
                  << codec.name << "' (" << diff.detail
                  << ") without a version bump (golden v" << diff.old_version
                  << ", current v" << diff.new_version
                  << ") — bump the codec version AND regenerate the golden\n";
        ++golden_failures;
        continue;
      }
      if (update) {
        std::ofstream out(golden_path, std::ios::binary);
        out << current;
        ++updated;
        std::cout << "wirecheck: updated " << golden_path.string() << "\n";
        continue;
      }
      std::cout << "wirecheck: [golden] "
                << (diff.kind == ibus::wirecheck::SchemaDiff::kWireBreaking
                        ? "wire-breaking"
                        : "wire-safe")
                << " drift on codec '" << codec.name << "' (" << diff.detail
                << ") — regenerate with wirecheck --update\n";
      ++golden_failures;
    }
  } else if (!schemas_dir.empty() && !findings.empty()) {
    std::cout << "wirecheck: skipping golden check until the findings above "
                 "are fixed\n";
  }

  if (!findings.empty() || golden_failures > 0) {
    std::cout << "wirecheck: " << findings.size() << " finding(s), "
              << golden_failures << " golden failure(s) across "
              << program.codecs.size() << " codec(s)\n";
    return 1;
  }
  std::cout << "wirecheck: clean (" << sources.size() << " files, "
            << program.codecs.size() << " codecs";
  if (updated > 0) {
    std::cout << ", " << updated << " golden(s) written";
  }
  std::cout << ")\n";
  return 0;
}
