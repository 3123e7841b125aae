// hotlint CLI: walks the given paths (relative to --root), builds the
// whole-program function model, propagates hotness from `// hotlint: hot`
// roots, and prints every finding. The scanned file set *is* the program — run
// it over all directories the hot path traverses.
//
//   hotlint --root /path/to/repo src/bus src/router src/sim src/wire ...
//
// Flags:
//   --explain   after each finding, dump the full root->site call chain
//   --dot       print the Graphviz call graph (hot nodes filled) and exit
//   --list-hot  print the annotated hot roots and exit
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "src/hotlint/hotlint.h"

namespace fs = std::filesystem;

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  std::vector<std::string> targets;
  bool explain = false;
  bool dot = false;
  bool list_hot = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--dot") {
      dot = true;
    } else if (arg == "--list-hot") {
      list_hot = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: hotlint [--root DIR] [--explain|--dot|--list-hot] PATH...\n";
      return 0;
    } else {
      targets.push_back(arg);
    }
  }
  if (targets.empty()) {
    std::cerr << "hotlint: no paths given (try: hotlint --root REPO src/bus src/wire)\n";
    return 2;
  }

  std::vector<ibus::lintcore::SourceFile> sources;
  if (!ibus::lintcore::LoadSources("hotlint", root, targets, &sources)) {
    return 2;
  }

  ibus::hotlint::Program program = ibus::hotlint::BuildProgram(sources);
  if (dot) {
    std::cout << ibus::hotlint::DotGraph(program);
    return 0;
  }
  if (list_hot) {
    for (const std::string& r : ibus::hotlint::HotRoots(program)) {
      std::cout << r << "\n";
    }
    return 0;
  }

  std::vector<ibus::hotlint::Diagnostic> findings = ibus::hotlint::Analyze(program);
  for (const auto& d : findings) {
    std::cout << d.ToString() << "\n";
    if (d.chain.size() > 1) {
      if (explain) {
        std::cout << "    hot path:\n";
        for (size_t i = 0; i < d.chain.size(); ++i) {
          std::cout << (i == 0 ? "      " : "      -> ") << d.chain[i] << "\n";
        }
      } else {
        std::cout << "    (transitively hot; rerun with --explain for the chain)\n";
      }
    }
  }
  if (!findings.empty()) {
    std::cout << "hotlint: " << findings.size() << " finding(s) in " << sources.size()
              << " file(s)\n";
    return 1;
  }
  std::cout << "hotlint: clean (" << sources.size() << " files, "
            << program.functions.size() << " functions, "
            << ibus::hotlint::HotRoots(program).size() << " hot roots)\n";
  return 0;
}
