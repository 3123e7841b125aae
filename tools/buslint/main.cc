// buslint CLI: walks the given paths (relative to --root), lints every C++ source,
// prints violations, and exits nonzero when any are found.
//
//   buslint --root /path/to/repo src bench examples
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "src/lintcore/lintcore.h"
#include "tools/buslint/buslint.h"

int main(int argc, char** argv) {
  std::filesystem::path root = std::filesystem::current_path();
  std::vector<std::string> targets;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: buslint [--root DIR] PATH...\n";
      return 0;
    } else {
      targets.push_back(arg);
    }
  }
  if (targets.empty()) {
    std::cerr << "buslint: no paths given (try: buslint --root REPO src bench examples)\n";
    return 2;
  }

  std::vector<ibus::lintcore::SourceFile> sources;
  if (!ibus::lintcore::LoadSources("buslint", root, targets, &sources)) {
    return 2;
  }

  size_t violations = 0;
  for (const auto& f : sources) {
    for (const auto& v : ibus::buslint::LintSource(f.path, f.content)) {
      std::cout << v.ToString() << "\n";
      ++violations;
    }
  }
  if (violations > 0) {
    std::cout << "buslint: " << violations << " violation(s) in " << sources.size()
              << " file(s)\n";
    return 1;
  }
  std::cout << "buslint: clean (" << sources.size() << " files)\n";
  return 0;
}
