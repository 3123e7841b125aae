// lintcore source loader: the `--root DIR PATH...` convention of the analyzer CLIs.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>

#include "src/lintcore/lintcore.h"

namespace ibus::lintcore {

namespace fs = std::filesystem;

bool IsCppSource(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp" || ext == ".hpp";
}

bool ReadFile(const fs::path& p, std::string* out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

bool LoadSources(std::string_view tool, const fs::path& root,
                 const std::vector<std::string>& paths, std::vector<SourceFile>* out) {
  std::vector<fs::path> files;
  for (const std::string& t : paths) {
    fs::path p = root / t;
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      for (const auto& entry : fs::recursive_directory_iterator(p, ec)) {
        if (entry.is_regular_file() && IsCppSource(entry.path())) {
          files.push_back(entry.path());
        }
      }
    } else if (fs::is_regular_file(p, ec)) {
      files.push_back(p);
    } else {
      std::cerr << tool << ": no such path: " << p.string() << "\n";
      return false;
    }
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& f : files) {
    SourceFile source{fs::relative(f, root).generic_string(), ""};
    if (!ReadFile(f, &source.content)) {
      std::cerr << tool << ": cannot read " << f.string() << "\n";
      return false;
    }
    out->push_back(std::move(source));
  }
  return true;
}

}  // namespace ibus::lintcore
