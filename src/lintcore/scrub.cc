// lintcore scrubber and annotation grammar.
#include <algorithm>
#include <sstream>

#include "src/lintcore/lintcore.h"

namespace ibus::lintcore {
namespace {

// End of the directive whose '#' is at `i`: the first newline not preceded by
// a backslash, or the end of the source.
size_t DirectiveEnd(std::string_view src, size_t i) {
  while (true) {
    size_t end = src.find('\n', i);
    if (end == std::string_view::npos) {
      return src.size();
    }
    if (end == i || src[end - 1] != '\\') {
      return end;
    }
    i = end + 1;
  }
}

}  // namespace

std::string Diagnostic::ToString() const {
  std::string where = file + ":" + std::to_string(line) + ":";
  if (col > 0) {
    where += std::to_string(col) + ":";
  }
  return where + " [" + rule + "] " + message;
}

int Scrubbed::LineOf(size_t offset) const {
  auto it = std::upper_bound(line_starts.begin(), line_starts.end(), offset);
  return static_cast<int>(it - line_starts.begin());
}

int Scrubbed::ColOf(size_t offset) const {
  int line = LineOf(offset);
  return static_cast<int>(offset - line_starts[static_cast<size_t>(line) - 1]) + 1;
}

void Scrubbed::BlankDirectives() {
  for (const auto& [begin, end] : directives) {
    for (size_t j = begin; j < end; ++j) {
      if (code[j] != '\n') {
        code[j] = ' ';
      }
    }
  }
  comments.erase(std::remove_if(comments.begin(), comments.end(),
                                [&](const Comment& c) {
                                  return std::any_of(
                                      directives.begin(), directives.end(),
                                      [&](const std::pair<size_t, size_t>& d) {
                                        return c.offset >= d.first && c.offset < d.second;
                                      });
                                }),
                 comments.end());
}

Scrubbed Scrub(std::string_view src) {
  Scrubbed out;
  out.code.assign(src.size(), ' ');
  out.line_starts.push_back(0);
  size_t i = 0;
  bool at_line_start = true;  // only whitespace seen since the last newline
  auto copy_nl = [&](size_t pos) {
    out.code[pos] = '\n';
    out.line_starts.push_back(pos + 1);
    at_line_start = true;
  };
  while (i < src.size()) {
    char c = src[i];
    if (c == '\n') {
      copy_nl(i);
      ++i;
      continue;
    }
    if (at_line_start && c == '#' &&
        (out.directives.empty() || i >= out.directives.back().second)) {
      out.directives.emplace_back(i, DirectiveEnd(src, i));
    }
    if (std::isspace(static_cast<unsigned char>(c)) == 0) {
      at_line_start = false;
    }
    if (c == '/' && i + 1 < src.size() && src[i + 1] == '/') {
      size_t end = src.find('\n', i);
      if (end == std::string_view::npos) {
        end = src.size();
      }
      out.comments.push_back({static_cast<int>(out.line_starts.size()), i,
                              std::string(src.substr(i, end - i))});
      i = end;  // newline handled by the main loop
      continue;
    }
    if (c == '/' && i + 1 < src.size() && src[i + 1] == '*') {
      size_t end = src.find("*/", i + 2);
      end = end == std::string_view::npos ? src.size() : end + 2;
      for (size_t j = i; j < end; ++j) {
        if (src[j] == '\n') {
          copy_nl(j);
        }
      }
      i = end;
      continue;
    }
    if (c == '"' || c == '\'') {
      // Raw strings: R"delim( ... )delim".
      if (c == '"' && i > 0 && src[i - 1] == 'R') {
        size_t paren = src.find('(', i);
        if (paren != std::string_view::npos) {
          std::string closer = ")" + std::string(src.substr(i + 1, paren - i - 1)) + "\"";
          size_t end = src.find(closer, paren + 1);
          if (end != std::string_view::npos) {
            out.code[i] = '"';
            out.literals[i] = std::string(src.substr(paren + 1, end - paren - 1));
            out.raw_literals.insert(i);
            size_t close_q = end + closer.size() - 1;
            out.code[close_q] = '"';
            for (size_t j = i; j < close_q; ++j) {
              if (src[j] == '\n') {
                copy_nl(j);
              }
            }
            i = close_q + 1;
            continue;
          }
        }
      }
      char quote = c;
      size_t start = i;
      ++i;
      std::string content;
      while (i < src.size() && src[i] != quote) {
        if (src[i] == '\\' && i + 1 < src.size()) {
          if (src[i + 1] == '\n') {
            copy_nl(i + 1);  // a continued literal still starts a new line
          }
          content.append(src.substr(i, 2));
          i += 2;
          continue;
        }
        if (src[i] == '\n') {  // unterminated literal; bail at line end
          break;
        }
        content.push_back(src[i]);
        ++i;
      }
      out.code[start] = quote;
      if (i < src.size() && src[i] == quote) {
        out.code[i] = quote;
        ++i;
      }
      if (quote == '"') {
        out.literals[start] = std::move(content);
      }
      continue;
    }
    out.code[i] = c;
    ++i;
  }
  return out;
}

std::vector<Annotation> Annotations(const Scrubbed& s, std::string_view tool) {
  const std::string tag = std::string(tool) + ":";
  std::vector<Annotation> out;
  for (const Comment& comment : s.comments) {
    std::string_view text = comment.text;
    size_t at = text.find(tag);
    if (at == std::string_view::npos) {
      continue;
    }
    std::string_view rest = text.substr(SkipSpace(text, at + tag.size()));
    Annotation a;
    a.line = comment.line;
    size_t dash = rest.find("--");
    if (dash != std::string_view::npos) {
      a.justified = rest.substr(dash + 2).find_first_not_of(" \t") != std::string_view::npos;
    }
    size_t e = 0;
    while (e < rest.size() && IsIdentChar(rest[e])) {
      ++e;
    }
    a.verb = std::string(rest.substr(0, e));
    size_t close = rest.find(')');
    if (e < rest.size() && rest[e] == '(' && close != std::string_view::npos) {
      a.has_args = true;
      a.args = std::string(rest.substr(e + 1, close - e - 1));
    }
    if (a.IsAllow()) {
      std::stringstream ss(a.args);
      std::string rule;
      while (std::getline(ss, rule, ',')) {
        rule.erase(std::remove_if(rule.begin(), rule.end(),
                                  [](char c) {
                                    return std::isspace(static_cast<unsigned char>(c)) != 0;
                                  }),
                   rule.end());
        if (!rule.empty()) {
          a.rules.insert(rule);
        }
      }
    }
    out.push_back(std::move(a));
  }
  return out;
}

bool AllowMap::Allowed(int line, std::string_view rule) const {
  auto it = lines.find(line);
  return it != lines.end() &&
         (it->second.count(std::string(rule)) > 0 || it->second.count("all") > 0);
}

AllowMap BuildAllowMap(const std::vector<Annotation>& annotations,
                       bool require_justification) {
  AllowMap allows;
  for (const Annotation& a : annotations) {
    if (a.IsAllow() && (a.justified || !require_justification)) {
      allows.lines[a.line].insert(a.rules.begin(), a.rules.end());
    }
  }
  return allows;
}

}  // namespace ibus::lintcore
