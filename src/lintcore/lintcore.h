// lintcore: the text front end shared by buslint, hotlint and wirecheck.
//
// Pure text analysis, no compiler and no dependencies beyond the standard
// library. Each analyzer keeps only its rules and its own annotation verbs;
// everything below exists once:
//
//   - the scrubber: comments and literal contents blanked with offsets and
//     lines kept, literal contents recorded by their opening quote, `//`
//     comments recorded, preprocessor directive ranges recorded;
//   - the annotation grammar `<tool>: verb(args) [-- why]` and the per-line
//     allow map built from it;
//   - the token helpers, the declaration-head classifier and the scope-stack
//     walk that yields every function definition;
//   - one diagnostic type, one source-file type, the `--root` + PATH loader;
//   - the table of nondeterminism primitives.
#ifndef SRC_LINTCORE_LINTCORE_H_
#define SRC_LINTCORE_LINTCORE_H_

#include <cctype>
#include <cstddef>
#include <filesystem>
#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace ibus::lintcore {

struct SourceFile {
  std::string path;     // repo-relative, e.g. "src/bus/daemon.cc"
  std::string content;  // raw bytes of the file
};

// One reported problem. `chain` is an optional root-to-site call path (hotlint).
struct Diagnostic {
  std::string file;
  int line = 0;
  int col = 0;  // 1-based; 0 for analyzers that report lines only (buslint)
  std::string rule;
  std::string message;
  std::vector<std::string> chain;

  Diagnostic() = default;
  Diagnostic(std::string file, int line, int col, std::string rule, std::string message,
             std::vector<std::string> chain = {})
      : file(std::move(file)),
        line(line),
        col(col),
        rule(std::move(rule)),
        message(std::move(message)),
        chain(std::move(chain)) {}

  // "src/bus/daemon.cc:120:7: [rule] msg", or "file:120: [rule] msg" when col is 0.
  std::string ToString() const;
};

// ---------------------------------------------------------------------------------
// Scrubber
// ---------------------------------------------------------------------------------

struct Comment {
  int line = 0;
  size_t offset = 0;  // of the leading "//"
  std::string text;   // "//" up to (not including) the newline
};

// Source text with comments and literal *contents* blanked (newlines kept, so
// offsets and line numbers survive). Literals keep their quotes in `code`.
// Preprocessor lines stay in `code` until BlankDirectives() is called.
struct Scrubbed {
  std::string code;
  std::vector<size_t> line_starts;  // offset of the first char of each line
  // Offset of the opening '"' -> raw characters between the quotes.
  std::unordered_map<size_t, std::string> literals;
  // Opening-quote offsets of raw strings: their contents carry no C++ escapes.
  std::unordered_set<size_t> raw_literals;
  std::vector<Comment> comments;
  // [offset of '#', offset of the terminating newline) of each directive,
  // backslash continuations included.
  std::vector<std::pair<size_t, size_t>> directives;

  int LineOf(size_t offset) const;
  int ColOf(size_t offset) const;

  // Blanks every directive in `code` and drops the comments on directive
  // lines, so `#if` alternatives and macro bodies cannot unbalance braces.
  void BlankDirectives();
};

Scrubbed Scrub(std::string_view src);

// ---------------------------------------------------------------------------------
// Annotation grammar: `<tool>: verb(args) [-- why]` in a `//` comment
// ---------------------------------------------------------------------------------

struct Annotation {
  int line = 0;
  std::string verb;       // identifier after "<tool>:" ("allow", "hot", "codec", ...)
  bool has_args = false;  // the verb is directly followed by a closed "(...)"
  std::string args;       // text between the parens
  std::set<std::string> rules;  // allow(...): args split on ',', whitespace removed
  bool justified = false;       // a non-blank "-- why" follows the tag

  bool IsAllow() const { return verb == "allow" && has_args; }
};

// Every `<tool>:` annotation in the file's `//` comments, in source order.
std::vector<Annotation> Annotations(const Scrubbed& s, std::string_view tool);

// line -> rules allowed on that line ("all" allows every rule).
struct AllowMap {
  std::unordered_map<int, std::set<std::string>> lines;

  bool Allowed(int line, std::string_view rule) const;
};

// Collects the allow(...) annotations. With `require_justification`, an allow
// without `-- why` suppresses nothing.
AllowMap BuildAllowMap(const std::vector<Annotation>& annotations,
                       bool require_justification);

// ---------------------------------------------------------------------------------
// Token helpers (over scrubbed code)
// ---------------------------------------------------------------------------------

inline bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

size_t SkipSpace(std::string_view s, size_t i);
// Offset of the previous non-space char before `i`, or npos.
size_t PrevMeaningful(std::string_view s, size_t i);
// Offset just past the close matching the opener at `open`, or npos.
size_t MatchPair(std::string_view s, size_t open, char oc, char cc);
inline size_t MatchParen(std::string_view s, size_t open) { return MatchPair(s, open, '(', ')'); }
inline size_t MatchBrace(std::string_view s, size_t open) { return MatchPair(s, open, '{', '}'); }
inline size_t MatchBracket(std::string_view s, size_t open) {
  return MatchPair(s, open, '[', ']');
}
// Offset just past the '>' matching the '<' at `open`, or npos. Bails on chars
// that cannot occur inside template arguments (a lone '<' was a comparison).
size_t MatchAngle(std::string_view s, size_t open);
// Number of top-level arguments inside the '(' at `open` (0 for empty parens).
size_t CountArgs(std::string_view code, size_t open, size_t past);
// Keywords and operators that look like calls but never name a function.
const std::unordered_set<std::string_view>& ControlKeywords();

// Yields every identifier token in [begin, end) as (offset, text).
template <typename Fn>
void ForEachIdentifier(std::string_view code, size_t begin, size_t end, Fn&& fn) {
  size_t i = begin;
  while (i < end) {
    if (IsIdentChar(code[i]) && (i == 0 || !IsIdentChar(code[i - 1])) &&
        std::isdigit(static_cast<unsigned char>(code[i])) == 0) {
      size_t j = i;
      while (j < end && IsIdentChar(code[j])) {
        ++j;
      }
      fn(i, code.substr(i, j - i));
      i = j;
      continue;
    }
    ++i;
  }
}

struct ParamDecl {
  std::string text;
  std::string name;  // last identifier, or empty
  size_t off = 0;    // offset of the first token
  bool has_default = false;
  bool is_pack = false;  // parameter pack / C varargs
};

// Splits the parameter list [begin, end) at its top-level commas.
std::vector<ParamDecl> SplitParams(std::string_view code, size_t begin, size_t end);

// ---------------------------------------------------------------------------------
// Declarations and the function walk
// ---------------------------------------------------------------------------------

struct HeadInfo {
  enum Kind { kOther, kNamespace, kClass, kFunction } kind = kOther;
  std::string name;            // scope name, or unqualified function name
  size_t name_off = 0;         // function name token offset
  std::vector<std::string> qualifiers;  // explicit A::B:: chain before the name
  size_t params_begin = 0;     // inside the '(' ... ')' group
  size_t params_end = 0;
  size_t return_begin = 0;     // [return_begin, return_end): return-type text
  size_t return_end = 0;
  size_t tail_begin = 0;       // [tail_begin, '{'): qualifiers / ctor-init list
};

// Classifies the declaration head [begin, end) that ends at a '{'.
HeadInfo ClassifyHead(std::string_view code, size_t begin, size_t end);

struct FunctionDef {
  HeadInfo head;
  std::string qualified_name;  // enclosing classes + explicit qualifiers + name
  size_t open = 0;             // offset of the body's '{'
  size_t body_end = 0;         // offset of the matching '}' (code size if unbalanced)
  int first_line = 0;          // line of the return type (or the name)
  int open_line = 0;           // line of the '{'
};

// Forward scope-stack walk over (directive-blanked) code: calls `fn` for each
// function definition in source order. Bodies are not descended into.
void ForEachFunction(const Scrubbed& s, const std::function<void(const FunctionDef&)>& fn);

// ---------------------------------------------------------------------------------
// Nondeterminism primitives
// ---------------------------------------------------------------------------------

enum class Nondet {
  kNone,
  kAlways,      // wall clocks, PRNG engines, the environment
  kWhenCalled,  // common words (rand, time, clock): only a call counts
};
Nondet NondetPrimitive(std::string_view ident);

// ---------------------------------------------------------------------------------
// Source loader
// ---------------------------------------------------------------------------------

bool ReadFile(const std::filesystem::path& p, std::string* out);
// .h/.cc/.cpp/.hpp: what the analyzers scan when a PATH is a directory.
bool IsCppSource(const std::filesystem::path& p);

// Reads every C++ source under each PATH (relative to `root`; directories
// recurse), sorted by path, with repo-relative names. On a missing path or an
// unreadable file prints "<tool>: ..." to stderr and returns false.
bool LoadSources(std::string_view tool, const std::filesystem::path& root,
                 const std::vector<std::string>& paths, std::vector<SourceFile>* out);

}  // namespace ibus::lintcore

#endif  // SRC_LINTCORE_LINTCORE_H_
