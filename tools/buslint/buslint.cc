#include "tools/buslint/buslint.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <string>
#include <unordered_set>

#include "src/subject/subject.h"
#include "src/tdl/parser.h"

namespace ibus::buslint {
namespace {

using namespace ibus::lintcore;  // NOLINT(google-build-using-namespace)

// The rules read comments, literals and directive lines as written: buslint
// never blanks preprocessor lines, so macro bodies are linted and an allow on
// an `#include` line counts.
struct Source : Scrubbed {
  AllowMap allows;  // `buslint: allow(...)`; no justification needed

  bool Allowed(int line, const char* rule) const { return allows.Allowed(line, rule); }
};

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

// ---------------------------------------------------------------------------------
// Rule: nondeterminism
// ---------------------------------------------------------------------------------

bool PathIsDeterministicCore(const std::string& rel_path) {
  return StartsWith(rel_path, "src/sim/") || StartsWith(rel_path, "src/bus/") ||
         StartsWith(rel_path, "src/router/") || StartsWith(rel_path, "src/capture/") ||
         StartsWith(rel_path, "src/journal/") || StartsWith(rel_path, "src/prof/") ||
         StartsWith(rel_path, "src/scenario/") || StartsWith(rel_path, "src/telemetry/");
}

void CheckNondeterminism(const std::string& rel_path, const Source& s,
                         std::vector<Violation>* out) {
  if (!PathIsDeterministicCore(rel_path)) {
    return;
  }
  ForEachIdentifier(s.code, 0, s.code.size(), [&](size_t off, std::string_view ident) {
    Nondet kind = NondetPrimitive(ident);
    bool banned = kind == Nondet::kAlways;
    if (kind == Nondet::kWhenCalled) {
      size_t next = SkipSpace(s.code, off + ident.size());
      banned = next < s.code.size() && s.code[next] == '(';
    }
    if (!banned) {
      return;
    }
    int line = s.LineOf(off);
    if (s.Allowed(line, kRuleNondeterminism)) {
      return;
    }
    out->push_back({rel_path, line, 0, kRuleNondeterminism,
                    "'" + std::string(ident) +
                        "' in deterministic core (src/sim, src/bus, src/router, "
                        "src/capture, src/journal, src/prof must use Simulator time "
                        "and seeded ibus::Rng only)"});
  });
}

// ---------------------------------------------------------------------------------
// Rule: subject-literal
// ---------------------------------------------------------------------------------

void CheckSubjectLiterals(const std::string& rel_path, const Source& s,
                          std::vector<Violation>* out) {
  // API name -> true when the argument is a pattern (wildcards allowed).
  static const std::map<std::string_view, bool> kApis = {
      {"Publish", false},   {"PublishObject", false},
      {"Subscribe", true},  {"SubscribeObjects", true},
  };
  ForEachIdentifier(s.code, 0, s.code.size(), [&](size_t off, std::string_view ident) {
    auto api = kApis.find(ident);
    if (api == kApis.end()) {
      return;
    }
    size_t p = SkipSpace(s.code, off + ident.size());
    if (p >= s.code.size() || s.code[p] != '(') {
      return;
    }
    p = SkipSpace(s.code, p + 1);
    if (p >= s.code.size() || s.code[p] != '"') {
      return;  // first argument is not a string literal
    }
    auto lit = s.literals.find(p);
    if (lit == s.literals.end()) {
      return;
    }
    size_t close = s.code.find('"', p + 1);
    if (close == std::string::npos) {
      return;
    }
    size_t after = SkipSpace(s.code, close + 1);
    if (after >= s.code.size() || (s.code[after] != ',' && s.code[after] != ')')) {
      return;  // literal is only part of the argument expression ("a." + x)
    }
    int line = s.LineOf(off);
    if (s.Allowed(line, kRuleSubjectLiteral)) {
      return;
    }
    Status status = api->second ? ValidatePattern(lit->second) : ValidateSubject(lit->second);
    if (!status.ok()) {
      out->push_back({rel_path, line, 0, kRuleSubjectLiteral,
                      std::string(ident) + "(\"" + lit->second +
                          "\"): " + status.ToString()});
    }
  });
}

// ---------------------------------------------------------------------------------
// Rule: decode-pair (headers only)
// ---------------------------------------------------------------------------------

void CheckDecodePairs(const std::string& rel_path, const Source& s,
                      std::vector<Violation>* out) {
  if (rel_path.size() < 2 || rel_path.substr(rel_path.size() - 2) != ".h") {
    return;
  }
  std::set<std::string> idents;
  struct Encoder {
    size_t off;
    std::string name;
    std::string expected;
  };
  std::vector<Encoder> encoders;
  ForEachIdentifier(s.code, 0, s.code.size(), [&](size_t off, std::string_view ident) {
    idents.insert(std::string(ident));
    size_t next = SkipSpace(s.code, off + ident.size());
    if (next >= s.code.size() || s.code[next] != '(') {
      return;  // encoders are functions; ignore plain mentions
    }
    std::string expected;
    if (StartsWith(ident, "Marshal")) {
      expected = "Unmarshal" + std::string(ident.substr(7));
    } else if (StartsWith(ident, "Encode") &&
               (ident.size() == 6 || std::isupper(static_cast<unsigned char>(ident[6])) != 0)) {
      expected = "Decode" + std::string(ident.substr(6));
    } else if (ident == "ToWire") {
      expected = "FromWire";
    } else {
      return;
    }
    encoders.push_back({off, std::string(ident), std::move(expected)});
  });
  std::set<std::string> reported;
  for (const Encoder& e : encoders) {
    if (idents.count(e.expected) > 0 || !reported.insert(e.expected).second) {
      continue;
    }
    int line = s.LineOf(e.off);
    if (s.Allowed(line, kRuleDecodePair)) {
      continue;
    }
    out->push_back({rel_path, line, 0, kRuleDecodePair,
                    "encoder '" + e.name + "' has no matching '" + e.expected +
                        "' in this header"});
  }
}

// ---------------------------------------------------------------------------------
// Rule: decode-checked
// ---------------------------------------------------------------------------------

bool IsDecodeName(std::string_view ident) {
  auto prefixed = [&](std::string_view prefix) {
    return StartsWith(ident, prefix) &&
           (ident.size() == prefix.size() ||
            std::isupper(static_cast<unsigned char>(ident[prefix.size()])) != 0);
  };
  return prefixed("Unmarshal") || prefixed("Decode") || prefixed("Parse") ||
         ident == "FromWire";
}

void CheckDecodeChecked(const std::string& rel_path, const Source& s,
                        std::vector<Violation>* out) {
  ForEachIdentifier(s.code, 0, s.code.size(), [&](size_t off, std::string_view ident) {
    if (!IsDecodeName(ident)) {
      return;
    }
    size_t open = SkipSpace(s.code, off + ident.size());
    if (open >= s.code.size() || s.code[open] != '(') {
      return;
    }
    // Walk back over the receiver chain (Message::Unmarshal, msg.DecodeObject,
    // ptr->DecodeObject) to the start of the expression.
    size_t start = off;
    while (start > 0) {
      char c = s.code[start - 1];
      if (IsIdentChar(c) || c == '.' || c == ':' || c == '>' || c == '-') {
        --start;
      } else {
        break;
      }
    }
    size_t prev = PrevMeaningful(s.code, start);
    bool statement_start =
        prev == std::string::npos ||
        (s.code[prev] == ';' || s.code[prev] == '{' || s.code[prev] == '}');
    if (!statement_start) {
      return;  // assigned, returned, passed, or (void)-discarded
    }
    size_t end = MatchParen(s.code, open);
    if (end == std::string::npos) {
      return;
    }
    size_t after = SkipSpace(s.code, end);
    if (after >= s.code.size() || s.code[after] != ';') {
      return;  // result is used (.ok(), chained call, ...)
    }
    int line = s.LineOf(off);
    if (s.Allowed(line, kRuleDecodeChecked)) {
      return;
    }
    out->push_back({rel_path, line, 0, kRuleDecodeChecked,
                    "result of '" + std::string(ident) +
                        "' is discarded; check it or cast to (void)"});
  });
}

// ---------------------------------------------------------------------------------
// Rule: raw-new-delete
// ---------------------------------------------------------------------------------

void CheckRawNewDelete(const std::string& rel_path, const Source& s,
                       std::vector<Violation>* out) {
  ForEachIdentifier(s.code, 0, s.code.size(), [&](size_t off, std::string_view ident) {
    if (ident != "new" && ident != "delete") {
      return;
    }
    int line = s.LineOf(off);
    if (s.Allowed(line, kRuleRawNewDelete)) {
      return;
    }
    if (ident == "delete") {
      size_t prev = PrevMeaningful(s.code, off);
      if (prev != std::string::npos && s.code[prev] == '=') {
        return;  // deleted special member
      }
      out->push_back({rel_path, line, 0, kRuleRawNewDelete,
                      "raw 'delete'; use owning smart pointers"});
      return;
    }
    // `new` is allowed only inside the private-constructor factory idiom:
    // std::unique_ptr<T>(new T(...)), shared_ptr<T>(new T(...)), or a smart-pointer
    // alias wrapping it directly, e.g. ConnectionPtr(new Connection(...)).
    size_t stmt = off;
    while (stmt > 0 && s.code[stmt - 1] != ';' && s.code[stmt - 1] != '{' &&
           s.code[stmt - 1] != '}') {
      --stmt;
    }
    std::string_view stmt_text = std::string_view(s.code).substr(stmt, off - stmt);
    if (stmt_text.find("unique_ptr<") != std::string_view::npos ||
        stmt_text.find("shared_ptr<") != std::string_view::npos) {
      return;
    }
    size_t prev = PrevMeaningful(s.code, off);
    if (prev != std::string::npos && s.code[prev] == '(') {
      size_t id_end = prev;  // identifier directly wrapping the new-expression
      while (id_end > 0 && IsIdentChar(s.code[id_end - 1])) {
        --id_end;
      }
      std::string_view wrapper = std::string_view(s.code).substr(id_end, prev - id_end);
      if ((wrapper.size() >= 3 && wrapper.substr(wrapper.size() - 3) == "Ptr") ||
          (wrapper.size() >= 4 && wrapper.substr(wrapper.size() - 4) == "_ptr")) {
        return;
      }
    }
    out->push_back({rel_path, line, 0, kRuleRawNewDelete,
                    "raw 'new' outside the unique_ptr/shared_ptr factory idiom"});
  });
}

// ---------------------------------------------------------------------------------
// Rule: reserved-subject
// ---------------------------------------------------------------------------------

void CheckReservedSubjects(const std::string& rel_path, const Source& s,
                           std::vector<Violation>* out) {
  // The telemetry subsystem and the bus services define/use the reserved namespace;
  // everywhere else must spell it via the kReserved* constants in subject.h so the
  // namespace stays greppable and a rename stays a one-file change.
  if (StartsWith(rel_path, "src/telemetry/") || StartsWith(rel_path, "src/services/")) {
    return;
  }
  for (const auto& [off, content] : s.literals) {
    if (content != "_ibus" && !StartsWith(content, "_ibus.")) {  // buslint: allow(reserved-subject)
      continue;
    }
    int line = s.LineOf(off);
    if (s.Allowed(line, kRuleReservedSubject)) {
      continue;
    }
    out->push_back({rel_path, line, 0, kRuleReservedSubject,
                    "literal \"" + content +
                        "\" names the reserved bus-internal namespace; use the "
                        "kReserved* constants from src/subject/subject.h"});
  }
}

// ---------------------------------------------------------------------------------
// Rule: tdl-string
// ---------------------------------------------------------------------------------

// Interprets the C++ escape sequences the scrubbed literal map preserves
// verbatim. Raw-string contents carry no C++ escapes, so this is the identity
// for them (a lone backslash only appears there as TDL's own escape, which the
// TDL reader handles the same way).
std::string UnescapeCpp(std::string_view content) {
  std::string out;
  out.reserve(content.size());
  for (size_t i = 0; i < content.size(); ++i) {
    if (content[i] != '\\' || i + 1 >= content.size()) {
      out.push_back(content[i]);
      continue;
    }
    char esc = content[++i];
    switch (esc) {
      case 'n':
        out.push_back('\n');
        break;
      case 't':
        out.push_back('\t');
        break;
      case 'r':
        out.push_back('\r');
        break;
      case '0':
        out.push_back('\0');
        break;
      default:
        out.push_back(esc);  // \\ \" \' and anything exotic
        break;
    }
  }
  return out;
}

void CheckTdlStrings(const std::string& rel_path, const Source& s,
                     std::vector<Violation>* out) {
  // Entry points that hand a C++ string straight to the TDL reader.
  static const std::unordered_set<std::string_view> kApis = {
      "RunScript", "EvalProgram", "ParseTdl", "ParseTdlOne"};
  ForEachIdentifier(s.code, 0, s.code.size(), [&](size_t off, std::string_view ident) {
    if (kApis.count(ident) == 0) {
      return;
    }
    size_t p = SkipSpace(s.code, off + ident.size());
    if (p >= s.code.size() || s.code[p] != '(') {
      return;
    }
    p = SkipSpace(s.code, p + 1);
    if (p + 1 < s.code.size() && s.code[p] == 'R' && s.code[p + 1] == '"') {
      ++p;  // raw string: the literal map is keyed on the quote, not the R
    }
    if (p >= s.code.size() || s.code[p] != '"') {
      return;  // script is not a literal; nothing static to check
    }
    auto lit = s.literals.find(p);
    if (lit == s.literals.end()) {
      return;
    }
    size_t close = s.code.find('"', p + 1);
    if (close == std::string::npos) {
      return;
    }
    size_t after = SkipSpace(s.code, close + 1);
    if (after >= s.code.size() || (s.code[after] != ',' && s.code[after] != ')')) {
      return;  // literal is only part of the argument expression
    }
    int line = s.LineOf(off);
    if (s.Allowed(line, kRuleTdlString)) {
      return;
    }
    TdlParseError err;
    // Raw strings reach the TDL reader verbatim; only ordinary literals get
    // their C++ escapes folded first. Unescaping a raw literal would corrupt
    // scripts whose TDL strings carry their own backslash escapes.
    const std::string script =
        s.raw_literals.count(p) > 0 ? lit->second : UnescapeCpp(lit->second);
    auto parsed = ParseTdl(script, &err);
    if (!parsed.ok()) {
      out->push_back({rel_path, line, 0, kRuleTdlString,
                      "TDL literal passed to '" + std::string(ident) +
                          "' does not parse (script line " + std::to_string(err.line) + ":" +
                          std::to_string(err.col) + ": " + err.what + ")"});
    }
  });
}

}  // namespace

std::vector<Violation> LintSource(const std::string& rel_path, std::string_view content) {
  Source s{Scrub(content), {}};
  s.allows = BuildAllowMap(Annotations(s, "buslint"), /*require_justification=*/false);
  std::vector<Violation> out;
  CheckNondeterminism(rel_path, s, &out);
  CheckSubjectLiterals(rel_path, s, &out);
  CheckDecodePairs(rel_path, s, &out);
  CheckDecodeChecked(rel_path, s, &out);
  CheckRawNewDelete(rel_path, s, &out);
  CheckReservedSubjects(rel_path, s, &out);
  CheckTdlStrings(rel_path, s, &out);
  std::sort(out.begin(), out.end(), [](const Violation& a, const Violation& b) {
    return a.line != b.line ? a.line < b.line : a.rule < b.rule;
  });
  return out;
}

}  // namespace ibus::buslint
