// hotlint model builder: scrubs each source file with lintcore (directives
// blanked), walks its function definitions, and extracts the per-function
// callee list and conservative effect set that analyze.cc turns into findings.
// Pure text analysis — no libclang, no preprocessor; the scanned file set *is*
// the program.
#include <algorithm>
#include <cctype>
#include <set>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "src/hotlint/hotlint.h"

namespace ibus::hotlint {
namespace {

using namespace ibus::lintcore;  // NOLINT(google-build-using-namespace)

// ---------------------------------------------------------------------------------
// Effect + callee extraction
// ---------------------------------------------------------------------------------

const std::unordered_set<std::string_view>& GrowthMethods() {
  static const std::unordered_set<std::string_view> kSet = {
      "push_back", "emplace_back", "push_front", "emplace_front",
      "insert",    "emplace",      "resize",     "append",
  };
  return kSet;
}

const std::unordered_set<std::string_view>& IostreamIdents() {
  static const std::unordered_set<std::string_view> kSet = {
      "cout",  "cerr",   "clog",          "printf",        "fprintf",
      "sprintf", "snprintf", "vsnprintf", "puts",          "putchar",
      "ostringstream", "istringstream",   "stringstream",  "endl",
      "format", "scanf",  "getline",      "IBUS_LOG",      "IBUS_WARN",
      "IBUS_INFO", "IBUS_ERROR", "IBUS_DEBUG",
  };
  return kSet;
}

const std::unordered_set<std::string_view>& LockIdents() {
  static const std::unordered_set<std::string_view> kSet = {
      "mutex", "lock_guard", "unique_lock", "scoped_lock", "shared_lock",
      "condition_variable", "shared_mutex", "recursive_mutex",
  };
  return kSet;
}

// Identifiers that look like calls but never resolve to repo functions worth an
// edge; keeps the callee lists small.
const std::unordered_set<std::string_view>& UninterestingCallees() {
  static const std::unordered_set<std::string_view> kSet = {
      "move",  "forward", "swap",  "get",   "value", "begin", "end",
      "size",  "empty",   "data",  "front", "back",  "reset", "release",
      "count", "find",    "at",    "min",   "max",   "ok",
  };
  return kSet;
}

// Walks back over a receiver chain (`frame->payload`, `flows_`, `a.b.c`) from
// the offset of the '.' / '->' that precedes a method name. Spaces stripped.
std::string ReceiverChain(std::string_view code, size_t dot_off) {
  size_t i = dot_off;
  while (i > 0) {
    char c = code[i - 1];
    if (IsIdentChar(c) || c == '.' || c == '_' || c == ':' ||
        std::isspace(static_cast<unsigned char>(c)) != 0 ||
        (c == '>' && i >= 2 && code[i - 2] == '-') || c == '-') {
      --i;
      if (c == '>' ) {
        --i;  // consumed '->' as a pair
      }
      continue;
    }
    break;
  }
  std::string out;
  for (size_t j = i; j <= dot_off; ++j) {
    if (std::isspace(static_cast<unsigned char>(code[j])) == 0) {
      out.push_back(code[j]);
    }
  }
  return out;
}

// True when the identifier at [off, off+len) is a method call receiver-ed with
// '.' or '->'; fills `dot_off` with the offset of the '.' / '>' char.
bool MethodContext(std::string_view code, size_t off, size_t* dot_off) {
  size_t prev = PrevMeaningful(code, off);
  if (prev == std::string_view::npos) {
    return false;
  }
  if (code[prev] == '.') {
    *dot_off = prev;
    return true;
  }
  if (code[prev] == '>' && prev >= 1 && code[prev - 1] == '-') {
    *dot_off = prev;
    return true;
  }
  return false;
}

// True if the body contains `move ( name )` (std::move'd sink parameter).
bool IsMovedInBody(std::string_view code, size_t begin, size_t end,
                   std::string_view name) {
  size_t i = begin;
  while (i < end) {
    size_t at = code.find("move", i);
    if (at == std::string_view::npos || at + 4 > end) {
      return false;
    }
    i = at + 4;
    if (at > 0 && IsIdentChar(code[at - 1])) {
      continue;
    }
    size_t p = SkipSpace(code, at + 4);
    if (p >= end || code[p] != '(') {
      continue;
    }
    p = SkipSpace(code, p + 1);
    if (p + name.size() > end || code.substr(p, name.size()) != name) {
      continue;
    }
    size_t q = SkipSpace(code, p + name.size());
    if (q < end && code[q] == ')') {
      return true;
    }
  }
  return false;
}

// Copy-expensive types the by-value rule watches for, as exact token matches
// (so `string_view` does not count as `string`).
const std::unordered_set<std::string_view>& ValueTypes() {
  static const std::unordered_set<std::string_view> kSet = {
      "string", "Bytes", "vector", "map", "unordered_map",
      "set",    "unordered_set", "multimap", "deque", "list",
  };
  return kSet;
}

// First ValueTypes() token in [begin, end), or empty. Keyword/qualifier tokens
// never collide with the type set.
std::string FindValueType(std::string_view code, size_t begin, size_t end) {
  std::string hit;
  ForEachIdentifier(code, begin, end, [&](size_t, std::string_view tok) {
    if (hit.empty() && ValueTypes().count(tok) > 0) {
      hit = std::string(tok);
    }
  });
  return hit;
}

bool ContainsChar(std::string_view code, size_t begin, size_t end, char c) {
  for (size_t i = begin; i < end; ++i) {
    if (code[i] == c) {
      return true;
    }
  }
  return false;
}

struct FileContext {
  const std::string* path = nullptr;
  const Scrubbed* scrubbed = nullptr;
  const AllowMap* allows = nullptr;
  const std::set<std::string>* ptr_keyed_containers = nullptr;
};

void AddEffect(const FileContext& ctx, Function* fn, const char* rule, size_t off,
               std::string detail) {
  int line = ctx.scrubbed->LineOf(off);
  if (ctx.allows->Allowed(line, rule)) {
    return;
  }
  fn->effects.push_back({rule, line, ctx.scrubbed->ColOf(off), std::move(detail)});
}

// Scans one body (or ctor-init-list) range for callees and direct effects.
void ScanBody(const FileContext& ctx, size_t begin, size_t end, Function* fn) {
  std::string_view code = ctx.scrubbed->code;

  // Receivers that were reserve()d anywhere in this function: growth on them is
  // the preallocation idiom, not a finding.
  std::set<std::string> reserved;
  ForEachIdentifier(code, begin, end, [&](size_t off, std::string_view ident) {
    if (ident != "reserve") {
      return;
    }
    size_t dot = 0;
    if (MethodContext(code, off, &dot)) {
      reserved.insert(ReceiverChain(code, dot));
    }
  });

  std::set<std::string> seen_callees;
  ForEachIdentifier(code, begin, end, [&](size_t off, std::string_view ident) {
    size_t after = SkipSpace(code, off + ident.size());
    bool direct_call = after < end && code[after] == '(';
    bool templated_call = false;
    if (!direct_call && after < end && code[after] == '<') {
      size_t past = MatchAngle(code, after);
      if (past != std::string_view::npos && past <= end) {
        size_t p = SkipSpace(code, past);
        templated_call = p < end && code[p] == '(';
      }
    }
    bool is_call = direct_call || templated_call;

    // --- effects ---
    if (ident == "new") {
      size_t prev = PrevMeaningful(code, off);
      // `= delete`-style noise cannot appear with `new`; placement new is rare
      // enough to count as allocation until proven otherwise.
      if (prev == std::string_view::npos || code[prev] != '.') {
        AddEffect(ctx, fn, kRuleAlloc, off, "'new' expression");
      }
      return;
    }
    if (ident == "make_unique" || ident == "make_shared") {
      if (is_call) {
        AddEffect(ctx, fn, kRuleAlloc, off, "'" + std::string(ident) + "' call");
      }
      return;
    }
    size_t dot = 0;
    if (GrowthMethods().count(ident) > 0 && is_call && MethodContext(code, off, &dot)) {
      std::string recv = ReceiverChain(code, dot);
      if (reserved.count(recv) == 0) {
        AddEffect(ctx, fn, kRuleContainerGrowth, off,
                  "'" + recv + std::string(ident) +
                      "' grows a container with no prior reserve()");
      }
      // growth methods are methods on std containers, not repo functions
      return;
    }
    if (ident == "to_string" && is_call) {
      // (substr is deliberately absent: string_view::substr is free and the
      // scanner cannot see receiver types.)
      AddEffect(ctx, fn, kRuleString, off,
                "'" + std::string(ident) + "' constructs a std::string");
      return;
    }
    if (ident == "string" && direct_call) {
      AddEffect(ctx, fn, kRuleString, off, "std::string construction");
      return;
    }
    if (ident == "function" && after < end && code[after] == '<') {
      AddEffect(ctx, fn, kRuleStdFunction, off, "std::function construction");
      return;
    }
    if (IostreamIdents().count(ident) > 0) {
      AddEffect(ctx, fn, kRuleIostream, off,
                "'" + std::string(ident) + "' formats/streams on the hot path");
      return;
    }
    if (LockIdents().count(ident) > 0 ||
        ((ident == "lock" || ident == "unlock" || ident == "try_lock") && is_call &&
         MethodContext(code, off, &dot))) {
      AddEffect(ctx, fn, kRuleLock, off, "'" + std::string(ident) + "' locks");
      return;
    }
    Nondet nondet = NondetPrimitive(ident);
    if (nondet == Nondet::kAlways || (nondet == Nondet::kWhenCalled && is_call)) {
      AddEffect(ctx, fn, kRuleNondet, off,
                "'" + std::string(ident) + "' is nondeterministic");
      return;
    }

    // --- range-for over a pointer-keyed unordered container ---
    if (ident == "for" && direct_call) {
      size_t past = MatchParen(code, after);
      if (past != std::string_view::npos && past <= end) {
        int angle = 0;
        for (size_t j = after + 1; j + 1 < past; ++j) {
          char c = code[j];
          if (c == '<') {
            ++angle;
          } else if (c == '>') {
            angle = angle > 0 ? angle - 1 : 0;
          } else if (c == ':' && angle == 0 && code[j - 1] != ':' && code[j + 1] != ':') {
            // Last identifier of the ranged expression.
            std::string last;
            ForEachIdentifier(code, j + 1, past - 1, [&](size_t, std::string_view t) {
              last = std::string(t);
            });
            if (!last.empty() && ctx.ptr_keyed_containers->count(last) > 0) {
              AddEffect(ctx, fn, kRuleNondet, off,
                        "range-for over pointer-keyed unordered container '" + last +
                            "' iterates in address order");
            }
            break;
          }
        }
      }
      return;
    }

    // --- callees ---
    if (!is_call || ControlKeywords().count(ident) > 0 ||
        UninterestingCallees().count(ident) > 0 || ident == "reserve") {
      return;
    }
    CallSite site;
    site.name = std::string(ident);
    site.line = ctx.scrubbed->LineOf(off);
    site.col = ctx.scrubbed->ColOf(off);
    size_t args_open = direct_call ? after : SkipSpace(code, MatchAngle(code, after));
    size_t args_past = MatchParen(code, args_open);
    if (args_past != std::string_view::npos) {
      site.argc = CountArgs(code, args_open, args_past);
    }
    size_t recv_dot = 0;
    if (MethodContext(code, off, &recv_dot)) {
      std::string recv = ReceiverChain(code, recv_dot);
      site.object_receiver = recv != "this." && recv != "this->";
    }
    // Explicit qualifier chain: `Message::Unmarshal(`, `std::move(`.
    size_t qb = off;
    while (qb >= 2 && code[qb - 1] == ':' && code[qb - 2] == ':') {
      size_t q_end = qb - 2;
      size_t q_begin = q_end;
      while (q_begin > 0 && IsIdentChar(code[q_begin - 1])) {
        --q_begin;
      }
      if (q_begin == q_end) {
        break;
      }
      std::string part(code.substr(q_begin, q_end - q_begin));
      site.qualifier = site.qualifier.empty() ? part : part + "::" + site.qualifier;
      qb = q_begin;
    }
    std::string key = site.qualifier + "::" + site.name;
    if (seen_callees.insert(key).second) {
      fn->calls.push_back(std::move(site));
    }
  });

  // String-literal concatenation: `"..." + x` or `x + "..."`.
  for (size_t i = begin; i < end; ++i) {
    if (code[i] != '+') {
      continue;
    }
    if ((i + 1 < end && (code[i + 1] == '+' || code[i + 1] == '=')) ||
        (i > 0 && code[i - 1] == '+')) {
      continue;  // ++ / +=
    }
    size_t prev = PrevMeaningful(code, i);
    size_t next = SkipSpace(code, i + 1);
    bool lit = (prev != std::string_view::npos && code[prev] == '"') ||
               (next < end && code[next] == '"');
    if (lit) {
      AddEffect(ctx, fn, kRuleString, i, "string concatenation with a literal");
      i = next;
    }
  }
}

// Signature effects: by-value std::string/Bytes/container params + returns,
// by-value std::function params.
void ScanSignature(const FileContext& ctx, const HeadInfo& head, size_t body_begin,
                   size_t body_end, Function* fn) {
  std::string_view code = ctx.scrubbed->code;
  std::vector<ParamDecl> params = SplitParams(code, head.params_begin, head.params_end);
  for (const ParamDecl& p : params) {
    if (p.is_pack) {
      fn->max_params = SIZE_MAX;
    } else {
      if (!p.has_default) {
        ++fn->min_params;
      }
      if (fn->max_params != SIZE_MAX) {
        ++fn->max_params;
      }
    }
  }
  for (const ParamDecl& p : params) {
    size_t p_end = p.off + p.text.size();
    if (ContainsChar(code, p.off, p_end, '&') || ContainsChar(code, p.off, p_end, '*')) {
      continue;
    }
    bool is_function = false;
    ForEachIdentifier(code, p.off, p_end, [&](size_t, std::string_view tok) {
      if (tok == "function") {
        is_function = true;
      }
    });
    if (is_function) {
      AddEffect(ctx, fn, kRuleStdFunction, p.off,
                "by-value std::function parameter" +
                    (p.name.empty() ? std::string() : " '" + p.name + "'") +
                    " (converting a lambda allocates even when later moved)");
      continue;
    }
    std::string hit = FindValueType(code, p.off, p_end);
    if (hit.empty()) {
      continue;
    }
    if (!p.name.empty() && IsMovedInBody(code, body_begin, body_end, p.name)) {
      continue;  // sink parameter: moved, not copied
    }
    AddEffect(ctx, fn, kRuleByValue, p.off,
              "by-value " + hit + " parameter" +
                  (p.name.empty() ? std::string() : " '" + p.name + "'"));
  }
  if (head.return_end > head.return_begin &&
      !ContainsChar(code, head.return_begin, head.return_end, '&') &&
      !ContainsChar(code, head.return_begin, head.return_end, '*')) {
    std::string hit = FindValueType(code, head.return_begin, head.return_end);
    if (!hit.empty()) {
      AddEffect(ctx, fn, kRuleByValue, head.name_off,
                "returns a " + hit + " by value");
    }
  }
}

// ---------------------------------------------------------------------------------
// File parsing
// ---------------------------------------------------------------------------------

// hotlint's own verbs are `hot` and `cold`; `allow(...)` is lintcore's.
void ScanFile(const std::string& path, const Scrubbed& s,
              const std::vector<Annotation>& annotations, const AllowMap& allows,
              const std::set<std::string>& ptr_keyed, Program* out) {
  FileContext ctx{&path, &s, &allows, &ptr_keyed};
  std::string_view code = s.code;
  auto is_marker = [](const Annotation& a) { return a.verb == "hot" || a.verb == "cold"; };
  std::vector<bool> claimed(annotations.size(), false);

  ForEachFunction(s, [&](const FunctionDef& def) {
    const HeadInfo& head = def.head;
    Function fn;
    fn.name = head.name;
    fn.qualified_name = def.qualified_name;
    fn.file = path;
    fn.line = s.LineOf(head.name_off);
    fn.col = s.ColOf(head.name_off);

    // Attach hot/cold markers: signature lines or the line directly above.
    for (size_t mi = 0; mi < annotations.size(); ++mi) {
      const Annotation& a = annotations[mi];
      if (!is_marker(a) || claimed[mi] || a.line < def.first_line - 1 ||
          a.line > def.open_line) {
        continue;
      }
      claimed[mi] = true;
      if (a.verb == "hot") {
        fn.hot_root = true;
      } else if (a.justified) {
        fn.cold = true;
      } else {
        out->annotation_diagnostics.push_back(
            {path, a.line, 1, kRuleBadAnnotation,
             "'hotlint: cold' requires a '-- justification'"});
      }
    }
    for (int l = def.first_line - 1; l <= def.open_line; ++l) {
      auto it = allows.lines.find(l);
      if (it != allows.lines.end()) {
        fn.sig_allows.insert(it->second.begin(), it->second.end());
      }
    }
    if (fn.hot_root && fn.cold) {
      out->annotation_diagnostics.push_back(
          {path, fn.line, fn.col, kRuleBadAnnotation,
           "'" + fn.qualified_name + "' is marked both hot and cold"});
      fn.cold = false;
    }

    // The move-sink search covers the ctor-init list too (members are moved
    // there), hence tail_begin rather than the body brace.
    ScanSignature(ctx, head, head.tail_begin, def.body_end, &fn);
    // Ctor-init lists allocate too: scan [tail_begin, '{') together with the body.
    if (head.tail_begin < def.open) {
      size_t t = SkipSpace(code, head.tail_begin);
      if (t < def.open && code[t] == ':') {
        ScanBody(ctx, t + 1, def.open, &fn);
      }
    }
    ScanBody(ctx, def.open + 1, def.body_end, &fn);
    out->functions.push_back(std::move(fn));
  });

  // Annotation problems: unknown markers, unjustified allows, unclaimed hot/cold.
  for (size_t ai = 0; ai < annotations.size(); ++ai) {
    const Annotation& a = annotations[ai];
    if (a.IsAllow()) {
      if (!a.justified) {
        out->annotation_diagnostics.push_back(
            {path, a.line, 1, kRuleBadAnnotation,
             "hotlint: allow(...) requires a '-- justification'"});
      }
      for (const std::string& r : a.rules) {
        if (r != "all" && KnownRules().count(r) == 0) {
          out->annotation_diagnostics.push_back(
              {path, a.line, 1, kRuleBadAnnotation,
               "allow() names unknown rule '" + r + "'"});
        }
      }
    } else if (!is_marker(a)) {
      out->annotation_diagnostics.push_back(
          {path, a.line, 1, kRuleBadAnnotation,
           "unknown hotlint annotation '" + a.verb + "'"});
    } else if (!claimed[ai]) {
      out->annotation_diagnostics.push_back(
          {path, a.line, 1, kRuleBadAnnotation,
           "'hotlint: " + a.verb + "' does not attach to a function definition"});
    }
  }
}

// Names of unordered_map/unordered_set variables with pointer key types, across
// the whole program (members are declared in headers, iterated in .cc files).
void CollectPtrKeyedContainers(const Scrubbed& s, std::set<std::string>* out) {
  std::string_view code = s.code;
  ForEachIdentifier(code, 0, code.size(), [&](size_t off, std::string_view ident) {
    if (ident != "unordered_map" && ident != "unordered_set") {
      return;
    }
    size_t lt = SkipSpace(code, off + ident.size());
    if (lt >= code.size() || code[lt] != '<') {
      return;
    }
    size_t past = MatchAngle(code, lt);
    if (past == std::string_view::npos) {
      return;
    }
    // Key type = first top-level template argument.
    size_t key_end = past - 1;
    int depth = 0;
    for (size_t j = lt + 1; j < past - 1; ++j) {
      char c = code[j];
      if (c == '<') {
        ++depth;
      } else if (c == '>') {
        --depth;
      } else if (c == ',' && depth == 0) {
        key_end = j;
        break;
      }
    }
    if (!ContainsChar(code, lt + 1, key_end, '*')) {
      return;
    }
    // Declared variable name: identifier right after the closing '>'.
    size_t n = SkipSpace(code, past);
    size_t ne = n;
    while (ne < code.size() && IsIdentChar(code[ne])) {
      ++ne;
    }
    if (ne > n) {
      size_t after = SkipSpace(code, ne);
      if (after < code.size() &&
          (code[after] == ';' || code[after] == '=' || code[after] == '{')) {
        out->insert(std::string(code.substr(n, ne - n)));
      }
    }
  });
}

}  // namespace

const std::set<std::string>& KnownRules() {
  static const std::set<std::string> kRules = {
      kRuleAlloc,    kRuleContainerGrowth, kRuleString, kRuleByValue,
      kRuleStdFunction, kRuleIostream,     kRuleLock,   kRuleRecursion,
      kRuleNondet,
  };
  return kRules;
}

Program BuildProgram(const std::vector<SourceFile>& files) {
  Program out;
  std::vector<Scrubbed> scrubbed;
  scrubbed.reserve(files.size());
  std::set<std::string> ptr_keyed;
  for (const SourceFile& f : files) {
    scrubbed.push_back(Scrub(f.content));
    scrubbed.back().BlankDirectives();
    CollectPtrKeyedContainers(scrubbed.back(), &ptr_keyed);
  }
  for (size_t i = 0; i < files.size(); ++i) {
    std::vector<Annotation> annotations = Annotations(scrubbed[i], "hotlint");
    AllowMap allows = BuildAllowMap(annotations, /*require_justification=*/true);
    ScanFile(files[i].path, scrubbed[i], annotations, allows, ptr_keyed, &out);
  }
  return out;
}

}  // namespace ibus::hotlint
