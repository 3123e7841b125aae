// lintcore token helpers, declaration-head classification and the function walk.
#include "src/lintcore/lintcore.h"

namespace ibus::lintcore {

size_t SkipSpace(std::string_view s, size_t i) {
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i])) != 0) {
    ++i;
  }
  return i;
}

size_t PrevMeaningful(std::string_view s, size_t i) {
  while (i > 0) {
    --i;
    if (std::isspace(static_cast<unsigned char>(s[i])) == 0) {
      return i;
    }
  }
  return std::string_view::npos;
}

size_t MatchPair(std::string_view s, size_t open, char oc, char cc) {
  int depth = 0;
  for (size_t i = open; i < s.size(); ++i) {
    if (s[i] == oc) {
      ++depth;
    } else if (s[i] == cc) {
      if (--depth == 0) {
        return i + 1;
      }
    }
  }
  return std::string_view::npos;
}

size_t MatchAngle(std::string_view s, size_t open) {
  int depth = 0;
  for (size_t i = open; i < s.size(); ++i) {
    char c = s[i];
    if (c == '<') {
      ++depth;
    } else if (c == '>') {
      if (--depth == 0) {
        return i + 1;
      }
    } else if (c == ';' || c == '{' || c == '}') {
      return std::string_view::npos;
    }
  }
  return std::string_view::npos;
}

size_t CountArgs(std::string_view code, size_t open, size_t past) {
  size_t args = 0;
  int paren = 0;
  int angle = 0;
  int brace = 0;
  int bracket = 0;
  bool any = false;
  for (size_t i = open; i + 1 < past; ++i) {
    char c = code[i];
    if (c == '(') {
      ++paren;
      continue;
    }
    if (c == ')') {
      --paren;
      continue;
    }
    if (paren > 1) {
      continue;
    }
    if (c == '<') {
      ++angle;
    } else if (c == '>') {
      angle = angle > 0 ? angle - 1 : 0;
    } else if (c == '{') {
      ++brace;
    } else if (c == '}') {
      --brace;
    } else if (c == '[') {
      ++bracket;
    } else if (c == ']') {
      --bracket;
    } else if (c == ',' && angle == 0 && brace == 0 && bracket == 0) {
      ++args;
    } else if (std::isspace(static_cast<unsigned char>(c)) == 0) {
      any = true;
    }
  }
  return any ? args + 1 : 0;
}

const std::unordered_set<std::string_view>& ControlKeywords() {
  static const std::unordered_set<std::string_view> kSet = {
      "if",       "for",     "while",   "switch",   "catch",      "return",
      "sizeof",   "alignof", "decltype", "noexcept", "static_cast", "dynamic_cast",
      "const_cast", "reinterpret_cast", "new", "delete", "else", "do", "case",
      "requires", "co_await", "co_return", "co_yield", "throw", "assert",
      "static_assert", "defined", "alignas", "typeid",
  };
  return kSet;
}

std::vector<ParamDecl> SplitParams(std::string_view code, size_t begin, size_t end) {
  std::vector<ParamDecl> out;
  int paren = 0;
  int angle = 0;
  int brace = 0;
  size_t start = begin;
  auto flush = [&](size_t stop) {
    size_t s = SkipSpace(code, start);
    if (s >= stop) {
      return;
    }
    ParamDecl p;
    p.off = s;
    p.text = std::string(code.substr(s, stop - s));
    // Parameter name: the last identifier before any `= default` initializer.
    std::string_view t = code.substr(s, stop - s);
    size_t eq = std::string_view::npos;
    int pd = 0;
    int ad = 0;
    for (size_t j = 0; j < t.size(); ++j) {
      char c = t[j];
      if (c == '(') {
        ++pd;
      } else if (c == ')') {
        --pd;
      } else if (c == '<') {
        ++ad;
      } else if (c == '>') {
        ad = ad > 0 ? ad - 1 : 0;
      } else if (c == '=' && pd == 0 && ad == 0) {
        eq = j;
        break;
      }
    }
    p.has_default = eq != std::string_view::npos;
    p.is_pack = t.find("...") != std::string_view::npos;
    std::string_view decl = eq == std::string_view::npos ? t : t.substr(0, eq);
    size_t name_end = decl.size();
    while (name_end > 0 &&
           std::isspace(static_cast<unsigned char>(decl[name_end - 1])) != 0) {
      --name_end;
    }
    size_t name_begin = name_end;
    while (name_begin > 0 && IsIdentChar(decl[name_begin - 1])) {
      --name_begin;
    }
    if (name_end > name_begin && decl.back() != '>' && decl.back() != '&' &&
        decl.back() != '*') {
      p.name = std::string(decl.substr(name_begin, name_end - name_begin));
    }
    out.push_back(std::move(p));
  };
  for (size_t i = begin; i < end; ++i) {
    char c = code[i];
    if (c == '(') {
      ++paren;
    } else if (c == ')') {
      --paren;
    } else if (c == '<') {
      ++angle;
    } else if (c == '>') {
      angle = angle > 0 ? angle - 1 : 0;
    } else if (c == '{') {
      ++brace;
    } else if (c == '}') {
      --brace;
    } else if (c == ',' && paren == 0 && angle == 0 && brace == 0) {
      flush(i);
      start = i + 1;
    }
  }
  flush(end);
  return out;
}

HeadInfo ClassifyHead(std::string_view code, size_t begin, size_t end) {
  HeadInfo info;
  size_t i = SkipSpace(code, begin);
  // Skip template<...> introducers and [[attributes]].
  while (i < end) {
    if (code.compare(i, 8, "template") == 0 &&
        (i + 8 >= end || !IsIdentChar(code[i + 8]))) {
      size_t lt = SkipSpace(code, i + 8);
      if (lt < end && code[lt] == '<') {
        size_t past = MatchAngle(code, lt);
        if (past == std::string_view::npos || past > end) {
          return info;
        }
        i = SkipSpace(code, past);
        continue;
      }
    }
    if (code.compare(i, 2, "[[") == 0) {
      size_t close = code.find("]]", i + 2);
      if (close == std::string_view::npos || close >= end) {
        return info;
      }
      i = SkipSpace(code, close + 2);
      continue;
    }
    break;
  }
  if (i >= end) {
    return info;  // bare `{` — a plain block or an initializer
  }
  size_t head_begin = i;

  // Scope keywords before any top-level '(' make this a scope, not a function.
  static const std::unordered_set<std::string_view> kScopeKeywords = {
      "namespace", "class", "struct", "union", "enum"};
  int paren = 0;
  size_t scope_kw_at = std::string_view::npos;
  std::string scope_kw;
  size_t first_paren = std::string_view::npos;
  {
    size_t j = head_begin;
    int angle = 0;
    while (j < end) {
      char c = code[j];
      if (IsIdentChar(c) && (j == 0 || !IsIdentChar(code[j - 1]))) {
        size_t k = j;
        while (k < end && IsIdentChar(code[k])) {
          ++k;
        }
        std::string_view tok = code.substr(j, k - j);
        if (paren == 0 && angle == 0 && first_paren == std::string_view::npos &&
            kScopeKeywords.count(tok) > 0) {
          scope_kw_at = j;
          scope_kw = std::string(tok);
          break;
        }
        j = k;
        continue;
      }
      if (c == '<') {
        size_t past = MatchAngle(code, j);
        if (past != std::string_view::npos && past <= end) {
          j = past;
          continue;
        }
      }
      if (c == '(') {
        if (paren == 0 && angle == 0 && first_paren == std::string_view::npos) {
          first_paren = j;
        }
        ++paren;
      } else if (c == ')') {
        --paren;
      }
      ++j;
    }
  }

  if (scope_kw_at != std::string_view::npos) {
    if (scope_kw == "namespace") {
      info.kind = HeadInfo::kNamespace;
    } else if (scope_kw == "class" || scope_kw == "struct") {
      info.kind = HeadInfo::kClass;
    } else {
      info.kind = HeadInfo::kOther;  // enum/union: skip the body wholesale
      return info;
    }
    // Scope name: the identifier after the keyword (skipping attributes and,
    // for classes, stopping before bases `: public X`).
    size_t j = SkipSpace(code, scope_kw_at + scope_kw.size());
    while (j < end && code.compare(j, 2, "[[") == 0) {
      size_t close = code.find("]]", j);
      if (close == std::string_view::npos) {
        break;
      }
      j = SkipSpace(code, close + 2);
    }
    size_t k = j;
    while (k < end && IsIdentChar(code[k])) {
      ++k;
    }
    info.name = std::string(code.substr(j, k - j));  // may be empty (anonymous)
    return info;
  }

  if (first_paren == std::string_view::npos) {
    return info;  // no parameter list — initializer, lambda body, etc.
  }
  size_t params_past = MatchParen(code, first_paren);
  if (params_past == std::string_view::npos || params_past > end) {
    return info;
  }

  // The token directly before '(' must be the function name (identifier,
  // ~identifier destructor, or operator-something).
  size_t before = PrevMeaningful(code, first_paren);
  if (before == std::string_view::npos || before < head_begin) {
    return info;
  }
  size_t name_end = before + 1;
  size_t name_begin = name_end;
  if (IsIdentChar(code[before])) {
    while (name_begin > head_begin && IsIdentChar(code[name_begin - 1])) {
      --name_begin;
    }
  } else {
    // operator+ / operator== / operator() etc: symbols back to `operator`.
    size_t sym_begin = name_end;
    while (sym_begin > head_begin && !IsIdentChar(code[sym_begin - 1]) &&
           std::isspace(static_cast<unsigned char>(code[sym_begin - 1])) == 0) {
      --sym_begin;
    }
    size_t op_end = sym_begin;
    size_t op_begin = op_end;
    while (op_begin > head_begin && IsIdentChar(code[op_begin - 1])) {
      --op_begin;
    }
    if (code.substr(op_begin, op_end - op_begin) != "operator") {
      return info;
    }
    name_begin = op_begin;
  }
  std::string name(code.substr(name_begin, name_end - name_begin));
  if (name == "operator") {
    // `operator()` — the first paren group is part of the name; the parameter
    // list is the next group.
    size_t next = SkipSpace(code, params_past);
    if (next < end && code[next] == '(') {
      size_t past2 = MatchParen(code, next);
      if (past2 == std::string_view::npos || past2 > end) {
        return info;
      }
      name = "operator()";
      first_paren = next;
      params_past = past2;
    } else {
      name += std::string(code.substr(name_end, first_paren - name_end));
      while (!name.empty() && std::isspace(static_cast<unsigned char>(name.back())) != 0) {
        name.pop_back();
      }
    }
  }
  if (name.empty() || ControlKeywords().count(name) > 0) {
    return info;
  }
  // Destructor tilde.
  if (name_begin > head_begin) {
    size_t prev = PrevMeaningful(code, name_begin);
    if (prev != std::string_view::npos && prev >= head_begin && code[prev] == '~') {
      name = "~" + name;
      name_begin = prev;
    }
  }

  // Walk the explicit qualifier chain A::B:: backwards (skipping template args).
  size_t chain_begin = name_begin;
  std::vector<std::string> quals;
  while (true) {
    size_t prev = PrevMeaningful(code, chain_begin);
    if (prev == std::string_view::npos || prev < head_begin || prev < 1 ||
        code[prev] != ':' || code[prev - 1] != ':') {
      break;
    }
    size_t q_end_pos = PrevMeaningful(code, prev - 1);
    if (q_end_pos == std::string_view::npos || q_end_pos < head_begin) {
      break;
    }
    if (code[q_end_pos] == '>') {
      // Foo<T>::bar — scan back to the matching '<'.
      int depth = 0;
      size_t j = q_end_pos + 1;
      while (j > head_begin) {
        --j;
        if (code[j] == '>') {
          ++depth;
        } else if (code[j] == '<') {
          if (--depth == 0) {
            break;
          }
        }
      }
      q_end_pos = PrevMeaningful(code, j);
      if (q_end_pos == std::string_view::npos || q_end_pos < head_begin ||
          !IsIdentChar(code[q_end_pos])) {
        break;
      }
    }
    if (!IsIdentChar(code[q_end_pos])) {
      break;
    }
    size_t q_begin = q_end_pos + 1;
    while (q_begin > head_begin && IsIdentChar(code[q_begin - 1])) {
      --q_begin;
    }
    quals.insert(quals.begin(), std::string(code.substr(q_begin, q_end_pos + 1 - q_begin)));
    chain_begin = q_begin;
  }

  info.kind = HeadInfo::kFunction;
  info.name = std::move(name);
  info.name_off = name_begin;
  info.qualifiers = std::move(quals);
  info.params_begin = first_paren + 1;
  info.params_end = params_past - 1;
  info.return_begin = head_begin;
  info.return_end = chain_begin;
  info.tail_begin = params_past;
  return info;
}

void ForEachFunction(const Scrubbed& s, const std::function<void(const FunctionDef&)>& fn) {
  struct ScopeFrame {
    HeadInfo::Kind kind = HeadInfo::kOther;
    std::string name;
  };
  std::string_view code = s.code;
  std::vector<ScopeFrame> scopes;
  size_t i = 0;
  size_t head_start = 0;
  int paren_depth = 0;
  while (i < code.size()) {
    char c = code[i];
    if (c == '(') {
      ++paren_depth;
      ++i;
      continue;
    }
    if (c == ')') {
      paren_depth = paren_depth > 0 ? paren_depth - 1 : 0;
      ++i;
      continue;
    }
    if (paren_depth > 0) {
      ++i;
      continue;
    }
    if (c == ';') {
      head_start = i + 1;
      ++i;
      continue;
    }
    if (c == '}') {
      if (!scopes.empty()) {
        scopes.pop_back();
      }
      head_start = i + 1;
      ++i;
      continue;
    }
    if (c == ':') {
      if (i + 1 < code.size() && code[i + 1] == ':') {
        i += 2;
        continue;
      }
      // Access specifiers reset the head; ctor-init `:` must not.
      size_t prev = PrevMeaningful(code, i);
      if (prev != std::string_view::npos && IsIdentChar(code[prev])) {
        size_t b = prev + 1;
        while (b > 0 && IsIdentChar(code[b - 1])) {
          --b;
        }
        std::string_view word = code.substr(b, prev + 1 - b);
        if (word == "public" || word == "private" || word == "protected") {
          head_start = i + 1;
        }
      }
      ++i;
      continue;
    }
    if (c != '{') {
      ++i;
      continue;
    }

    FunctionDef def;
    def.head = ClassifyHead(code, head_start, i);
    const HeadInfo& head = def.head;
    if (head.kind != HeadInfo::kFunction) {
      bool scope = head.kind == HeadInfo::kNamespace || head.kind == HeadInfo::kClass;
      scopes.push_back({scope ? head.kind : HeadInfo::kOther, scope ? head.name : ""});
      head_start = i + 1;
      ++i;
      continue;
    }

    // Function body: match the closing brace.
    size_t past = MatchBrace(code, i);
    def.open = i;
    def.body_end = past == std::string_view::npos ? code.size() : past - 1;
    for (const ScopeFrame& sf : scopes) {
      if (sf.kind == HeadInfo::kClass && !sf.name.empty()) {
        def.qualified_name += sf.name + "::";
      }
    }
    for (const std::string& q : head.qualifiers) {
      def.qualified_name += q + "::";
    }
    def.qualified_name += head.name;
    def.first_line =
        s.LineOf(head.return_begin != head.return_end ? head.return_begin : head.name_off);
    def.open_line = s.LineOf(i);
    fn(def);

    i = def.body_end < code.size() ? def.body_end + 1 : code.size();
    head_start = i;
  }
}

Nondet NondetPrimitive(std::string_view ident) {
  static const std::unordered_set<std::string_view> kAlways = {
      "srand",         "rand_r",       "drand48",
      "random_device", "mt19937",      "mt19937_64",
      "minstd_rand",   "default_random_engine",
      "system_clock",  "steady_clock", "high_resolution_clock",
      "getenv",        "gettimeofday", "clock_gettime",
      "localtime",     "gmtime",
  };
  if (kAlways.count(ident) > 0) {
    return Nondet::kAlways;
  }
  if (ident == "rand" || ident == "time" || ident == "clock") {
    return Nondet::kWhenCalled;
  }
  return Nondet::kNone;
}

}  // namespace ibus::lintcore
