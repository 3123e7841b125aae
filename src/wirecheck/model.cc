// wirecheck model builder: scrubs each source file with lintcore (directives
// blanked), walks its function definitions, parses every function body into a wire-op
// tree (loops -> repeat, if/else and switch -> branch/optional, error-check ifs
// skipped, local lambdas inlined), resolves cross-function calls (helpers are
// inlined, annotated codec functions become refs), normalizes the trees, and
// evaluates the text-level decode-safety rules while the body text is still in
// hand. Pure text analysis — no libclang; the scanned file set *is* the program.
#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/wirecheck/wirecheck.h"

namespace ibus::wirecheck {
namespace {

using namespace ibus::lintcore;  // NOLINT(google-build-using-namespace)

// ---------------------------------------------------------------------------------
// Annotations
// ---------------------------------------------------------------------------------

// A lintcore annotation read with wirecheck's verbs: codec(name, version=N),
// op(type) and allow(rules). Anything else (or a malformed codec) is kUnknown.
struct WireAnnotation {
  enum Kind { kCodec, kOp, kAllow, kUnknown } kind = kUnknown;
  int line = 0;
  std::string codec_name;  // kCodec
  int version = 0;         // kCodec
  std::string op_type;     // kOp
  std::set<std::string> rules;  // kAllow
  bool justified = false;       // has a non-empty `-- reason`
  std::string text;             // the verb, for diagnostics
};

// Maps the op() annotation argument (and schema field tokens) to a kind.
const std::map<std::string, Op::Kind>& PrimNames() {
  static const std::map<std::string, Op::Kind> kMap = {
      {"u8", Op::kU8},     {"u16", Op::kU16},   {"u32", Op::kU32},
      {"u64", Op::kU64},   {"i64", Op::kI64},   {"f64", Op::kF64},
      {"bool", Op::kBool}, {"varint", Op::kVarint}, {"string", Op::kString},
      {"bytes", Op::kBytes}, {"raw", Op::kRaw},
  };
  return kMap;
}

WireAnnotation Interpret(const Annotation& in) {
  WireAnnotation a;
  a.line = in.line;
  a.justified = in.justified;
  a.text = in.verb;
  if (!in.has_args) {
    return a;
  }
  auto strip = [](std::string v) {
    v.erase(std::remove_if(v.begin(), v.end(),
                           [](char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }),
            v.end());
    return v;
  };
  if (in.verb == "codec") {
    std::string_view inner = in.args;
    size_t comma = inner.find(',');
    if (comma == std::string_view::npos) {
      return a;
    }
    auto trim = [](std::string_view v) {
      size_t b = v.find_first_not_of(" \t");
      size_t e = v.find_last_not_of(" \t");
      return b == std::string_view::npos ? std::string_view()
                                         : v.substr(b, e - b + 1);
    };
    std::string_view name = trim(inner.substr(0, comma));
    std::string_view ver = trim(inner.substr(comma + 1));
    bool name_ok = !name.empty();
    for (char c : name) {
      name_ok = name_ok && (IsIdentChar(c) || c == '-');
    }
    bool ver_ok = ver.substr(0, 8) == "version=" && ver.size() > 8;
    int version = 0;
    if (ver_ok) {
      for (char c : ver.substr(8)) {
        if (std::isdigit(static_cast<unsigned char>(c)) == 0) {
          ver_ok = false;
          break;
        }
        version = version * 10 + (c - '0');
      }
    }
    if (name_ok && ver_ok) {
      a.kind = WireAnnotation::kCodec;
      a.codec_name = std::string(name);
      a.version = version;
    }
  } else if (in.verb == "op") {
    a.kind = WireAnnotation::kOp;
    a.op_type = strip(in.args);
  } else if (in.IsAllow()) {
    a.kind = WireAnnotation::kAllow;
    a.rules = in.rules;
  }
  return a;
}

// Method/free-call names that can never be a wire helper worth resolving;
// filtering them keeps the call lists (and resolution ambiguity) small.
const std::unordered_set<std::string_view>& NoiseNames() {
  static const std::unordered_set<std::string_view> kSet = {
      "ok",       "status",  "take",   "value",  "size",    "empty",  "begin",
      "end",      "data",    "c_str",  "push_back", "emplace_back", "reserve",
      "resize",   "clear",   "insert", "erase",  "find",    "count",  "at",
      "substr",   "append",  "assign", "move",   "forward", "swap",   "get",
      "reset",    "release", "str",    "min",    "max",     "front",  "back",
      "remaining", "AtEnd",  "emplace", "Need",  "abs",     "to_string",
  };
  return kSet;
}

// Counts parameters in [begin, end): min excludes defaulted ones, a pack or
// varargs widens max to "anything".
void CountParams(std::string_view code, size_t begin, size_t end, size_t* min_p,
                 size_t* max_p) {
  size_t total = 0;
  size_t defaulted = 0;
  bool pack = false;
  for (const ParamDecl& p : SplitParams(code, begin, end)) {
    ++total;
    defaulted += p.has_default ? 1 : 0;
    pack = pack || p.is_pack;
  }
  *min_p = total - defaulted;
  *max_p = pack ? static_cast<size_t>(-1) : total;
}

// ---------------------------------------------------------------------------------
// Per-function model
// ---------------------------------------------------------------------------------

// Pre-resolution op-tree node. kCall nodes are later inlined (helpers),
// replaced by kRef (annotated codecs), or dropped (no wire content).
struct PNode {
  enum Kind { kOp, kCall, kRepeat, kOptional, kBranch } kind = kOp;
  Op::Kind op = Op::kU8;
  bool is_read = false;
  std::string label;
  std::string count;
  std::string call_name;
  std::string call_qual;
  size_t argc = 0;
  int line = 0;
  int col = 0;
  std::vector<std::vector<PNode>> arms;
  std::vector<std::string> arm_labels;
};

struct ReadSite {
  std::string label;
  size_t off = 0;
  int line = 0;
  int col = 0;
  Op::Kind op = Op::kU8;
};

struct LoopSite {
  std::string count;   // normalized bound label ("" when not count-shaped)
  size_t header_off = 0;
  int line = 0;
  int col = 0;
};

struct FnInfo {
  std::string name;
  std::string qualified;
  std::string file;
  int file_index = 0;
  int line = 0;
  int col = 0;
  size_t body_begin = 0;
  size_t body_end = 0;
  size_t min_params = 0;
  size_t max_params = 0;
  bool saw_put = false;
  bool saw_read = false;
  std::vector<PNode> tree;
  bool annotated = false;
  std::string codec_name;
  int codec_version = 0;
  std::set<std::string> fn_allows;
  std::vector<ReadSite> reads;
  std::vector<LoopSite> loops;
};

const std::map<std::string_view, Op::Kind>& PutMap() {
  static const std::map<std::string_view, Op::Kind> kMap = {
      {"PutU8", Op::kU8},     {"PutU16", Op::kU16},   {"PutU32", Op::kU32},
      {"PutU64", Op::kU64},   {"PutI64", Op::kI64},   {"PutF64", Op::kF64},
      {"PutBool", Op::kBool}, {"PutVarint", Op::kVarint},
      {"PutString", Op::kString}, {"PutBytes", Op::kBytes}, {"PutRaw", Op::kRaw},
  };
  return kMap;
}

const std::map<std::string_view, Op::Kind>& ReadMap() {
  static const std::map<std::string_view, Op::Kind> kMap = {
      {"ReadU8", Op::kU8},     {"ReadU16", Op::kU16},   {"ReadU32", Op::kU32},
      {"ReadU64", Op::kU64},   {"ReadI64", Op::kI64},   {"ReadF64", Op::kF64},
      {"ReadBool", Op::kBool}, {"ReadVarint", Op::kVarint},
      {"ReadString", Op::kString}, {"ReadStringView", Op::kString},
      {"ReadBytes", Op::kBytes},   {"ReadRaw", Op::kRaw},
  };
  return kMap;
}

// Last identifier run in `text` ("*count" -> "count", "i + 1" -> "1").
std::string LastIdent(std::string_view text) {
  size_t end = text.size();
  while (end > 0 && !IsIdentChar(text[end - 1])) {
    --end;
  }
  size_t begin = end;
  while (begin > 0 && IsIdentChar(text[begin - 1])) {
    --begin;
  }
  return std::string(text.substr(begin, end - begin));
}

// Normalizes an encode argument / count expression into a short field label:
// casts stripped, ".size()" -> "_count", receiver chains reduced to the final
// member. Labels are informational — symmetry never compares them.
std::string NormalizeLabel(std::string_view text) {
  std::string t;
  for (char c : text) {
    if (std::isspace(static_cast<unsigned char>(c)) == 0) {
      t.push_back(c);
    }
  }
  for (int guard = 0; guard < 4; ++guard) {
    bool stripped = false;
    for (std::string_view cast :
         {std::string_view("static_cast<"), std::string_view("reinterpret_cast<"),
          std::string_view("const_cast<")}) {
      if (std::string_view(t).substr(0, cast.size()) == cast) {
        size_t open = t.find('(');
        if (open != std::string::npos) {
          size_t past = MatchParen(t, open);
          if (past != std::string::npos) {
            t = t.substr(open + 1, past - open - 2);
            stripped = true;
          }
        }
      }
    }
    if (!stripped) {
      break;
    }
  }
  size_t sz = t.find(".size()");
  if (sz != std::string::npos) {
    t = t.substr(0, sz) + "_count";
  }
  while (!t.empty() && (t.front() == '*' || t.front() == '&' || t.front() == '(')) {
    t.erase(t.begin());
  }
  while (!t.empty() && t.back() == ')') {
    t.pop_back();
  }
  // Reduce receiver chains: "msg.payload" / "this->hops_" -> final member.
  size_t dot = t.find_last_of('.');
  size_t arrow = t.rfind("->");
  size_t cut = std::string::npos;
  if (dot != std::string::npos) {
    cut = dot + 1;
  }
  if (arrow != std::string::npos && (cut == std::string::npos || arrow + 2 > cut)) {
    cut = arrow + 2;
  }
  if (cut != std::string::npos && cut < t.size()) {
    t = t.substr(cut);
  }
  // If operators remain ("seq&0x7f"), fall back to the last identifier run.
  bool pure = !t.empty();
  for (char c : t) {
    pure = pure && IsIdentChar(c);
  }
  if (!pure) {
    t = LastIdent(t);
  }
  return t;
}

// True when every `return` in [begin, end) is an error-shaped return: bare,
// false/nullopt, a known error constructor, or `<x>.status()`. Such ifs are
// pure error checks and carry no wire structure.
const std::unordered_set<std::string_view>& ErrorHeads() {
  static const std::unordered_set<std::string_view> kErrorHeads = {
      "DataLoss",       "Unimplemented", "FailedPrecondition", "InvalidArgument",
      "NotFound",       "Internal",      "Corruption",         "Status",
      "nullopt",        "false",
  };
  return kErrorHeads;
}

bool AllReturnsAreErrors(std::string_view code, size_t begin, size_t end) {
  const std::unordered_set<std::string_view>& kErrorHeads = ErrorHeads();
  size_t i = begin;
  bool any = false;
  while (i < end) {
    size_t at = code.find("return", i);
    if (at == std::string_view::npos || at >= end) {
      break;
    }
    i = at + 6;
    if ((at > 0 && IsIdentChar(code[at - 1])) || (i < end && IsIdentChar(code[i]))) {
      continue;
    }
    any = true;
    size_t semi = code.find(';', i);
    if (semi == std::string_view::npos || semi > end) {
      semi = end;
    }
    std::string_view expr = code.substr(i, semi - i);
    size_t b = SkipSpace(expr, 0);
    expr = expr.substr(b);
    if (expr.empty()) {
      continue;  // bare `return;`
    }
    if (expr.find(".status()") != std::string_view::npos) {
      continue;
    }
    size_t e = 0;
    while (e < expr.size() && (IsIdentChar(expr[e]) || expr[e] == ':')) {
      ++e;
    }
    std::string head(expr.substr(0, e));
    size_t colon = head.rfind(':');
    if (colon != std::string::npos) {
      head = head.substr(colon + 1);
    }
    if (kErrorHeads.count(head) == 0) {
      return false;
    }
  }
  return any;
}

// ---------------------------------------------------------------------------------
// Body parsing
// ---------------------------------------------------------------------------------

class BodyParser {
 public:
  BodyParser(std::string_view code, const Scrubbed& s, FnInfo* fn)
      : code_(code), s_(s), fn_(fn) {}

  struct BlockResult {
    std::vector<PNode> nodes;
    bool terminated = false;
  };

  BlockResult ParseBlock(size_t begin, size_t end) {
    BlockResult out;
    size_t i = begin;
    while (true) {
      i = SkipSpace(code_, i);
      if (i >= end) {
        break;
      }
      char c = code_[i];
      if (c == '{') {
        size_t past = MatchBrace(code_, i);
        if (past == std::string_view::npos || past > end) {
          break;
        }
        BlockResult sub = ParseBlock(i + 1, past - 1);
        Append(&out.nodes, std::move(sub.nodes));
        i = past;
        continue;
      }
      if (c == '}' || c == ';') {
        ++i;
        continue;
      }
      if (!IsIdentChar(c)) {
        // Operator soup at statement level (e.g. `++i;`): treat as statement.
        size_t semi = StmtEnd(i, end);
        ExtractStmt(i, semi, &out.nodes);
        i = semi + 1;
        continue;
      }
      size_t tok_end = i;
      while (tok_end < end && IsIdentChar(code_[tok_end])) {
        ++tok_end;
      }
      std::string_view tok = code_.substr(i, tok_end - i);
      if (tok == "for" || tok == "while") {
        i = ParseLoop(i, tok_end, end, &out.nodes);
        continue;
      }
      if (tok == "do") {
        i = ParseDo(tok_end, end, &out.nodes);
        continue;
      }
      if (tok == "if") {
        bool split = false;
        std::vector<PNode> then_nodes;
        bool then_term = false;
        size_t next = ParseIf(i, end, &out.nodes, &split, &then_nodes, &then_term);
        if (split) {
          // `if (x) { ...; return ...; }` with wire content (or a value
          // return): everything after the if is the other arm.
          BlockResult rest = ParseBlock(next, end);
          PNode node;
          node.kind = PNode::kBranch;
          node.line = s_.LineOf(i);
          node.col = s_.ColOf(i);
          node.arms.push_back(std::move(then_nodes));
          node.arms.push_back(std::move(rest.nodes));
          node.arm_labels = {"", ""};
          out.nodes.push_back(std::move(node));
          out.terminated = then_term && rest.terminated;
          return out;
        }
        i = next;
        continue;
      }
      if (tok == "switch") {
        i = ParseSwitch(i, end, &out.nodes);
        continue;
      }
      if (tok == "return") {
        size_t semi = StmtEnd(tok_end, end);
        ExtractStmt(tok_end, semi, &out.nodes);
        out.terminated = true;
        i = semi + 1;
        continue;
      }
      if (tok == "break" || tok == "continue") {
        size_t semi = code_.find(';', tok_end);
        i = semi == std::string_view::npos || semi >= end ? end : semi + 1;
        continue;
      }
      if (tok == "else" || tok == "case" || tok == "default") {
        i = tok_end;  // stray; the enclosing construct handles these
        continue;
      }
      // Generic statement; check for a local lambda definition first.
      size_t semi = StmtEnd(i, end);
      if (TryLambda(i, semi, end, &i)) {
        continue;
      }
      ExtractStmt(i, semi, &out.nodes);
      i = semi + 1;
    }
    return out;
  }

 private:
  // First top-level ';' from i (parens/brackets/braces tracked), or `end`.
  size_t StmtEnd(size_t i, size_t end) {
    int paren = 0;
    int bracket = 0;
    int brace = 0;
    for (size_t j = i; j < end; ++j) {
      char c = code_[j];
      if (c == '(') {
        ++paren;
      } else if (c == ')') {
        --paren;
      } else if (c == '[') {
        ++bracket;
      } else if (c == ']') {
        --bracket;
      } else if (c == '{') {
        ++brace;
      } else if (c == '}') {
        --brace;
      } else if (c == ';' && paren == 0 && bracket == 0 && brace == 0) {
        return j;
      }
    }
    return end;
  }

  // `auto f = [..](..) { ... };` — parse the body into the local helper map.
  bool TryLambda(size_t i, size_t semi, size_t end, size_t* next) {
    int paren = 0;
    int bracket = 0;
    size_t eq = std::string_view::npos;
    for (size_t j = i; j < semi; ++j) {
      char c = code_[j];
      if (c == '(') {
        ++paren;
      } else if (c == ')') {
        --paren;
      } else if (c == '[') {
        ++bracket;
      } else if (c == ']') {
        --bracket;
      } else if (c == '=' && paren == 0 && bracket == 0 &&
                 (j + 1 >= semi || code_[j + 1] != '=') &&
                 (j == 0 || std::string_view("=!<>+-*/|&^%").find(code_[j - 1]) ==
                                std::string_view::npos)) {
        eq = j;
        break;
      }
    }
    if (eq == std::string_view::npos) {
      return false;
    }
    size_t open = SkipSpace(code_, eq + 1);
    if (open >= end || code_[open] != '[') {
      return false;
    }
    size_t past_cap = MatchBracket(code_, open);
    if (past_cap == std::string_view::npos || past_cap > end) {
      return false;
    }
    size_t j = SkipSpace(code_, past_cap);
    if (j < end && code_[j] == '(') {
      size_t past = MatchParen(code_, j);
      if (past == std::string_view::npos || past > end) {
        return false;
      }
      j = SkipSpace(code_, past);
    }
    // Skip `mutable`, `-> Ret` etc. up to the body brace.
    while (j < end && code_[j] != '{' && code_[j] != ';') {
      ++j;
    }
    if (j >= end || code_[j] != '{') {
      return false;
    }
    size_t past_body = MatchBrace(code_, j);
    if (past_body == std::string_view::npos || past_body > end) {
      return false;
    }
    std::string name = LastIdent(code_.substr(i, eq - i));
    BlockResult body = ParseBlock(j + 1, past_body - 1);
    if (!name.empty()) {
      lambdas_[name] = std::move(body.nodes);
    }
    size_t after = code_.find(';', past_body);
    *next = after == std::string_view::npos || after >= end ? end : after + 1;
    return true;
  }

  size_t ParseLoop(size_t kw_begin, size_t kw_end, size_t end,
                   std::vector<PNode>* out) {
    size_t open = SkipSpace(code_, kw_end);
    if (open >= end || code_[open] != '(') {
      return kw_end;
    }
    size_t past_cond = MatchParen(code_, open);
    if (past_cond == std::string_view::npos || past_cond > end) {
      return end;
    }
    std::string count = LoopCount(open + 1, past_cond - 1);
    // Range-for loops bound themselves by the container they iterate; only
    // counter-style headers can over-iterate on a hostile decoded count.
    bool counter_style = true;
    {
      int paren = 0;
      bool has_semi = false;
      for (size_t j = open + 1; j + 1 < past_cond; ++j) {
        char c = code_[j];
        if (c == '(') {
          ++paren;
        } else if (c == ')') {
          --paren;
        } else if (c == ';' && paren == 0) {
          has_semi = true;
        } else if (c == ':' && paren == 0 && !has_semi && code_[j - 1] != ':' &&
                   code_[j + 1] != ':') {
          counter_style = false;
          break;
        }
      }
    }
    size_t body_begin = SkipSpace(code_, past_cond);
    BlockResult body;
    size_t next;
    if (body_begin < end && code_[body_begin] == '{') {
      size_t past = MatchBrace(code_, body_begin);
      if (past == std::string_view::npos || past > end) {
        return end;
      }
      body = ParseBlock(body_begin + 1, past - 1);
      next = past;
    } else {
      size_t semi = StmtEnd(body_begin, end);
      body = ParseBlock(body_begin, semi);
      next = semi + 1;
    }
    if (!body.nodes.empty()) {
      PNode node;
      node.kind = PNode::kRepeat;
      node.count = count;
      node.line = s_.LineOf(kw_begin);
      node.col = s_.ColOf(kw_begin);
      node.arms.push_back(std::move(body.nodes));
      out->push_back(std::move(node));
      if (counter_style) {
        fn_->loops.push_back({count, kw_begin, s_.LineOf(kw_begin), s_.ColOf(kw_begin)});
      }
    }
    return next;
  }

  size_t ParseDo(size_t kw_end, size_t end, std::vector<PNode>* out) {
    size_t body_begin = SkipSpace(code_, kw_end);
    if (body_begin >= end || code_[body_begin] != '{') {
      return kw_end;
    }
    size_t past = MatchBrace(code_, body_begin);
    if (past == std::string_view::npos || past > end) {
      return end;
    }
    BlockResult body = ParseBlock(body_begin + 1, past - 1);
    if (!body.nodes.empty()) {
      PNode node;
      node.kind = PNode::kRepeat;
      node.line = s_.LineOf(body_begin);
      node.col = s_.ColOf(body_begin);
      node.arms.push_back(std::move(body.nodes));
      out->push_back(std::move(node));
    }
    size_t semi = code_.find(';', past);
    return semi == std::string_view::npos || semi >= end ? end : semi + 1;
  }

  // Normalized loop-bound label from a for/while header: the RHS of the first
  // top-level `<` / `<=` / `!=`, or the range-for sequence after ':'.
  std::string LoopCount(size_t begin, size_t end) {
    int paren = 0;
    int angle_guard = 0;
    size_t colon = std::string_view::npos;
    bool has_semi = false;
    size_t cond_begin = begin;
    size_t cond_end = end;
    for (size_t j = begin; j < end; ++j) {
      char c = code_[j];
      if (c == '(') {
        ++paren;
      } else if (c == ')') {
        --paren;
      } else if (c == ';' && paren == 0) {
        if (!has_semi) {
          has_semi = true;
          cond_begin = j + 1;
        } else {
          cond_end = j;
          break;
        }
      } else if (c == ':' && paren == 0 && colon == std::string_view::npos &&
                 (j == 0 || code_[j - 1] != ':') &&
                 (j + 1 >= end || code_[j + 1] != ':')) {
        colon = j;
      }
      (void)angle_guard;
    }
    if (!has_semi) {
      if (colon != std::string_view::npos) {
        return NormalizeLabel(code_.substr(colon + 1, end - colon - 1));
      }
      cond_begin = begin;
      cond_end = end;
    }
    for (size_t j = cond_begin; j + 1 < cond_end; ++j) {
      char c = code_[j];
      char n = code_[j + 1];
      if ((c == '<' && n != '<' && n != '=') || (c == '<' && n == '=') ||
          (c == '!' && n == '=')) {
        size_t rhs = c == '<' && n != '=' ? j + 1 : j + 2;
        return NormalizeLabel(code_.substr(rhs, cond_end - rhs));
      }
    }
    return "";
  }

  // Parses an if statement starting at `i` ("if" keyword). Appends any
  // resulting node to `out`, or signals a control-flow split to the caller.
  size_t ParseIf(size_t i, size_t end, std::vector<PNode>* out, bool* split,
                 std::vector<PNode>* split_then, bool* split_term) {
    size_t open = code_.find('(', i);
    if (open == std::string_view::npos || open >= end) {
      return end;
    }
    size_t past_cond = MatchParen(code_, open);
    if (past_cond == std::string_view::npos || past_cond > end) {
      return end;
    }
    size_t then_begin = SkipSpace(code_, past_cond);
    BlockResult then_res;
    size_t then_src_begin = then_begin;
    size_t then_src_end = then_begin;
    size_t next;
    if (then_begin < end && code_[then_begin] == '{') {
      size_t past = MatchBrace(code_, then_begin);
      if (past == std::string_view::npos || past > end) {
        return end;
      }
      then_src_begin = then_begin + 1;
      then_src_end = past - 1;
      then_res = ParseBlock(then_src_begin, then_src_end);
      next = past;
    } else {
      size_t semi = StmtEnd(then_begin, end);
      then_src_end = semi;
      then_res = ParseBlock(then_begin, semi);
      if (code_.compare(then_begin, 6, "return") == 0 &&
          (then_begin + 6 >= end || !IsIdentChar(code_[then_begin + 6]))) {
        then_res.terminated = true;
      }
      next = semi < end ? semi + 1 : end;
    }

    // `else` / `else if` chain.
    size_t after = SkipSpace(code_, next);
    bool has_else = false;
    BlockResult else_res;
    if (after + 4 <= end && code_.compare(after, 4, "else") == 0 &&
        (after + 4 >= end || !IsIdentChar(code_[after + 4]))) {
      has_else = true;
      size_t eb = SkipSpace(code_, after + 4);
      if (eb + 2 <= end && code_.compare(eb, 2, "if") == 0 &&
          (eb + 2 >= end || !IsIdentChar(code_[eb + 2]))) {
        bool sub_split = false;
        std::vector<PNode> sub_then;
        bool sub_term = false;
        std::vector<PNode> chain;
        size_t sub_next = ParseIf(eb, end, &chain, &sub_split, &sub_then, &sub_term);
        if (sub_split) {
          // else-if arm with terminating wire content: fold into a plain arm.
          chain.clear();
          PNode node;
          node.kind = PNode::kBranch;
          node.arms.push_back(std::move(sub_then));
          node.arms.push_back({});
          node.arm_labels = {"", ""};
          chain.push_back(std::move(node));
        }
        else_res.nodes = std::move(chain);
        next = sub_next;
      } else if (eb < end && code_[eb] == '{') {
        size_t past = MatchBrace(code_, eb);
        if (past == std::string_view::npos || past > end) {
          return end;
        }
        else_res = ParseBlock(eb + 1, past - 1);
        next = past;
      } else {
        size_t semi = StmtEnd(eb, end);
        else_res = ParseBlock(eb, semi);
        if (code_.compare(eb, 6, "return") == 0) {
          else_res.terminated = true;
        }
        next = semi < end ? semi + 1 : end;
      }
    }

    bool then_ops = !then_res.nodes.empty();
    bool else_ops = !else_res.nodes.empty();
    if (has_else) {
      if (!then_ops && !else_ops) {
        return next;  // both arms pure checks
      }
      PNode node;
      node.kind = PNode::kBranch;
      node.line = s_.LineOf(i);
      node.col = s_.ColOf(i);
      node.arms.push_back(std::move(then_res.nodes));
      node.arms.push_back(std::move(else_res.nodes));
      node.arm_labels = {"", ""};
      out->push_back(std::move(node));
      return next;
    }
    if (then_ops) {
      if (then_res.terminated) {
        *split = true;
        *split_then = std::move(then_res.nodes);
        *split_term = true;
        return next;
      }
      PNode node;
      node.kind = PNode::kOptional;
      node.line = s_.LineOf(i);
      node.col = s_.ColOf(i);
      node.arms.push_back(std::move(then_res.nodes));
      out->push_back(std::move(node));
      return next;
    }
    if (then_res.terminated &&
        !AllReturnsAreErrors(code_, then_src_begin, then_src_end)) {
      // Op-free value return (`if (*marker == 0) return Value();`): the rest
      // of the function is conditionally absent on the wire.
      *split = true;
      split_then->clear();
      *split_term = true;
      return next;
    }
    return next;  // pure error check
  }

  size_t ParseSwitch(size_t i, size_t end, std::vector<PNode>* out) {
    size_t open = code_.find('(', i);
    if (open == std::string_view::npos || open >= end) {
      return end;
    }
    size_t past_cond = MatchParen(code_, open);
    if (past_cond == std::string_view::npos || past_cond > end) {
      return end;
    }
    size_t block = SkipSpace(code_, past_cond);
    if (block >= end || code_[block] != '{') {
      return past_cond;
    }
    size_t past_block = MatchBrace(code_, block);
    if (past_block == std::string_view::npos || past_block > end) {
      return end;
    }
    size_t b = block + 1;
    size_t e = past_block - 1;
    // Find top-level `case X:` / `default:` labels.
    struct Arm {
      std::string label;
      size_t begin = 0;
      size_t end = 0;
    };
    std::vector<Arm> arms;
    int depth = 0;
    size_t j = b;
    while (j < e) {
      char c = code_[j];
      if (c == '{') {
        ++depth;
        ++j;
        continue;
      }
      if (c == '}') {
        --depth;
        ++j;
        continue;
      }
      if (depth == 0 && IsIdentChar(c) && (j == b || !IsIdentChar(code_[j - 1]))) {
        size_t k = j;
        while (k < e && IsIdentChar(code_[k])) {
          ++k;
        }
        std::string_view tok = code_.substr(j, k - j);
        if (tok == "case" || tok == "default") {
          // Label text runs to the ':' (skipping '::').
          size_t le = k;
          while (le < e) {
            if (code_[le] == ':' && le + 1 < e && code_[le + 1] == ':') {
              le += 2;
              continue;
            }
            if (code_[le] == ':') {
              break;
            }
            ++le;
          }
          if (!arms.empty()) {
            arms.back().end = j;
          }
          Arm arm;
          arm.label = tok == "default" ? "default" : LastIdent(code_.substr(k, le - k));
          arm.begin = le < e ? le + 1 : e;
          arm.end = e;
          arms.push_back(arm);
          j = le + 1;
          continue;
        }
        j = k;
        continue;
      }
      ++j;
    }
    if (arms.empty()) {
      return past_block;
    }
    PNode node;
    node.kind = PNode::kBranch;
    node.line = s_.LineOf(i);
    node.col = s_.ColOf(i);
    bool any_ops = false;
    for (const Arm& arm : arms) {
      BlockResult res = ParseBlock(arm.begin, arm.end);
      any_ops = any_ops || !res.nodes.empty();
      node.arms.push_back(std::move(res.nodes));
      node.arm_labels.push_back(arm.label);
    }
    if (any_ops) {
      out->push_back(std::move(node));
    }
    return past_block;
  }

  // Statement-level op/call extraction.
  void ExtractStmt(size_t begin, size_t end, std::vector<PNode>* out) {
    std::string target = AssignTarget(begin, end);
    size_t i = begin;
    while (i < end) {
      if (!(IsIdentChar(code_[i]) && (i == 0 || !IsIdentChar(code_[i - 1])) &&
            std::isdigit(static_cast<unsigned char>(code_[i])) == 0)) {
        ++i;
        continue;
      }
      size_t j = i;
      while (j < end && IsIdentChar(code_[j])) {
        ++j;
      }
      std::string_view tok = code_.substr(i, j - i);
      size_t open = SkipSpace(code_, j);
      if (open >= end || code_[open] != '(' || ControlKeywords().count(tok) > 0) {
        i = j;
        continue;
      }
      size_t past = MatchParen(code_, open);
      if (past == std::string_view::npos || past > end + 1) {
        i = j;
        continue;
      }
      auto put_it = PutMap().find(tok);
      if (put_it != PutMap().end()) {
        PNode node;
        node.kind = PNode::kOp;
        node.op = put_it->second;
        node.label = NormalizeLabel(FirstArg(open, past));
        node.line = s_.LineOf(i);
        node.col = s_.ColOf(i);
        out->push_back(std::move(node));
        fn_->saw_put = true;
        i = open + 1;  // descend into args (nested puts impossible, calls are)
        continue;
      }
      auto read_it = ReadMap().find(tok);
      if (read_it != ReadMap().end()) {
        PNode node;
        node.kind = PNode::kOp;
        node.op = read_it->second;
        node.is_read = true;
        node.label = target;
        node.line = s_.LineOf(i);
        node.col = s_.ColOf(i);
        out->push_back(std::move(node));
        fn_->saw_read = true;
        fn_->reads.push_back({target, i, s_.LineOf(i), s_.ColOf(i), read_it->second});
        i = open + 1;
        continue;
      }
      if (NoiseNames().count(tok) > 0 || ErrorHeads().count(tok) > 0) {
        i = open + 1;  // error constructors carry no wire structure
        continue;
      }
      auto lam = lambdas_.find(std::string(tok));
      if (lam != lambdas_.end()) {
        Append(out, std::vector<PNode>(lam->second));
        i = open + 1;
        continue;
      }
      PNode node;
      node.kind = PNode::kCall;
      node.call_name = std::string(tok);
      node.argc = CountArgs(code_, open, past);
      node.line = s_.LineOf(i);
      node.col = s_.ColOf(i);
      // Explicit `X::f(...)` qualifier.
      size_t prev = PrevMeaningful(code_, i);
      if (prev != std::string_view::npos && prev >= 1 && code_[prev] == ':' &&
          code_[prev - 1] == ':') {
        size_t q_end = PrevMeaningful(code_, prev - 1);
        if (q_end != std::string_view::npos && IsIdentChar(code_[q_end])) {
          size_t q_begin = q_end + 1;
          while (q_begin > 0 && IsIdentChar(code_[q_begin - 1])) {
            --q_begin;
          }
          node.call_qual = std::string(code_.substr(q_begin, q_end + 1 - q_begin));
        }
      }
      out->push_back(std::move(node));
      i = open + 1;  // args may contain further calls
    }
  }

  // Identifier left of the first top-level '=' (skipping compound/comparison
  // operators and array suffixes): the Read* target name.
  std::string AssignTarget(size_t begin, size_t end) {
    int paren = 0;
    int bracket = 0;
    int brace = 0;
    for (size_t j = begin; j < end; ++j) {
      char c = code_[j];
      if (c == '(') {
        ++paren;
      } else if (c == ')') {
        --paren;
      } else if (c == '[') {
        ++bracket;
      } else if (c == ']') {
        --bracket;
      } else if (c == '{') {
        ++brace;
      } else if (c == '}') {
        --brace;
      } else if (c == '=' && paren == 0 && bracket == 0 && brace == 0) {
        if (j + 1 < end && code_[j + 1] == '=') {
          ++j;
          continue;
        }
        if (j > begin && std::string_view("=!<>+-*/|&^%").find(code_[j - 1]) !=
                             std::string_view::npos) {
          continue;
        }
        std::string_view lhs = code_.substr(begin, j - begin);
        size_t le = lhs.size();
        while (le > 0 && std::isspace(static_cast<unsigned char>(lhs[le - 1])) != 0) {
          --le;
        }
        if (le > 0 && lhs[le - 1] == ']') {
          size_t ob = lhs.rfind('[');
          if (ob != std::string_view::npos) {
            le = ob;
          }
        }
        return LastIdent(lhs.substr(0, le));
      }
    }
    return "";
  }

  std::string_view FirstArg(size_t open, size_t past) {
    int paren = 0;
    int angle = 0;
    int brace = 0;
    for (size_t j = open; j + 1 < past; ++j) {
      char c = code_[j];
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
      } else if (c == ',' && paren == 1 && angle == 0 && brace == 0) {
        return code_.substr(open + 1, j - open - 1);
      }
    }
    return code_.substr(open + 1, past - open - 2);
  }

  static void Append(std::vector<PNode>* out, std::vector<PNode>&& nodes) {
    for (PNode& n : nodes) {
      out->push_back(std::move(n));
    }
  }

  std::string_view code_;
  const Scrubbed& s_;
  FnInfo* fn_;
  std::map<std::string, std::vector<PNode>> lambdas_;
};

}  // namespace

const std::set<std::string>& KnownRules() {
  static const std::set<std::string> kRules = {
      kRuleSymmetry,     kRuleMissingPair,    kRuleVersionFirst,
      kRuleUncheckedCount, kRuleUnclampedAlloc, kRuleRawReadBound,
      kRuleTruncation,   kRuleTrailingBytes,  kRuleRecursion,
      kRuleUncheckedIndex,
  };
  return kRules;
}

std::string_view OpKindName(Op::Kind kind) {
  switch (kind) {
    case Op::kU8: return "u8";
    case Op::kU16: return "u16";
    case Op::kU32: return "u32";
    case Op::kU64: return "u64";
    case Op::kI64: return "i64";
    case Op::kF64: return "f64";
    case Op::kBool: return "bool";
    case Op::kVarint: return "varint";
    case Op::kString: return "string";
    case Op::kBytes: return "bytes";
    case Op::kRaw: return "raw";
    case Op::kRef: return "ref";
    case Op::kRepeat: return "repeat";
    case Op::kOptional: return "optional";
    case Op::kBranch: return "branch";
  }
  return "?";
}

}  // namespace ibus::wirecheck

// The rest of the pipeline (file scanning, call resolution, normalization,
// decode-safety rules, BuildProgram) shares the helpers above; single-TU
// include keeps them in one anonymous-namespace universe.
#include "src/wirecheck/build.inc"  // NOLINT(build/include)
