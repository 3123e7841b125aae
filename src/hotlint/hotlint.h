// hotlint: a call-graph-aware hot-path analyzer for the Information Bus sources.
//
// The per-message forwarding path (publish -> daemon dispatch -> deliver, router
// forward, sim network transmit, wire encode/decode) is the part of the bus that
// ROADMAP items 1-2 make ~10^4x hotter. hotlint keeps that path disciplined the
// same way buslint keeps the deterministic core deterministic: a homegrown
// token scanner (no libclang) parses the tree into a lightweight per-function
// model, builds a whole-program call graph, propagates *hot* membership
// transitively from `// hotlint: hot` roots, and reports a diagnostic whenever a
// hot function — directly or through any callee chain — performs work that has
// no business on the per-message path.
//
// Rules (every one is reported at the offending site with file:line:col and the
// root->site call chain):
//
//   hot-alloc            — heap allocation: `new`, make_unique/make_shared.
//   hot-container-growth — push_back/emplace_back/insert/emplace/resize/append
//                          on a receiver with no prior reserve() in the same
//                          function (the preallocation idiom suppresses it).
//   hot-string           — std::string construction/concat: std::string(...),
//                          std::to_string, substr, string-literal operands of
//                          binary `+`.
//   hot-by-value         — by-value std::string / Bytes / vector / map / set
//                          parameters or returns on a hot function. A parameter
//                          that is std::move'd in the body is a sink and is not
//                          flagged.
//   hot-std-function     — std::function construction or a by-value
//                          std::function parameter (the conversion from a lambda
//                          allocates even when the parameter is later moved).
//   hot-iostream         — iostream/printf/format/logging on the hot path.
//   hot-lock             — mutex/lock_guard/unique_lock/scoped_lock/.lock().
//   hot-recursion        — the function sits on a call-graph cycle reachable
//                          from a hot root (unbounded recursion until proven
//                          otherwise; bounded walks must say why in an allow).
//   hot-nondet           — transitive version of buslint's nondeterminism rule:
//                          a hot function may not *reach* rand/time/clock
//                          primitives, nor range-for over a pointer-keyed
//                          unordered container (address-ordered iteration).
//   bad-annotation       — a hotlint annotation that cannot take effect: an
//                          allow()/cold with no `-- justification`, an unknown
//                          rule name, or a `hot`/`cold` marker that attaches to
//                          no function definition.
//
// Annotation grammar (trailing or full-line comments):
//
//   // hotlint: hot                          - on or directly above a function
//                                              definition: marks a hot root.
//   // hotlint: cold -- <justification>      - cuts propagation: callers stay
//                                              hot, this function and its
//                                              callees are not analyzed.
//   // hotlint: allow(rule[,rule]) -- <why>  - suppresses those rules on that
//                                              line. The justification is
//                                              mandatory.
#ifndef SRC_HOTLINT_HOTLINT_H_
#define SRC_HOTLINT_HOTLINT_H_

#include <set>
#include <string>
#include <vector>

#include "src/lintcore/lintcore.h"

namespace ibus::hotlint {

// Rule names, exposed for the allow mechanism, the fixtures, and the docs.
inline constexpr char kRuleAlloc[] = "hot-alloc";
inline constexpr char kRuleContainerGrowth[] = "hot-container-growth";
inline constexpr char kRuleString[] = "hot-string";
inline constexpr char kRuleByValue[] = "hot-by-value";
inline constexpr char kRuleStdFunction[] = "hot-std-function";
inline constexpr char kRuleIostream[] = "hot-iostream";
inline constexpr char kRuleLock[] = "hot-lock";
inline constexpr char kRuleRecursion[] = "hot-recursion";
inline constexpr char kRuleNondet[] = "hot-nondet";
inline constexpr char kRuleBadAnnotation[] = "bad-annotation";

// Every rule an allow() may name (bad-annotation itself is not allowable).
const std::set<std::string>& KnownRules();

using SourceFile = lintcore::SourceFile;

// A direct, per-function observation made by the scanner. `rule` is one of the
// kRule* constants; findings are only emitted for effects of *hot* functions.
struct Effect {
  std::string rule;
  int line = 0;
  int col = 0;
  std::string detail;  // e.g. "make_unique" or "by-value std::string parameter 'subject'"
};

// One call site inside a function body. `qualifier` is the explicit `X::` text
// when the call is spelled qualified ("Message::Unmarshal"), empty otherwise.
struct CallSite {
  std::string name;
  std::string qualifier;
  int line = 0;
  int col = 0;
  // Number of top-level arguments at the site — used to filter overload
  // candidates so a 1-arg convenience wrapper calling its own 2-arg overload is
  // not mistaken for recursion.
  size_t argc = 0;
  // Spelled `obj.f()` / `ptr->f()` with a receiver other than `this` — such a
  // call can never be a self-call, so self-edges from it are dropped.
  bool object_receiver = false;
};

struct Function {
  std::string name;            // unqualified, e.g. "DispatchInbound"
  std::string qualified_name;  // class-qualified, e.g. "BusDaemon::DispatchInbound"
  std::string file;
  int line = 0;  // position of the name token in the definition
  int col = 0;
  bool hot_root = false;  // carries `// hotlint: hot`
  bool cold = false;      // carries a justified `// hotlint: cold`
  // Accepted argument-count range (defaults narrow it, packs/varargs widen it);
  // call resolution only considers candidates whose range admits the site.
  size_t min_params = 0;
  size_t max_params = 0;
  // Justified allow() rules on the signature lines — where graph-level findings
  // (hot-recursion) look for their opt-out.
  std::set<std::string> sig_allows;
  std::vector<CallSite> calls;
  std::vector<Effect> effects;
};

// One reported problem, printed "src/bus/daemon.cc:120:7: [hot-alloc] ...".
// `chain` is the root-to-site call path, one "Qualified::Name (file:line)"
// entry per hop, root first; empty for bad-annotation diagnostics.
using Diagnostic = lintcore::Diagnostic;

// The whole-program model: every function definition the scanner recognized,
// plus annotation problems discovered while parsing.
struct Program {
  std::vector<Function> functions;
  std::vector<Diagnostic> annotation_diagnostics;
};

// Parses every file into the per-function model. Pure text analysis; no
// compiler, no include resolution — the scanned file set *is* the program.
Program BuildProgram(const std::vector<SourceFile>& files);

// Builds the call graph, propagates hotness from the annotated roots, and
// returns every finding (effects of hot functions, recursion cycles, annotation
// problems), sorted by file/line/col.
std::vector<Diagnostic> Analyze(const Program& program);

// Graphviz export of the call graph. Hot nodes are filled, roots are boxed,
// cold nodes are dashed.
std::string DotGraph(const Program& program);

// Qualified names of every annotated hot root, sorted — the drift-guard test
// cross-checks this against the expected root table.
std::vector<std::string> HotRoots(const Program& program);

}  // namespace ibus::hotlint

#endif  // SRC_HOTLINT_HOTLINT_H_
