// buslint: repo-specific static checks for the Information Bus sources.
//
// The rules encode invariants that generic compiler warnings cannot see:
//
//   nondeterminism  — no wall-clock / PRNG / environment primitives under
//                     src/sim, src/bus, src/router (simulated time and seeded
//                     Rng only; this is what keeps Fig 5-8 reproductions and
//                     sim_replay_check trustworthy).
//   subject-literal — subject/pattern string literals passed to Publish*/
//                     Subscribe* must parse under the real subject grammar
//                     (validated by linking src/subject, not by regex).
//   decode-pair     — every wire encoder declared in a header (Marshal*,
//                     Encode*, ToWire) must have the matching decoder
//                     (Unmarshal*, Decode*, FromWire) declared in the same
//                     header.
//   decode-checked  — a decode call (Unmarshal*, Decode*, Parse*, FromWire)
//                     must not be discarded as a bare expression statement;
//                     cast to (void) to discard deliberately.
//   raw-new-delete  — no raw `new`/`delete` outside the private-constructor
//                     factory idiom `std::unique_ptr<T>(new T(...))`.
//   reserved-subject — no "_ibus"/"_ibus.*" string literals outside
//                     src/telemetry and src/services; everything else must
//                     name the reserved bus-internal namespace through the
//                     kReserved* constants in src/subject/subject.h.
//   tdl-string      — string literals handed to the TDL entry points
//                     (RunScript, EvalProgram, ParseTdl, ParseTdlOne) must
//                     parse under the real TDL reader (validated by linking
//                     src/tdl). A typo'd embedded script otherwise survives
//                     until that code path runs.
//
// Any line can opt out of a rule with a trailing comment (no justification
// needed; the grammar is lintcore's, see docs/TOOLING.md):
//   // buslint: allow(rule-name)
#ifndef TOOLS_BUSLINT_BUSLINT_H_
#define TOOLS_BUSLINT_BUSLINT_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/lintcore/lintcore.h"

namespace ibus::buslint {

// buslint reports lines only (col 0): "src/sim/foo.cc:12: [nondeterminism] ...".
using Violation = lintcore::Diagnostic;

// Lints one source file. `rel_path` is the path relative to the repo root; the
// nondeterminism rule is scoped by it, so fixture tests can claim synthetic
// paths like "src/sim/evil.cc".
std::vector<Violation> LintSource(const std::string& rel_path, std::string_view content);

// Rule names, exposed for the allowlist mechanism and the tests.
inline constexpr char kRuleNondeterminism[] = "nondeterminism";
inline constexpr char kRuleSubjectLiteral[] = "subject-literal";
inline constexpr char kRuleDecodePair[] = "decode-pair";
inline constexpr char kRuleDecodeChecked[] = "decode-checked";
inline constexpr char kRuleRawNewDelete[] = "raw-new-delete";
inline constexpr char kRuleReservedSubject[] = "reserved-subject";
inline constexpr char kRuleTdlString[] = "tdl-string";

}  // namespace ibus::buslint

#endif  // TOOLS_BUSLINT_BUSLINT_H_
