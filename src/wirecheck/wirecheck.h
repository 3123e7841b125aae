// wirecheck: wire-schema extraction, Encode/Decode symmetry proofs, and
// decode-safety lint for every codec on the bus.
//
// The Information Bus's extensibility story rests on disciplined, versioned
// wire formats — and the repo now has ~20 hand-rolled codecs whose schemas
// exist only implicitly in paired Encode/Decode code. wirecheck completes the
// analyzer family (buslint -> tdlcheck -> hotlint -> wirecheck): a homegrown
// token scanner (no libclang) that
//
//   (a) extracts a wire-schema model from each annotated codec pair — the
//       ordered tree of primitive reads/writes (u8/u16/u32/u64/i64/f64/bool/
//       varint/length-prefixed string/bytes/raw) recovered from WireWriter/
//       WireReader call sequences, including loops, branches, switch arms,
//       helper functions (inlined), and cross-codec references;
//   (b) proves Encode/Decode symmetry — the write tree and the read tree must
//       unify node-by-node (type, order, structure, literal counts), with
//       mismatches reported as file:line:col diagnostics carrying both sides;
//   (c) enforces decode-safety rules on the untrusted-input path (see below);
//   (d) renders each schema to a stable text form pinned as a golden file in
//       schemas/<codec>.wire — wire-format changes fail CI unless the golden
//       is regenerated AND the version is bumped (wire-breaking vs wire-safe
//       classification in the tdlcheck DiffModels tradition).
//
// Decode-safety rules (all reported at the offending site):
//
//   symmetry            — Encode and Decode op trees do not unify.
//   missing-pair        — a codec annotation with only one side present.
//   version-first       — a codec with version >= 1 must read its version
//                         field among the leading ops and compare it before
//                         trusting any later field.
//   unchecked-count     — a decoded count that bounds a loop must be
//                         relationally validated (vs remaining()/a constant)
//                         between the read and the loop.
//   unclamped-alloc     — reserve()/resize() sized by a decoded value that was
//                         never validated (OOM lever for attackers).
//   raw-read-bound      — ReadRaw(n)/ReadBytes(n) where n is a decoded value
//                         never validated against remaining().
//   truncation-unsafe   — a Result from a Read* op dereferenced (*v, v.take())
//                         before its .ok() check.
//   trailing-bytes      — a top-level decoder (not referenced by any other
//                         codec) must consume-or-reject trailing bytes
//                         deliberately: check AtEnd()/remaining(), end with a
//                         raw tail op, or carry a justified allow.
//   unbounded-recursion — a decoder on a codec-reference cycle must guard with
//                         a depth limit (a 'depth' comparison in the body).
//   unchecked-index     — a decoded value used as a subscript/index without a
//                         prior range check.
//   bad-annotation      — a wirecheck annotation that cannot take effect.
//
// Annotation grammar (trailing or full-line `//` comments):
//
//   // wirecheck: codec(<name>, version=N)   - on or directly above an Encode
//                                              or Decode function definition;
//                                              the side is inferred from the
//                                              ops the body performs.
//   // wirecheck: op(<type>) -- <why>        - inject a wire op the scanner
//                                              cannot see (e.g. a payload tail
//                                              sliced straight from the frame
//                                              rather than read via the
//                                              reader API).
//   // wirecheck: allow(rule[,rule]) -- <why> - suppresses those rules on that
//                                              line (or, on the signature
//                                              lines, for whole-function
//                                              rules). Justification is
//                                              mandatory.
#ifndef SRC_WIRECHECK_WIRECHECK_H_
#define SRC_WIRECHECK_WIRECHECK_H_

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/lintcore/lintcore.h"

namespace ibus::wirecheck {

// Rule names, exposed for the allow mechanism, the fixtures, and the docs.
inline constexpr char kRuleSymmetry[] = "symmetry";
inline constexpr char kRuleMissingPair[] = "missing-pair";
inline constexpr char kRuleVersionFirst[] = "version-first";
inline constexpr char kRuleUncheckedCount[] = "unchecked-count";
inline constexpr char kRuleUnclampedAlloc[] = "unclamped-alloc";
inline constexpr char kRuleRawReadBound[] = "raw-read-bound";
inline constexpr char kRuleTruncation[] = "truncation-unsafe";
inline constexpr char kRuleTrailingBytes[] = "trailing-bytes";
inline constexpr char kRuleRecursion[] = "unbounded-recursion";
inline constexpr char kRuleUncheckedIndex[] = "unchecked-index";
inline constexpr char kRuleBadAnnotation[] = "bad-annotation";

// Every rule an allow() may name (bad-annotation itself is not allowable).
const std::set<std::string>& KnownRules();

using SourceFile = lintcore::SourceFile;

// One node of the extracted wire-op tree. Primitive kinds mirror the
// WireWriter/WireReader API; structural kinds carry child sequences.
struct Op {
  enum Kind {
    kU8, kU16, kU32, kU64, kI64, kF64, kBool, kVarint, kString, kBytes, kRaw,
    kRef,       // a call into another annotated codec ("ref" names it)
    kRepeat,    // loop; arms[0] is the body, "count" the bound expression
    kOptional,  // conditionally present section; arms[0] is the body
    kBranch,    // alternative sections; one arm per if/else or case arm
  };
  Kind kind = kU8;
  std::string label;  // encode argument / decode target, informational only
  std::string count;  // kRepeat: normalized count expression
  std::string ref;    // kRef: referenced codec name
  int line = 0;
  int col = 0;
  std::vector<std::vector<Op>> arms;
  std::vector<std::string> arm_labels;  // kBranch: case labels, informational
};

// "u8", "repeat", ... — stable names used in schemas and diagnostics.
std::string_view OpKindName(Op::Kind kind);

struct CodecSide {
  bool present = false;
  std::string function;  // qualified name, e.g. "Message::Marshal"
  std::string file;
  int line = 0;
  int col = 0;
  std::vector<Op> ops;  // normalized tree
  // Facts Analyze() needs that only the scan (with body text in hand) can
  // establish: does the decoder consult AtEnd()/end with a raw tail, does it
  // carry a depth-limit comparison, and which rules its signature allows.
  bool checks_trailing = false;
  bool has_depth_guard = false;
  std::set<std::string> fn_allows;
};

struct Codec {
  std::string name;
  int version = 0;
  CodecSide encode;
  CodecSide decode;
};

// One reported problem, printed "src/wire/wire.cc:120:7: [symmetry] ...".
using Diagnostic = lintcore::Diagnostic;

// The whole-program model: every annotated codec (sorted by name), plus every
// finding discovered while scanning (annotation problems and the per-decoder
// safety rules, which need the raw body text and are evaluated during the
// scan).
struct Program {
  std::vector<Codec> codecs;
  std::vector<Diagnostic> scan_diagnostics;
};

// Parses every file, attaches codec annotations to function definitions,
// extracts + normalizes op trees (inlining helpers, resolving codec refs), and
// evaluates the decode-safety rules. Pure text analysis; the scanned file set
// *is* the program.
Program BuildProgram(const std::vector<SourceFile>& files);

// Symmetry proofs + program-level rules (missing-pair, trailing-bytes on
// top-level decoders, unbounded-recursion on ref cycles), merged with the scan
// diagnostics, sorted by file/line/col.
std::vector<Diagnostic> Analyze(const Program& program);

// Renders the schema golden text for one codec (stable, diffable; see
// schemas/*.wire).
std::string RenderSchema(const Codec& codec);

// Classification of a golden-vs-current schema diff, tdlcheck DiffModels
// style: label-only changes are wire-safe; any structural change (op kinds,
// order, counts, nesting) is wire-breaking and demands a version bump.
struct SchemaDiff {
  enum Kind { kSame, kWireSafe, kWireBreaking } kind = kSame;
  int old_version = 0;
  int new_version = 0;
  std::string detail;  // first differing line, old vs new
};
SchemaDiff DiffSchema(std::string_view golden, std::string_view current);

// Names of every annotated codec, sorted — the drift-guard test cross-checks
// this against the expected codec table.
std::vector<std::string> CodecNames(const Program& program);

}  // namespace ibus::wirecheck

#endif  // SRC_WIRECHECK_WIRECHECK_H_
