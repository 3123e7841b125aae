// Subject-Based Addressing (paper §3, P4). Subjects are hierarchical dot-separated
// strings ("fab5.cc.litho8.thick", "news.equity.gmc"). Consumers may subscribe with
// patterns: '*' matches exactly one element, '>' matches one or more trailing
// elements. The bus core attaches no meaning to subjects beyond matching (P1).
#ifndef SRC_SUBJECT_SUBJECT_H_
#define SRC_SUBJECT_SUBJECT_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace ibus {

// Splits "a.b.c" into {"a","b","c"}. No validation.
std::vector<std::string> SplitSubject(std::string_view subject);

// The "_ibus" root element is reserved for bus-internal protocols (tracing spans,
// certified-delivery acks, stats samples, elections, subscription gossip). This
// header is the single home for the reserved literals; everything else must refer to
// these constants (enforced by the buslint `reserved-subject` rule).
inline constexpr std::string_view kReservedElement = "_ibus";  // buslint: allow(reserved-subject)
inline constexpr char kReservedPrefix[] = "_ibus.";            // buslint: allow(reserved-subject)
inline constexpr char kReservedTracePrefix[] = "_ibus.trace.";  // buslint: allow(reserved-subject)
inline constexpr char kReservedCertPrefix[] = "_ibus.cert.";    // buslint: allow(reserved-subject)
inline constexpr char kReservedElectPrefix[] = "_ibus.elect.";  // buslint: allow(reserved-subject)
inline constexpr char kReservedStatsPrefix[] = "_ibus.stats.";  // buslint: allow(reserved-subject)
// Per-node busstat time-series records ("_ibus.stats.ts.<node>"), the one stats feed
// under the stats prefix.
inline constexpr char kReservedStatsTsPrefix[] = "_ibus.stats.ts.";  // buslint: allow(reserved-subject)
inline constexpr char kReservedHealthPrefix[] = "_ibus.health.";  // buslint: allow(reserved-subject)
inline constexpr char kReservedSubPrefix[] = "_ibus.sub.";      // buslint: allow(reserved-subject)

// True when the subject or pattern lives in the reserved namespace (its first
// element is exactly "_ibus"). "_ibusx.foo" is NOT reserved.
bool IsReservedSubject(std::string_view subject_or_pattern);

// True when the subject belongs to the observability plane itself (trace spans,
// stats samples, health beacons). The daemon classifies every byte it injects
// with this predicate to maintain the telemetry self-overhead counters — the
// plane measures its own cost (see docs/TELEMETRY.md, "Sampling & sketches").
bool IsObservabilitySubject(std::string_view subject);

// Who is publishing: application code goes through the default kApplication scope
// and is rejected from the reserved "_ibus." namespace; bus-internal components
// (BusClient::PublishInternal) opt in with kInternal.
enum class SubjectScope { kApplication, kInternal };

// A concrete subject must have 1+ non-empty elements without wildcards or whitespace.
// Under kApplication (the default) subjects in the reserved "_ibus." namespace are
// rejected; other '_'-prefixed elements stay valid for application use.
Status ValidateSubject(std::string_view subject,
                       SubjectScope scope = SubjectScope::kApplication);

// A pattern additionally allows '*' elements anywhere and '>' as the final element.
Status ValidatePattern(std::string_view pattern);

// True when `pattern` matches the concrete `subject`.
bool SubjectMatches(std::string_view pattern, std::string_view subject);

// True when the set of subjects matched by `narrow` is a subset of those matched by
// `wide` (used by routers to decide whether a remote subscription is already covered).
bool PatternCovers(std::string_view wide, std::string_view narrow);

constexpr char kSubjectSeparator = '.';
constexpr char kWildcardOne = '*';
constexpr char kWildcardRest = '>';

}  // namespace ibus

#endif  // SRC_SUBJECT_SUBJECT_H_
