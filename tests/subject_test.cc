#include "src/subject/subject.h"

#include <gtest/gtest.h>

#include "src/subject/trie.h"

namespace ibus {
namespace {

TEST(SubjectTest, SplitBasic) {
  EXPECT_EQ(SplitSubject("a.b.c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(SplitSubject("single"), (std::vector<std::string>{"single"}));
  EXPECT_EQ(SplitSubject(""), (std::vector<std::string>{""}));
}

TEST(SubjectTest, ValidateSubjectAcceptsPaperExamples) {
  EXPECT_TRUE(ValidateSubject("fab5.cc.litho8.thick").ok());
  EXPECT_TRUE(ValidateSubject("news.equity.gmc").ok());
  EXPECT_TRUE(ValidateSubject("_inbox.h1.p5000.1").ok());
}

TEST(SubjectTest, ValidateSubjectRejectsBadForms) {
  EXPECT_FALSE(ValidateSubject("").ok());
  EXPECT_FALSE(ValidateSubject("a..b").ok());
  EXPECT_FALSE(ValidateSubject(".leading").ok());
  EXPECT_FALSE(ValidateSubject("trailing.").ok());
  EXPECT_FALSE(ValidateSubject("has space.b").ok());
  EXPECT_FALSE(ValidateSubject("a.*.b").ok());  // wildcards are for patterns only
  EXPECT_FALSE(ValidateSubject("a.>").ok());
}

TEST(SubjectTest, ReservedNamespaceDetection) {
  EXPECT_TRUE(IsReservedSubject("_ibus"));  // buslint: allow(reserved-subject)
  EXPECT_TRUE(IsReservedSubject(std::string(kReservedTracePrefix) + "a"));
  EXPECT_TRUE(IsReservedSubject(std::string(kReservedStatsPrefix) + "host0"));
  EXPECT_FALSE(IsReservedSubject("_ibusx.foo"));
  EXPECT_FALSE(IsReservedSubject("news._ibus.x"));  // buslint: allow(reserved-subject)
  EXPECT_FALSE(IsReservedSubject("_inbox.h1.p5000.1"));
}

TEST(SubjectTest, ReservedNamespaceScoping) {
  const std::string trace = std::string(kReservedTracePrefix) + "a";
  // Application scope (the default) rejects the whole reserved namespace...
  EXPECT_FALSE(ValidateSubject(kReservedElement).ok());
  EXPECT_FALSE(ValidateSubject(trace).ok());
  EXPECT_FALSE(ValidateSubject(trace, SubjectScope::kApplication).ok());
  // ...internal scope admits it (same grammar rules still apply)...
  EXPECT_TRUE(ValidateSubject(trace, SubjectScope::kInternal).ok());
  EXPECT_FALSE(ValidateSubject(std::string(kReservedPrefix) + ".x",
                               SubjectScope::kInternal).ok());
  // ...and lookalike roots were never reserved to begin with.
  EXPECT_TRUE(ValidateSubject("_ibusx.foo").ok());
  EXPECT_TRUE(ValidateSubject("_ibusx.foo", SubjectScope::kInternal).ok());
}

TEST(SubjectTest, ValidatePattern) {
  EXPECT_TRUE(ValidatePattern("news.equity.gmc").ok());
  EXPECT_TRUE(ValidatePattern("news.*.gmc").ok());
  EXPECT_TRUE(ValidatePattern("news.>").ok());
  EXPECT_TRUE(ValidatePattern(">").ok());
  EXPECT_TRUE(ValidatePattern("*.*").ok());
  EXPECT_FALSE(ValidatePattern("news.>.gmc").ok());  // '>' must be last
  EXPECT_FALSE(ValidatePattern("news.eq*ty").ok());  // partial-element wildcard
  EXPECT_FALSE(ValidatePattern("").ok());
  EXPECT_FALSE(ValidatePattern("a..b").ok());
}

struct MatchCase {
  const char* pattern;
  const char* subject;
  bool expect;
};

// gtest prints each parameter into the test list and ctest names the case after that
// text, so print the inputs ("a.*.c vs a.b.c -> true"), never the pointer bytes.
void PrintTo(const MatchCase& c, std::ostream* os) {
  *os << c.pattern << " vs " << c.subject << " -> " << (c.expect ? "true" : "false");
}

class SubjectMatchTest : public ::testing::TestWithParam<MatchCase> {};

TEST_P(SubjectMatchTest, Matches) {
  const MatchCase& c = GetParam();
  EXPECT_EQ(SubjectMatches(c.pattern, c.subject), c.expect)
      << c.pattern << " vs " << c.subject;
}

INSTANTIATE_TEST_SUITE_P(
    Matching, SubjectMatchTest,
    ::testing::Values(
        MatchCase{"a.b.c", "a.b.c", true}, MatchCase{"a.b.c", "a.b.d", false},
        MatchCase{"a.b.c", "a.b", false}, MatchCase{"a.b.c", "a.b.c.d", false},
        MatchCase{"a.*.c", "a.b.c", true}, MatchCase{"a.*.c", "a.x.c", true},
        MatchCase{"a.*.c", "a.c", false}, MatchCase{"a.*.c", "a.b.b.c", false},
        MatchCase{"*", "a", true}, MatchCase{"*", "a.b", false},
        MatchCase{">", "a", true}, MatchCase{">", "a.b.c.d", true},
        MatchCase{"a.>", "a.b", true}, MatchCase{"a.>", "a.b.c", true},
        MatchCase{"a.>", "a", false}, MatchCase{"a.>", "b.c", false},
        MatchCase{"news.*.gmc", "news.equity.gmc", true},
        MatchCase{"news.>", "news.equity.gmc", true},
        MatchCase{"fab5.cc.*.thick", "fab5.cc.litho8.thick", true},
        MatchCase{"fab5.cc.*.thick", "fab5.cc.litho8.thin", false}));

struct CoverCase {
  const char* wide;
  const char* narrow;
  bool expect;
};

void PrintTo(const CoverCase& c, std::ostream* os) {
  *os << c.wide << " covers " << c.narrow << " -> " << (c.expect ? "true" : "false");
}

class PatternCoverTest : public ::testing::TestWithParam<CoverCase> {};

TEST_P(PatternCoverTest, Covers) {
  const CoverCase& c = GetParam();
  EXPECT_EQ(PatternCovers(c.wide, c.narrow), c.expect) << c.wide << " covers " << c.narrow;
}

INSTANTIATE_TEST_SUITE_P(
    Covering, PatternCoverTest,
    ::testing::Values(CoverCase{"a.b", "a.b", true}, CoverCase{"a.*", "a.b", true},
                      CoverCase{"a.b", "a.*", false}, CoverCase{">", "a.b.c", true},
                      CoverCase{">", "a.>", true}, CoverCase{"a.>", "a.b.c", true},
                      CoverCase{"a.>", "a.b.>", true}, CoverCase{"a.>", "b.c", false},
                      CoverCase{"a.>", "a", false}, CoverCase{"a.*", "a.>", false},
                      CoverCase{"*.*", "a.b", true}, CoverCase{"*.*", "a.b.c", false},
                      CoverCase{"a.*.c", "a.b.c", true}, CoverCase{"a.*.c", "a.*.c", true}));

TEST(TrieTest, ExactMatch) {
  SubjectTrie trie;
  ASSERT_TRUE(trie.Insert("a.b.c", 1).ok());
  ASSERT_TRUE(trie.Insert("a.b.d", 2).ok());
  EXPECT_EQ(trie.Match("a.b.c"), (std::vector<uint64_t>{1}));
  EXPECT_EQ(trie.Match("a.b.d"), (std::vector<uint64_t>{2}));
  EXPECT_TRUE(trie.Match("a.b").empty());
  EXPECT_TRUE(trie.Match("a.b.c.d").empty());
}

TEST(TrieTest, WildcardsMatch) {
  SubjectTrie trie;
  ASSERT_TRUE(trie.Insert("news.*.gmc", 1).ok());
  ASSERT_TRUE(trie.Insert("news.>", 2).ok());
  ASSERT_TRUE(trie.Insert("news.equity.gmc", 3).ok());
  std::vector<uint64_t> hits = trie.Match("news.equity.gmc");
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<uint64_t>{1, 2, 3}));
  hits = trie.Match("news.bond.t10");
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<uint64_t>{2}));
}

TEST(TrieTest, RestWildcardRequiresOneElement) {
  SubjectTrie trie;
  ASSERT_TRUE(trie.Insert("a.>", 1).ok());
  EXPECT_TRUE(trie.Match("a").empty());
  EXPECT_EQ(trie.Match("a.b"), (std::vector<uint64_t>{1}));
}

TEST(TrieTest, RemoveSpecificRegistration) {
  SubjectTrie trie;
  ASSERT_TRUE(trie.Insert("a.b", 1).ok());
  ASSERT_TRUE(trie.Insert("a.b", 2).ok());
  EXPECT_TRUE(trie.Remove("a.b", 1));
  EXPECT_EQ(trie.Match("a.b"), (std::vector<uint64_t>{2}));
  EXPECT_FALSE(trie.Remove("a.b", 1));  // already gone
  EXPECT_TRUE(trie.Remove("a.b", 2));
  EXPECT_TRUE(trie.Match("a.b").empty());
  EXPECT_EQ(trie.size(), 0u);
}

TEST(TrieTest, RemoveWildcardPatterns) {
  SubjectTrie trie;
  ASSERT_TRUE(trie.Insert("a.*", 1).ok());
  ASSERT_TRUE(trie.Insert("a.>", 2).ok());
  EXPECT_TRUE(trie.Remove("a.*", 1));
  EXPECT_EQ(trie.Match("a.b"), (std::vector<uint64_t>{2}));
  EXPECT_TRUE(trie.Remove("a.>", 2));
  EXPECT_TRUE(trie.Match("a.b").empty());
}

TEST(TrieTest, InvalidPatternRejected) {
  SubjectTrie trie;
  EXPECT_FALSE(trie.Insert("a..b", 1).ok());
  EXPECT_FALSE(trie.Insert(">.a", 1).ok());
  EXPECT_EQ(trie.size(), 0u);
}

TEST(TrieTest, MatchesAnyEarlyExit) {
  SubjectTrie trie;
  EXPECT_FALSE(trie.MatchesAny("a.b"));
  ASSERT_TRUE(trie.Insert("a.>", 7).ok());
  EXPECT_TRUE(trie.MatchesAny("a.b"));
  EXPECT_FALSE(trie.MatchesAny("b.a"));
}

TEST(TrieTest, ManySubjectsStayIndependent) {
  // Fig 8 sanity: 10k distinct subjects, matching stays correct.
  SubjectTrie trie;
  for (uint64_t i = 0; i < 10000; ++i) {
    ASSERT_TRUE(trie.Insert("subj." + std::to_string(i), i).ok());
  }
  EXPECT_EQ(trie.size(), 10000u);
  EXPECT_EQ(trie.Match("subj.1234"), (std::vector<uint64_t>{1234}));
  EXPECT_TRUE(trie.Match("subj.99999").empty());
}

}  // namespace
}  // namespace ibus
