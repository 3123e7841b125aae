// lintcore: the analyzer front end shared by buslint, hotlint and wirecheck.
// These cases pin shared behaviour that no analyzer fixture exercises directly.
#include "src/lintcore/lintcore.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

namespace ibus::lintcore {
namespace {

std::vector<FunctionDef> Functions(std::string_view src) {
  Scrubbed s = Scrub(src);
  s.BlankDirectives();
  std::vector<FunctionDef> out;
  ForEachFunction(s, [&](const FunctionDef& def) { out.push_back(def); });
  return out;
}

HeadInfo Head(std::string_view head) { return ClassifyHead(head, 0, head.size()); }

TEST(LintcoreScrub, ContinuedDefineIsOneDirectiveAndBlanksItsBrace) {
  const std::string src =
      "#define OPEN_BLOCK(x) \\\n"
      "  if (x) {\n"
      "int f() { return 1; }  // after\n";
  Scrubbed s = Scrub(src);
  ASSERT_EQ(s.directives.size(), 1u);
  EXPECT_EQ(s.LineOf(s.directives[0].first), 1);
  EXPECT_EQ(s.LineOf(s.directives[0].second), 2);
  // Unblanked (buslint's view): the macro body is still code.
  EXPECT_NE(s.code.find("if (x) {"), std::string::npos);

  s.BlankDirectives();
  EXPECT_EQ(s.code.find("if"), std::string::npos);
  EXPECT_EQ(s.code.size(), src.size());
  EXPECT_EQ(s.line_starts.size(), 4u);
  ASSERT_EQ(s.comments.size(), 1u);  // the comment after the directive survives
  EXPECT_EQ(s.comments[0].line, 3);

  std::vector<FunctionDef> fns = Functions(src);
  ASSERT_EQ(fns.size(), 1u);
  EXPECT_EQ(fns[0].qualified_name, "f");
  EXPECT_EQ(fns[0].open_line, 3);
}

TEST(LintcoreScrub, BlankDirectivesDropsCommentsOnDirectiveLines) {
  Scrubbed s = Scrub("#include \"a.h\"  // tool: allow(x)\nint y;  // tool: allow(z)\n");
  EXPECT_EQ(Annotations(s, "tool").size(), 2u);
  s.BlankDirectives();
  std::vector<Annotation> kept = Annotations(s, "tool");
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].line, 2);
}

TEST(LintcoreScrub, RawStringWhoseContentHoldsQuoteParen) {
  const std::string src = "auto s = R\"x( )\" )x\"; int g() { return 2; }\n";
  Scrubbed s = Scrub(src);
  size_t open = src.find('"');
  ASSERT_EQ(s.literals.count(open), 1u);
  EXPECT_EQ(s.literals.at(open), " )\" ");
  EXPECT_EQ(s.raw_literals.count(open), 1u);
  // Only the opening and closing quotes survive in the code.
  EXPECT_EQ(std::count(s.code.begin(), s.code.end(), '"'), 2);
  EXPECT_NE(s.code.find("int g() { return 2; }"), std::string::npos);
}

TEST(LintcoreScrub, CharLiteralQuoteDoesNotOpenAString) {
  const std::string src = "char q = '\"'; const char* t = \"a{\";\n";
  Scrubbed s = Scrub(src);
  ASSERT_EQ(s.literals.size(), 1u);
  EXPECT_EQ(s.literals.at(src.find("\"a{")), "a{");
  EXPECT_EQ(s.code.find('{'), std::string::npos);
  EXPECT_NE(s.code.find("const char* t"), std::string::npos);
}

TEST(LintcoreScrub, UnterminatedLiteralStopsAtLineEnd) {
  const std::string src = "const char* s = \"abc\nint x = 1;\n";
  Scrubbed s = Scrub(src);
  EXPECT_EQ(s.literals.at(src.find('"')), "abc");
  size_t x = s.code.find("int x = 1;");
  ASSERT_NE(x, std::string::npos);
  EXPECT_EQ(s.LineOf(x), 2);
  EXPECT_EQ(s.ColOf(x), 1);
}

TEST(LintcoreScrub, EscapedNewlineInLiteralStartsALine) {
  const std::string src = "const char* s = \"abc\\\ndef\";\nint x = 1;\n";
  Scrubbed s = Scrub(src);
  EXPECT_EQ(s.literals.at(src.find('"')), "abc\\\ndef");
  size_t x = s.code.find("int x = 1;");
  ASSERT_NE(x, std::string::npos);
  EXPECT_EQ(s.LineOf(x), 3);
}

TEST(LintcoreHead, OperatorAndDestructorNames) {
  HeadInfo call = Head("void operator()(int x) const ");
  ASSERT_EQ(call.kind, HeadInfo::kFunction);
  EXPECT_EQ(call.name, "operator()");
  EXPECT_EQ(std::string("void operator()(int x) const ")
                .substr(call.params_begin, call.params_end - call.params_begin),
            "int x");

  HeadInfo eq = Head("bool operator==(const A& o) const ");
  ASSERT_EQ(eq.kind, HeadInfo::kFunction);
  EXPECT_EQ(eq.name, "operator==");

  HeadInfo dtor = Head("Foo::~Foo() ");
  ASSERT_EQ(dtor.kind, HeadInfo::kFunction);
  EXPECT_EQ(dtor.name, "~Foo");
  EXPECT_EQ(dtor.qualifiers, std::vector<std::string>{"Foo"});
}

TEST(LintcoreHead, TemplateQualifierChain) {
  HeadInfo h = Head("template <typename T> int ns::Foo<T>::bar(T v) ");
  ASSERT_EQ(h.kind, HeadInfo::kFunction);
  EXPECT_EQ(h.name, "bar");
  EXPECT_EQ(h.qualifiers, (std::vector<std::string>{"ns", "Foo"}));
}

TEST(LintcoreWalk, CtorInitListStaysInTheHead) {
  const std::string src =
      "Foo::Foo(int x)\n"
      "    : a_(x), b_(Make(x)) {\n"
      "  Run();\n"
      "}\n";
  std::vector<FunctionDef> fns = Functions(src);
  ASSERT_EQ(fns.size(), 1u);
  const FunctionDef& ctor = fns[0];
  EXPECT_EQ(ctor.qualified_name, "Foo::Foo");
  EXPECT_EQ(src[SkipSpace(src, ctor.head.tail_begin)], ':');
  EXPECT_EQ(ctor.open, src.find("{\n"));
  EXPECT_EQ(ctor.body_end, src.rfind('}'));
  EXPECT_EQ(ctor.first_line, 1);
  EXPECT_EQ(ctor.open_line, 2);
}

TEST(LintcoreWalk, AccessSpecifierResetsTheHead) {
  const std::string src =
      "class C {\n"
      " public:\n"
      "  void f() {}\n"
      " private:\n"
      "  int g(int a) { return a; }\n"
      "};\n";
  std::vector<FunctionDef> fns = Functions(src);
  ASSERT_EQ(fns.size(), 2u);
  EXPECT_EQ(fns[0].qualified_name, "C::f");
  EXPECT_EQ(fns[0].first_line, 3);
  EXPECT_EQ(fns[1].qualified_name, "C::g");
  EXPECT_EQ(fns[1].first_line, 5);
}

TEST(LintcoreAnnotation, JustificationIsRecordedAndPolicyIsPerTool) {
  Scrubbed s = Scrub(
      "int a;  // tool: allow(r1, r2) -- bounded by the window\n"
      "int b;  // tool: allow(r3)\n"
      "int c;  // tool: hot\n"
      "int d;  // other: allow(r4) -- not ours\n");
  std::vector<Annotation> as = Annotations(s, "tool");
  ASSERT_EQ(as.size(), 3u);
  EXPECT_TRUE(as[0].IsAllow());
  EXPECT_TRUE(as[0].justified);
  EXPECT_EQ(as[0].rules, (std::set<std::string>{"r1", "r2"}));
  EXPECT_TRUE(as[1].IsAllow());
  EXPECT_FALSE(as[1].justified);
  EXPECT_EQ(as[2].verb, "hot");
  EXPECT_FALSE(as[2].IsAllow());

  AllowMap strict = BuildAllowMap(as, /*require_justification=*/true);
  EXPECT_TRUE(strict.Allowed(1, "r2"));
  EXPECT_FALSE(strict.Allowed(2, "r3"));
  AllowMap lenient = BuildAllowMap(as, /*require_justification=*/false);
  EXPECT_TRUE(lenient.Allowed(2, "r3"));
  EXPECT_FALSE(lenient.Allowed(4, "r4"));
}

TEST(LintcoreDiagnostic, ColumnIsOmittedWhenZero) {
  EXPECT_EQ(Diagnostic("a.cc", 3, 7, "r", "m").ToString(), "a.cc:3:7: [r] m");
  EXPECT_EQ(Diagnostic("a.cc", 3, 0, "r", "m").ToString(), "a.cc:3: [r] m");
}

}  // namespace
}  // namespace ibus::lintcore
