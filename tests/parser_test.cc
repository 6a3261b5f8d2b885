#include "parser/parser.h"

#include <gtest/gtest.h>

#include "calculus/printer.h"
#include "parser/lexer.h"

namespace pascalr {
namespace {

TEST(LexerTest, TokenizesPunctuationAndOperators) {
  Lexer lexer("[]()<><=>=:=:+:-..,;.=<>");
  auto tokens = lexer.Tokenize();
  ASSERT_TRUE(tokens.ok()) << tokens.status().ToString();
  std::vector<TokenType> types;
  for (const Token& t : *tokens) types.push_back(t.type);
  EXPECT_EQ(types, (std::vector<TokenType>{
                       TokenType::kLBracket, TokenType::kRBracket,
                       TokenType::kLParen, TokenType::kRParen, TokenType::kNe,
                       TokenType::kLe, TokenType::kGe, TokenType::kAssign,
                       TokenType::kInsertOp, TokenType::kDeleteOp,
                       TokenType::kDotDot, TokenType::kComma,
                       TokenType::kSemicolon, TokenType::kDot, TokenType::kEq,
                       TokenType::kNe, TokenType::kEnd}));
}

TEST(LexerTest, KeywordsAreCaseInsensitive) {
  Lexer lexer("SOME some SoMe each ALL");
  auto tokens = lexer.Tokenize();
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kKwSome);
  EXPECT_EQ((*tokens)[1].type, TokenType::kKwSome);
  EXPECT_EQ((*tokens)[2].type, TokenType::kKwSome);
  EXPECT_EQ((*tokens)[3].type, TokenType::kKwEach);
  EXPECT_EQ((*tokens)[4].type, TokenType::kKwAll);
}

TEST(LexerTest, NumbersAndRanges) {
  Lexer lexer("1900..1999 42");
  auto tokens = lexer.Tokenize();
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].int_value, 1900);
  EXPECT_EQ((*tokens)[1].type, TokenType::kDotDot);
  EXPECT_EQ((*tokens)[2].int_value, 1999);
  EXPECT_EQ((*tokens)[3].int_value, 42);
}

TEST(LexerTest, StringsWithEscapedQuotes) {
  Lexer lexer("'Highman' 'it''s'");
  auto tokens = lexer.Tokenize();
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "Highman");
  EXPECT_EQ((*tokens)[1].text, "it's");
}

TEST(LexerTest, Comments) {
  Lexer lexer("a (* pascal comment *) b { brace comment } c");
  auto tokens = lexer.Tokenize();
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 4u);  // a b c + end
  EXPECT_EQ((*tokens)[0].text, "a");
  EXPECT_EQ((*tokens)[2].text, "c");
}

TEST(LexerTest, ErrorsCarryPosition) {
  Lexer lexer("abc\n  ?");
  auto tokens = lexer.Tokenize();
  ASSERT_FALSE(tokens.ok());
  EXPECT_NE(tokens.status().message().find("2:3"), std::string::npos);
}

TEST(LexerTest, UnterminatedStringAndComment) {
  EXPECT_FALSE(Lexer("'open").Tokenize().ok());
  EXPECT_FALSE(Lexer("(* open").Tokenize().ok());
  EXPECT_FALSE(Lexer("{ open").Tokenize().ok());
}

TEST(ParserTest, SimpleSelection) {
  Parser parser("[<e.ename> OF EACH e IN employees: e.estatus = professor]");
  auto sel = parser.ParseSelectionOnly();
  ASSERT_TRUE(sel.ok()) << sel.status().ToString();
  ASSERT_EQ(sel->projection.size(), 1u);
  EXPECT_EQ(sel->projection[0].var, "e");
  EXPECT_EQ(sel->projection[0].component, "ename");
  ASSERT_EQ(sel->free_vars.size(), 1u);
  EXPECT_EQ(sel->free_vars[0].range.relation, "employees");
  EXPECT_EQ(sel->wff->kind(), FormulaKind::kCompare);
}

TEST(ParserTest, QuantifierJuxtaposition) {
  // The paper writes `ALL p IN papers SOME c IN courses (wff)`.
  Parser parser(
      "[<e.ename> OF EACH e IN employees: "
      "ALL p IN papers SOME c IN courses (p.penr = c.cnr)]");
  auto sel = parser.ParseSelectionOnly();
  ASSERT_TRUE(sel.ok()) << sel.status().ToString();
  const Formula& all = *sel->wff;
  ASSERT_EQ(all.kind(), FormulaKind::kQuant);
  EXPECT_EQ(all.quantifier(), Quantifier::kAll);
  ASSERT_EQ(all.child().kind(), FormulaKind::kQuant);
  EXPECT_EQ(all.child().quantifier(), Quantifier::kSome);
}

TEST(ParserTest, QuantifierBodyStopsAtParenGroup) {
  // `ALL p IN papers (A) OR B`: B belongs to the OUTER disjunction.
  Parser parser(
      "[<e.ename> OF EACH e IN employees: "
      "ALL p IN papers (p.pyear <> 1977) OR e.enr = 1]");
  auto sel = parser.ParseSelectionOnly();
  ASSERT_TRUE(sel.ok()) << sel.status().ToString();
  ASSERT_EQ(sel->wff->kind(), FormulaKind::kOr);
  EXPECT_EQ(sel->wff->children()[0]->kind(), FormulaKind::kQuant);
  EXPECT_EQ(sel->wff->children()[1]->kind(), FormulaKind::kCompare);
}

TEST(ParserTest, ExtendedRangeWithRenaming) {
  // The inner variable (r) is renamed to the quantified variable (c).
  Parser parser(
      "[<e.ename> OF EACH e IN employees: "
      "SOME c IN [EACH r IN courses: r.clevel <= sophomore] "
      "(c.cnr = e.enr)]");
  auto sel = parser.ParseSelectionOnly();
  ASSERT_TRUE(sel.ok()) << sel.status().ToString();
  const Formula& quant = *sel->wff;
  ASSERT_TRUE(quant.range().IsExtended());
  EXPECT_EQ(quant.range().restriction->term().lhs.var, "c");
}

TEST(ParserTest, OperatorPrecedenceAndNot) {
  Parser parser(
      "[<a.x> OF EACH a IN r: "
      "NOT a.x = 1 AND a.y = 2 OR a.z = 3]");
  auto sel = parser.ParseSelectionOnly();
  ASSERT_TRUE(sel.ok());
  // ((NOT (a.x=1)) AND (a.y=2)) OR (a.z=3)
  ASSERT_EQ(sel->wff->kind(), FormulaKind::kOr);
  const Formula& left = *sel->wff->children()[0];
  ASSERT_EQ(left.kind(), FormulaKind::kAnd);
  EXPECT_EQ(left.children()[0]->kind(), FormulaKind::kNot);
}

TEST(ParserTest, AllComparisonOperators) {
  Parser parser(
      "[<a.x> OF EACH a IN r: a.x = 1 AND a.x <> 2 AND a.x < 3 AND "
      "a.x <= 4 AND a.x > 5 AND a.x >= 6]");
  auto sel = parser.ParseSelectionOnly();
  ASSERT_TRUE(sel.ok());
  ASSERT_EQ(sel->wff->children().size(), 6u);
  const CompareOp expected[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                                CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(sel->wff->children()[i]->term().op, expected[i]);
  }
}

TEST(ParserTest, LiteralKinds) {
  Parser parser(
      "[<a.x> OF EACH a IN r: a.s = 'str' AND a.b = TRUE AND a.e = label]");
  auto sel = parser.ParseSelectionOnly();
  ASSERT_TRUE(sel.ok());
  const auto& kids = sel->wff->children();
  EXPECT_TRUE(kids[0]->term().rhs.literal.is_string());
  EXPECT_TRUE(kids[1]->term().rhs.literal.is_bool());
  EXPECT_EQ(kids[2]->term().rhs.enum_label, "label");
}

TEST(ParserTest, Figure1ScriptParses) {
  Parser parser(R"(
    TYPE statustype = (student, technician, assistant, professor);
    VAR employees : RELATION <enr> OF RECORD
          enr : 1..99; ename : STRING(10); estatus : statustype END;
    VAR timetable : RELATION <tenr, tcnr, tday> OF RECORD
          tenr : 1..99; tcnr : 1..99; tday : (monday, tuesday);
          ttime : 8000900..18002000; troom : STRING(5) END;
    employees :+ [<20, 'Highman', technician>];
    employees :- [<20>];
    PRINT employees;
  )");
  auto script = parser.ParseScript();
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  ASSERT_EQ(script->statements.size(), 6u);
  EXPECT_TRUE(std::holds_alternative<TypeDeclStmt>(script->statements[0]));
  EXPECT_TRUE(std::holds_alternative<RelationDeclStmt>(script->statements[1]));
  const auto& rel = std::get<RelationDeclStmt>(script->statements[2]);
  EXPECT_EQ(rel.key_components,
            (std::vector<std::string>{"tenr", "tcnr", "tday"}));
  ASSERT_EQ(rel.components.size(), 5u);
  EXPECT_EQ(rel.components[2].second.kind, RawType::Kind::kInlineEnum);
  EXPECT_TRUE(std::holds_alternative<InsertStmt>(script->statements[3]));
  EXPECT_TRUE(std::holds_alternative<DeleteStmt>(script->statements[4]));
  EXPECT_TRUE(std::holds_alternative<PrintStmt>(script->statements[5]));
}

TEST(ParserTest, AssignmentAndExplain) {
  Parser parser(R"(
    enames := [<e.ename> OF EACH e IN employees: TRUE];
    EXPLAIN [<e.ename> OF EACH e IN employees: TRUE];
  )");
  auto script = parser.ParseScript();
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  EXPECT_TRUE(std::holds_alternative<AssignStmt>(script->statements[0]));
  EXPECT_TRUE(std::holds_alternative<ExplainStmt>(script->statements[1]));
}

TEST(ParserTest, ErrorsArePositioned) {
  Parser parser("[<e.ename> OF EACH e IN employees e.enr = 1]");
  auto sel = parser.ParseSelectionOnly();
  ASSERT_FALSE(sel.ok());
  EXPECT_EQ(sel.status().code(), StatusCode::kParseError);
  // Expected ':' before the wff.
  EXPECT_NE(sel.status().message().find("':'"), std::string::npos);
}

TEST(ParserTest, RejectsTrailingInput) {
  Parser parser("[<e.x> OF EACH e IN r: TRUE] garbage");
  EXPECT_FALSE(parser.ParseSelectionOnly().ok());
}

TEST(ParserTest, RejectsEmptySubrange) {
  Parser parser("VAR r : RELATION <a> OF RECORD a : 9..1 END;");
  EXPECT_FALSE(parser.ParseScript().ok());
}

// 100k nested parentheses or stacked NOTs used to overflow the stack; past
// Parser::kMaxFormulaDepth the parser now answers with a ParseError.
std::string Nested(const std::string& open, const std::string& close,
                   size_t depth) {
  std::string wff;
  for (size_t i = 0; i < depth; ++i) wff += open;
  wff += "(e.enr = 1)";
  for (size_t i = 0; i < depth; ++i) wff += close;
  return "[<e.ename> OF EACH e IN employees: " + wff + "]";
}

TEST(ParserTest, DeepNestingIsAParseErrorNotACrash) {
  const std::string inputs[] = {
      Nested("(", ")", 100000),
      Nested("NOT ", "", 100000),
      Nested("SOME x IN employees ", "", 100000),
  };
  for (const std::string& src : inputs) {
    Parser selection(src);
    auto sel = selection.ParseSelectionOnly();
    ASSERT_FALSE(sel.ok()) << src.substr(0, 60);
    EXPECT_EQ(sel.status().code(), StatusCode::kParseError);
    EXPECT_NE(sel.status().message().find("nested"), std::string::npos)
        << sel.status().ToString();
    // The statement path (shell input) goes through the same guard.
    const std::string statement = "deep := " + src + ";";
    Parser script(statement);
    auto parsed = script.ParseScript();
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
  }
}

TEST(ParserTest, NestingUpToTheLimitStillParses) {
  // The innermost "(e.enr = 1)" takes two levels: its parenthesis and the
  // atom.
  const size_t depth = Parser::kMaxFormulaDepth - 2;
  for (const std::string& src :
       {Nested("(", ")", depth), Nested("NOT ", "", depth)}) {
    Parser parser(src);
    auto sel = parser.ParseSelectionOnly();
    EXPECT_TRUE(sel.ok()) << sel.status().ToString();
  }
  const std::string too_deep = Nested("(", ")", Parser::kMaxFormulaDepth);
  Parser over(too_deep);
  EXPECT_FALSE(over.ParseSelectionOnly().ok());
}

TEST(ParserTest, PrintParseRoundTrip) {
  const char* sources[] = {
      "[<e.ename> OF EACH e IN employees: (e.estatus = professor)]",
      "[<e.ename, t.tcnr> OF EACH e IN employees, EACH t IN timetable: "
      "(e.enr = t.tenr) AND SOME c IN courses ((c.cnr = t.tcnr))]",
      "[<e.ename> OF EACH e IN employees: ALL p IN papers ((p.pyear <> 1977) "
      "OR (e.enr <> p.penr))]",
  };
  for (const char* src : sources) {
    Parser p1(src);
    auto sel1 = p1.ParseSelectionOnly();
    ASSERT_TRUE(sel1.ok()) << sel1.status().ToString();
    std::string printed = FormatSelection(*sel1);
    Parser p2(printed);
    auto sel2 = p2.ParseSelectionOnly();
    ASSERT_TRUE(sel2.ok()) << "re-parse of: " << printed;
    EXPECT_TRUE(sel1->wff->Equals(*sel2->wff)) << printed;
  }
}

}  // namespace
}  // namespace pascalr
