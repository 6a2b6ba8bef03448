/**
 * @file
 * Frontend tests: lexer tokens, parser productions and precedence,
 * semantic rules for type modifiers / index binding / calls / reductions.
 */
#include <gtest/gtest.h>

#include "pmlang/builtins.h"
#include "pmlang/lexer.h"
#include "pmlang/parser.h"
#include "pmlang/sema.h"
#include "srdfg/builder.h"

namespace polymath::lang {
namespace {

std::vector<Tok>
kindsOf(const std::string &src)
{
    Lexer lexer(src);
    std::vector<Tok> kinds;
    for (const auto &tok : lexer.lexAll())
        kinds.push_back(tok.kind);
    return kinds;
}

TEST(Lexer, BasicTokens)
{
    EXPECT_EQ(kindsOf("a = b + 2;"),
              (std::vector<Tok>{Tok::Ident, Tok::Assign, Tok::Ident,
                                Tok::Plus, Tok::IntLit, Tok::Semicolon,
                                Tok::Eof}));
}

TEST(Lexer, KeywordsAndDomains)
{
    EXPECT_EQ(kindsOf("input state RBT DL index reduction"),
              (std::vector<Tok>{Tok::KwInput, Tok::KwState, Tok::KwRBT,
                                Tok::KwDL, Tok::KwIndex, Tok::KwReduction,
                                Tok::Eof}));
}

TEST(Lexer, TwoCharOperators)
{
    EXPECT_EQ(kindsOf("<= >= == != && ||"),
              (std::vector<Tok>{Tok::Le, Tok::Ge, Tok::EqEq, Tok::NotEq,
                                Tok::AndAnd, Tok::OrOr, Tok::Eof}));
}

TEST(Lexer, NumbersIntVsFloat)
{
    Lexer lexer("3 3.5 1e3 2.5e-2 7e");
    const auto toks = lexer.lexAll();
    EXPECT_EQ(toks[0].kind, Tok::IntLit);
    EXPECT_EQ(toks[1].kind, Tok::FloatLit);
    EXPECT_EQ(toks[2].kind, Tok::FloatLit);
    EXPECT_EQ(toks[3].kind, Tok::FloatLit);
    // "7e" is an int followed by an identifier, not a malformed float.
    EXPECT_EQ(toks[4].kind, Tok::IntLit);
    EXPECT_EQ(toks[5].kind, Tok::Ident);
}

TEST(Lexer, CommentsAreSkipped)
{
    EXPECT_EQ(kindsOf("a // line\n /* block\n more */ b"),
              (std::vector<Tok>{Tok::Ident, Tok::Ident, Tok::Eof}));
}

TEST(Lexer, TracksLineAndColumn)
{
    Lexer lexer("a\n  b");
    const auto toks = lexer.lexAll();
    EXPECT_EQ(toks[0].loc.line, 1);
    EXPECT_EQ(toks[1].loc.line, 2);
    EXPECT_EQ(toks[1].loc.column, 3);
}

TEST(Lexer, RejectsStrayCharacters)
{
    EXPECT_THROW(kindsOf("a $ b"), UserError);
    EXPECT_THROW(kindsOf("a & b"), UserError);
    EXPECT_THROW(kindsOf("/* unterminated"), UserError);
    EXPECT_THROW(kindsOf("\"unterminated"), UserError);
}

ExprPtr
parseExprText(const std::string &text)
{
    Lexer lexer(text);
    Parser parser(lexer.lexAll());
    return parser.parseStandaloneExpr();
}

/** One row of the precedence table: source text and its bracketed form. */
struct PrecedenceCase
{
    const char *src;
    const char *bracketed;
};

TEST(Parser, PrecedenceTable)
{
    // Levels, loosest first: ?:, ||, &&, comparisons, + -, * / %, ^, then
    // the prefix operators - and !. Every adjacent pair appears in both
    // orders, plus each level's associativity.
    const PrecedenceCase cases[] = {
        // ?: against ||; ?: is right-associative in both branches
        {"a || b ? c : d", "((a || b) ? c : d)"},
        {"a && b || c ? x : y", "(((a && b) || c) ? x : y)"},
        {"a ? b || c : d || e", "(a ? (b || c) : (d || e))"},
        {"a ? b : c ? d : e", "(a ? b : (c ? d : e))"},
        {"a ? b ? c : d : e", "(a ? (b ? c : d) : e)"},
        // || against &&; both left-associative
        {"a || b && c", "(a || (b && c))"},
        {"a && b || c", "((a && b) || c)"},
        {"a || b || c", "((a || b) || c)"},
        {"a && b && c", "((a && b) && c)"},
        // && against comparisons
        {"a && b < c", "(a && (b < c))"},
        {"a == b && c != d", "((a == b) && (c != d))"},
        // comparisons against + -
        {"a + b < c", "((a + b) < c)"},
        {"a + 1 < b*2", "((a + 1) < (b * 2))"},
        {"a <= b - c", "(a <= (b - c))"},
        {"a - b > c + d", "((a - b) > (c + d))"},
        {"a >= b", "(a >= b)"},
        // + - against * / %; all left-associative
        {"a + b*c", "(a + (b * c))"},
        {"a * b - c", "((a * b) - c)"},
        {"a - b / c % d", "(a - ((b / c) % d))"},
        {"a - b - c", "((a - b) - c)"},
        {"a - b + c", "((a - b) + c)"},
        {"a / b % c", "((a / b) % c)"},
        {"a % b * c", "((a % b) * c)"},
        // * / % against ^; ^ is right-associative
        {"a * b ^ c", "(a * (b ^ c))"},
        {"a ^ b / c", "((a ^ b) / c)"},
        {"a ^ b ^ c", "(a ^ (b ^ c))"},
        // prefix operators bind tighter than ^
        {"-a * b", "(-a * b)"},
        {"-a ^ b", "(-a ^ b)"},
        {"a ^ -b", "(a ^ -b)"},
        {"a ^ -b ^ c", "(a ^ (-b ^ c))"},
        {"!a && b", "(!a && b)"},
        {"--a", "--a"},
        {"-!a * b", "(-!a * b)"},
        {"-(a + b)", "-(a + b)"},
        // parentheses and brackets reset the level
        {"(a + b)*c", "((a + b) * c)"},
        {"(a ? b : c) + d", "((a ? b : c) + d)"},
        {"A[i < j ? i : j] * 2", "(A[((i < j) ? i : j)] * 2)"},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.src);
        EXPECT_EQ(exprToString(*parseExprText(c.src)), c.bracketed);
    }

    // Comparisons do not chain: the expression ends before the second
    // comparison and the statement reports the stray operator.
    struct Chain
    {
        const char *expr;
        const char *found;
        int column;
    };
    const Chain chains[] = {{"a < b < c", "'<'", 13},
                            {"a == b != c", "'!='", 14}};
    for (const auto &c : chains) {
        SCOPED_TRACE(c.expr);
        const std::string src =
            "main(input float a, input float b, input float c, "
            "output float y) {\n  y = " +
            std::string(c.expr) + ";\n}\n";
        try {
            parse(src);
            FAIL() << "expected a syntax error";
        } catch (const UserError &e) {
            EXPECT_EQ(e.message(),
                      std::string("expected ';' after assignment, found ") +
                          c.found);
            EXPECT_EQ(e.loc().str(), "2:" + std::to_string(c.column));
        }
    }

    // A binary or unary node sits at its operator token; a ternary at
    // its condition node (so at the condition's operator when it has one).
    const auto bin = parseExprText("a  +  b");
    EXPECT_EQ(bin->loc.column, 4);
    const auto un = parseExprText("b * !a");
    ASSERT_EQ(un->rhs->kind, ExprKind::Unary);
    EXPECT_EQ(un->rhs->loc.column, 5);
    const auto tern = parseExprText("x ? y : z");
    ASSERT_EQ(tern->kind, ExprKind::Ternary);
    EXPECT_EQ(tern->loc.column, 1);
    const auto cond = parseExprText("(p) < q ? y : z");
    ASSERT_EQ(cond->kind, ExprKind::Ternary);
    EXPECT_EQ(cond->loc.column, 5);
}

TEST(Parser, SubscriptedReference)
{
    const auto e = parseExprText("A[i][j+1]");
    EXPECT_EQ(e->kind, ExprKind::Ref);
    ASSERT_EQ(e->args.size(), 2u);
    EXPECT_EQ(exprToString(*e), "A[i][(j + 1)]");
}

TEST(Parser, ReduceWithGuard)
{
    const auto e = parseExprText("sum[i][j: j != i](A[i][j])");
    ASSERT_EQ(e->kind, ExprKind::Reduce);
    EXPECT_EQ(e->name, "sum");
    ASSERT_EQ(e->axes.size(), 2u);
    EXPECT_EQ(e->axes[0].index, "i");
    EXPECT_EQ(e->axes[1].index, "j");
    EXPECT_EQ(e->axes[0].cond, nullptr);
    ASSERT_NE(e->axes[1].cond, nullptr);
}

TEST(Parser, BuiltinCall)
{
    const auto e = parseExprText("sigmoid(x + 1)");
    EXPECT_EQ(e->kind, ExprKind::Call);
    EXPECT_EQ(e->name, "sigmoid");
}

TEST(Parser, ReduceAxisMustBeBareIdent)
{
    EXPECT_THROW(parseExprText("sum[i+1](x)"), UserError);
}

TEST(Parser, ConditionalSubscriptOnlyOnAxes)
{
    EXPECT_THROW(parseExprText("A[i: i > 0]"), UserError);
}

TEST(Parser, ComponentAndProgram)
{
    const auto prog = parse(R"(
f(input float x[n], output float y[n]) {
    index i[0:n-1];
    y[i] = x[i]*2;
}
main(input float a[4], output float b[4]) {
    DSP: f(a, b);
}
)");
    ASSERT_EQ(prog.components.size(), 2u);
    EXPECT_EQ(prog.components[0].name, "f");
    ASSERT_EQ(prog.components[0].args.size(), 2u);
    EXPECT_EQ(prog.components[0].args[0].mod, Modifier::Input);
    const auto &call = *prog.components[1].body[0];
    EXPECT_EQ(call.kind, StmtKind::Call);
    EXPECT_EQ(call.domain, Domain::DSP);
    EXPECT_EQ(call.callee, "f");
}

TEST(Parser, ReductionDeclaration)
{
    const auto prog = parse("reduction mymin(a, b) = a < b ? a : b;\n"
                            "main(input float x[2], output float y) {"
                            " index i[0:1]; y = mymin[i](x[i]); }");
    ASSERT_EQ(prog.reductions.size(), 1u);
    EXPECT_EQ(prog.reductions[0].name, "mymin");
    EXPECT_EQ(prog.reductions[0].paramA, "a");
}

TEST(Parser, DomainAnnotationRequiresCall)
{
    EXPECT_THROW(parse("main(output float y) { DSP: y = 1; }"), UserError);
}

TEST(Parser, ErrorsCarryLocation)
{
    try {
        parse("main(input float x[2] { }");
        FAIL();
    } catch (const UserError &e) {
        EXPECT_TRUE(e.loc().valid());
    }
}

TEST(Parser, OverflowingLiteralIsAPositionedUserError)
{
    // 1e999 exceeds the double range; it must surface as a diagnostic
    // with a line:column, not escape as a raw std::out_of_range.
    const std::string src =
        "main(input float x, output float y) {\n"
        "  y = x * 1e999;\n"
        "}\n";
    try {
        parse(src);
        FAIL() << "expected a UserError for 1e999";
    } catch (const UserError &e) {
        EXPECT_NE(std::string(e.what()).find("out of range"),
                  std::string::npos)
            << e.what();
        EXPECT_TRUE(e.loc().valid());
        EXPECT_EQ(e.loc().line, 2);
    }
}

TEST(Parser, OverflowingLiteralRecoversIntoDiagnostics)
{
    // With a diagnostic engine attached, the overflow is collected like
    // any other syntax error and the rest of the program still parses.
    const std::string src =
        "main(input float x, output float y) {\n"
        "  float a;\n"
        "  a = 1e999;\n"
        "  y = x;\n"
        "}\n";
    DiagnosticEngine diag;
    const auto prog = parseWithRecovery(src, diag);
    EXPECT_EQ(diag.errorCount(), 1u) << diag.str();
    ASSERT_FALSE(diag.diagnostics().empty());
    EXPECT_TRUE(diag.diagnostics().front().loc.valid());
    EXPECT_EQ(diag.diagnostics().front().loc.line, 3);
    ASSERT_EQ(prog.components.size(), 1u);
}

TEST(Parser, ExtremeButFiniteLiteralsParseExactly)
{
    const auto e = parseExprText("1e308");
    ASSERT_EQ(e->kind, ExprKind::Number);
    EXPECT_EQ(e->value, 1e308);
    EXPECT_EQ(parseExprText("5e-324")->value, 5e-324);
    EXPECT_EQ(parseExprText("0.1")->value, 0.1);
}

// --- expression depth -----------------------------------------------------

/** The four ways to nest an expression deeply. */
enum class Shape { Parens, FlatChain, PrefixChain, PowerChain };

/** An expression of @p shape that is @p depth levels deep. */
std::string
deepExpr(Shape shape, int depth)
{
    const size_t n = static_cast<size_t>(depth - 1);
    switch (shape) {
      case Shape::Parens:
        return std::string(n, '(') + "x" + std::string(n, ')');
      case Shape::FlatChain: {
        std::string out = "x";
        for (size_t i = 0; i < n; ++i)
            out += "+x";
        return out;
      }
      case Shape::PrefixChain: return std::string(n, '-') + "x";
      case Shape::PowerChain: {
        std::string out = "x";
        for (size_t i = 0; i < n; ++i)
            out += "^x";
        return out;
      }
    }
    return "";
}

/** A program assigning @p expr on line 2, then one more statement. */
std::string
assignProgram(const std::string &expr)
{
    return "main(input float x, output float y, output float z) {\n"
           "  y = " +
           expr + ";\n  z = x;\n}\n";
}

constexpr Shape kShapes[] = {Shape::Parens, Shape::FlatChain,
                             Shape::PrefixChain, Shape::PowerChain};

TEST(Parser, DeepExpressionsAreAPositionedError)
{
    const std::string message =
        "expression nested deeper than " + std::to_string(kMaxExprDepth);
    for (const Shape shape : kShapes) {
        SCOPED_TRACE(static_cast<int>(shape));
        const std::string src = assignProgram(deepExpr(shape, 200000));
        try {
            parse(src);
            FAIL() << "expected a depth error";
        } catch (const UserError &e) {
            EXPECT_EQ(e.message(), message);
            EXPECT_EQ(e.loc().line, 2);
        }

        DiagnosticEngine diag;
        const auto prog = parseWithRecovery(src, diag);
        ASSERT_EQ(diag.errorCount(), 1u) << diag.str();
        EXPECT_EQ(diag.diagnostics().front().message, message);
        ASSERT_EQ(prog.components.size(), 1u);
        ASSERT_EQ(prog.components[0].body.size(), 1u);
        EXPECT_EQ(prog.components[0].body[0]->target, "z");
    }

    // The left spine counts: the error sits at the first '+' that would
    // push the leading x below the limit.
    try {
        parse(assignProgram(deepExpr(Shape::FlatChain, kMaxExprDepth + 1)));
        FAIL() << "expected a depth error";
    } catch (const UserError &e) {
        EXPECT_EQ(e.loc().column, 6 + 2 * kMaxExprDepth);
    }
}

TEST(Parser, ExpressionAtTheDepthLimitCompiles)
{
    for (const Shape shape : kShapes) {
        SCOPED_TRACE(static_cast<int>(shape));
        EXPECT_THROW(
            parse(assignProgram(deepExpr(shape, kMaxExprDepth + 1))),
            UserError);
        const std::string src =
            assignProgram(deepExpr(shape, kMaxExprDepth));
        const Program prog = parse(src);
        EXPECT_NO_THROW(analyze(prog));
        EXPECT_NE(ir::compileToSrdfg(src), nullptr);
    }

    // Nesting inside subscripts, calls and reductions counts too.
    const std::string inner = deepExpr(Shape::FlatChain, kMaxExprDepth - 1);
    EXPECT_NO_THROW(parseExprText("A[" + inner + "]"));
    EXPECT_NO_THROW(parseExprText("sigmoid(" + inner + ")"));
    EXPECT_THROW(parseExprText("A[(" + inner + ")]"), UserError);
    EXPECT_THROW(parseExprText("sum[i](" + inner + " + 1)"), UserError);
}

// --- semantic analysis ----------------------------------------------------

void
expectSemaError(const std::string &src, const std::string &needle)
{
    try {
        analyze(parse(src));
        FAIL() << "expected sema error containing '" << needle << "'";
    } catch (const UserError &e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << e.what();
    }
}

TEST(Sema, AcceptsFig4StyleProgram)
{
    EXPECT_NO_THROW(analyze(parse(R"(
mvmul(input float A[m][n], input float B[n], output float C[m]) {
    index i[0:n-1], j[0:m-1];
    C[j] = sum[i](A[j][i]*B[i]);
}
main(input float A[2][3], input float x[3], output float y[2]) {
    DA: mvmul(A, x, y);
}
)")));
}

TEST(Sema, InputIsReadOnly)
{
    expectSemaError("main(input float x[2], output float y[2]) {"
                    " index i[0:1]; x[i] = 1; y[i] = 2; }",
                    "not writable");
}

TEST(Sema, ParamIsReadOnly)
{
    expectSemaError("main(param float p, output float y) { p = 1; y = 2; }",
                    "not writable");
}

TEST(Sema, OutputUnreadableBeforeAssignment)
{
    expectSemaError("main(output float y[2], output float z[2]) {"
                    " index i[0:1]; z[i] = y[i]; y[i] = 1; }",
                    "not readable");
}

TEST(Sema, OutputReadableAfterAssignment)
{
    EXPECT_NO_THROW(analyze(parse(
        "main(output float y[2]) { index i[0:1];"
        " y[i] = 1; y[i] = y[i] + 1; }")));
}

TEST(Sema, OutputMustBeAssigned)
{
    expectSemaError("main(input float x, output float y) { float t; t = x; }",
                    "never assigned");
}

TEST(Sema, UnboundIndexVariableRejected)
{
    expectSemaError("main(input float x[4], output float y) {"
                    " index i[0:3]; y = x[i]; }",
                    "not bound");
}

TEST(Sema, RankMismatchRejected)
{
    expectSemaError("main(input float x[2][2], output float y[2]) {"
                    " index i[0:1]; y[i] = x[i]; }",
                    "rank");
}

TEST(Sema, LocalReadBeforeWriteRejected)
{
    expectSemaError("main(output float y) { float t; y = t; }",
                    "not readable");
}

TEST(Sema, CallArityChecked)
{
    expectSemaError(
        "f(input float x, output float y) { y = x; }"
        "main(input float a, output float b) { f(a); b = a; }",
        "argument");
}

TEST(Sema, ExpressionArgOnlyForParams)
{
    expectSemaError(
        "f(input float x, output float y) { y = x; }"
        "main(output float b) { f(1 + 2, b); }",
        "param");
}

TEST(Sema, OutputActualMustBeWritable)
{
    expectSemaError(
        "f(input float x, output float y) { y = x; }"
        "main(input float a, input float c, output float b) {"
        " f(a, c); b = a; }",
        "must be writable");
}

TEST(Sema, RecursionRejected)
{
    expectSemaError(
        "f(input float x, output float y) { float t; g(x, t); y = t; }"
        "g(input float x, output float y) { float t; f(x, t); y = t; }"
        "main(input float a, output float b) { f(a, b); }",
        "recursive");
}

TEST(Sema, UnknownReductionRejected)
{
    expectSemaError("main(input float x[3], output float y) {"
                    " index i[0:2]; y = median[i](x[i]); }",
                    "unknown reduction");
}

TEST(Sema, CustomReductionBodyRestricted)
{
    expectSemaError("reduction bad(a, b) = a + c;"
                    "main(input float x[2], output float y) {"
                    " index i[0:1]; y = bad[i](x[i]); }",
                    "reduction body");
}

TEST(Sema, BuiltinArityChecked)
{
    expectSemaError("main(input float x, output float y) {"
                    " y = sigmoid(x, x); }",
                    "takes 1");
}

TEST(Sema, MissingEntryRejected)
{
    expectSemaError("f(input float x, output float y) { y = x; }",
                    "entry");
}

TEST(Sema, DuplicateComponentRejected)
{
    expectSemaError("main(output float y) { y = 1; }"
                    "main(output float z) { z = 2; }",
                    "duplicate");
}

TEST(Sema, IndexArithmeticRestrictedToIntParams)
{
    expectSemaError("main(input float v, input float x[4],"
                    " output float y[4]) {"
                    " index i[0:3]; y[i] = x[i*v]; }",
                    "index arithmetic");
}

TEST(Builtins, RegistryBasics)
{
    EXPECT_TRUE(isBuiltinFunction("sigmoid"));
    EXPECT_TRUE(isBuiltinFunction("pow"));
    EXPECT_FALSE(isBuiltinFunction("sum"));
    EXPECT_TRUE(isBuiltinReduction("sum"));
    EXPECT_EQ(builtinArity("pow"), 2);
    EXPECT_EQ(builtinArity("erf"), 1);
}

TEST(Builtins, EvaluationMatchesLibm)
{
    EXPECT_DOUBLE_EQ(evalBuiltin1("sigmoid", 0.0), 0.5);
    EXPECT_DOUBLE_EQ(evalBuiltin1("relu", -3.0), 0.0);
    EXPECT_DOUBLE_EQ(evalBuiltin1("gauss", 0.0), 1.0);
    EXPECT_DOUBLE_EQ(evalBuiltin2("max", 2.0, 5.0), 5.0);
    EXPECT_DOUBLE_EQ(reductionIdentity("prod"), 1.0);
    EXPECT_DOUBLE_EQ(applyBuiltinReduction("min", 4.0, 2.0), 2.0);
}

} // namespace
} // namespace polymath::lang
