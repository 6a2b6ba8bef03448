/**
 * @file
 * Parser for PMLang: recursive descent for declarations and statements,
 * one precedence-climbing loop over the operator table in ast.h for
 * expressions. Expressions nest at most kMaxExprDepth levels deep.
 */
#ifndef POLYMATH_PMLANG_PARSER_H_
#define POLYMATH_PMLANG_PARSER_H_

#include <string>
#include <vector>

#include "core/diagnostics.h"
#include "pmlang/ast.h"
#include "pmlang/token.h"

namespace polymath::lang {

/** Deepest expression the parser accepts. Every operator node,
 *  parenthesis pair, subscript, call and reduction on the deepest path
 *  is one level; a lone name or literal is depth 1. Deeper input is a
 *  positioned UserError, so later tree walks cannot run out of stack. */
constexpr int kMaxExprDepth = 512;

/**
 * Parses PMLang source text into a Program.
 * @throws UserError (with source location) on the first syntax error.
 */
Program parse(const std::string &source);

/**
 * Parses PMLang source text, recovering from syntax errors at statement
 * and declaration boundaries so every error in the file lands in @p diag
 * in one pass. Returns the (possibly partial) program of the statements
 * that did parse; callers must check diag.hasErrors() before using it.
 * Lexical errors are unrecoverable and yield an empty program with one
 * diagnostic.
 */
Program parseWithRecovery(const std::string &source, DiagnosticEngine &diag);

/** Internal parser class; exposed for unit tests of sub-productions. */
class Parser
{
  public:
    /** With a DiagnosticEngine, syntax errors are collected and the parser
     *  resynchronizes; without one, the first error throws UserError. */
    explicit Parser(std::vector<Token> tokens,
                    DiagnosticEngine *diag = nullptr);

    /** Parses a whole translation unit. */
    Program parseProgram();

    /** Parses a single expression (must consume all input up to Eof). */
    ExprPtr parseStandaloneExpr();

  private:
    const Token &peek(int ahead = 0) const;
    const Token &advance();
    bool check(Tok kind) const { return peek().is(kind); }
    bool match(Tok kind);
    const Token &expect(Tok kind, const std::string &context);
    [[noreturn]] void errorHere(const std::string &message) const;

    /** Error recovery: skip tokens to a statement boundary (past a ';' or
     *  up to a token that can begin a statement / close the body). */
    void synchronizeStmt();

    /** Error recovery: skip tokens to the next plausible top-level
     *  declaration start. */
    void synchronizeTopLevel();

    ComponentDecl parseComponent();
    ReductionDecl parseReduction();
    ArgDecl parseArgDecl();
    StmtPtr parseStmt();
    StmtPtr parseIndexDecl();
    StmtPtr parseVarDecl(DType type);
    StmtPtr parseAssignOrCall(Domain domain);
    std::vector<ExprPtr> parseDims();

    /** A parsed expression and its depth (see kMaxExprDepth). */
    struct Subtree
    {
        ExprPtr expr;
        int depth = 1;
    };

    /** Parses a whole expression that is not nested in another one. */
    ExprPtr parseExpr();

    /** Parses operators binding at least as tight as @p minPrec (0 takes
     *  every operator, '?:' included) into a subtree @p nesting levels
     *  below the root of its expression. */
    Subtree parseOperators(int nesting, int minPrec = 0);

    /** Parses prefix operators and a primary. */
    Subtree parseOperand(int nesting);
    Subtree parsePrimary(int nesting);
    Subtree parseIdentExpr(int nesting);

    std::vector<Token> toks_;
    size_t pos_ = 0;
    DiagnosticEngine *diag_ = nullptr;
};

} // namespace polymath::lang

#endif // POLYMATH_PMLANG_PARSER_H_
