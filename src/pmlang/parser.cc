#include "pmlang/parser.h"

#include <algorithm>
#include <charconv>
#include <limits>
#include <utility>

#include "obs/trace.h"
#include "pmlang/lexer.h"

namespace polymath::lang {

namespace {

/** Maps a domain-annotation token to its Domain value. */
Domain
domainFor(Tok kind)
{
    switch (kind) {
      case Tok::KwRBT: return Domain::RBT;
      case Tok::KwGA: return Domain::GA;
      case Tok::KwDSP: return Domain::DSP;
      case Tok::KwDA: return Domain::DA;
      case Tok::KwDL: return Domain::DL;
      default: return Domain::None;
    }
}

/** Maps a type-keyword token to its DType; nullopt otherwise. */
std::optional<DType>
typeFor(Tok kind)
{
    switch (kind) {
      case Tok::KwBin: return DType::Bin;
      case Tok::KwInt: return DType::Int;
      case Tok::KwFloat: return DType::Float;
      case Tok::KwStr: return DType::Str;
      case Tok::KwComplex: return DType::Complex;
      default: return std::nullopt;
    }
}

/** Binding power of '?:', looser than every row of the operator table. */
constexpr int kTernaryPrec = 1;

[[noreturn]] void
tooDeep(SourceLoc loc)
{
    fatal("expression nested deeper than " + std::to_string(kMaxExprDepth),
          loc);
}

} // namespace

Program
parse(const std::string &source)
{
    obs::Span span("pmlang:parse", "frontend");
    span.arg("bytes", static_cast<int64_t>(source.size()));
    Lexer lexer(source);
    Parser parser(lexer.lexAll());
    return parser.parseProgram();
}

Program
parseWithRecovery(const std::string &source, DiagnosticEngine &diag)
{
    std::vector<Token> tokens;
    try {
        Lexer lexer(source);
        tokens = lexer.lexAll();
    } catch (const UserError &e) {
        diag.error(e.message(), e.loc());
        return {};
    }
    Parser parser(std::move(tokens), &diag);
    return parser.parseProgram();
}

Parser::Parser(std::vector<Token> tokens, DiagnosticEngine *diag)
    : toks_(std::move(tokens)), diag_(diag)
{
    if (toks_.empty() || !toks_.back().is(Tok::Eof))
        panic("token stream must end with Eof");
}

const Token &
Parser::peek(int ahead) const
{
    const size_t p = pos_ + static_cast<size_t>(ahead);
    return p < toks_.size() ? toks_[p] : toks_.back();
}

const Token &
Parser::advance()
{
    const Token &t = peek();
    if (!t.is(Tok::Eof))
        ++pos_;
    return t;
}

bool
Parser::match(Tok kind)
{
    if (check(kind)) {
        advance();
        return true;
    }
    return false;
}

const Token &
Parser::expect(Tok kind, const std::string &context)
{
    if (!check(kind)) {
        fatal("expected " + tokName(kind) + " " + context + ", found " +
                  tokName(peek().kind),
              peek().loc);
    }
    return advance();
}

void
Parser::errorHere(const std::string &message) const
{
    fatal(message + " (found " + tokName(peek().kind) + ")", peek().loc);
}

void
Parser::synchronizeStmt()
{
    while (!check(Tok::Eof)) {
        if (match(Tok::Semicolon))
            return;
        const Tok k = peek().kind;
        if (k == Tok::RBrace || k == Tok::KwIndex || k == Tok::KwReduction ||
            typeFor(k) || domainFor(k) != Domain::None) {
            return;
        }
        advance();
    }
}

void
Parser::synchronizeTopLevel()
{
    while (!check(Tok::Eof)) {
        if (check(Tok::KwReduction))
            return;
        if (check(Tok::Ident) && peek(1).is(Tok::LParen))
            return;
        advance();
    }
}

Program
Parser::parseProgram()
{
    Program prog;
    while (!check(Tok::Eof)) {
        const size_t before = pos_;
        try {
            if (check(Tok::KwReduction)) {
                prog.reductions.push_back(parseReduction());
            } else if (check(Tok::Ident)) {
                prog.components.push_back(parseComponent());
            } else {
                errorHere("expected component or reduction declaration");
            }
        } catch (const UserError &e) {
            if (!diag_)
                throw;
            diag_->error(e.message(), e.loc());
            if (pos_ == before)
                advance();
            synchronizeTopLevel();
        }
    }
    return prog;
}

ReductionDecl
Parser::parseReduction()
{
    ReductionDecl red;
    red.loc = peek().loc;
    expect(Tok::KwReduction, "at reduction declaration");
    red.name = expect(Tok::Ident, "after 'reduction'").text;
    expect(Tok::LParen, "in reduction declaration");
    red.paramA = expect(Tok::Ident, "as first reduction parameter").text;
    expect(Tok::Comma, "between reduction parameters");
    red.paramB = expect(Tok::Ident, "as second reduction parameter").text;
    expect(Tok::RParen, "after reduction parameters");
    expect(Tok::Assign, "in reduction declaration");
    red.body = parseExpr();
    expect(Tok::Semicolon, "after reduction body");
    return red;
}

ComponentDecl
Parser::parseComponent()
{
    ComponentDecl comp;
    comp.loc = peek().loc;
    comp.name = expect(Tok::Ident, "at component declaration").text;
    expect(Tok::LParen, "after component name");
    if (!check(Tok::RParen)) {
        comp.args.push_back(parseArgDecl());
        while (match(Tok::Comma))
            comp.args.push_back(parseArgDecl());
    }
    expect(Tok::RParen, "after component arguments");
    expect(Tok::LBrace, "at component body");
    while (!check(Tok::RBrace) && !check(Tok::Eof)) {
        if (!diag_) {
            comp.body.push_back(parseStmt());
            continue;
        }
        const size_t before = pos_;
        try {
            comp.body.push_back(parseStmt());
        } catch (const UserError &e) {
            diag_->error(e.message(), e.loc());
            if (pos_ == before)
                advance();
            synchronizeStmt();
        }
    }
    expect(Tok::RBrace, "at end of component body");
    return comp;
}

ArgDecl
Parser::parseArgDecl()
{
    ArgDecl arg;
    arg.loc = peek().loc;
    switch (peek().kind) {
      case Tok::KwInput: arg.mod = Modifier::Input; break;
      case Tok::KwOutput: arg.mod = Modifier::Output; break;
      case Tok::KwState: arg.mod = Modifier::State; break;
      case Tok::KwParam: arg.mod = Modifier::Param; break;
      default:
        errorHere("expected argument modifier "
                  "(input/output/state/param)");
    }
    advance();
    const auto type = typeFor(peek().kind);
    if (!type)
        errorHere("expected argument type");
    arg.type = *type;
    advance();
    arg.name = expect(Tok::Ident, "as argument name").text;
    arg.dims = parseDims();
    return arg;
}

std::vector<ExprPtr>
Parser::parseDims()
{
    std::vector<ExprPtr> dims;
    while (match(Tok::LBracket)) {
        dims.push_back(parseExpr());
        expect(Tok::RBracket, "after dimension");
    }
    return dims;
}

StmtPtr
Parser::parseStmt()
{
    if (check(Tok::KwIndex))
        return parseIndexDecl();
    if (const auto type = typeFor(peek().kind)) {
        advance();
        return parseVarDecl(*type);
    }
    const Domain dom = domainFor(peek().kind);
    if (dom != Domain::None) {
        advance();
        expect(Tok::Colon, "after domain annotation");
        auto stmt = parseAssignOrCall(dom);
        if (stmt->kind != StmtKind::Call)
            fatal("domain annotations apply only to component "
                  "instantiations",
                  stmt->loc);
        return stmt;
    }
    if (check(Tok::Ident))
        return parseAssignOrCall(Domain::None);
    errorHere("expected statement");
}

StmtPtr
Parser::parseIndexDecl()
{
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::IndexDecl;
    stmt->loc = peek().loc;
    expect(Tok::KwIndex, "at index declaration");
    do {
        IndexSpec spec;
        spec.loc = peek().loc;
        spec.name = expect(Tok::Ident, "as index name").text;
        expect(Tok::LBracket, "after index name");
        spec.lo = parseExpr();
        expect(Tok::Colon, "between index bounds");
        spec.hi = parseExpr();
        expect(Tok::RBracket, "after index bounds");
        stmt->indexSpecs.push_back(std::move(spec));
    } while (match(Tok::Comma));
    expect(Tok::Semicolon, "after index declaration");
    return stmt;
}

StmtPtr
Parser::parseVarDecl(DType type)
{
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::VarDecl;
    stmt->loc = peek().loc;
    stmt->declType = type;
    do {
        LocalDecl decl;
        decl.loc = peek().loc;
        decl.name = expect(Tok::Ident, "as variable name").text;
        decl.dims = parseDims();
        stmt->locals.push_back(std::move(decl));
    } while (match(Tok::Comma));
    expect(Tok::Semicolon, "after variable declaration");
    return stmt;
}

StmtPtr
Parser::parseAssignOrCall(Domain domain)
{
    auto stmt = std::make_unique<Stmt>();
    stmt->loc = peek().loc;
    const std::string name = expect(Tok::Ident, "at statement").text;
    if (check(Tok::LParen)) {
        stmt->kind = StmtKind::Call;
        stmt->domain = domain;
        stmt->callee = name;
        advance();
        if (!check(Tok::RParen)) {
            stmt->callArgs.push_back(parseExpr());
            while (match(Tok::Comma))
                stmt->callArgs.push_back(parseExpr());
        }
        expect(Tok::RParen, "after instantiation arguments");
        expect(Tok::Semicolon, "after component instantiation");
        return stmt;
    }
    stmt->kind = StmtKind::Assign;
    stmt->target = name;
    while (match(Tok::LBracket)) {
        stmt->targetIndices.push_back(parseExpr());
        expect(Tok::RBracket, "after subscript");
    }
    expect(Tok::Assign, "in assignment");
    stmt->value = parseExpr();
    expect(Tok::Semicolon, "after assignment");
    return stmt;
}

ExprPtr
Parser::parseStandaloneExpr()
{
    auto e = parseExpr();
    expect(Tok::Eof, "after expression");
    return e;
}

ExprPtr
Parser::parseExpr()
{
    return parseOperators(0).expr;
}

Parser::Subtree
Parser::parseOperators(int nesting, int minPrec)
{
    Subtree lhs = parseOperand(nesting);
    // After a node of precedence p only looser operators may follow, and
    // p itself only when it is left-associative: comparisons do not chain.
    int maxPrec = std::numeric_limits<int>::max();
    for (;;) {
        const bool ternary = check(Tok::Question);
        const BinaryOpInfo *row = binaryOpFor(peek().kind);
        if (!ternary && !row)
            break;
        const int prec = ternary ? kTernaryPrec : row->prec;
        const Assoc assoc = ternary ? Assoc::Right : row->assoc;
        if (prec < minPrec || prec > maxPrec)
            break;
        // The new node pushes every level of lhs one further down.
        if (nesting + 1 + lhs.depth > kMaxExprDepth)
            tooDeep(peek().loc);
        auto e = std::make_unique<Expr>();
        e->loc = ternary ? lhs.expr->loc : peek().loc;
        advance();
        e->lhs = std::move(lhs.expr);
        int deepest = lhs.depth;
        if (ternary) {
            e->kind = ExprKind::Ternary;
            Subtree then = parseOperators(nesting + 1);
            expect(Tok::Colon, "in conditional expression");
            Subtree other = parseOperators(nesting + 1);
            e->rhs = std::move(then.expr);
            e->third = std::move(other.expr);
            deepest = std::max({deepest, then.depth, other.depth});
        } else {
            e->kind = ExprKind::Binary;
            e->binaryOp = row->op;
            Subtree rhs = parseOperators(
                nesting + 1, assoc == Assoc::Right ? prec : prec + 1);
            e->rhs = std::move(rhs.expr);
            deepest = std::max(deepest, rhs.depth);
        }
        lhs = {std::move(e), deepest + 1};
        maxPrec = assoc == Assoc::Left ? prec : prec - 1;
    }
    return lhs;
}

Parser::Subtree
Parser::parseOperand(int nesting)
{
    if (nesting >= kMaxExprDepth)
        tooDeep(peek().loc);
    if (!check(Tok::Minus) && !check(Tok::Not))
        return parsePrimary(nesting);
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::Unary;
    e->loc = peek().loc;
    e->unaryOp = check(Tok::Minus) ? UnaryOp::Neg : UnaryOp::Not;
    advance();
    Subtree operand = parseOperand(nesting + 1);
    e->lhs = std::move(operand.expr);
    return {std::move(e), operand.depth + 1};
}

Parser::Subtree
Parser::parsePrimary(int nesting)
{
    if (check(Tok::IntLit) || check(Tok::FloatLit)) {
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::Number;
        e->loc = peek().loc;
        e->isIntLit = peek().is(Tok::IntLit);
        // from_chars, not stod: stod honors the global locale and lets
        // out-of-range literals (1e999) escape as std::out_of_range
        // instead of a positioned diagnostic.
        const std::string &text = peek().text;
        const char *begin = text.data();
        const char *end = begin + text.size();
        const auto [ptr, ec] = std::from_chars(begin, end, e->value);
        if (ec == std::errc::result_out_of_range)
            errorHere("number literal out of range: " + text);
        if (ec != std::errc{} || ptr != end)
            errorHere("malformed number literal: " + text);
        advance();
        return {std::move(e), 1};
    }
    if (match(Tok::LParen)) {
        Subtree inner = parseOperators(nesting + 1);
        expect(Tok::RParen, "after parenthesized expression");
        return {std::move(inner.expr), inner.depth + 1};
    }
    if (check(Tok::Ident))
        return parseIdentExpr(nesting);
    errorHere("expected expression");
}

Parser::Subtree
Parser::parseIdentExpr(int nesting)
{
    auto e = std::make_unique<Expr>();
    e->loc = peek().loc;
    e->name = expect(Tok::Ident, "in expression").text;
    int deepest = 0;
    auto child = [&] {
        Subtree sub = parseOperators(nesting + 1);
        deepest = std::max(deepest, sub.depth);
        return std::move(sub.expr);
    };

    // Bracket groups: either subscripts (A[i][j]) or reduce axes
    // (sum[i][j: j != i]). Disambiguated by a trailing '(' — subscripted
    // references are never applied.
    struct Group
    {
        ExprPtr expr;
        ExprPtr cond;
        SourceLoc loc;
    };
    std::vector<Group> groups;
    while (match(Tok::LBracket)) {
        Group g;
        g.loc = peek().loc;
        g.expr = child();
        if (match(Tok::Colon))
            g.cond = child();
        expect(Tok::RBracket, "after subscript");
        groups.push_back(std::move(g));
    }

    if (check(Tok::LParen)) {
        advance();
        if (groups.empty()) {
            // Built-in function application: sigmoid(x), pow(a, b), ...
            e->kind = ExprKind::Call;
            if (!check(Tok::RParen)) {
                e->args.push_back(child());
                while (match(Tok::Comma))
                    e->args.push_back(child());
            }
            expect(Tok::RParen, "after function arguments");
            return {std::move(e), deepest + 1};
        }
        // Group reduction: every bracket group must be a bare index name.
        e->kind = ExprKind::Reduce;
        for (auto &g : groups) {
            if (g.expr->kind != ExprKind::Ref || !g.expr->args.empty()) {
                fatal("reduction axis must be a bare index variable",
                      g.loc);
            }
            ReduceAxis axis;
            axis.index = g.expr->name;
            axis.cond = std::move(g.cond);
            axis.loc = g.loc;
            e->axes.push_back(std::move(axis));
        }
        e->body = child();
        expect(Tok::RParen, "after reduction body");
        return {std::move(e), deepest + 1};
    }

    // Plain (possibly subscripted) reference.
    e->kind = ExprKind::Ref;
    for (auto &g : groups) {
        if (g.cond) {
            fatal("conditional subscripts are only valid on reduction "
                  "axes",
                  g.loc);
        }
        e->args.push_back(std::move(g.expr));
    }
    return {std::move(e), deepest + 1};
}

} // namespace polymath::lang
