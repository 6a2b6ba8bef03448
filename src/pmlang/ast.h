/**
 * @file
 * Abstract syntax tree for PMLang (Section II of the paper).
 *
 * A program is a set of component declarations plus custom reduction
 * definitions. Components carry modifier-typed arguments
 * (input/output/state/param); bodies are index declarations, local variable
 * declarations, assignments over index domains, and component instantiations
 * optionally annotated with a target domain.
 */
#ifndef POLYMATH_PMLANG_AST_H_
#define POLYMATH_PMLANG_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "core/dtype.h"
#include "core/error.h"
#include "pmlang/token.h"

namespace polymath::lang {

/** Argument type modifiers (Table I). */
enum class Modifier : uint8_t { Input, Output, State, Param };

/** Target-domain annotations for component instantiations (Section II-D). */
enum class Domain : uint8_t { None, RBT, GA, DSP, DA, DL };

/** Returns the PMLang keyword for @p m. */
std::string toString(Modifier m);

/** Returns the annotation keyword for @p d ("RBT", ...; "" for None). */
std::string toString(Domain d);

/** Binary operators (Section II-B). */
enum class BinaryOp : uint8_t {
    Add, Sub, Mul, Div, Mod, Pow,
    Lt, Le, Gt, Ge, Eq, Ne, And, Or,
};

/** Prefix operators: arithmetic negation (-x) and logical not (!x). */
enum class UnaryOp : uint8_t { Neg, Not };

/** How a chain of one precedence level groups: a-b-c is (a-b)-c (Left),
 *  a^b^c is a^(b^c) (Right), a<b<c is a syntax error (None). */
enum class Assoc : uint8_t { Left, Right, None };

/** One row of the PMLang binary-operator table. */
struct BinaryOpInfo
{
    Tok token;
    BinaryOp op;
    const char *spelling;
    int prec; ///< binding power: higher binds tighter
    Assoc assoc;
};

/** The table row whose token is @p kind; nullptr for non-operators. */
const BinaryOpInfo *binaryOpFor(Tok kind);

/** Returns the source spelling of @p op ("+", "<=", "&&", ...). */
std::string toString(BinaryOp op);

/** Returns the source spelling of @p op ("-" or "!"). */
std::string toString(UnaryOp op);

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/** Expression node kinds. */
enum class ExprKind : uint8_t {
    Number,  ///< numeric literal
    Ref,     ///< variable reference, optionally fully indexed
    Unary,   ///< -x, !x
    Binary,  ///< arithmetic / comparison / logical
    Ternary, ///< c ? a : b
    Call,    ///< built-in function application, e.g. sigmoid(x)
    Reduce,  ///< group reduction, e.g. sum[i][j: j != i](body)
};

/** One reduction axis: an index-variable name plus optional Boolean guard. */
struct ReduceAxis
{
    std::string index;
    ExprPtr cond; ///< may be null
    SourceLoc loc;
};

/**
 * A PMLang expression. Modeled as a single tagged node (rather than a class
 * hierarchy) so tree transforms stay local to one type; only the fields of
 * the active kind are populated.
 */
struct Expr
{
    ExprKind kind = ExprKind::Number;
    SourceLoc loc;

    // Number
    double value = 0.0;
    bool isIntLit = false;

    // Ref / Call / Reduce: name of variable, function, or reduction op
    std::string name;

    // Ref: index expressions; Call: arguments
    std::vector<ExprPtr> args;

    // Unary/Binary: operator (lhs is the operand of a unary node)
    UnaryOp unaryOp = UnaryOp::Neg;
    BinaryOp binaryOp = BinaryOp::Add;
    ExprPtr lhs;
    ExprPtr rhs;
    ExprPtr third; ///< Ternary else-branch (lhs=cond, rhs=then)

    // Reduce
    std::vector<ReduceAxis> axes;
    ExprPtr body;
};

/** Statement node kinds. */
enum class StmtKind : uint8_t { IndexDecl, VarDecl, Assign, Call };

/** One declared index range: name[lo:hi], bounds inclusive. */
struct IndexSpec
{
    std::string name;
    ExprPtr lo;
    ExprPtr hi;
    SourceLoc loc;
};

/** One declared local variable with optional dimensions. */
struct LocalDecl
{
    std::string name;
    std::vector<ExprPtr> dims;
    SourceLoc loc;
};

/** A statement inside a component body. */
struct Stmt
{
    StmtKind kind = StmtKind::Assign;
    SourceLoc loc;

    // IndexDecl
    std::vector<IndexSpec> indexSpecs;

    // VarDecl
    DType declType = DType::Float;
    std::vector<LocalDecl> locals;

    // Assign: target[indices...] = value
    std::string target;
    std::vector<ExprPtr> targetIndices;
    ExprPtr value;

    // Call: DOMAIN: callee(args...)
    Domain domain = Domain::None;
    std::string callee;
    std::vector<ExprPtr> callArgs;
};
using StmtPtr = std::unique_ptr<Stmt>;

/** One component argument declaration. */
struct ArgDecl
{
    Modifier mod = Modifier::Input;
    DType type = DType::Float;
    std::string name;
    std::vector<ExprPtr> dims; ///< literals or symbolic dim names
    SourceLoc loc;
};

/** A component: the reusable building block of PMLang programs. */
struct ComponentDecl
{
    std::string name;
    std::vector<ArgDecl> args;
    std::vector<StmtPtr> body;
    SourceLoc loc;
};

/** A custom group reduction: `reduction name(a,b) = expr;`. */
struct ReductionDecl
{
    std::string name;
    std::string paramA;
    std::string paramB;
    ExprPtr body;
    SourceLoc loc;
};

/** A whole PMLang translation unit. */
struct Program
{
    std::vector<ComponentDecl> components;
    std::vector<ReductionDecl> reductions;

    /** Finds a component by name; nullptr when absent. */
    const ComponentDecl *findComponent(const std::string &name) const;

    /** Finds a custom reduction by name; nullptr when absent. */
    const ReductionDecl *findReduction(const std::string &name) const;
};

/** Deep-copies an expression tree. */
ExprPtr cloneExpr(const Expr &e);

/** Renders an expression back to PMLang-like text (for diagnostics/tests). */
std::string exprToString(const Expr &e);

} // namespace polymath::lang

#endif // POLYMATH_PMLANG_AST_H_
